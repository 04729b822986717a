"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` keeps every span in a list: name, start, end, the span
that was open on the same thread when it began (its parent) and the request
id current at the time.  Spans are recorded by wrappers that
:meth:`Bindings.bind` installs on the program's public functions from outside; the
program itself is not edited.  While ``tracer.enabled`` is false a wrapper
calls straight through, so a run can alternate traced and untraced units of
work on one set of bindings.

Self time is a span's duration minus the part of its interval covered by
its children; busy time of a name counts only its outermost spans, so a
function that re-enters itself is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; thread-safe, disabled by default."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.enabled = False
        self.request_id: Optional[str] = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent, self.request_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start))
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, []), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def _outermost(spans: list[Span]) -> list[bool]:
    """Whether each span has no ancestor of the same name."""
    flags = []
    for span in spans:
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        flags.append(not nested)
    return flags


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per name: outermost ``calls``, ``busy_s`` and ``self_s`` (summed self time)."""
    selfs = self_times(spans)
    summary: dict[str, dict[str, float]] = {}
    for span, self_time, outermost in zip(spans, selfs, _outermost(spans)):
        entry = summary.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["self_s"] += self_time
        if outermost:
            entry["calls"] += 1
            entry["busy_s"] += span.duration
    return summary


# ---------------------------------------------------------------------------
# Binding wrappers to the program's functions
# ---------------------------------------------------------------------------

#: ``on_result(tracer, args, kwargs, result)`` records counters after a call.
ResultHook = Callable[[Tracer, tuple, dict, Any], None]


def _resolve(target: str) -> tuple[Any, str]:
    """``"pkg.module:Class.attr"`` → (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


def _wrap(tracer: Tracer, name: str, fn: Callable, on_result: Optional[ResultHook], generator: bool) -> Callable:
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.count(f"{name}.failures")
            raise
        finally:
            tracer.end(index)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        if generator:
            return _timed_iteration(tracer, f"{name}.next", result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _timed_iteration(tracer: Tracer, name: str, iterator) -> Iterator:
    """Re-yield ``iterator``, recording each wait for its next item as a span."""
    iterator = iter(iterator)
    try:
        while True:
            index = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


class Bindings:
    """Wrappers installed on program functions; :meth:`restore` removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def bind(
        self,
        target: str,
        name: str,
        on_result: Optional[ResultHook] = None,
        subclasses: bool = False,
        generator: bool = False,
    ) -> bool:
        """Wrap ``target`` so calls record spans named ``name``.

        ``target`` is ``"module:Qualified.attr"``.  A module-level function is
        also replaced wherever another loaded module imported it by name.  With
        ``subclasses`` every loaded subclass that overrides the method is
        wrapped too.  A target that no longer exists is recorded in
        :attr:`absent` and ``False`` is returned, never an error.
        """
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        if inspect.isclass(owner):
            classes = [owner]
            if subclasses:
                classes += _all_subclasses(owner)
            for cls in classes:
                if attr in cls.__dict__:
                    self._bind_class_attr(cls, attr, name, on_result, generator)
        else:
            original = getattr(owner, attr)
            wrapper = _wrap(self.tracer, name, original, on_result, generator)
            for module in list(sys.modules.values()):
                if module is not None and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(lambda module=module: setattr(module, attr, original))
        return True

    def _bind_class_attr(self, cls, attr: str, name: str, on_result, generator: bool) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(_wrap(self.tracer, name, raw.__func__, on_result, generator))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(_wrap(self.tracer, name, raw.__func__, on_result, generator))
        else:
            replacement = _wrap(self.tracer, name, raw, on_result, generator)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def restore(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


def _all_subclasses(cls) -> list[type]:
    found: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found
