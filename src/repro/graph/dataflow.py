"""Control-flow-aware use analysis for ``NEXT_MAY_USE`` edges.

The paper's graph connects "each token that is bound to a variable to all
potential next uses of the variable" (Table 1).  Computing the exact relation
requires a control-flow graph; this module implements a close approximation
working directly on the AST, which is how the original artefact (and the
re-implementations it inspired) build the edge:

* statements in a block flow sequentially;
* both branches of an ``if`` may follow the condition, and the successor of
  the ``if`` may follow either branch (or the condition when a branch is
  missing);
* loop bodies may repeat, so the last uses inside a loop body may flow back
  to the first uses of the body;
* ``try`` handlers may follow any point of the body (approximated as
  following the whole body);
* nested function and class definitions open new scopes and are not crossed.

Running a loop body twice makes a naive analysis cost ``2**depth`` on
nested loops, so each block's result is memoised on the block and the
last-uses it starts from; the relation it yields is unchanged.

The analysis yields pairs ``(use, next_use)`` over *occurrence ids* — opaque
identifiers supplied by the caller (the graph builder passes token-node
indices).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass
class UseEvent:
    """A single read or write of a name inside one statement."""

    name: str
    occurrence_id: int
    lineno: int
    col: int


#: Maps a name to the set of occurrence ids that may be the "last" use so far.
LastUses = dict[str, set[int]]


def _merge(*branches: LastUses) -> LastUses:
    merged: LastUses = {}
    for branch in branches:
        for name, uses in branch.items():
            merged.setdefault(name, set()).update(uses)
    return merged


def _copy(last: LastUses) -> LastUses:
    return {name: set(uses) for name, uses in last.items()}


class NextMayUseAnalysis:
    """Computes the NEXT_MAY_USE relation for one scope.

    Parameters
    ----------
    uses_of_statement:
        Callback returning the lexically ordered :class:`UseEvent` list of a
        statement or expression node, *excluding* anything inside nested
        function/class definitions (the builder owns that logic because it
        already knows which AST nodes map to which token nodes).
    """

    def __init__(self, uses_of_statement: Callable[[ast.AST], list[UseEvent]]) -> None:
        self._uses_of = uses_of_statement
        self.pairs: set[tuple[int, int]] = set()
        # (id of a statement list, frozen incoming last-uses) -> (the list,
        # outgoing last-uses); holding the list keeps its id from being reused.
        self._blocks: dict[tuple[int, frozenset], tuple[list[ast.stmt], LastUses]] = {}

    # -- public API -------------------------------------------------------------

    def analyse_body(self, body: Iterable[ast.stmt], initial: Optional[LastUses] = None) -> LastUses:
        """Analyse a function or module body and return the trailing last-uses.

        ``initial`` seeds the analysis with uses that precede the body — the
        graph builder passes the parameter-definition tokens of the enclosing
        function so the first use of a parameter links back to its definition.
        """
        return self._run_block(list(body), _copy(initial) if initial else {})

    # -- internals ----------------------------------------------------------------

    def _link(self, last: LastUses, event: UseEvent) -> None:
        for previous in last.get(event.name, ()):  # may be empty: first use
            if previous != event.occurrence_id:
                self.pairs.add((previous, event.occurrence_id))

    def _run_uses(self, node: Optional[ast.AST], last: LastUses) -> LastUses:
        """Thread the uses of a single expression/statement through ``last``."""
        if node is None:
            return last
        for event in self._uses_of(node):
            self._link(last, event)
            last[event.name] = {event.occurrence_id}
        return last

    def _run_block(self, statements: list[ast.stmt], last: LastUses) -> LastUses:
        """Thread ``last`` through a statement list (memoised).

        A block's outgoing last-uses and the pairs it adds depend only on
        the block and its incoming last-uses, so a repeated run returns a
        copy of the first run's result; its pairs are already in the set.
        """
        if not statements:
            return last
        key = (id(statements), frozenset((name, frozenset(uses)) for name, uses in last.items()))
        known = self._blocks.get(key)
        if known is not None:
            return _copy(known[1])
        for statement in statements:
            last = self._run_statement(statement, last)
        self._blocks[key] = (statements, _copy(last))
        return last

    def _run_statement(self, statement: ast.stmt, last: LastUses) -> LastUses:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # New scope: only the decorators and default expressions execute here.
            for decorator in statement.decorator_list:
                last = self._run_uses(decorator, last)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in list(statement.args.defaults) + [
                    d for d in statement.args.kw_defaults if d is not None
                ]:
                    last = self._run_uses(default, last)
            return last

        if isinstance(statement, ast.If):
            last = self._run_uses(statement.test, last)
            then_branch = self._run_block(statement.body, _copy(last))
            else_branch = self._run_block(statement.orelse, _copy(last))
            return _merge(then_branch, else_branch)

        if isinstance(statement, (ast.While,)):
            last = self._run_uses(statement.test, last)
            body_out = self._run_block(statement.body, _copy(last))
            # Back edge: the body may execute again after itself.
            body_again = self._run_block(statement.body, _copy(body_out))
            else_out = self._run_block(statement.orelse, _copy(last))
            return _merge(last, body_out, body_again, else_out)

        if isinstance(statement, (ast.For, ast.AsyncFor)):
            last = self._run_uses(statement.iter, last)
            last = self._run_uses(statement.target, last)
            body_out = self._run_block(statement.body, _copy(last))
            body_again = self._run_block(statement.body, _copy(body_out))
            else_out = self._run_block(statement.orelse, _copy(last))
            return _merge(last, body_out, body_again, else_out)

        if isinstance(statement, ast.Try):
            body_out = self._run_block(statement.body, _copy(last))
            handler_outs = []
            for handler in statement.handlers:
                # A handler may run after any prefix of the body; approximating
                # with "after the whole body or before it" keeps the relation small.
                handler_entry = _merge(_copy(last), _copy(body_out))
                handler_outs.append(self._run_block(handler.body, handler_entry))
            else_out = self._run_block(statement.orelse, _copy(body_out))
            merged = _merge(body_out, else_out, *handler_outs) if handler_outs else _merge(body_out, else_out)
            return self._run_block(statement.finalbody, merged)

        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                last = self._run_uses(item.context_expr, last)
                last = self._run_uses(item.optional_vars, last)
            return self._run_block(statement.body, last)

        if isinstance(statement, ast.Return):
            return self._run_uses(statement.value, last)

        if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = getattr(statement, "value", None)
            last = self._run_uses(value, last)
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                last = self._run_uses(target, last)
            return last

        # Fallback: expression statements, assert, raise, delete, import, pass...
        return self._run_uses(statement, last)


def compute_next_lexical_use(events: list[UseEvent]) -> set[tuple[int, int]]:
    """Chain occurrences of each name in lexical (line, column) order."""
    pairs: set[tuple[int, int]] = set()
    by_name: dict[str, list[UseEvent]] = {}
    for event in events:
        by_name.setdefault(event.name, []).append(event)
    for name_events in by_name.values():
        ordered = sorted(name_events, key=lambda e: (e.lineno, e.col, e.occurrence_id))
        for previous, current in zip(ordered, ordered[1:]):
            if previous.occurrence_id != current.occurrence_id:
                pairs.add((previous.occurrence_id, current.occurrence_id))
    return pairs
