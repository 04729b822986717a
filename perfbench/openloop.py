"""Open-loop and closed-loop request generators.

An open loop sends each request when it is due, whatever happened to the
earlier ones: independent users do not wait for each other.  With a bounded
number of connections a request can still be sent late, when every
connection is busy; its latency is therefore measured from when it was
*due*, so a stall is charged to every request queued behind it, and the
generator reports how late each send ran (``lag``).

A closed loop keeps each connection busy back to back and measures how many
requests the system completes per second.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

#: Lead time before the first arrival, so every sender thread is waiting.
_START_DELAY_S = 0.05


@dataclass
class Outcome:
    """What happened to one request; times are seconds on the generator's clock."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    error_kind: Optional[str] = None
    result: Any = None

    @property
    def latency(self) -> float:
        """From when the request was due to when its answer arrived."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


def poisson_arrivals(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second over ``duration``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    offsets: list[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def _classify(error: BaseException) -> str:
    return str(getattr(error, "kind", None) or type(error).__name__)


def run_open_loop(
    offsets: Sequence[float],
    items: Sequence[Any],
    send: Callable[[Any], Any],
    connections: int,
) -> list[Outcome]:
    """Send ``items[i]`` at ``offsets[i]`` over at most ``connections`` at once.

    Each sender thread takes the next request in schedule order, waits until
    it is due (or sends at once if it is already late) and records the
    outcome.  ``send`` raising counts as a failed request, classified by the
    exception's ``kind`` attribute when it has one.
    """
    if len(offsets) != len(items):
        raise ValueError("one offset per item")
    start = time.perf_counter() + _START_DELAY_S
    outcomes: list[Optional[Outcome]] = [None] * len(items)
    cursor = iter(range(len(items)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                result = send(items[index])
            except Exception as error:  # noqa: BLE001 - a failed request is an outcome
                outcomes[index] = Outcome(index, due, sent, time.perf_counter(), False, _classify(error))
            else:
                outcomes[index] = Outcome(index, due, sent, time.perf_counter(), True, None, result)

    _run_threads(sender, connections)
    return [outcome for outcome in outcomes if outcome is not None]


def run_closed_loop(
    next_item: Callable[[], Any],
    send: Callable[[Any], Any],
    connections: int,
    duration: float,
) -> tuple[list[Outcome], float]:
    """Keep ``connections`` requests in flight back to back for ``duration`` seconds.

    Requests are due when sent, and none is sent after the window closes.
    Returns the outcomes and the clock time the window closed; throughput
    counts the requests that completed inside the window.
    """
    end = time.perf_counter() + duration
    outcomes: list[Outcome] = []
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                if time.perf_counter() >= end:
                    return
                index = len(outcomes)
                item = next_item()
                outcomes.append(None)  # type: ignore[arg-type]
            sent = time.perf_counter()
            try:
                result = send(item)
            except Exception as error:  # noqa: BLE001 - a failed request is an outcome
                outcome = Outcome(index, sent, sent, time.perf_counter(), False, _classify(error))
            else:
                outcome = Outcome(index, sent, sent, time.perf_counter(), True, None, result)
            with lock:
                outcomes[index] = outcome

    _run_threads(sender, connections)
    return outcomes, end


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, name=f"perfbench-sender-{n}", daemon=True) for n in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
