"""Open-loop timing from due time, lag accounting and the closed loop."""

import random
import threading
import time

import pytest

from perfbench.openloop import Outcome, poisson_arrivals, run_closed_loop, run_open_loop


def test_poisson_arrivals_are_seeded_and_have_the_rate():
    first = poisson_arrivals(10.0, 100.0, random.Random(3))
    assert first == poisson_arrivals(10.0, 100.0, random.Random(3))
    assert first != poisson_arrivals(10.0, 100.0, random.Random(4))
    assert all(0.0 < a < b < 100.0 for a, b in zip(first, first[1:]))
    assert 900 < len(first) < 1100
    with pytest.raises(ValueError):
        poisson_arrivals(0.0, 1.0, random.Random(0))


def test_outcome_latency_is_from_due_and_lag_from_due_to_send():
    outcome = Outcome(index=0, due=10.0, sent=10.5, done=11.25, ok=True)
    assert outcome.lag == pytest.approx(0.5)
    assert outcome.latency == pytest.approx(1.25)


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    """One connection, 60 ms service, requests due 20 ms apart: each waits longer."""
    service = 0.06

    def send(item):
        time.sleep(service)
        return item

    outcomes = run_open_loop([0.0, 0.02, 0.04], ["a", "b", "c"], send, connections=1)
    assert [o.result for o in outcomes] == ["a", "b", "c"]
    lags = [o.lag for o in outcomes]
    latencies = [o.latency for o in outcomes]
    assert lags[0] == pytest.approx(0.0, abs=0.015)
    assert lags[1] == pytest.approx(service - 0.02, abs=0.015)
    assert lags[2] == pytest.approx(2 * service - 0.04, abs=0.02)
    for outcome in outcomes:
        assert outcome.latency == pytest.approx(outcome.lag + (outcome.done - outcome.sent))
    assert latencies[2] == pytest.approx(3 * service - 0.04, abs=0.03)


def test_sends_wait_for_their_due_time_and_use_all_connections():
    active = []
    peak = [0]
    lock = threading.Lock()

    def send(item):
        with lock:
            active.append(item)
            peak[0] = max(peak[0], len(active))
        time.sleep(0.05)
        with lock:
            active.remove(item)

    offsets = [0.0, 0.0, 0.0, 0.1]
    outcomes = run_open_loop(offsets, [1, 2, 3, 4], send, connections=2)
    assert peak[0] == 2
    assert outcomes[3].sent - outcomes[0].due >= 0.1 - 0.005  # never sent early
    assert outcomes[3].lag == pytest.approx(0.0, abs=0.015)


def test_failures_are_outcomes_classified_by_kind():
    class Refused(Exception):
        kind = "overloaded"

    def send(item):
        if item == "shed":
            raise Refused("busy")
        if item == "bad":
            raise ValueError("nope")
        return item

    outcomes = run_open_loop([0.0, 0.0, 0.0], ["ok", "shed", "bad"], send, connections=1)
    assert [(o.ok, o.error_kind) for o in outcomes] == [(True, None), (False, "overloaded"), (False, "ValueError")]


def test_closed_loop_keeps_connections_busy_until_the_window_closes():
    counter = iter(range(10_000))

    def send(item):
        time.sleep(0.01)
        return item

    outcomes, end = run_closed_loop(lambda: next(counter), send, connections=2, duration=0.2)
    assert all(o.ok and o.lag == 0.0 for o in outcomes)
    assert all(o.sent < end for o in outcomes)
    assert 20 <= len(outcomes) <= 44
    assert sorted(o.result for o in outcomes) == list(range(len(outcomes)))


def test_goodput_is_the_median_slice_rate_of_answers_within_the_limit():
    from perfbench.serve import LATENCY_LIMIT_S, goodput_per_s

    end = 100.0
    outcomes = []
    for second, count in enumerate([10, 12, 2, 11]):  # one stalled second
        for n in range(count):
            done = 96.0 + second + (n + 0.5) / count
            outcomes.append(Outcome(len(outcomes), done - 0.05, done - 0.05, done, True))
    outcomes.append(Outcome(len(outcomes), 97.0, 97.0, 97.5, False, "overloaded"))  # refused
    outcomes.append(Outcome(len(outcomes), 96.0, 96.0, 96.0 + LATENCY_LIMIT_S + 1.0, True))  # too slow
    outcomes.append(Outcome(len(outcomes), 99.9, 99.9, 100.2, True))  # after the window
    assert goodput_per_s(outcomes, end, 4.0) == pytest.approx(10.5)
