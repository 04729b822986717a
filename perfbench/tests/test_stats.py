"""Percentiles, tail reporting and the result line."""

import json
import statistics

import numpy as np
import pytest

from perfbench.common import median, percentile, tail
from perfbench.result import END_TO_END_UNITS, Checks, e2e_metrics, result_line


@pytest.mark.parametrize("q", [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(1).exponential(size=37))
    assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_median_matches_statistics():
    values = [5.0, 1.0, 4.0, 2.0]
    assert median(values) == statistics.median(values)


def test_tail_picks_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 1001)))[0] == "p99"  # 10 beyond p99
    assert tail(list(range(1, 200)))[0] == "p90"  # p95 would leave 9.95 beyond
    label, value, beyond = tail([float(v) for v in range(1, 201)])
    assert label == "p95" and beyond == 10
    assert value == pytest.approx(float(np.percentile(range(1, 201), 95)))


def test_tail_of_a_small_sample_is_its_maximum():
    assert tail([3.0, 1.0, 2.0]) == ("max", 3.0, 0)


def test_tail_does_not_count_ties_as_beyond():
    # Only five samples lie above every percentile's value, so no percentile qualifies.
    assert tail([1.0] * 195 + [2.0] * 5) == ("max", 2.0, 0)


def test_checks_count_as_operations_and_failures():
    checks = Checks()
    assert checks.expect("holds", True)
    assert not checks.expect("breaks", False)
    result = checks.result(10, 1, e2e_metrics(**{name: 1.0 for name in END_TO_END_UNITS}), {})
    assert result["correct"] is False
    assert result["attempted"] == 12 and result["failed"] == 2
    assert checks.failures == ["breaks"]


def test_result_line_has_exactly_the_contract_keys():
    result = Checks().result(3, 0, e2e_metrics(**{name: 0.5 for name in END_TO_END_UNITS}), {"extra": 1})
    payload = json.loads(result_line(result))
    assert list(payload) == ["correct", "attempted", "failed", "metrics"]
    assert payload["metrics"]["setup_s"] == {"value": 0.5, "unit": "s"}


def test_result_line_refuses_non_finite_values():
    result = Checks().result(1, 0, e2e_metrics(**{name: float("nan") for name in END_TO_END_UNITS}), {})
    with pytest.raises(ValueError):
        result_line(result)


def test_e2e_metrics_must_be_complete():
    with pytest.raises(ValueError):
        e2e_metrics(setup_s=1.0)


def test_machine_gauge_samples_the_probe_kernel():
    from perfbench.common import MachineGauge

    gauge = MachineGauge()
    gauge.sample()
    assert len(gauge.samples) == MachineGauge.REPEATS and gauge.probe_ms > 0
    gauge.samples = [2.0, 3.0, 100.0]  # one stalled sample does not move the median
    assert gauge.probe_ms == 3.0
