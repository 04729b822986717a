"""Correctness checks and the result object a run prints."""

from __future__ import annotations

import json
import math

#: End-to-end metrics and their units; every workload reports all of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_memory_mb": "MB",
    "quality_share": "share",
}


def e2e_metrics(**values: float) -> dict:
    if set(values) != set(END_TO_END_UNITS):
        raise ValueError(f"end-to-end metrics must be exactly {sorted(END_TO_END_UNITS)}")
    return {name: {"value": float(values[name]), "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}


class Checks:
    """Named correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def expect(self, name: str, condition: bool) -> bool:
        self.count += 1
        if not condition:
            self.failures.append(name)
        return bool(condition)

    def result(self, attempted: int, failed: int, metrics: dict, detail: dict) -> dict:
        """The run's result: operations plus checks attempted, failures plus failed checks."""
        return {
            "correct": not self.failures,
            "attempted": int(attempted) + self.count,
            "failed": int(failed) + len(self.failures),
            "metrics": metrics,
            "detail": detail,
        }


def result_line(result: dict) -> str:
    """The last line of a run's output: exactly the four contract keys."""
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            raise ValueError(f"metric {name} is not a finite number: {metric['value']!r}")
    payload = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    return json.dumps(payload, sort_keys=False)
