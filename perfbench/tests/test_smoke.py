"""Tiny-size runs of all three workloads, traced and untraced.

The workloads run in process against a tiny model and a tiny dataset built
here, with a small project and one server spawn, so the whole module takes
well under a minute.  The command-line contract is checked in a subprocess.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import annotate, layers, prepare, serve, train
from perfbench.common import remove_work
from perfbench.result import END_TO_END_UNITS, result_line

ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    from repro.core import TrainingConfig
    from repro.corpus import SynthesisConfig

    base = tmp_path_factory.mktemp("perfbench-artifacts")
    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(prepare, "MODEL_SYNTHESIS", SynthesisConfig(num_files=12, seed=11))
        patch.setattr(prepare, "MODEL_TRAINING", TrainingConfig(epochs=1, seed=5))
        patch.setattr(prepare, "STREAM_SYNTHESIS", SynthesisConfig(num_files=24, seed=21))
        prepare.build_model(str(base / "model"))
        prepare.build_dataset(str(base / "dataset"))
    finally:
        patch.undo()
    return {"model": base / "model", "dataset": base / "dataset"}


@pytest.fixture
def tiny(artifacts, monkeypatch):
    for module in (annotate, serve, train):
        monkeypatch.setattr(module, "prepared", lambda name: artifacts[name])
    monkeypatch.setattr(annotate, "PROJECT_SYMBOLS", 120)
    monkeypatch.setattr(annotate, "SETUP_REPEATS", 2)
    monkeypatch.setattr(serve, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serve, "REFERENCE_RPS", 20.0)
    monkeypatch.setattr(serve, "ADAPT_EVERY", 3)
    yield
    remove_work()


def _check(result, trace):
    assert result["correct"], result["detail"]["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    payload = json.loads(result_line(result))
    expected = set(layers.all_metric_units()) if trace else set(END_TO_END_UNITS)
    assert set(payload["metrics"]) == expected
    return payload["metrics"]


@pytest.mark.parametrize("trace", [False, True])
def test_annotate_project(tiny, trace):
    metrics = _check(annotate.run(seed=1, seconds=0.1, trace=trace), trace)
    if trace:
        assert metrics["graph.calls"]["value"] >= 1 and metrics["filter.calls"]["value"] >= 1
        assert metrics["checker.checks"]["value"] >= 1
        assert metrics["nn.backward_calls"]["value"] == 0
    else:
        assert metrics["throughput_per_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_serve_mixed(tiny, trace):
    result = serve.run(seed=2, seconds=1.0, trace=trace)
    metrics = _check(result, trace)
    assert result["detail"]["adapts"] >= 1
    if trace:
        assert metrics["checker.checks"]["value"] == 0 and metrics["filter.calls"]["value"] == 0
        assert metrics["serve.sent"]["value"] >= 1 and metrics["typespace.add_calls"]["value"] >= 1
    else:
        assert metrics["throughput_per_s"]["value"] > 0 and metrics["peak_memory_mb"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_train_stream(tiny, trace):
    metrics = _check(train.run(seed=3, seconds=1.0, trace=trace), trace)
    if trace:
        assert metrics["checker.checks"]["value"] == 0 and metrics["graph.calls"]["value"] == 0
        assert metrics["nn.backward_calls"]["value"] >= 1 and metrics["trainer.assemble_calls"]["value"] >= 1
        assert metrics["corpus.load_ms"]["value"] > 0
    else:
        assert metrics["throughput_per_s"]["value"] > 0


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "annotate-project", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
