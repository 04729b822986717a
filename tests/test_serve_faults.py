"""Chaos suite: every engineered degradation path, proven deterministically.

Each test arms a named :class:`~repro.serve.faults.FaultInjector` failure
point and drives the daemon into exactly the failure the server's recovery
code exists for — a dead batcher thread, an overloaded admission queue, a
poison request inside a coalesced batch, a reload that cannot read its
model directory, a response frame torn mid-write.  Gates (armed
``threading.Event`` objects) replace "slow" with "pinned at a known point",
and :meth:`FaultInjector.wait_for` replaces sleep-and-hope, so the suite is
deterministic: no real crashes, no timing-dependent outcomes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core import TypilusPipeline
from repro.engine import AnnotatorConfig, ProjectAnnotator
from repro.serve import (
    AnnotationClient,
    AnnotationServer,
    FaultInjector,
    InProcessBackend,
    ProtocolError,
    RetryPolicy,
    ServeConfig,
    ServeError,
    WorkerPool,
)
from repro.serve import server as server_module
from test_serve import FILE_A, FILE_B, FILE_C, _report_keys

POISON_FILE = "poison.py"


@pytest.fixture(scope="module")
def model_dir(trained_pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-model") / "model"
    trained_pipeline.save(path)
    return path


@pytest.fixture(scope="module")
def grown_model_dir(model_dir, tmp_path_factory):
    """A second saved pipeline with a larger type space, for reload tests."""
    pipeline = TypilusPipeline.load(model_dir)
    added = pipeline.adapt_with_sources(
        "ChaosReloadKind",
        {"example.py": "def handle(event: ChaosReloadKind) -> ChaosReloadKind:\n    return event\n"},
        provenance="test:chaos",
    )
    assert added >= 1
    path = tmp_path_factory.mktemp("chaos-model-grown") / "model"
    pipeline.save(path)
    return path


@contextmanager
def _running_server(model_dir, serve_config=None, injector=None, backend="in-process"):
    """A started daemon; ``backend="fleet"`` serves through a 2-worker pool,
    and ``pipeline`` is then a reference copy loaded from the same directory."""
    workdir = tempfile.mkdtemp(prefix="typilus-chaos-")
    socket_path = os.path.join(workdir, "daemon.sock")
    pipeline = TypilusPipeline.load(model_dir)
    injector = injector or FaultInjector()
    config = AnnotatorConfig(use_type_checker=False)
    if backend == "fleet":
        served_by = WorkerPool(model_dir, 2, annotator_config=config, fault_injector=injector)
    else:
        served_by = InProcessBackend(pipeline, config)
    server = AnnotationServer(
        served_by,
        socket_path,
        serve_config=serve_config or ServeConfig(batch_window_seconds=0.05),
        fault_injector=injector,
    ).start()
    client = AnnotationClient(socket_path)
    client.wait_until_ready(timeout=60.0)
    try:
        yield SimpleNamespace(
            server=server,
            client=client,
            pipeline=pipeline,
            socket_path=socket_path,
            faults=injector,
        )
    finally:
        injector.reset()
        server.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _in_thread(fn, *args):
    """Run ``fn`` in a thread; returns a handle whose .result() joins it."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as error:  # noqa: BLE001 - tests inspect every outcome
            box["error"] = error

    thread = threading.Thread(target=run)
    thread.start()

    def result(timeout=30.0):
        thread.join(timeout=timeout)
        assert not thread.is_alive(), f"{fn.__name__} hung"
        if "error" in box:
            raise box["error"]
        return box["value"]

    return SimpleNamespace(result=result, thread=thread)


def _wait_until(predicate, timeout=10.0, message="condition"):
    """Bounded poll on an observable condition (no fixed sleeps)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.005)


class TestBatcherCrash:
    def test_crash_fails_fast_and_daemon_keeps_serving(self, model_dir):
        injector = FaultInjector().arm("batcher", error="thread killed by test")
        with _running_server(model_dir, injector=injector) as served:
            with pytest.raises(ServeError, match="batcher crashed") as excinfo:
                served.client.annotate_sources({"a.py": FILE_A})
            assert excinfo.value.kind == "crashed"
            # the restart guard entered a fresh loop: the next request succeeds
            report = served.client.annotate_sources({"a.py": FILE_A})
            assert report.num_files == 1
            stats = served.client.stats()
            assert stats["batcher_restarts"] == 1
            assert served.client.ping()["state"] == "ready"

    def test_queued_requests_behind_a_crash_fail_fast_too(self, model_dir):
        gate = threading.Event()
        injector = FaultInjector().arm("slow_batch", gate=gate)
        config = ServeConfig(batch_window_seconds=0.01, max_batch_requests=1)
        with _running_server(model_dir, serve_config=config, injector=injector) as served:
            pinned = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("slow_batch"), "batcher never reached the gate"
            # arm the crash, then queue a request behind the pinned batch
            served.faults.arm("batcher", error="thread killed by test")
            queued = _in_thread(served.client.annotate_sources, {"b.py": FILE_B})
            _wait_until(
                lambda: served.client.ping()["queue_depth"] >= 2,
                message="the second request to be admitted",
            )
            gate.set()
            assert pinned.result().num_files == 1  # the pinned batch still answers
            with pytest.raises(ServeError, match="batcher crashed"):
                queued.result()
            assert served.client.annotate_sources({"c.py": FILE_C}).num_files == 1


class TestOverload:
    def _pinned_server(self, model_dir, gate, max_queue_depth=2):
        config = ServeConfig(
            batch_window_seconds=0.01, max_batch_requests=1, max_queue_depth=max_queue_depth
        )
        injector = FaultInjector().arm("slow_batch", times=None, gate=gate)
        return _running_server(model_dir, serve_config=config, injector=injector)

    def test_admission_sheds_past_capacity_with_retry_hint(self, model_dir):
        gate = threading.Event()
        with self._pinned_server(model_dir, gate) as served:
            pinned = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("slow_batch")
            queued = _in_thread(served.client.annotate_sources, {"b.py": FILE_B})
            _wait_until(
                lambda: served.client.ping()["queue_depth"] >= 2,
                message="admission to fill to capacity",
            )
            # capacity 2 is exhausted: the next request is shed immediately
            with pytest.raises(ServeError, match="overloaded") as excinfo:
                served.client.annotate_sources({"c.py": FILE_C})
            assert excinfo.value.kind == "overloaded"
            assert excinfo.value.retry_after_seconds > 0
            assert served.client.ping()["state"] == "overloaded"
            gate.set()
            # every *admitted* request still completes after the slow batch clears
            assert pinned.result().num_files == 1
            assert queued.result().num_files == 1
            stats = served.client.stats()
            assert stats["shed_requests"] == 1
            assert stats["errors"] == 0  # shedding is degradation, not failure

    def test_retry_policy_recovers_from_a_shed(self, model_dir):
        gate = threading.Event()
        with self._pinned_server(model_dir, gate) as served:
            pinned = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("slow_batch")
            queued = _in_thread(served.client.annotate_sources, {"b.py": FILE_B})
            _wait_until(lambda: served.client.ping()["queue_depth"] >= 2, message="full admission")
            retrying_client = AnnotationClient(
                served.socket_path,
                retry_policy=RetryPolicy(max_attempts=8, base_delay_seconds=0.02, seed=7),
            )
            flooding = _in_thread(retrying_client.annotate_sources, {"c.py": FILE_C})
            _wait_until(
                lambda: served.client.stats()["shed_requests"] >= 1,
                message="the retrying client to be shed at least once",
            )
            gate.set()
            assert flooding.result(timeout=60.0).num_files == 1  # backoff + retry won through
            assert pinned.result().num_files == 1
            assert queued.result().num_files == 1
            assert served.client.stats()["shed_requests"] >= 1

    def test_retry_policy_never_retries_annotation_errors(self, model_dir):
        injector = FaultInjector().arm("annotator", times=1, error="bad request payload")
        with _running_server(model_dir, injector=injector) as served:
            client = AnnotationClient(served.socket_path, retry_policy=RetryPolicy(max_attempts=5))
            # the fault is armed for ONE fire: a (wrong) retry would succeed,
            # so the raise itself proves the client did not retry
            with pytest.raises(ServeError, match="annotation failed") as excinfo:
                client.annotate_sources({"a.py": FILE_A})
            assert excinfo.value.kind == "annotation"
            assert served.faults.fired("annotator") == 1

    def test_retry_backoff_sequence_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, base_delay_seconds=0.1, seed=42)
        first, second = list(policy.delays()), list(policy.delays())
        assert first == second  # seeded jitter: reproducible in replays
        assert len(first) == 4
        undithered = [0.1, 0.2, 0.4, 0.8]
        for delay, base in zip(first, undithered):
            assert abs(delay - base) <= base * policy.jitter_fraction + 1e-9


class TestPoisonIsolation:
    backend = "in-process"

    def test_poison_request_fails_alone_in_a_coalesced_batch(self, model_dir):
        """One bad request in a merged micro-batch must not fail its neighbors,
        and the neighbors' answers must match un-coalesced runs exactly."""
        gate = threading.Event()
        injector = FaultInjector()
        # every batch waits at the gate, so with two dispatch slots the
        # coalesced batch is pinned too until all five requests are admitted
        injector.arm("slow_batch", times=None, gate=gate)
        injector.arm(
            "annotator",
            times=None,
            error="poison payload",
            match=lambda context: POISON_FILE in context.get("filenames", ()),
        )
        config = ServeConfig(batch_window_seconds=0.2, max_batch_requests=32)
        with _running_server(model_dir, serve_config=config, injector=injector, backend=self.backend) as served:
            # pin the batcher on a sacrificial request so the next four
            # requests deterministically coalesce into one micro-batch
            sacrificial = _in_thread(served.client.annotate_sources, {"warmup.py": FILE_A})
            assert served.faults.wait_for("slow_batch")
            good_sources = [{"a.py": FILE_A}, {"b.py": FILE_B}, {"c.py": FILE_C}]
            good = [_in_thread(served.client.annotate_sources, sources) for sources in good_sources]
            poison = _in_thread(served.client.annotate_sources, {POISON_FILE: FILE_A})
            _wait_until(
                lambda: served.client.ping()["queue_depth"] >= 5,
                message="all five requests to be admitted",
            )
            gate.set()

            assert sacrificial.result().num_files == 1
            with pytest.raises(ServeError, match="poison payload") as excinfo:
                poison.result()
            assert excinfo.value.kind == "annotation"
            direct = ProjectAnnotator(served.pipeline, AnnotatorConfig(use_type_checker=False))
            for handle, sources in zip(good, good_sources):
                report = handle.result()
                assert _report_keys(report) == _report_keys(direct.annotate_sources(sources))

            stats = served.client.stats()
            assert stats["poison_requests"] == 1
            assert stats["errors"] == 1  # one failed request, not one per batch member
            assert stats["largest_batch"] == 4  # the four really did share a batch
            # full batch -> poisoned half -> poisoned singleton: three matching fires
            assert served.faults.fired("annotator") == 3


class TestPoisonIsolationOnFleet(TestPoisonIsolation):
    """The same bisection path with batches dispatched to a 2-worker fleet."""

    backend = "fleet"


class TestHotReload:
    def test_reload_swaps_atomically_between_batches(self, model_dir, grown_model_dir):
        gate = threading.Event()
        injector = FaultInjector().arm("slow_batch", times=1, gate=gate)
        with _running_server(model_dir, injector=injector) as served:
            old_markers = served.client.ping()["markers"]
            in_flight = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("slow_batch")
            reloading = _in_thread(served.client.reload, grown_model_dir)
            _wait_until(
                lambda: served.client.ping()["state"] == "reloading",
                message="the daemon to report state 'reloading'",
            )
            # readiness polling names the non-ready state, not a generic timeout
            with pytest.raises(TimeoutError, match="daemon answering but not ready") as excinfo:
                served.client.wait_until_ready(timeout=0.3)
            assert "reloading" in str(excinfo.value)

            gate.set()
            assert in_flight.result().num_files == 1  # finished on the old pipeline, no failure
            acknowledgement = reloading.result()
            assert acknowledgement["previous_markers"] == old_markers
            assert acknowledgement["markers"] > old_markers

            info = served.client.ping()
            assert info["state"] == "ready"
            assert info["markers"] == acknowledgement["markers"]
            stats = served.client.stats()
            assert stats["reloads"] == 1
            assert stats["failed_reloads"] == 0
            assert stats["errors"] == 0

    def test_failed_reload_keeps_the_old_pipeline_serving(self, model_dir, grown_model_dir):
        injector = FaultInjector().arm("reload", error="disk went away")
        with _running_server(model_dir, injector=injector) as served:
            before = served.client.ping()["markers"]
            with pytest.raises(ServeError, match="reload failed") as excinfo:
                served.client.reload(grown_model_dir)
            assert excinfo.value.kind == "reload"
            info = served.client.ping()
            assert info["state"] == "ready"  # the reloading flag was released
            assert info["markers"] == before  # old pipeline untouched
            assert served.client.annotate_sources({"a.py": FILE_A}).num_files == 1
            stats = served.client.stats()
            assert stats["failed_reloads"] == 1
            assert stats["reloads"] == 0

    def test_reload_from_a_torn_directory_is_a_clean_error(self, model_dir, tmp_path):
        # a directory without the pipeline.json commit marker was never
        # fully written: reload must refuse it and keep serving
        torn = tmp_path / "torn-model"
        torn.mkdir()
        with _running_server(model_dir) as served:
            with pytest.raises(ServeError, match="no complete pipeline") as excinfo:
                served.client.reload(torn)
            assert excinfo.value.kind == "reload"
            assert served.client.ping()["state"] == "ready"
            assert served.client.annotate_sources({"a.py": FILE_A}).num_files == 1


class TestTornFrames:
    def test_torn_response_frame_is_a_protocol_error_not_a_hang(self, model_dir):
        with _running_server(model_dir) as served:
            # armed only now: the startup readiness pings must answer whole
            served.faults.arm("torn_frame", times=1)
            with pytest.raises(ProtocolError, match="mid-frame"):
                served.client.annotate_sources({"a.py": FILE_A})
            # one torn connection does not poison the daemon
            assert served.client.ping()["ok"]
            assert served.client.annotate_sources({"a.py": FILE_A}).num_files == 1


class TestDeadlinesUnderLoad:
    backend = "in-process"

    def test_expired_request_behind_a_slow_batch_is_dropped_unprocessed(self, model_dir):
        gate = threading.Event()
        # every batch waits at the gate: with two dispatch slots the doomed
        # request's batch is pinned as well, so it is seen admitted
        injector = FaultInjector().arm("slow_batch", times=None, gate=gate)
        config = ServeConfig(batch_window_seconds=0.01, max_batch_requests=1)
        with _running_server(model_dir, serve_config=config, injector=injector, backend=self.backend) as served:
            pinned = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("slow_batch")
            doomed = _in_thread(
                served.client._request,
                {"op": "annotate", "sources": {"b.py": FILE_B}, "timeout_seconds": 0},
            )
            _wait_until(lambda: served.client.ping()["queue_depth"] >= 2, message="admission")
            gate.set()
            assert pinned.result().num_files == 1
            with pytest.raises(ServeError, match="dropped unprocessed") as excinfo:
                doomed.result()
            assert excinfo.value.kind == "expired"
            stats = served.client.stats()
            assert stats["expired_requests"] == 1
            assert stats["micro_batches"] == 1  # no embedding pass for the expired request


class TestDeadlinesUnderLoadOnFleet(TestDeadlinesUnderLoad):
    """The same expiry path with two dispatch slots, so batches overlap."""

    backend = "fleet"


class TestQuiesceTimeout:
    backend = "in-process"

    def test_adapt_fails_typed_when_batches_do_not_drain(self, model_dir, monkeypatch):
        """An exclusive never runs underneath an in-flight batch: when the
        quiesce barrier times out, the adapt fails and changes nothing."""
        monkeypatch.setattr(server_module, "QUIESCE_TIMEOUT_SECONDS", 0.2)
        slow = threading.Event()
        hold = threading.Event()
        injector = FaultInjector()
        injector.arm("slow_batch", times=None, gate=slow)
        injector.arm("batcher", times=1, gate=hold)
        config = ServeConfig(batch_window_seconds=0.5)
        with _running_server(model_dir, serve_config=config, injector=injector, backend=self.backend) as served:
            before = served.client.ping()["markers"]
            # hold the batcher with the annotate in hand until the adapt is
            # queued, so the adapt ends that very batch's drain
            pinned = _in_thread(served.client.annotate_sources, {"a.py": FILE_A})
            assert served.faults.wait_for("batcher")
            example = {"example.py": "def handle(event: QuiesceKind) -> QuiesceKind:\n    return event\n"}
            adapting = _in_thread(served.client.adapt, "QuiesceKind", example)
            _wait_until(lambda: served.client.ping()["queue_depth"] >= 2, message="the adapt to queue")
            hold.set()
            with pytest.raises(ServeError, match="did not finish") as excinfo:
                adapting.result()
            assert excinfo.value.kind == "quiesce_timeout"
            assert served.client.ping()["markers"] == before  # the type map never changed
            slow.set()
            assert pinned.result().num_files == 1
            assert served.client.stats()["errors"] == 1
            assert served.client.adapt("QuiesceKind", example)["added_markers"] >= 1


class TestQuiesceTimeoutOnFleet(TestQuiesceTimeout):
    backend = "fleet"
