"""Workload ``serve-mixed``: independent IDE users against the serving fleet.

``python -m repro.cli serve --workers 2 --tcp 127.0.0.1:0 --no-type-checker``
runs as a child process over the prepared raw-layout model.  The run has two
phases on the same server:

* **open loop** — seeded Poisson arrivals at :data:`REFERENCE_RPS` of
  single-file annotate requests for files drawn from the fixed pool, about
  one in :data:`ADAPT_EVERY` an ``adapt`` write, over at most
  :data:`CONNECTIONS` connections; latency is timed from each request's due
  time;
* **capacity** — :data:`CONNECTIONS` connections send annotate requests back
  to back; goodput is the rate of requests answered within
  :data:`LATENCY_LIMIT_S`.

Afterwards every file of the fixed evaluation project is sent as a probe,
and the answers must equal an in-process ``ProjectAnnotator`` on a pipeline
that applied the same ``adapt`` writes in the same order.  The traced run
replays the open-loop requests in process on two pipelines, one untraced and
one traced, taking turns, for the per-layer split inside a worker and the
tracing overhead.
"""

from __future__ import annotations

import queue
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from perfbench import layers
from perfbench.annotate import answer_set, evaluation_sources, pool_sources, quality
from perfbench.common import ROOT, MachineGauge, child_env, median, prepared, tail
from perfbench.openloop import Outcome, poisson_arrivals, run_closed_loop, run_open_loop
from perfbench.result import Checks, e2e_metrics
from perfbench.spans import Tracer

REFERENCE_RPS = 8.0
ADAPT_EVERY = 20
CONNECTIONS = 2
WORKERS = 2
LATENCY_LIMIT_S = 0.25
SETUP_REPEATS = 3
#: Share of the run's seconds spent in the open loop; the rest measures capacity.
OPEN_LOOP_SHARE = 0.6
READY_TIMEOUT_S = 60.0


class Server:
    """The serving CLI as a child process, stopped and waited for on close."""

    def __init__(self, model_dir: Path) -> None:
        from repro.serve import AnnotationClient

        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--load-model", str(model_dir),
                "--workers", str(WORKERS),
                "--tcp", "127.0.0.1:0",
                "--no-type-checker",
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.address: Optional[str] = None
        lines: queue.Queue = queue.Queue()
        # Drain the child's output for its whole life so it can never block on a full pipe.
        self._drain = threading.Thread(target=self._read_lines, args=(lines,), daemon=True)
        self._drain.start()
        try:
            try:
                banner = lines.get(timeout=READY_TIMEOUT_S)
            except queue.Empty:
                banner = ""
            match = re.search(r"tcp://([\d.]+):(\d+)", banner)
            if match is None:
                raise RuntimeError(f"serve did not announce a TCP endpoint: {banner!r}")
            self.address = f"{match.group(1)}:{match.group(2)}"
            self.client = AnnotationClient(self.address, timeout=60.0)
            self.client.wait_until_ready(timeout=READY_TIMEOUT_S, poll_interval=0.005, max_poll_interval=0.02)
        except BaseException:
            self.close()
            raise

    def _read_lines(self, lines: queue.Queue) -> None:
        for line in self.process.stdout:
            lines.put(line)
        lines.put("")

    def close(self) -> None:
        if self.process.poll() is None and self.address is None:
            self.process.kill()
        if self.process.poll() is None:
            try:
                from repro.serve import AnnotationClient

                AnnotationClient(self.address, timeout=10.0).shutdown()
                self.process.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall back to stopping it by force
                self.process.kill()
        self.process.wait(timeout=30)
        self._drain.join(timeout=10)
        if not self._drain.is_alive():
            self.process.stdout.close()


def pss_mb(pids: list[int]) -> float:
    """Summed proportional set size: shared pages are split among their mappers."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text(encoding="ascii").splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def annotated_types(filename: str, source: str) -> list[str]:
    """The distinct annotations the graph builder records in a file (adapt targets)."""
    from repro.graph.builder import GraphBuilder

    graph = GraphBuilder().build(source, filename=filename)
    return sorted({symbol.annotation for symbol in graph.symbols if symbol.annotation})


def request_plan(seed: int, seconds: float, pool: dict[str, str]) -> tuple[list[float], list[tuple]]:
    """The open loop's seeded schedule: arrival offsets and single-file requests from the pool."""
    rng = random.Random(seed)
    offsets = poisson_arrivals(REFERENCE_RPS, OPEN_LOOP_SHARE * seconds, rng)
    filenames = sorted(pool)
    items: list[tuple] = []
    for _ in offsets:
        filename = rng.choice(filenames)
        if rng.randrange(ADAPT_EVERY) == 0:
            types = annotated_types(filename, pool[filename])
            if types:
                items.append(("adapt", rng.choice(types), {filename: pool[filename]}))
                continue
        items.append(("annotate", {filename: pool[filename]}))
    return offsets, items


def _sender(client):
    def send(item: tuple):
        if item[0] == "adapt":
            return client.adapt(item[1], item[2])
        return client.annotate_sources(item[1])

    return send


def _annotator(model_dir: Path):
    from repro.core import TypilusPipeline
    from repro.engine.annotator import AnnotatorConfig, ProjectAnnotator

    pipeline = TypilusPipeline.load(model_dir)
    return pipeline, ProjectAnnotator(pipeline, AnnotatorConfig(use_type_checker=False))


def _apply(pipeline, annotator, item: tuple) -> float:
    started = time.perf_counter()
    if item[0] == "adapt":
        pipeline.adapt_with_sources(item[1], item[2])
    else:
        annotator.annotate_sources(item[1])
    return time.perf_counter() - started


@dataclass
class Replay:
    """The open loop's requests applied in process, in order."""

    pipeline: Any
    annotator: Any
    seconds: list[float]
    traced_seconds: list[float]
    annotate_seconds: list[float]


def replay(model_dir: Path, items: list[tuple], tracer: Optional[Tracer] = None) -> Replay:
    """Apply ``items`` in order to an in-process pipeline, timing each.

    With a ``tracer`` a second pipeline receives every request too, traced;
    the two take turns going first, so neither is favoured by warm caches.
    """
    pipeline, annotator = _annotator(model_dir)
    traced = _annotator(model_dir) if tracer is not None else None
    seconds: list[float] = []
    traced_seconds: list[float] = []

    def apply_traced(number: int, item: tuple) -> None:
        tracer.request_id = f"request-{number}"
        tracer.enabled = True
        traced_seconds.append(_apply(*traced, item))
        tracer.enabled = False

    for number, item in enumerate(items):
        if traced is not None and number % 2 == 0:
            apply_traced(number, item)
        seconds.append(_apply(pipeline, annotator, item))
        if traced is not None and number % 2 == 1:
            apply_traced(number, item)
    annotate_seconds = [elapsed for elapsed, item in zip(seconds, items) if item[0] == "annotate"]
    return Replay(pipeline, annotator, seconds, traced_seconds, annotate_seconds)


def goodput_per_s(outcomes: list[Outcome], window_end: float, window_seconds: float) -> float:
    """Median rate, over one-second slices of the window, of answers within the limit.

    A failed or refused request never counts.  The median over slices keeps
    a brief stall of the shared machine from setting the whole figure.
    """
    window_start = window_end - window_seconds
    slices = [0] * max(1, int(window_seconds))
    width = window_seconds / len(slices)
    for outcome in outcomes:
        if outcome.ok and outcome.latency <= LATENCY_LIMIT_S and window_start <= outcome.done <= window_end:
            slices[min(len(slices) - 1, int((outcome.done - window_start) / width))] += 1
    return median(slices) / width


def _stat_delta(before: dict, after: dict, key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))


def run(seed: int, seconds: float, trace: bool) -> dict:
    model_dir = prepared("model")
    pool = pool_sources()
    offsets, items = request_plan(seed, seconds, pool)
    filenames = sorted(pool)
    probe_sources = evaluation_sources()
    pick = random.Random(seed + 1)
    tracer = Tracer()
    bindings = layers.install(tracer) if trace else None

    gauge = MachineGauge()
    gauge.sample()
    setup_seconds: list[float] = []
    server: Optional[Server] = None
    try:
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            server = Server(model_dir)
            setup_seconds.append(time.perf_counter() - started)
            if attempt < SETUP_REPEATS - 1:
                server.close()
                server = None
        client = server.client
        markers_before = int(client.ping()["markers"])
        stats_before = client.stats()
        send = _sender(client)

        gauge.sample()
        opened = run_open_loop(offsets, items, send, CONNECTIONS)
        gauge.sample()
        capacity_seconds = (1.0 - OPEN_LOOP_SHARE) * seconds

        def next_annotate() -> tuple:
            filename = pick.choice(filenames)
            return ("annotate", {filename: pool[filename]})

        capacity, window_end = run_closed_loop(next_annotate, send, CONNECTIONS, capacity_seconds)
        gauge.sample()

        stats_after = client.stats()
        memory_mb = pss_mb([server.process.pid] + [int(worker["pid"]) for worker in stats_after.get("workers", [])])
        probe = {name: client.annotate_sources({name: source}) for name, source in probe_sources.items()}
        markers_after = int(client.ping()["markers"])
    finally:
        if server is not None:
            server.close()

    checks = Checks()
    applied = [item for item, outcome in zip(items, opened) if item[0] != "adapt" or outcome.ok]
    # Untraced runs only need the adapt writes for the parity check.
    inprocess = replay(model_dir, applied if trace else [item for item in applied if item[0] == "adapt"],
                       tracer if trace else None)
    for name, source in probe_sources.items():
        checks.expect(
            f"served answer for {name} equals in-process",
            answer_set(probe[name]) == answer_set(inprocess.annotator.annotate_sources({name: source})),
        )
    added = sum(
        int(outcome.result["added_markers"])
        for item, outcome in zip(items, opened)
        if item[0] == "adapt" and outcome.ok
    )
    checks.expect("served marker count equals initial plus adapted", markers_after == markers_before + added)
    checks.expect("in-process marker count equals served", len(inprocess.pipeline.type_space) == markers_after)
    checks.expect("open loop answered every request", len(opened) == len(items))

    everything: list[Outcome] = opened + capacity
    failed = sum(not outcome.ok for outcome in everything)
    annotate_latency = [o.latency for item, o in zip(items, opened) if item[0] == "annotate"]
    adapt_latency = [o.latency for item, o in zip(items, opened) if item[0] == "adapt"]
    goodput = goodput_per_s(capacity, window_end, capacity_seconds)
    label, tail_seconds, beyond = tail(annotate_latency)
    scores = quality(probe.values())
    lag_label, lag_seconds, _ = tail([o.lag for o in opened])
    detail = {
        "pool_files": len(pool),
        "reference_rps": REFERENCE_RPS,
        "open_loop_requests": len(items),
        "adapts": sum(item[0] == "adapt" for item in items),
        "markers_added": added,
        "annotate_latency": {"p50_ms": 1000.0 * median(annotate_latency), "tail_percentile": label,
                             "tail_ms": 1000.0 * tail_seconds, "samples": len(annotate_latency), "beyond": beyond},
        "adapt_p50_ms": 1000.0 * median(adapt_latency) if adapt_latency else None,
        "capacity_requests": len(capacity),
        "goodput_limit_ms": 1000.0 * LATENCY_LIMIT_S,
        "generator_lag": {"percentile": lag_label, "ms": 1000.0 * lag_seconds},
        "setup_seconds": setup_seconds,
        "quality": scores,
        "checks": checks.failures,
    }
    if trace:
        kinds = [o.error_kind for o in everything if not o.ok]
        annotates = _stat_delta(stats_before, stats_after, "annotate_requests")
        batches = _stat_delta(stats_before, stats_after, "micro_batches")
        extra = {
            "typespace.markers": markers_after,
            "serve.sent": len(everything),
            "serve.ok": len(everything) - failed,
            "serve.failed": sum(kind not in ("overloaded", "expired") for kind in kinds),
            "serve.shed": kinds.count("overloaded"),
            "serve.expired": kinds.count("expired"),
            "serve.micro_batches": batches,
            "serve.batch_size_mean": annotates / batches if batches else 0.0,
            "serve.coalesced_share": _stat_delta(stats_before, stats_after, "coalesced_requests") / annotates
            if annotates
            else 0.0,
            "serve.worker_restarts": _stat_delta(stats_before, stats_after, "worker_restarts"),
            "serve.generator_lag_ms": 1000.0 * lag_seconds,
            "serve.overhead_ms": 1000.0 * (median(annotate_latency) - median(inprocess.annotate_seconds)),
            "trace.overhead_pct": 100.0 * (sum(inprocess.traced_seconds) / sum(inprocess.seconds) - 1.0),
        }
        metrics = layers.layer_metrics(tracer, bindings, units=1, extra=extra)
        detail["absent_bindings"] = sorted(layers.absent_bindings(bindings))
        detail["inprocess_p50_ms"] = 1000.0 * median(inprocess.annotate_seconds)
        bindings.restore()
    else:
        metrics = e2e_metrics(
            setup_s=median(setup_seconds),
            throughput_per_s=goodput,
            latency_p50_ms=1000.0 * median(annotate_latency),
            peak_memory_mb=memory_mb,
            quality_share=scores["top1_exact"],
        )
    detail["machine_probe_ms"] = gauge.probe_ms
    return checks.result(len(everything) + len(probe), failed, metrics, detail)
