"""Workload ``annotate-project``: the batch path behind ``repro annotate``.

One caller in a closed loop annotates a synthetic project of about 1.4k
symbols (some 45 files, drawn by the seed from a fixed pool) with
``ProjectAnnotator.annotate_sources``, the STRICT checker filter on, and
repeats the pass until the run's time is spent.  Set-up is
``TypilusPipeline.load`` of the prepared model.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import time

from perfbench import layers
from perfbench.common import MachineGauge, median, prepared, tail
from perfbench.result import Checks, e2e_metrics
from perfbench.spans import Tracer

#: Projects are drawn from one fixed pool of synthetic files, so every seed
#: sees the same kinds of code and the same user-defined classes.
POOL_FILES = 400
POOL_SEED = 1000
#: A project holds files in seeded order until it has this many symbols.
PROJECT_SYMBOLS = 1400
#: The quality metrics are scored on one fixed project, whatever the seed,
#: so they change only when the program's answers change.
EVALUATION_SEED = 0
#: Model loads timed before each pass; their median is the set-up time.
SETUP_REPEATS = 5


def evaluation_sources() -> dict[str, str]:
    return project_sources(EVALUATION_SEED)


def pool_sources() -> dict[str, str]:
    """The fixed pool of synthetic files every workload input is drawn from."""
    from repro.corpus import CorpusSynthesizer, SynthesisConfig

    config = SynthesisConfig(num_files=POOL_FILES, seed=POOL_SEED, duplicate_fraction=0.0)
    return {entry.filename: entry.source for entry in CorpusSynthesizer(config).generate()}


def project_sources(seed: int) -> dict[str, str]:
    """A seeded project of about :data:`PROJECT_SYMBOLS` symbols, drawn from the fixed pool."""
    from repro.graph.builder import GraphBuilder

    pool = pool_sources()
    names = sorted(pool)
    random.Random(seed).shuffle(names)
    builder = GraphBuilder()
    project: dict[str, str] = {}
    total = 0
    for name in names:
        project[name] = pool[name]
        total += len(builder.build(pool[name], filename=name).symbols)
        if total >= PROJECT_SYMBOLS:
            break
    return project


def report_payload(report) -> list:
    """A report's answers as plain data, for exact comparison."""
    from repro.engine.annotator import suggestion_to_payload

    return [
        [file_report.filename, [suggestion_to_payload(suggestion) for suggestion in file_report.suggestions]]
        for file_report in report.files
    ]


def answer_set(report) -> dict[str, list[str]]:
    """Per file, the sorted answers: equal reports regardless of symbol order.

    The graph builder's symbol order follows string hashing, which differs
    between processes, so answers from another process are compared as sets.
    """
    return {filename: sorted(json.dumps(answer, sort_keys=True) for answer in answers)
            for filename, answers in report_payload(report)}


def quality(reports) -> dict[str, float]:
    """Top-1 and checker-accepted exact match against the erased annotations."""
    annotated = top1 = accepted = accepted_exact = 0
    for report in reports:
        for file_report in report.files:
            for suggestion in file_report.suggestions:
                if suggestion.existing_annotation is None:
                    continue
                annotated += 1
                top1 += suggestion.prediction.top_type == suggestion.existing_annotation
                filtered = suggestion.filtered
                if filtered is not None and filtered.accepted_type is not None:
                    accepted += 1
                    accepted_exact += filtered.accepted_type == suggestion.existing_annotation
    return {
        "annotated_symbols": annotated,
        "top1_exact": top1 / annotated if annotated else 0.0,
        "checked_symbols": accepted,
        "checked_exact": accepted_exact / accepted if accepted else 0.0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.checker.checker import CheckerMode
    from repro.core import TypilusPipeline
    from repro.engine.annotator import AnnotatorConfig, ProjectAnnotator

    model_dir = prepared("model")
    sources = project_sources(seed)
    tracer = Tracer()
    bindings = layers.install(tracer) if trace else None

    setup_seconds: list[float] = []

    def load():
        # Loads are timed in bursts between passes, so the set-up median
        # spans the whole run rather than one moment of it.
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            pipeline = TypilusPipeline.load(model_dir)
            setup_seconds.append(time.perf_counter() - started)
        gc.collect()  # drop the discarded pipelines before the pass
        return pipeline

    gauge = MachineGauge()
    TypilusPipeline.load(model_dir)  # warm-up: first-use costs are not set-up
    pipeline = load()
    gauge.sample()
    annotator = ProjectAnnotator(pipeline, AnnotatorConfig(use_type_checker=True, checker_mode=CheckerMode.STRICT))

    # In the traced run passes alternate untraced/traced after an untraced
    # first pass, so the tracing overhead is measured on one process.
    passes: list[tuple[float, bool]] = []
    reports = []
    deadline = time.perf_counter() + seconds
    min_passes = 4 if trace else 2
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if passes:
            load()
        traced = trace and len(passes) % 2 == 1
        tracer.request_id = f"pass-{len(passes)}"
        tracer.enabled = traced
        started = time.perf_counter()
        report = annotator.annotate_sources(sources)
        elapsed = time.perf_counter() - started
        tracer.enabled = False
        passes.append((elapsed, traced))
        reports.append(report)
        gauge.sample()

    checks = Checks()
    first = report_payload(reports[0])
    for number, report in enumerate(reports):
        checks.expect(
            f"pass {number} reports every file",
            len(report.files) == len(sources) and not report.skipped_files,
        )
        checks.expect(f"pass {number} answers equal pass 0", report_payload(report) == first)
    symbols = reports[0].num_symbols
    checks.expect("the project has symbols", symbols > 0)
    # Top-1 does not depend on the checker, so the fixed evaluation project
    # is scored without it; checked_exact comes from the first timed pass.
    evaluation = ProjectAnnotator(pipeline, AnnotatorConfig(use_type_checker=False))
    scores = quality([evaluation.annotate_sources(evaluation_sources())])
    scores["checked_exact"] = quality(reports[:1])["checked_exact"]
    attempted = len(reports) * len(sources)
    failed = sum(len(sources) - len(report.files) + len(report.skipped_files) for report in reports)

    times = [elapsed for elapsed, _ in passes]
    label, tail_seconds, beyond = tail(times)
    detail = {
        "tail_ms": 1000.0 * tail_seconds,
        "files": len(sources),
        "symbols": symbols,
        "passes": len(passes),
        "pass_seconds": times,
        "tail": {"percentile": label, "samples": len(times), "beyond": beyond},
        "setup_samples": len(setup_seconds),
        "quality": scores,
        "checks": checks.failures,
    }
    if trace:
        untraced = [elapsed for elapsed, traced in passes[1:] if not traced]
        traced_times = [elapsed for elapsed, traced in passes if traced]
        overhead = 100.0 * (median(traced_times) / median(untraced) - 1.0)
        metrics = layers.layer_metrics(
            tracer,
            bindings,
            units=len(traced_times),
            extra={"typespace.markers": len(pipeline.type_space), "trace.overhead_pct": overhead},
        )
        detail["absent_bindings"] = sorted(layers.absent_bindings(bindings))
        bindings.restore()
    else:
        metrics = e2e_metrics(
            setup_s=median(setup_seconds),
            throughput_per_s=symbols / median(times),
            latency_p50_ms=1000.0 * median(times),
            peak_memory_mb=peak_rss_mb(),
            quality_share=scores["top1_exact"],
        )
    detail["machine_probe_ms"] = gauge.probe_ms
    return checks.result(attempted, failed, metrics, detail)
