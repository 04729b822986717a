"""Which program functions the traced run binds to, and the per-layer metrics.

Each binding wraps one public function at a layer boundary.  Spans carry the
binding's name; counters record the work each call did (graphs built,
symbols embedded, candidates accepted, ...).  A binding whose function no
longer exists makes only its own metrics absent.

Metrics are reported per unit of work of the workload (one project pass,
one training epoch, one replay of the serving requests), so runs of
different length compare directly.
"""

from __future__ import annotations

from typing import Any, Optional

from perfbench.spans import Bindings, Tracer, summarize

#: ``(binding name, target, options)`` in binding order.
BINDINGS: list[tuple[str, str, dict]] = [
    ("engine", "repro.engine.annotator:ProjectAnnotator.annotate_sources", {}),
    ("graph", "repro.graph.builder:GraphBuilder.build", {}),
    ("embed", "repro.core.embedder:SymbolEmbedder.embed_symbols", {}),
    ("knn", "repro.core.predictor:KNNTypePredictor.predict_batch", {}),
    ("typespace.add", "repro.core.typespace:TypeSpace.add_markers", {}),
    ("filter", "repro.core.filter:TypeCheckedFilter.filter_many", {}),
    ("checker", "repro.checker.checker:OptionalTypeChecker.check_source", {}),
    ("corpus.load", "repro.corpus.dataset:TypeAnnotationDataset.load", {}),
    ("corpus.decode", "repro.corpus.serialize:RawGraphShard.graph", {}),
    ("trainer.train", "repro.core.trainer:Trainer.train", {}),
    ("trainer.assemble", "repro.core.trainer:BatchPlan.training_batch", {}),
    ("trainer.prefetch", "repro.core.dataloader:stream_batches", {"generator": True}),
    ("nn.forward", "repro.models.base:SymbolEncoder.forward", {"subclasses": True}),
    ("nn.backward", "repro.nn.tensor:Tensor.backward", {}),
    ("nn.optim", "repro.nn.optim:Adam.step", {}),
]

#: The per-layer metrics each binding produces, with their units.
BINDING_METRICS: dict[str, dict[str, str]] = {
    "engine": {"engine.busy_ms": "ms", "engine.self_ms": "ms"},
    "graph": {
        "graph.calls": "count",
        "graph.busy_ms": "ms",
        "graph.nodes": "count",
        "graph.edges": "count",
        "graph.failures": "count",
    },
    "embed": {
        "embed.calls": "count",
        "embed.busy_ms": "ms",
        "embed.symbols": "count",
        "embed.graphs_per_call": "count",
    },
    "knn": {"knn.calls": "count", "knn.busy_ms": "ms", "knn.queries": "count"},
    "typespace.add": {
        "typespace.add_calls": "count",
        "typespace.add_busy_ms": "ms",
        "typespace.markers_added": "count",
    },
    "filter": {
        "filter.calls": "count",
        "filter.busy_ms": "ms",
        "filter.requests": "count",
        "filter.accepted_exact_share": "share",
    },
    "checker": {"checker.checks": "count", "checker.busy_ms": "ms"},
    "filter+checker": {"filter.checks_per_request": "count", "filter.accept_share": "share"},
    "corpus.load": {"corpus.load_ms": "ms"},
    "corpus.decode": {"corpus.graph_decodes": "count"},
    "trainer.train": {"trainer.epoch_ms": "ms"},
    "trainer.assemble": {"trainer.assemble_calls": "count", "trainer.assemble_busy_ms": "ms"},
    "trainer.prefetch": {"trainer.prefetch_wait_ms": "ms"},
    "nn.forward": {"nn.forward_calls": "count", "nn.forward_busy_ms": "ms"},
    "nn.backward": {"nn.backward_calls": "count", "nn.backward_busy_ms": "ms"},
    "nn.optim": {"nn.optim_calls": "count", "nn.optim_busy_ms": "ms"},
}

#: Per-layer metrics the workloads compute themselves (not from bindings).
WORKLOAD_METRICS: dict[str, str] = {
    "typespace.markers": "count",
    "serve.sent": "count",
    "serve.ok": "count",
    "serve.failed": "count",
    "serve.shed": "count",
    "serve.expired": "count",
    "serve.micro_batches": "count",
    "serve.batch_size_mean": "count",
    "serve.coalesced_share": "share",
    "serve.worker_restarts": "count",
    "serve.generator_lag_ms": "ms",
    "serve.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def all_metric_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for metrics in BINDING_METRICS.values():
        units.update(metrics)
    units.update(WORKLOAD_METRICS)
    return units


def _arg(args: tuple, kwargs: dict, position: int, name: str, default: Any = ()) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _graph_counts(tracer: Tracer, args: tuple, kwargs: dict, graph) -> None:
    tracer.count("graph.nodes", graph.num_nodes)
    tracer.count("graph.edges", graph.num_edges)


def _embed_counts(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("embed.graphs", len(_arg(args, kwargs, 1, "graphs")))
    tracer.count("embed.symbols", sum(len(targets) for targets in _arg(args, kwargs, 2, "targets_per_graph")))


def _knn_counts(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("knn.queries", len(_arg(args, kwargs, 1, "embeddings")))


def _add_counts(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("typespace.markers_added", len(_arg(args, kwargs, 1, "type_names")))


def _filter_counts(tracer: Tracer, args: tuple, kwargs: dict, filtered) -> None:
    requests = _arg(args, kwargs, 2, "requests")
    tracer.count("filter.requests", len(requests))
    for request, outcome in zip(requests, filtered):
        if outcome.accepted_type is None:
            continue
        tracer.count("filter.accepted")
        if request.original_annotation is not None:
            tracer.count("filter.accepted_annotated")
            tracer.count("filter.accepted_exact", outcome.accepted_type == request.original_annotation)


_RESULT_HOOKS = {
    "graph": _graph_counts,
    "embed": _embed_counts,
    "knn": _knn_counts,
    "typespace.add": _add_counts,
    "filter": _filter_counts,
}


def install(tracer: Tracer) -> Bindings:
    """Bind every layer-boundary function that exists in the program."""
    bindings = Bindings(tracer)
    for name, target, options in BINDINGS:
        bindings.bind(target, name, on_result=_RESULT_HOOKS.get(name), **options)
    return bindings


def absent_bindings(bindings: Bindings) -> set[str]:
    by_target = {target: name for name, target, _ in BINDINGS}
    return {by_target[target] for target in bindings.absent}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, bindings: Bindings, units: int, extra: Optional[dict[str, float]] = None) -> dict:
    """Every per-layer metric, per unit of work, as ``{name: {value, unit}}``.

    ``units`` is how many units of work the traced spans cover; ``extra``
    holds the workload-computed metrics.  Metrics of absent bindings are
    left out; workload metrics missing from ``extra`` read zero.
    """
    summary = summarize(tracer.spans)
    counters = tracer.counters
    per = max(1, units)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0) / per

    def busy_ms(name: str) -> float:
        return 1000.0 * summary.get(name, {}).get("busy_s", 0.0) / per

    def self_ms(name: str) -> float:
        return 1000.0 * summary.get(name, {}).get("self_s", 0.0) / per

    def counted(name: str) -> float:
        return counters.get(name, 0.0) / per

    load = summary.get("corpus.load", {})
    values: dict[str, float] = {
        "engine.busy_ms": busy_ms("engine"),
        "engine.self_ms": self_ms("engine"),
        "graph.calls": calls("graph"),
        "graph.busy_ms": busy_ms("graph"),
        "graph.nodes": counted("graph.nodes"),
        "graph.edges": counted("graph.edges"),
        "graph.failures": counted("graph.failures"),
        "embed.calls": calls("embed"),
        "embed.busy_ms": busy_ms("embed"),
        "embed.symbols": counted("embed.symbols"),
        "embed.graphs_per_call": _ratio(counters.get("embed.graphs", 0.0), summary.get("embed", {}).get("calls", 0)),
        "knn.calls": calls("knn"),
        "knn.busy_ms": busy_ms("knn"),
        "knn.queries": counted("knn.queries"),
        "typespace.add_calls": calls("typespace.add"),
        "typespace.add_busy_ms": busy_ms("typespace.add"),
        "typespace.markers_added": counted("typespace.markers_added"),
        "filter.calls": calls("filter"),
        "filter.busy_ms": busy_ms("filter"),
        "filter.requests": counted("filter.requests"),
        "filter.accepted_exact_share": _ratio(
            counters.get("filter.accepted_exact", 0.0), counters.get("filter.accepted_annotated", 0.0)
        ),
        "checker.checks": calls("checker"),
        "checker.busy_ms": busy_ms("checker"),
        "filter.checks_per_request": _ratio(
            summary.get("checker", {}).get("calls", 0), counters.get("filter.requests", 0.0)
        ),
        "filter.accept_share": _ratio(
            counters.get("filter.accepted", 0.0), summary.get("checker", {}).get("calls", 0)
        ),
        "corpus.load_ms": 1000.0 * _ratio(load.get("busy_s", 0.0), load.get("calls", 0)),
        "corpus.graph_decodes": calls("corpus.decode"),
        "trainer.epoch_ms": busy_ms("trainer.train"),
        "trainer.assemble_calls": calls("trainer.assemble"),
        "trainer.assemble_busy_ms": busy_ms("trainer.assemble"),
        "trainer.prefetch_wait_ms": busy_ms("trainer.prefetch.next"),
        "nn.forward_calls": calls("nn.forward"),
        "nn.forward_busy_ms": busy_ms("nn.forward"),
        "nn.backward_calls": calls("nn.backward"),
        "nn.backward_busy_ms": busy_ms("nn.backward"),
        "nn.optim_calls": calls("nn.optim"),
        "nn.optim_busy_ms": busy_ms("nn.optim"),
    }
    absent = absent_bindings(bindings)
    if "filter" in absent or "checker" in absent:
        absent.add("filter+checker")
    units_by_metric = all_metric_units()
    report: dict[str, dict] = {}
    for binding, metrics in BINDING_METRICS.items():
        if binding in absent:
            continue
        for name in metrics:
            report[name] = {"value": float(values[name]), "unit": units_by_metric[name]}
    extra = extra or {}
    for name, unit in WORKLOAD_METRICS.items():
        report[name] = {"value": float(extra.get(name, 0.0)), "unit": unit}
    return report
