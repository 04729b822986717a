"""Workload ``train-stream``: one streaming training run.

The prepared 300-file dataset (raw shards) is loaded with ``mmap=True`` and
trained serially with ``prefetch_batches=2`` for a fixed number of epochs,
one ``Trainer.train`` call per epoch.  Set-up is the dataset load plus the
encoder and ``Trainer`` construction.  The workload seed varies the
encoder's initialisation and the batch order.  After training, the model's
type map is built from the train and validation splits and the test split
is predicted for the quality metric.
"""

from __future__ import annotations

import math
import time

from perfbench import layers
from perfbench.annotate import peak_rss_mb
from perfbench.common import MachineGauge, median, prepared, tail
from perfbench.result import Checks, e2e_metrics
from perfbench.spans import Tracer

#: Set-ups timed before training; one more is timed after each epoch.
SETUP_REPEATS = 2
GRAPHS_PER_BATCH = 8
PREFETCH_BATCHES = 2
#: One epoch per this many seconds of the run, at least one.
SECONDS_PER_EPOCH = 5.0


def epochs_for(seconds: float) -> int:
    return max(1, int(seconds // SECONDS_PER_EPOCH))


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.core import EncoderConfig, KNNTypePredictor, Trainer, TrainingConfig, build_encoder
    from repro.corpus import TypeAnnotationDataset

    dataset_dir = prepared("dataset")
    epochs = epochs_for(seconds)
    tracer = Tracer()
    bindings = layers.install(tracer) if trace else None

    setup_seconds: list[float] = []

    def set_up():
        started = time.perf_counter()
        tracer.enabled = trace  # the load is the corpus layer's set-up cost
        dataset = TypeAnnotationDataset.load(dataset_dir, mmap=True)
        tracer.enabled = False
        encoder = build_encoder(dataset, EncoderConfig(family="graph", hidden_dim=32, gnn_steps=4, seed=seed))
        trainer = Trainer(
            encoder,
            dataset,
            config=TrainingConfig(
                epochs=1, graphs_per_batch=GRAPHS_PER_BATCH, seed=seed, prefetch_batches=PREFETCH_BATCHES
            ),
        )
        setup_seconds.append(time.perf_counter() - started)
        return dataset, trainer

    set_up()  # warm-up: first-use costs are not set-up
    del setup_seconds[:]
    for _ in range(SETUP_REPEATS):
        dataset, trainer = set_up()
    gauge = MachineGauge()
    gauge.sample()
    graphs = sum(1 for samples in dataset.train.samples_by_graph().values() if samples)
    planned_batches = math.ceil(graphs / GRAPHS_PER_BATCH)

    # In the traced run epochs alternate untraced/traced after an untraced
    # first epoch, so the tracing overhead is measured on one process.
    # Between epochs a discarded set-up is timed, so the set-up median spans
    # the run rather than one moment of it.
    epoch_seconds: list[tuple[float, bool]] = []
    history = []
    for epoch in range(epochs if not trace else max(epochs, 3)):
        traced = trace and epoch % 2 == 1
        tracer.request_id = f"epoch-{epoch}"
        tracer.enabled = traced
        started = time.perf_counter()
        result = trainer.train()
        epoch_seconds.append((time.perf_counter() - started, traced))
        tracer.enabled = False
        history.extend(result.history)
        gauge.sample()
        set_up()

    checks = Checks()
    for number, stats in enumerate(history):
        checks.expect(f"epoch {number} loss is finite", math.isfinite(stats.mean_loss))
        checks.expect(f"epoch {number} ran the planned {planned_batches} batches", stats.num_batches == planned_batches)
    checks.expect("one history entry per epoch", len(history) == len(epoch_seconds))

    space = trainer.build_type_space()
    embeddings, samples = trainer.embed_split(dataset.test)
    predictions = KNNTypePredictor(space).predict_batch(embeddings)
    top1 = sum(p.top_type == s.annotation for p, s in zip(predictions, samples)) / max(1, len(samples))
    checks.expect("the test split has samples", len(samples) > 0)

    times = [elapsed for elapsed, _ in epoch_seconds]
    label, tail_seconds, beyond = tail(times)
    detail = {
        "tail_ms": 1000.0 * tail_seconds,
        "train_graphs": graphs,
        "planned_batches": planned_batches,
        "epochs": len(times),
        "epoch_seconds": times,
        "losses": [stats.mean_loss for stats in history],
        "tail": {"percentile": label, "samples": len(times), "beyond": beyond},
        "setup_seconds": setup_seconds,
        "test_samples": len(samples),
        "checks": checks.failures,
    }
    if trace:
        untraced = [elapsed for elapsed, traced in epoch_seconds[1:] if not traced]
        traced_times = [elapsed for elapsed, traced in epoch_seconds if traced]
        extra = {
            "typespace.markers": len(space),
            "trace.overhead_pct": 100.0 * (median(traced_times) / median(untraced) - 1.0),
        }
        metrics = layers.layer_metrics(tracer, bindings, units=len(traced_times), extra=extra)
        detail["absent_bindings"] = sorted(layers.absent_bindings(bindings))
        bindings.restore()
    else:
        metrics = e2e_metrics(
            setup_s=median(setup_seconds),
            throughput_per_s=graphs / median(times),
            latency_p50_ms=1000.0 * median(times),
            peak_memory_mb=peak_rss_mb(),
            quality_share=top1,
        )
    detail["machine_probe_ms"] = gauge.probe_ms
    return checks.result(len(history) * planned_batches, 0, metrics, detail)
