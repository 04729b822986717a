"""Tests for the compile-once training plan, dtype config and epoch timing."""

import numpy as np
import pytest

from repro.core import BatchPlan, EncoderConfig, LossKind, Trainer, TrainingConfig, build_encoder
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.models.batching import build_graph_batch


@pytest.fixture(scope="module")
def plan_dataset() -> TypeAnnotationDataset:
    return TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=14, seed=21, num_user_classes=8),
        DatasetConfig(rarity_threshold=8, seed=5),
    )


def _losses(dataset, family, dtype, compile_batches, epochs=3):
    encoder = build_encoder(dataset, EncoderConfig(family=family, hidden_dim=16, gnn_steps=2, seed=9))
    trainer = Trainer(
        encoder,
        dataset,
        loss_kind=LossKind.TYPILUS,
        config=TrainingConfig(
            epochs=epochs, graphs_per_batch=4, seed=9, dtype=dtype, compile_batches=compile_batches
        ),
    )
    return trainer.train(), trainer


class TestCompiledPlanExactness:
    @pytest.mark.parametrize("family", ["graph", "sequence", "names", "path"])
    def test_float64_compiled_replays_eager_losses_exactly(self, plan_dataset, family):
        eager, _ = _losses(plan_dataset, family, "float64", False)
        compiled, _ = _losses(plan_dataset, family, "float64", True)
        assert [s.mean_loss for s in compiled.history] == [s.mean_loss for s in eager.history]

    def test_float32_trains_and_reduces_loss(self, plan_dataset):
        result, trainer = _losses(plan_dataset, "graph", "float32", True, epochs=4)
        assert trainer.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in trainer.encoder.parameters())
        assert result.history[-1].mean_loss < result.history[0].mean_loss

    def test_float32_losses_close_to_float64(self, plan_dataset):
        result32, _ = _losses(plan_dataset, "graph", "float32", True, epochs=2)
        result64, _ = _losses(plan_dataset, "graph", "float64", True, epochs=2)
        for stat32, stat64 in zip(result32.history, result64.history):
            assert stat32.mean_loss == pytest.approx(stat64.mean_loss, rel=1e-3)


class TestBatchPlanAssembly:
    def test_assembled_graph_batch_matches_eager_union(self, plan_dataset):
        encoder = build_encoder(plan_dataset, EncoderConfig(family="graph", hidden_dim=16, gnn_steps=2, seed=9))
        split = plan_dataset.train
        plan = BatchPlan(encoder, split)
        assert plan.supports_assembly

        samples_by_graph = split.samples_by_graph()
        chosen = sorted(samples_by_graph)[:3]
        groups = [samples_by_graph[index] for index in chosen]
        assembled = plan.assemble(chosen, groups)

        graphs = [split.graphs[index] for index in chosen]
        targets = [[sample.node_index for sample in group] for group in groups]
        eager = build_graph_batch(graphs, targets)

        assert assembled.node_texts == eager.node_texts
        assert (assembled.target_nodes == eager.target_nodes).all()
        assert (assembled.graph_of_node == eager.graph_of_node).all()
        assert set(assembled.edges) == set(eager.edges)
        for kind in eager.edges:
            assert (assembled.edges[kind] == eager.edges[kind]).all()
        # Assembled features reproduce the eager featurization bit-for-bit.
        features = assembled.features
        eager_features = encoder.initializer.featurize(eager.node_texts)
        assert (features.ids == eager_features.ids).all()
        assert (features.segments == eager_features.segments).all()

    def test_batches_are_cached_across_epochs(self, plan_dataset):
        encoder = build_encoder(plan_dataset, EncoderConfig(family="graph", hidden_dim=16, gnn_steps=2, seed=9))
        split = plan_dataset.train
        samples_by_graph = split.samples_by_graph()
        chosen = sorted(samples_by_graph)[:2]
        groups = [samples_by_graph[index] for index in chosen]
        resident = BatchPlan(encoder, split)
        assert resident.training_batch(0, chosen, groups) is resident.training_batch(0, chosen, groups)
        lazy = BatchPlan(encoder, split, lazy=True)
        assert lazy.training_batch(0, chosen, groups) is not lazy.training_batch(0, chosen, groups)

    def test_reads_never_change_the_graph_representation(self, plan_dataset):
        """A path-family epoch and a DOT export read every graph; each keeps
        its FlatGraph and the very same arrays."""
        from repro.graph import to_dot

        graphs = list(plan_dataset.train.graphs)
        before = [(graph.flat, graph.flat.node_kind, dict(graph.flat.edges)) for graph in graphs]
        _losses(plan_dataset, "path", "float64", False, epochs=1)
        for graph in graphs:
            to_dot(graph)
        for graph, (flat, node_kind, edges) in zip(graphs, before):
            assert graph.flat is flat and graph.flat.node_kind is node_kind
            assert all(graph.flat.edges[kind] is pairs for kind, pairs in edges.items())

    def test_path_family_plan_enables_memo_instead(self, plan_dataset):
        encoder = build_encoder(plan_dataset, EncoderConfig(family="path", hidden_dim=16, seed=9))
        plan = BatchPlan(encoder, plan_dataset.train)
        assert not plan.supports_assembly
        assert encoder.initializer.extractor._memo is not None

    def test_plan_reuses_persisted_features(self, plan_dataset, tmp_path):
        plan_dataset.save(tmp_path / "ds")
        reloaded = TypeAnnotationDataset.load(tmp_path / "ds")
        assert reloaded.train.node_features is not None
        encoder = build_encoder(reloaded, EncoderConfig(family="graph", hidden_dim=16, gnn_steps=2, seed=9))
        plan = BatchPlan(encoder, reloaded.train)
        samples_by_graph = reloaded.train.samples_by_graph()
        some_graph = next(iter(samples_by_graph))
        entry = plan._graph_entries[some_graph]
        # The compiled entry holds the restored array objects, not recomputed ones.
        assert entry.features is reloaded.train.node_features[some_graph]


class TestEpochTiming:
    def test_epoch_seconds_are_per_epoch_not_cumulative(self, plan_dataset):
        result, _ = _losses(plan_dataset, "names", "float64", False, epochs=3)
        seconds = [stats.seconds for stats in result.history]
        assert all(value >= 0.0 for value in seconds)
        total = result.stopwatch.total("train_epoch")
        # The regression: each epoch used to report the cumulative total, so
        # summing the history overshot the stopwatch by ~2x for 3 epochs.
        assert sum(seconds) == pytest.approx(total, rel=1e-6)
