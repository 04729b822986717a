"""Property: an answer does not depend on which other files share its batch.

Embeddings are computed over a disjoint union of graphs and the checker
filter runs per file, so embedding a file alone or among others, in any
order and any chunking, must give the same rows — and annotating a set of
files must give each file the answers it gets on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import CheckerMode
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.graph import build_graph

POOL_FILES = 8


@pytest.fixture(scope="module")
def pool() -> dict[str, str]:
    config = SynthesisConfig(num_files=POOL_FILES, seed=77, num_user_classes=6, duplicate_fraction=0.0)
    return {entry.filename: entry.source for entry in CorpusSynthesizer(config).generate()}


@pytest.fixture(scope="module")
def pool_graphs(pool):
    return {filename: build_graph(source, filename) for filename, source in pool.items()}


def _targets(graph) -> list[int]:
    return [symbol.node_index for symbol in graph.symbols]


_order = st.permutations(list(range(POOL_FILES)))
_settings = settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBatchComposition:
    @_settings
    @given(order=_order, size=st.integers(min_value=1, max_value=POOL_FILES), batch_graphs=st.integers(1, 8))
    def test_embedding_rows_equal_alone_and_in_a_batch(self, trained_pipeline, pool_graphs, order, size, batch_graphs):
        names = sorted(pool_graphs)
        chosen = [pool_graphs[names[index]] for index in order[:size]]
        embedder = trained_pipeline.embedder
        batched = embedder.embed_symbols(chosen, [_targets(graph) for graph in chosen], batch_graphs=batch_graphs)
        cursor = 0
        for graph in chosen:
            alone = embedder.embed_symbols([graph], [_targets(graph)])
            assert np.array_equal(batched[cursor : cursor + len(alone)], alone)
            cursor += len(alone)
        assert cursor == len(batched)

    @_settings
    @given(order=_order, split=st.integers(min_value=1, max_value=POOL_FILES - 1), data=st.data())
    def test_suggestions_for_a_subset_equal_its_own_answer(self, trained_pipeline, pool, order, split, data):
        names = sorted(pool)
        subset = [names[index] for index in order[:split]]
        others = [names[index] for index in order[split:]]
        extra = data.draw(st.integers(min_value=1, max_value=len(others)))
        union_order = data.draw(st.permutations(subset + others[:extra]))
        alone = trained_pipeline.suggest_for_sources(
            {name: pool[name] for name in subset}, checker_mode=CheckerMode.STRICT
        )
        together = trained_pipeline.suggest_for_sources(
            {name: pool[name] for name in union_order}, checker_mode=CheckerMode.STRICT
        )
        assert {name: together[name] for name in subset} == alone
