"""The columnar FlatGraph core: arena building, the CodeGraph view, shards."""

import numpy as np
import pytest

import graph_oracle
from repro.corpus.serialize import (
    PayloadError,
    flat_graphs_from_arrays,
    flat_graphs_to_arrays,
    graph_to_payload,
    read_graph_shard,
    write_graph_shard,
)
from repro.graph import CodeGraph, EdgeKind, FlatGraph, NodeKind, SymbolKind, build_graph
from repro.graph.flatgraph import (
    NO_ANNOTATION,
    NODE_KIND_CODES,
    FlatGraphBuilder,
    StringTable,
    is_identifier_text,
)
from repro.models.featurize import SUBTOKEN, FeatureExtractor
from repro.models.batching import build_graph_batch, build_sequence_batch


@pytest.fixture()
def graph(sample_source) -> CodeGraph:
    return build_graph(sample_source, "sample.py")


class TestStringTable:
    def test_interning_is_idempotent(self):
        table = StringTable()
        first = table.intern("total")
        second = table.intern("total")
        other = table.intern("count")
        assert first == second == 0 and other == 1
        assert table[0] == "total" and len(table) == 2

    def test_preseeded_table(self):
        table = StringTable(["a", "b"])
        assert table.intern("a") == 0 and table.intern("c") == 2


class TestArena:
    def test_builder_produces_flat_backed_graphs(self, graph):
        assert graph.flat is not None
        flat = graph.flat
        assert flat.num_nodes == graph.num_nodes
        assert flat.num_edges == graph.num_edges
        assert flat.node_kind.dtype == np.int32
        for pairs in flat.edges.values():
            assert pairs.dtype == np.int32 and pairs.shape[0] == 2

    def test_string_table_interns_repeated_lexemes(self, graph):
        flat = graph.flat
        texts = flat.node_texts()
        assert len(set(texts)) == len(flat.strings) or len(set(texts)) <= len(flat.strings)
        # repeated lexemes share one table entry, so the table is strictly
        # smaller than the node count for any real file
        assert len(flat.strings) < flat.num_nodes
        assert texts == [node.text for node in graph.nodes]

    def test_materialised_view_matches_arrays(self, graph):
        flat = graph.flat
        for node in graph.nodes:
            assert NODE_KIND_CODES[node.kind] == int(flat.node_kind[node.index])
            assert node.text == flat.text_of(node.index)
            assert node.lineno == int(flat.node_line[node.index])
            assert node.col == int(flat.node_col[node.index])
        for kind, pairs in graph.edges.items():
            assert pairs == tuple(tuple(pair) for pair in flat.edges[kind].T.tolist())
        for position, symbol in enumerate(graph.symbols):
            assert symbol.node_index == int(flat.symbol_node[position])
            assert symbol.annotation == flat.annotation_of(position)
            assert symbol.occurrence_indices == flat.occurrences_of(position).tolist()

    def test_unannotated_symbols_use_sentinel(self, graph):
        flat = graph.flat
        unannotated = [
            position for position, symbol in enumerate(graph.symbols) if symbol.annotation is None
        ]
        assert unannotated, "sample source should contain unannotated symbols"
        for position in unannotated:
            assert int(flat.symbol_annotation[position]) == NO_ANNOTATION

    def test_arena_edge_validation_matches_codegraph(self):
        arena = FlatGraphBuilder("x.py", "")
        first = arena.add_node(NodeKind.TOKEN, "a")
        second = arena.add_node(NodeKind.TOKEN, "b")
        arena.add_edge(EdgeKind.NEXT_TOKEN, first, second)
        arena.add_edge(EdgeKind.NEXT_TOKEN, first, first)  # self loop dropped
        with pytest.raises(IndexError):
            arena.add_edge(EdgeKind.NEXT_TOKEN, first, 99)
        flat = arena.finish()
        assert flat.num_edges == 1

    def test_flat_round_trip_through_objects(self, graph):
        rebuilt = graph_oracle.rebuilt(graph)
        assert graph_to_payload(rebuilt) == graph_to_payload(graph)
        assert rebuilt == graph

    def test_is_identifier_text(self):
        assert is_identifier_text("snake_case") and is_identifier_text("_private")
        assert not is_identifier_text("42") and not is_identifier_text("") and not is_identifier_text("+")


class TestCodeGraphView:
    def test_node_and_edge_views_are_read_only(self, graph):
        """Editing the object views raises instead of being silently lost,
        and neither the edits nor the reads touch the arrays."""
        from dataclasses import FrozenInstanceError

        from repro.graph.nodes import GraphNode

        flat = graph.flat
        before = graph_to_payload(graph)
        with pytest.raises(AttributeError):
            graph.nodes.append(GraphNode(index=graph.num_nodes, kind=NodeKind.TOKEN, text="extra"))
        with pytest.raises(TypeError):
            graph.nodes[0] = GraphNode(index=0, kind=NodeKind.TOKEN, text="extra")
        with pytest.raises(FrozenInstanceError):
            graph.nodes[0].text = "extra"
        with pytest.raises(AttributeError):
            graph.edges[EdgeKind.CHILD].append((0, 1))
        with pytest.raises(TypeError):
            graph.edges[EdgeKind.CHILD] = ((0, 1),)
        with pytest.raises(AttributeError):
            graph.nodes = ()
        with pytest.raises(AttributeError):
            graph.edges = {}
        with pytest.raises(TypeError):
            CodeGraph()
        assert graph.flat is flat and graph.to_flat() is flat
        assert graph.nodes is graph.nodes and graph.edges is graph.edges  # built once
        assert graph_to_payload(graph) == before

    def test_symbol_mutation_survives_flat_round_trip(self, graph):
        """Symbols stay object-backed on flat graphs; editing one (e.g. the
        pipeline attaching an annotation) must be persisted by to_flat."""
        assert graph.flat is not None
        symbol = next(s for s in graph.symbols if s.annotation is None)
        symbol.annotation = "SomeBrandNewType"
        rebuilt = CodeGraph.from_flat(graph.to_flat())
        assert graph.flat is not None  # reading symbols never drops the arrays
        match = rebuilt.find_symbol(symbol.name, scope=symbol.scope, kind=symbol.kind)
        assert match is not None and match.annotation == "SomeBrandNewType"

    def test_unchanged_symbols_reuse_the_backing_arrays(self, graph):
        flat = graph.flat
        assert graph.to_flat() is flat  # fast path: nothing to rebuild

    def test_without_edges_keeps_symbol_edits(self):
        graph = build_graph("def f(x):\n    y = x + 1\n    return y\n", "edit.py")
        graph.find_symbol("x").annotation = "int"
        ablated = graph.without_edges([EdgeKind.SUBTOKEN_OF])
        assert ablated.find_symbol("x").annotation == "int"
        assert ablated.flat.node_kind is graph.flat.node_kind  # node arrays shared

    def test_edges_of_missing_kind_returns_empty_tuple_without_insertion(self):
        arena = FlatGraphBuilder(filename="tiny.py")
        arena.add_node(NodeKind.TOKEN, "x")
        graph = CodeGraph.from_flat(arena.finish())
        before = graph_to_payload(graph)
        assert graph.edges_of(EdgeKind.NEXT_MAY_USE) == ()
        _ = graph.num_edges
        assert EdgeKind.NEXT_MAY_USE not in graph.edges
        assert graph_to_payload(graph) == before

    def test_edges_of_read_does_not_pollute_equality(self, graph, sample_source):
        pristine = build_graph(sample_source, graph.filename)
        missing = [kind for kind in EdgeKind if kind not in graph.edges]
        probed = graph.without_edges([EdgeKind.SUBTOKEN_OF])
        reference = graph.without_edges([EdgeKind.SUBTOKEN_OF])
        for kind in EdgeKind:
            probed.edges_of(kind)
        _ = probed.num_edges
        assert probed == reference
        assert missing == []  # sample source exercises every kind
        assert pristine == graph

    def test_flat_backed_edges_of_matches_materialised(self, graph):
        for kind in EdgeKind:
            pairs = graph.edges_of(kind)
            assert list(pairs) == [tuple(pair) for pair in graph.flat.edge_array(kind).T.tolist()]
            assert pairs == graph.edges.get(kind, ())

    def test_without_edges_stays_flat(self, graph):
        ablated = graph.without_edges([EdgeKind.SUBTOKEN_OF, EdgeKind.NEXT_TOKEN])
        assert ablated.flat is not None
        assert EdgeKind.SUBTOKEN_OF not in ablated.flat.edges
        assert ablated.num_nodes == graph.num_nodes
        assert ablated.edges_of(EdgeKind.SUBTOKEN_OF) == ()
        assert ablated.edges_of(EdgeKind.CHILD) == graph.edges_of(EdgeKind.CHILD)

    def test_summary_identical_with_and_without_materialisation(self, graph, sample_source):
        fresh = build_graph(sample_source, graph.filename)
        summary = fresh.summary()
        assert summary["tokens"] == len(graph.nodes_of_kind(NodeKind.TOKEN))
        assert summary["vocabulary"] == len(graph.nodes_of_kind(NodeKind.VOCABULARY))
        assert summary["non_terminals"] == len(graph.nodes_of_kind(NodeKind.NON_TERMINAL))
        assert summary == graph.summary()

    def test_node_subtokens_identical(self, graph):
        assert list(graph.node_subtokens()) == graph_oracle.node_subtokens(graph)

    def test_graphs_pickle_across_process_boundaries(self, graph):
        import pickle

        _ = graph.nodes, graph.edges  # the cached views must not block pickling
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.edges == graph.edges and clone.nodes == graph.nodes
        assert clone.flat is not None
        assert graph_to_payload(clone) == graph_to_payload(graph)


class TestBinaryShards:
    def test_arrays_round_trip(self, graph, sample_source):
        other = build_graph("def helper(value):\n    return value\n", "helper.py")
        arrays = flat_graphs_to_arrays([graph.flat, other.flat])
        restored = flat_graphs_from_arrays(arrays)
        assert len(restored) == 2
        for original, loaded in zip([graph, other], restored):
            view = CodeGraph.from_flat(loaded)
            assert graph_to_payload(view) == graph_to_payload(original)
            assert view.source == original.source and view.filename == original.filename

    def test_shard_file_round_trip(self, graph, tmp_path):
        shard = tmp_path / "graphs-00000.npz"
        write_graph_shard(shard, [graph])
        (loaded,) = read_graph_shard(shard)
        assert loaded.flat is not None
        assert graph_to_payload(loaded) == graph_to_payload(graph)

    def test_object_built_graphs_flatten_for_shards(self, graph, tmp_path):
        shard = tmp_path / "graphs-00000.npz"
        write_graph_shard(shard, [graph_oracle.rebuilt(graph)])
        (loaded,) = read_graph_shard(shard)
        assert graph_to_payload(loaded) == graph_to_payload(graph)

    def test_fingerprint_mismatch_raises(self, graph, tmp_path):
        shard = tmp_path / "graphs-00000.npz"
        write_graph_shard(shard, [graph])
        with np.load(shard, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["nodes"] = arrays["nodes"] + 1
        with open(shard, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(PayloadError, match="fingerprint"):
            read_graph_shard(shard)

    def test_unknown_version_raises(self, graph):
        arrays = flat_graphs_to_arrays([graph.flat])
        arrays["format"] = np.asarray([999], dtype=np.int64)
        with pytest.raises(PayloadError, match="version"):
            flat_graphs_from_arrays(arrays)

    def test_empty_graph_round_trips(self):
        empty = build_graph("", "empty.py")
        arrays = flat_graphs_to_arrays([empty.to_flat()])
        (restored,) = flat_graphs_from_arrays(arrays)
        assert restored.num_nodes == empty.num_nodes
        assert graph_to_payload(CodeGraph.from_flat(restored)) == graph_to_payload(empty)


class TestFlatConsumers:
    def test_features_for_graph_byte_identical(self, graph):
        from repro.graph import SubtokenVocabulary

        vocabulary = SubtokenVocabulary()
        for _, subtokens in graph.node_subtokens():
            vocabulary.observe(subtokens)
        vocabulary.finalise()
        extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=vocabulary)
        via_table = extractor.features_for_graph(graph)
        oracle = graph_oracle.features(extractor, graph)
        assert np.array_equal(via_table.ids, oracle.ids)
        assert np.array_equal(via_table.row_splits, oracle.row_splits)

    def test_graph_batches_identical_flat_vs_objects(self, graph):
        other = build_graph("def helper(value):\n    return value + 1\n", "helper.py")
        targets = [[symbol.node_index for symbol in g.symbols] for g in (graph, other)]
        flat_batch = build_graph_batch([graph, other], targets)
        object_batch = graph_oracle.graph_batch([graph, other], targets)
        assert flat_batch.node_texts == object_batch.node_texts
        assert set(flat_batch.edges) == set(object_batch.edges)
        for kind in flat_batch.edges:
            assert np.array_equal(flat_batch.edges[kind], object_batch.edges[kind])
            assert flat_batch.edges[kind].dtype == np.int64
        assert np.array_equal(flat_batch.target_nodes, object_batch.target_nodes)
        assert np.array_equal(flat_batch.graph_of_node, object_batch.graph_of_node)

    def test_sequence_batches_identical_flat_vs_objects(self, graph):
        targets = [[symbol.node_index for symbol in graph.symbols]]
        flat_batch = build_sequence_batch([graph], targets, max_tokens=64)
        object_batch = graph_oracle.sequence_batch([graph], targets, max_tokens=64)
        assert flat_batch.token_texts == object_batch.token_texts
        assert flat_batch.sequence_length == object_batch.sequence_length
        assert flat_batch.target_occurrences == object_batch.target_occurrences

    def test_symbol_lookup_on_flat_view(self, graph):
        symbol = graph.find_symbol("widget", kind=SymbolKind.PARAMETER)
        assert symbol is not None and symbol.occurrence_indices
        assert graph.symbol_by_node(symbol.node_index) is symbol
