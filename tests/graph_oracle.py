"""Object-walk references for the columnar graph consumers.

The program reads a graph only through its
:class:`~repro.graph.flatgraph.FlatGraph` arrays.  These functions compute
the same results the slow, obvious way — walking ``graph.nodes`` (one
:class:`~repro.graph.nodes.GraphNode` per node) and ``graph.edges`` (tuples
of pairs) — so the tests can assert that the array paths agree with them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import CodeGraph, EdgeKind, NodeKind
from repro.graph.edges import ALL_EDGE_KINDS
from repro.graph.flatgraph import FlatGraphBuilder
from repro.graph.subtokens import split_identifier
from repro.graph.visualize import _EDGE_COLOURS, _NODE_STYLE, _escape
from repro.models.batching import GraphBatch, SequenceBatch


def rebuilt(graph: CodeGraph) -> CodeGraph:
    """A fresh graph replayed from ``graph``'s node, edge and symbol objects."""
    arena = FlatGraphBuilder(filename=graph.filename, source=graph.source)
    for node in graph.nodes:
        arena.add_node(node.kind, node.text, lineno=node.lineno, col=node.col)
    for kind, pairs in graph.edges.items():
        for source, target in pairs:
            arena.add_edge(kind, source, target)
    arena.symbols = list(graph.symbols)
    return CodeGraph.from_flat(arena.finish())


def node_subtokens(graph: CodeGraph) -> list[tuple[int, list[str]]]:
    return [(node.index, split_identifier(node.text)) for node in graph.nodes]


def features(extractor, graph: CodeGraph):
    """:meth:`FeatureExtractor.features_for_graph`, one node text at a time."""
    return extractor.features_for_texts([node.text for node in graph.nodes])


def graph_batch(graphs: Sequence[CodeGraph], targets_per_graph: Sequence[Sequence[int]]) -> GraphBatch:
    """:func:`repro.models.batching.build_graph_batch` over pair tuples."""
    node_texts: list[str] = []
    edge_chunks: dict[EdgeKind, list[np.ndarray]] = {}
    target_chunks: list[np.ndarray] = []
    graph_of_node: list[int] = []
    offset = 0
    for graph_index, (graph, targets) in enumerate(zip(graphs, targets_per_graph)):
        node_texts.extend(node.text for node in graph.nodes)
        graph_of_node.extend([graph_index] * len(graph.nodes))
        for kind, pairs in graph.edges.items():
            edge_chunks.setdefault(kind, []).append(np.asarray(pairs, dtype=np.int64) + offset)
        target_chunks.append(np.asarray(list(targets), dtype=np.int64) + offset)
        offset += len(graph.nodes)
    return GraphBatch(
        node_texts=node_texts,
        edges={kind: np.concatenate(chunks, axis=0).T for kind, chunks in edge_chunks.items()},
        target_nodes=np.concatenate(target_chunks) if target_chunks else np.zeros(0, dtype=np.int64),
        graph_of_node=np.asarray(graph_of_node, dtype=np.int64),
        num_graphs=len(graphs),
    )


def sequence_batch(
    graphs: Sequence[CodeGraph], targets_per_graph: Sequence[Sequence[int]], max_tokens: int = 192
) -> SequenceBatch:
    """:func:`repro.models.batching.build_sequence_batch` over node objects."""
    token_texts: list[list[str]] = []
    target_occurrences: list[tuple[int, list[int]]] = []
    for sequence_index, (graph, targets) in enumerate(zip(graphs, targets_per_graph)):
        token_nodes = [node for node in graph.nodes if node.kind == NodeKind.TOKEN][:max_tokens]
        position_of_node = {node.index: position for position, node in enumerate(token_nodes)}
        token_texts.append([node.text for node in token_nodes])
        for node_index in targets:
            positions = sorted(
                position_of_node[source]
                for source, target in graph.edges_of(EdgeKind.OCCURRENCE_OF)
                if target == node_index and source in position_of_node
            )
            target_occurrences.append((sequence_index, positions or [0]))
    longest = max([1] + [len(texts) for texts in token_texts])
    padded = [texts + [""] * (longest - len(texts)) for texts in token_texts]
    return SequenceBatch(token_texts=padded, sequence_length=longest, target_occurrences=target_occurrences)


def dot(graph: CodeGraph, max_label_length: int = 24) -> str:
    """:func:`repro.graph.visualize.to_dot` over node objects and pair tuples."""
    lines = ["digraph code_graph {", "  rankdir=LR;", "  node [fontsize=10];"]
    for node in graph.nodes:
        label = node.text if len(node.text) <= max_label_length else node.text[: max_label_length - 1] + "…"
        lines.append(f'  n{node.index} [label="{_escape(label)}", {_NODE_STYLE[node.kind]}];')
    for kind in ALL_EDGE_KINDS:
        colour = _EDGE_COLOURS.get(kind.value, "#000000")
        for source, target in graph.edges_of(kind):
            lines.append(f'  n{source} -> n{target} [label="{kind.value}", color="{colour}", fontsize=8];')
    lines.append("}")
    return "\n".join(lines)
