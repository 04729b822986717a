"""Object-walk references for the columnar graph consumers.

The program reads a graph only through its
:class:`~repro.graph.flatgraph.FlatGraph` arrays.  These functions compute
the same results the slow, obvious way — walking ``graph.nodes`` (one
:class:`~repro.graph.nodes.GraphNode` per node) and ``graph.edges`` (tuples
of pairs) — so the tests can assert that the array paths agree with them.

It also keeps the two-visitor text front-end the graph builder replaced
with one walk: a collector over the original tree, then a transformer that
erases annotations, ``fix_missing_locations``, ``unparse``, and a re-parse.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

import numpy as np

from repro.graph import CodeGraph, EdgeKind, NodeKind
from repro.graph.builder import RETURN_SYMBOL_NAME, SymbolKey, _BuildState
from repro.graph.edges import ALL_EDGE_KINDS
from repro.graph.flatgraph import FlatGraphBuilder
from repro.graph.nodes import SymbolKind
from repro.graph.subtokens import split_identifier
from repro.graph.visualize import _EDGE_COLOURS, _NODE_STYLE, _escape
from repro.models.batching import GraphBatch, SequenceBatch


class _AnnotationCollector(ast.NodeVisitor):
    """Collect annotation strings from the *original* (un-erased) tree."""

    def __init__(self) -> None:
        self.annotations: dict[SymbolKey, str] = {}
        self._scope: list[str] = ["module"]

    @property
    def scope_path(self) -> str:
        return ".".join(self._scope)

    def _record(self, name: str, kind: SymbolKind, annotation: Optional[ast.expr], scope: Optional[str] = None) -> None:
        if annotation is None:
            return
        self.annotations[SymbolKey(scope or self.scope_path, name, kind)] = ast.unparse(annotation)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scope.append(node.name)
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            self._record(arg.arg, SymbolKind.PARAMETER, arg.annotation)
        if args.vararg is not None:
            self._record(args.vararg.arg, SymbolKind.PARAMETER, args.vararg.annotation)
        if args.kwarg is not None:
            self._record(args.kwarg.arg, SymbolKind.PARAMETER, args.kwarg.annotation)
        self._record(RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN, node.returns)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            self._record(target.id, SymbolKind.VARIABLE, node.annotation)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
            class_scope = ".".join(self._scope[:-1]) if len(self._scope) > 1 else self.scope_path
            self._record(f"self.{target.attr}", SymbolKind.VARIABLE, node.annotation, scope=class_scope)
        self.generic_visit(node)


class _AnnotationEraser(ast.NodeTransformer):
    """Remove every type annotation from the tree, preserving structure."""

    def _erase_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> ast.AST:
        self.generic_visit(node)
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            arg.annotation = None
        if args.vararg is not None:
            args.vararg.annotation = None
        if args.kwarg is not None:
            args.kwarg.annotation = None
        node.returns = None
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = _erase_function

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.AST:
        self.generic_visit(node)
        value = node.value if node.value is not None else ast.Constant(value=None)
        return ast.copy_location(ast.Assign(targets=[node.target], value=value), node)


def collect_annotations(source: str) -> dict[SymbolKey, str]:
    """:func:`repro.graph.collect_annotations` as its own walk of its own parse."""
    collector = _AnnotationCollector()
    collector.visit(ast.parse(source))
    return collector.annotations


def erase_annotations(source: str) -> str:
    """:func:`repro.graph.erase_annotations` as its own parse and transform."""
    tree = _AnnotationEraser().visit(ast.parse(source))
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


def build(source: str, filename: str = "<string>") -> CodeGraph:
    """:meth:`GraphBuilder.build` over the two-visitor front-end (three parses)."""
    annotations = collect_annotations(source)
    erased = erase_annotations(source)
    tree = ast.parse(erased)
    arena = FlatGraphBuilder(filename=filename, source=erased)
    state = _BuildState(graph=arena, annotations=annotations)
    state.add_tokens(erased)
    state.walk_module(tree)
    state.run_dataflow()
    state.add_subtoken_edges()
    state.attach_annotations()
    return CodeGraph.from_flat(arena.finish())


def flat_arrays(graph: CodeGraph) -> dict[str, object]:
    """Every column of ``graph.flat`` as bytes (plus its strings), for exact comparison."""
    flat = graph.flat
    arrays: dict[str, object] = {"filename": flat.filename, "source": flat.source, "strings": flat.strings}
    for name in (
        "node_kind", "node_text", "node_line", "node_col", "symbol_node", "symbol_name", "symbol_kind",
        "symbol_scope", "symbol_annotation", "symbol_line", "occurrence_ids", "occurrence_splits",
    ):
        column = getattr(flat, name)
        arrays[name] = (column.dtype.str, column.shape, column.tobytes())
    for kind, pairs in flat.edges.items():
        arrays[f"edges:{kind.value}"] = (pairs.dtype.str, pairs.shape, pairs.tobytes())
    return arrays


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
