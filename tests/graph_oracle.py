"""Object-walk references for the columnar graph consumers.

The program reads a graph only through its
:class:`~repro.graph.flatgraph.FlatGraph` arrays.  These functions compute
the same results the slow, obvious way — walking ``graph.nodes`` (one
:class:`~repro.graph.nodes.GraphNode` per node) and ``graph.edges`` (tuples
of pairs) — so the tests can assert that the array paths agree with them.

It also keeps two superseded graph front-ends as the reference the builder
is held to, byte for byte:

* the two-visitor text front-end: a collector over the original tree, then a
  transformer that erases annotations, ``fix_missing_locations``,
  ``unparse``, and a re-parse;
* the per-element walk: one ``add_node``/``add_edge`` call per element into
  an arena of tuple lists, ``ASSIGNED_FROM`` found by scanning every
  ``CHILD`` edge, and a ``NEXT_MAY_USE`` analysis that runs every loop body
  twice without a memo (so it costs ``2**depth`` on nested loops — keep the
  inputs small).
"""

from __future__ import annotations

import ast
import io
import tokenize as tokenize_module
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.graph import CodeGraph, EdgeKind, NodeKind
from repro.graph.builder import RETURN_SYMBOL_NAME, GraphBuildError, SymbolKey
from repro.graph.dataflow import UseEvent
from repro.graph.edges import ALL_EDGE_KINDS
from repro.graph.flatgraph import (
    NO_ANNOTATION,
    NODE_KIND_CODES,
    NODE_KIND_ORDER,
    SYMBOL_KIND_CODES,
    FlatGraph,
    FlatGraphBuilder,
    StringTable,
)
from repro.graph.nodes import SymbolInfo, SymbolKind, is_identifier_text
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
    """:meth:`GraphBuilder.build` over the two-visitor front-end (three
    parses) and the per-element walk."""
    annotations = collect_annotations(source)
    erased = erase_annotations(source)
    tree = ast.parse(erased)
    arena = PerElementArena(filename=filename, source=erased)
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


#: Token types kept as token nodes (identifiers/keywords, operators, literals).
_KEPT_TOKEN_TYPES = {
    tokenize_module.NAME,
    tokenize_module.OP,
    tokenize_module.NUMBER,
    tokenize_module.STRING,
}


# ---------------------------------------------------------------------------
# The frozen per-element walk: dataflow, arena and builder state
# ---------------------------------------------------------------------------

#: Maps a name to the set of occurrence ids that may be the "last" use so far.
LastUses = dict[str, set[int]]


def _merge(*branches: LastUses) -> LastUses:
    merged: LastUses = {}
    for branch in branches:
        for name, uses in branch.items():
            merged.setdefault(name, set()).update(uses)
    return merged


def _copy(last: LastUses) -> LastUses:
    return {name: set(uses) for name, uses in last.items()}


class UnmemoisedNextMayUse:
    """Computes the NEXT_MAY_USE relation for one scope.

    Parameters
    ----------
    uses_of_statement:
        Callback returning the lexically ordered :class:`UseEvent` list of a
        statement or expression node, *excluding* anything inside nested
        function/class definitions (the builder owns that logic because it
        already knows which AST nodes map to which token nodes).
    """

    def __init__(self, uses_of_statement: Callable[[ast.AST], list[UseEvent]]) -> None:
        self._uses_of = uses_of_statement
        self.pairs: set[tuple[int, int]] = set()

    # -- public API -------------------------------------------------------------

    def analyse_body(self, body: Iterable[ast.stmt], initial: Optional[LastUses] = None) -> LastUses:
        """Analyse a function or module body and return the trailing last-uses.

        ``initial`` seeds the analysis with uses that precede the body — the
        graph builder passes the parameter-definition tokens of the enclosing
        function so the first use of a parameter links back to its definition.
        """
        return self._run_block(list(body), _copy(initial) if initial else {})

    # -- internals ----------------------------------------------------------------

    def _link(self, last: LastUses, event: UseEvent) -> None:
        for previous in last.get(event.name, ()):  # may be empty: first use
            if previous != event.occurrence_id:
                self.pairs.add((previous, event.occurrence_id))

    def _run_uses(self, node: Optional[ast.AST], last: LastUses) -> LastUses:
        """Thread the uses of a single expression/statement through ``last``."""
        if node is None:
            return last
        for event in self._uses_of(node):
            self._link(last, event)
            last[event.name] = {event.occurrence_id}
        return last

    def _run_block(self, statements: list[ast.stmt], last: LastUses) -> LastUses:
        for statement in statements:
            last = self._run_statement(statement, last)
        return last

    def _run_statement(self, statement: ast.stmt, last: LastUses) -> LastUses:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # New scope: only the decorators and default expressions execute here.
            for decorator in statement.decorator_list:
                last = self._run_uses(decorator, last)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in list(statement.args.defaults) + [
                    d for d in statement.args.kw_defaults if d is not None
                ]:
                    last = self._run_uses(default, last)
            return last

        if isinstance(statement, ast.If):
            last = self._run_uses(statement.test, last)
            then_branch = self._run_block(statement.body, _copy(last))
            else_branch = self._run_block(statement.orelse, _copy(last))
            return _merge(then_branch, else_branch)

        if isinstance(statement, (ast.While,)):
            last = self._run_uses(statement.test, last)
            body_out = self._run_block(statement.body, _copy(last))
            # Back edge: the body may execute again after itself.
            body_again = self._run_block(statement.body, _copy(body_out))
            else_out = self._run_block(statement.orelse, _copy(last))
            return _merge(last, body_out, body_again, else_out)

        if isinstance(statement, (ast.For, ast.AsyncFor)):
            last = self._run_uses(statement.iter, last)
            last = self._run_uses(statement.target, last)
            body_out = self._run_block(statement.body, _copy(last))
            body_again = self._run_block(statement.body, _copy(body_out))
            else_out = self._run_block(statement.orelse, _copy(last))
            return _merge(last, body_out, body_again, else_out)

        if isinstance(statement, ast.Try):
            body_out = self._run_block(statement.body, _copy(last))
            handler_outs = []
            for handler in statement.handlers:
                # A handler may run after any prefix of the body; approximating
                # with "after the whole body or before it" keeps the relation small.
                handler_entry = _merge(_copy(last), _copy(body_out))
                handler_outs.append(self._run_block(handler.body, handler_entry))
            else_out = self._run_block(statement.orelse, _copy(body_out))
            merged = _merge(body_out, else_out, *handler_outs) if handler_outs else _merge(body_out, else_out)
            return self._run_block(statement.finalbody, merged)

        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                last = self._run_uses(item.context_expr, last)
                last = self._run_uses(item.optional_vars, last)
            return self._run_block(statement.body, last)

        if isinstance(statement, ast.Return):
            return self._run_uses(statement.value, last)

        if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = getattr(statement, "value", None)
            last = self._run_uses(value, last)
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                last = self._run_uses(target, last)
            return last

        # Fallback: expression statements, assert, raise, delete, import, pass...
        return self._run_uses(statement, last)


def compute_next_lexical_use(events: list[UseEvent]) -> set[tuple[int, int]]:
    """Chain occurrences of each name in lexical (line, column) order."""
    pairs: set[tuple[int, int]] = set()
    by_name: dict[str, list[UseEvent]] = {}
    for event in events:
        by_name.setdefault(event.name, []).append(event)
    for name_events in by_name.values():
        ordered = sorted(name_events, key=lambda e: (e.lineno, e.col, e.occurrence_id))
        for previous, current in zip(ordered, ordered[1:]):
            if previous.occurrence_id != current.occurrence_id:
                pairs.add((previous.occurrence_id, current.occurrence_id))
    return pairs


class PerElementArena:
    """The mutable arena a single graph construction appends into.

    ``add_node`` / ``add_edge`` / ``add_symbol`` append to columns of plain
    ints and an intern table.  Symbols are accumulated as
    :class:`SymbolInfo` records (they are few and the AST walk mutates them
    freely); :meth:`finish` freezes everything into a :class:`FlatGraph`.
    """

    def __init__(self, filename: str = "<unknown>", source: str = "") -> None:
        self.filename = filename
        self.source = source
        self.strings = StringTable()
        self._node_kind: list[int] = []
        self._node_text: list[int] = []
        self._node_line: list[int] = []
        self._node_col: list[int] = []
        self._edges: dict[EdgeKind, list[tuple[int, int]]] = {}
        self.symbols: list[SymbolInfo] = []

    # -- construction -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._node_kind)

    def add_node(self, kind: NodeKind, text: str, lineno: int = -1, col: int = -1) -> int:
        index = len(self._node_kind)
        self._node_kind.append(NODE_KIND_CODES[kind])
        self._node_text.append(self.strings.intern(text))
        self._node_line.append(lineno)
        self._node_col.append(col)
        return index

    def add_edge(self, kind: EdgeKind, source: int, target: int) -> None:
        if source == target:
            return
        if not (0 <= source < self.num_nodes and 0 <= target < self.num_nodes):
            raise IndexError(
                f"edge {kind.value} references missing node ({source}, {target}); "
                f"graph has {self.num_nodes} nodes"
            )
        self._edges.setdefault(kind, []).append((source, target))

    def add_symbol(
        self,
        name: str,
        kind: SymbolKind,
        scope: str,
        annotation: Optional[str] = None,
        lineno: int = -1,
    ) -> SymbolInfo:
        node_index = self.add_node(NodeKind.SYMBOL, name, lineno=lineno)
        info = SymbolInfo(
            node_index=node_index,
            name=name,
            kind=kind,
            scope=scope,
            annotation=annotation,
            lineno=lineno,
        )
        self.symbols.append(info)
        return info

    # -- read access during the build ------------------------------------------------

    def node_kind_of(self, index: int) -> NodeKind:
        return NODE_KIND_ORDER[self._node_kind[index]]

    def node_text_of(self, index: int) -> str:
        return self.strings[self._node_text[index]]

    def node_line_of(self, index: int) -> int:
        return self._node_line[index]

    def node_col_of(self, index: int) -> int:
        return self._node_col[index]

    def edge_pairs(self, kind: EdgeKind) -> list[tuple[int, int]]:
        """The live pair list of one edge kind (read-only by convention)."""
        return self._edges.get(kind, [])

    def iter_kind_codes(self) -> list[int]:
        return self._node_kind

    def iter_text_ids(self) -> list[int]:
        return self._node_text

    # -- freezing ----------------------------------------------------------------------

    def finish(self) -> FlatGraph:
        """Freeze the arena into an immutable :class:`FlatGraph`."""
        edges = {
            kind: np.asarray(pairs, dtype=np.int32).reshape(len(pairs), 2).T.copy()
            for kind, pairs in self._edges.items()
            if pairs
        }
        num_symbols = len(self.symbols)
        symbol_node = np.zeros(num_symbols, dtype=np.int32)
        symbol_name = np.zeros(num_symbols, dtype=np.int32)
        symbol_kind = np.zeros(num_symbols, dtype=np.int32)
        symbol_scope = np.zeros(num_symbols, dtype=np.int32)
        symbol_annotation = np.full(num_symbols, NO_ANNOTATION, dtype=np.int32)
        symbol_line = np.zeros(num_symbols, dtype=np.int32)
        splits = np.zeros(num_symbols + 1, dtype=np.int32)
        occurrence_chunks: list[list[int]] = []
        for position, symbol in enumerate(self.symbols):
            symbol_node[position] = symbol.node_index
            symbol_name[position] = self.strings.intern(symbol.name)
            symbol_kind[position] = SYMBOL_KIND_CODES[symbol.kind]
            symbol_scope[position] = self.strings.intern(symbol.scope)
            if symbol.annotation is not None:
                symbol_annotation[position] = self.strings.intern(symbol.annotation)
            symbol_line[position] = symbol.lineno
            occurrence_chunks.append(symbol.occurrence_indices)
            splits[position + 1] = splits[position] + len(symbol.occurrence_indices)
        occurrence_ids = (
            np.asarray([index for chunk in occurrence_chunks for index in chunk], dtype=np.int32)
            if occurrence_chunks
            else np.zeros(0, dtype=np.int32)
        )
        return FlatGraph(
            filename=self.filename,
            source=self.source,
            strings=tuple(self.strings.strings),
            node_kind=np.asarray(self._node_kind, dtype=np.int32),
            node_text=np.asarray(self._node_text, dtype=np.int32),
            node_line=np.asarray(self._node_line, dtype=np.int32),
            node_col=np.asarray(self._node_col, dtype=np.int32),
            edges=edges,
            symbol_node=symbol_node,
            symbol_name=symbol_name,
            symbol_kind=symbol_kind,
            symbol_scope=symbol_scope,
            symbol_annotation=symbol_annotation,
            symbol_line=symbol_line,
            occurrence_ids=occurrence_ids,
            occurrence_splits=splits,
        )


@dataclass
class _Scope:
    """A lexical scope with its locally defined symbols."""

    path: str
    parent: Optional["_Scope"]
    is_class: bool = False
    symbols: dict[str, SymbolInfo] = field(default_factory=dict)

    def resolve(self, name: str) -> Optional[SymbolInfo]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            # Class scopes are not visible from nested function scopes in
            # Python's name resolution, except for self.* symbols which we
            # address explicitly by their dotted name.
            scope = scope.parent
        return None


def _assigned_names(node: ast.AST) -> list[str]:
    """Names bound by assignment-like statements directly in a scope body.

    The traversal stops at nested function, class and lambda definitions so
    that names local to an inner scope are not hoisted into the outer one.
    Names come back in first-occurrence order, so the symbols a graph
    declares never depend on the string-hash seed.
    """
    names: dict[str, None] = {}
    _collect_assigned_names(node, names, is_root=True)
    return list(names)


def _collect_assigned_names(node: ast.AST, names: dict[str, None], is_root: bool = False) -> None:
    if not is_root and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        names[node.id] = None
    for child in ast.iter_child_nodes(node):
        _collect_assigned_names(child, names)



@dataclass
class _FunctionContext:
    """Per-function bookkeeping used while walking the AST."""

    scope: _Scope
    node_index: int
    return_symbol: SymbolInfo


class _BuildState:
    """Mutable state of a single graph construction.

    ``graph`` is the :class:`PerElementArena` the walk appends nodes,
    edges and symbols into — no intermediate object graph is built.
    """

    def __init__(self, graph: PerElementArena, annotations: dict[SymbolKey, str]) -> None:
        self.graph = graph
        self.annotations = annotations
        self.token_index_at: dict[tuple[int, int], int] = {}
        self.token_order: list[int] = []
        self.vocabulary_nodes: dict[str, int] = {}
        self.scopes: list[tuple[_Scope, list[ast.stmt]]] = []
        self.function_stack: list[_FunctionContext] = []
        self.scope_stack: list[_Scope] = []

    # -- token pass ---------------------------------------------------------------

    def add_tokens(self, source: str) -> None:
        graph = self.graph
        previous: Optional[int] = None
        try:
            tokens = list(tokenize_module.generate_tokens(io.StringIO(source).readline))
        except tokenize_module.TokenError as error:  # pragma: no cover - defensive
            raise GraphBuildError(f"tokenisation failed: {error}") from error
        for token in tokens:
            if token.type not in _KEPT_TOKEN_TYPES or not token.string:
                continue
            index = graph.add_node(
                NodeKind.TOKEN, token.string, lineno=token.start[0], col=token.start[1]
            )
            self.token_index_at[(token.start[0], token.start[1])] = index
            self.token_order.append(index)
            if previous is not None:
                graph.add_edge(EdgeKind.NEXT_TOKEN, previous, index)
            previous = index

    def token_at(self, lineno: int, col: int) -> Optional[int]:
        return self.token_index_at.get((lineno, col))

    # -- scope / symbol helpers -----------------------------------------------------

    @property
    def current_scope(self) -> _Scope:
        return self.scope_stack[-1]

    def _declare_symbol(
        self, name: str, kind: SymbolKind, scope: _Scope, lineno: int = -1
    ) -> SymbolInfo:
        if name in scope.symbols:
            return scope.symbols[name]
        info = self.graph.add_symbol(name, kind, scope.path, lineno=lineno)
        scope.symbols[name] = info
        return info

    def _record_occurrence(self, symbol: SymbolInfo, node_index: int) -> None:
        self.graph.add_edge(EdgeKind.OCCURRENCE_OF, node_index, symbol.node_index)
        symbol.occurrence_indices.append(node_index)

    # -- AST walk ---------------------------------------------------------------------

    def walk_module(self, tree: ast.Module) -> None:
        module_scope = _Scope(path="module", parent=None)
        self.scope_stack.append(module_scope)
        self.scopes.append((module_scope, list(tree.body)))
        for name in _assigned_names(tree):
            self._declare_symbol(name, SymbolKind.VARIABLE, module_scope)
        module_node = self.graph.add_node(NodeKind.NON_TERMINAL, "Module")
        for statement in tree.body:
            child_index = self.visit(statement)
            self.graph.add_edge(EdgeKind.CHILD, module_node, child_index)
        self.scope_stack.pop()

    def visit(self, node: ast.AST) -> int:
        """Create the non-terminal node for ``node`` and recurse into children."""
        label = type(node).__name__
        lineno = getattr(node, "lineno", -1)
        col = getattr(node, "col_offset", -1)
        node_index = self.graph.add_node(NodeKind.NON_TERMINAL, label, lineno=lineno, col=col)

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node, node_index)
        elif isinstance(node, ast.ClassDef):
            self._visit_class(node, node_index)
        else:
            self._visit_generic(node, node_index)

        self._add_node_specific_edges(node, node_index)
        return node_index

    def _visit_children(self, node: ast.AST, node_index: int) -> None:
        for child in ast.iter_child_nodes(node):
            child_index = self.visit(child)
            self.graph.add_edge(EdgeKind.CHILD, node_index, child_index)

    def _visit_generic(self, node: ast.AST, node_index: int) -> None:
        if isinstance(node, ast.Name):
            self._handle_name(node, node_index)
        elif isinstance(node, ast.Attribute):
            self._handle_attribute(node, node_index)
        elif isinstance(node, ast.arg):
            self._handle_parameter(node, node_index)
        self._link_token(node, node_index)
        self._visit_children(node, node_index)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef, node_index: int) -> None:
        enclosing = self.current_scope
        scope = _Scope(path=f"{enclosing.path}.{node.name}", parent=enclosing)
        # Parameters.
        args = node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg is not None:
            all_args.append(args.vararg)
        if args.kwarg is not None:
            all_args.append(args.kwarg)
        for arg in all_args:
            self._declare_symbol(arg.arg, SymbolKind.PARAMETER, scope, lineno=arg.lineno)
        # Local variables.
        for name in _assigned_names(node):
            if name not in scope.symbols:
                self._declare_symbol(name, SymbolKind.VARIABLE, scope, lineno=node.lineno)
        # Return symbol; the function definition node is one of its occurrences.
        return_symbol = self._declare_symbol(
            RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN, scope, lineno=node.lineno
        )
        self._record_occurrence(return_symbol, node_index)
        name_token = self.token_at(node.lineno, node.col_offset + len("def "))
        if name_token is not None:
            self._record_occurrence(return_symbol, name_token)

        context = _FunctionContext(scope=scope, node_index=node_index, return_symbol=return_symbol)
        self.function_stack.append(context)
        self.scope_stack.append(scope)
        self.scopes.append((scope, list(node.body)))
        self._visit_children(node, node_index)
        self.scope_stack.pop()
        self.function_stack.pop()

    def _visit_class(self, node: ast.ClassDef, node_index: int) -> None:
        enclosing = self.current_scope
        scope = _Scope(path=f"{enclosing.path}.{node.name}", parent=enclosing, is_class=True)
        for name in _assigned_names(node):
            self._declare_symbol(name, SymbolKind.VARIABLE, scope, lineno=node.lineno)
        self.scope_stack.append(scope)
        self._visit_children(node, node_index)
        self.scope_stack.pop()

    # -- per-node-type edges -----------------------------------------------------------

    def _handle_name(self, node: ast.Name, node_index: int) -> None:
        symbol = self.current_scope.resolve(node.id)
        if symbol is None:
            return
        self._record_occurrence(symbol, node_index)
        token = self.token_at(node.lineno, node.col_offset)
        if token is not None:
            self._record_occurrence(symbol, token)

    def _handle_attribute(self, node: ast.Attribute, node_index: int) -> None:
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        class_scope = self._enclosing_class_scope()
        if class_scope is None:
            return
        dotted = f"self.{node.attr}"
        symbol = class_scope.symbols.get(dotted)
        if symbol is None and isinstance(node.ctx, ast.Store):
            symbol = self._declare_symbol(dotted, SymbolKind.VARIABLE, class_scope, lineno=node.lineno)
        if symbol is not None:
            self._record_occurrence(symbol, node_index)

    def _handle_parameter(self, node: ast.arg, node_index: int) -> None:
        symbol = self.current_scope.resolve(node.arg)
        if symbol is None:
            return
        self._record_occurrence(symbol, node_index)
        token = self.token_at(node.lineno, node.col_offset)
        if token is not None:
            self._record_occurrence(symbol, token)

    def _enclosing_class_scope(self) -> Optional[_Scope]:
        for scope in reversed(self.scope_stack):
            if scope.is_class:
                return scope
        return None

    def _link_token(self, node: ast.AST, node_index: int) -> None:
        """Connect a leaf-ish AST node to the token at its source position."""
        if isinstance(node, (ast.Name, ast.Constant, ast.arg)):
            lineno = getattr(node, "lineno", None)
            col = getattr(node, "col_offset", None)
            if lineno is None or col is None:
                return
            token = self.token_at(lineno, col)
            if token is not None:
                self.graph.add_edge(EdgeKind.CHILD, node_index, token)

    def _add_node_specific_edges(self, node: ast.AST, node_index: int) -> None:
        graph = self.graph
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and self.function_stack:
            context = self.function_stack[-1]
            graph.add_edge(EdgeKind.RETURNS_TO, node_index, context.node_index)
            self._record_occurrence(context.return_symbol, node_index)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            # ASSIGNED_FROM: value flows into each target.  The child
            # non-terminal nodes were created during the recursive visit; we
            # find them by scanning the CHILD edges added from this node.
            self._add_assigned_from(node, node_index)

    def _add_assigned_from(self, node: ast.Assign | ast.AugAssign, node_index: int) -> None:
        graph = self.graph
        children = [target for source, target in graph.edge_pairs(EdgeKind.CHILD) if source == node_index]
        if not children:
            return
        child_nodes = [(index, graph.node_kind_of(index), graph.node_text_of(index)) for index in children]
        value_label = type(node.value).__name__
        value_candidates = [
            index for index, kind, text in child_nodes if kind == NodeKind.NON_TERMINAL and text == value_label
        ]
        if not value_candidates:
            return
        value_index = value_candidates[-1]
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        target_labels = {type(target).__name__ for target in targets}
        for index, kind, text in child_nodes:
            if index == value_index or kind != NodeKind.NON_TERMINAL:
                continue
            if text in target_labels:
                graph.add_edge(EdgeKind.ASSIGNED_FROM, value_index, index)

    # -- dataflow pass ---------------------------------------------------------------------

    def run_dataflow(self) -> None:
        next_lexical: set[tuple[int, int]] = set()
        next_may_use: set[tuple[int, int]] = set()
        for scope, body in self.scopes:
            events_in_scope: list[UseEvent] = []
            initial_last: dict[str, set[int]] = {}
            # Parameter definitions are the first "use" of each parameter, so
            # they enter both relations ahead of the body.
            for symbol in scope.symbols.values():
                if symbol.kind != SymbolKind.PARAMETER:
                    continue
                token_occurrences = [
                    index
                    for index in symbol.occurrence_indices
                    if self.graph.node_kind_of(index) == NodeKind.TOKEN
                ]
                if not token_occurrences:
                    continue
                first = token_occurrences[0]
                events_in_scope.append(
                    UseEvent(
                        name=symbol.qualified_name,
                        occurrence_id=first,
                        lineno=self.graph.node_line_of(first),
                        col=self.graph.node_col_of(first),
                    )
                )
                initial_last[symbol.qualified_name] = {first}

            def uses_of(node: ast.AST, scope: _Scope = scope, sink: list[UseEvent] = events_in_scope) -> list[UseEvent]:
                events = self._uses_in(node, scope)
                sink.extend(events)
                return events

            analysis = UnmemoisedNextMayUse(uses_of)
            analysis.analyse_body(body, initial=initial_last)
            next_may_use.update(analysis.pairs)
            next_lexical.update(compute_next_lexical_use(events_in_scope))

        for source_token, target_token in sorted(next_lexical):
            self.graph.add_edge(EdgeKind.NEXT_LEXICAL_USE, source_token, target_token)
        for source_token, target_token in sorted(next_may_use):
            self.graph.add_edge(EdgeKind.NEXT_MAY_USE, source_token, target_token)

    def _uses_in(self, node: ast.AST, scope: _Scope) -> list[UseEvent]:
        """Lexically ordered occurrences of resolvable names within ``node``."""
        events: list[UseEvent] = []
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)) and child is not node:
                continue
            if not isinstance(child, ast.Name):
                continue
            symbol = scope.resolve(child.id)
            if symbol is None:
                continue
            token = self.token_at(child.lineno, child.col_offset)
            if token is None:
                continue
            events.append(
                UseEvent(
                    name=symbol.qualified_name,
                    occurrence_id=token,
                    lineno=child.lineno,
                    col=child.col_offset,
                )
            )
        events.sort(key=lambda event: (event.lineno, event.col))
        return events

    # -- subtokens --------------------------------------------------------------------------

    def add_subtoken_edges(self) -> None:
        graph = self.graph
        eligible = (NODE_KIND_CODES[NodeKind.TOKEN], NODE_KIND_CODES[NodeKind.SYMBOL])
        # Split each interned lexeme once; nodes sharing a text share the result.
        splits_by_text_id: dict[int, list[str]] = {}
        identifier_nodes = [
            (index, text_id)
            for index, (kind_code, text_id) in enumerate(
                zip(graph.iter_kind_codes(), graph.iter_text_ids())
            )
            if kind_code in eligible and is_identifier_text(graph.strings[text_id])
        ]
        for node_index, text_id in identifier_nodes:
            subtokens = splits_by_text_id.get(text_id)
            if subtokens is None:
                subtokens = split_identifier(graph.strings[text_id])
                splits_by_text_id[text_id] = subtokens
            for subtoken in subtokens:
                vocab_index = self.vocabulary_nodes.get(subtoken)
                if vocab_index is None:
                    vocab_index = graph.add_node(NodeKind.VOCABULARY, subtoken)
                    self.vocabulary_nodes[subtoken] = vocab_index
                graph.add_edge(EdgeKind.SUBTOKEN_OF, node_index, vocab_index)

    # -- annotations --------------------------------------------------------------------------

    def attach_annotations(self) -> None:
        for symbol in self.graph.symbols:
            key = SymbolKey(symbol.scope, symbol.name, symbol.kind)
            if key in self.annotations:
                symbol.annotation = self.annotations[key]
