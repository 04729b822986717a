"""Build Typilus program graphs from Python source code.

The builder follows Sec. 5.1 of the paper.  For a single Python file it

1. parses the source once and, in one walk over its statement lists,
   collects the ground-truth type annotations (parameters, returns,
   variable annotations) keyed by scope, name and symbol kind and *erases*
   each one from the tree — the models must never see the thing they are
   asked to predict;
2. re-generates the erased source with ``ast.unparse`` and parses it once
   more, since token nodes are aligned with the erased text;
3. tokenises the erased source into **token** nodes, added as whole
   columns, with ``NEXT_TOKEN`` edges as one index range;
4. walks the erased AST once creating **non-terminal** nodes, ``CHILD``
   edges, ``ASSIGNED_FROM`` edges (from the assignment's children as the
   walk visited them) and ``RETURNS_TO`` edges;
5. builds the symbol table during the same walk: one **symbol** node per
   variable, parameter and function return, connected to every binding
   token and syntax node with ``OCCURRENCE_OF`` edges;
6. runs the dataflow analysis producing ``NEXT_LEXICAL_USE`` and
   ``NEXT_MAY_USE`` edges between occurrence tokens;
7. adds **vocabulary** nodes and ``SUBTOKEN_OF`` edges for identifier
   subtokens;
8. attaches the collected annotations to the symbol records.

Nodes and edges are appended to the arena's plain int lists — one per node
column and a (sources, targets) pair per edge kind — not one method call
per element, and :meth:`FlatGraphBuilder.finish` turns each list into an
array once.  The graphs are byte-identical to those of the per-element walk
kept in ``tests/graph_oracle.py``.

A bare annotated declaration (``x: int`` with no value) is rewritten to
``x = None`` during erasure so the variable still occurs in the erased
program; this only affects the graph, never any executed code.
"""

from __future__ import annotations

import ast
import io
import tokenize as tokenize_module
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.graph.codegraph import CodeGraph
from repro.graph.dataflow import NextMayUseAnalysis, UseEvent, compute_next_lexical_use
from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import NODE_KIND_CODES, FlatGraphBuilder, is_identifier_text
from repro.graph.nodes import NodeKind, SymbolInfo, SymbolKind
from repro.graph.subtokens import split_identifier

#: Name used for the function-return symbol inside a function scope.
RETURN_SYMBOL_NAME = "<return>"

#: Token types kept as token nodes (identifiers/keywords, operators, literals).
_KEPT_TOKEN_TYPES = {
    tokenize_module.NAME,
    tokenize_module.OP,
    tokenize_module.NUMBER,
    tokenize_module.STRING,
}


class GraphBuildError(ValueError):
    """Raised when a file cannot be parsed or its graph cannot be built."""


# ---------------------------------------------------------------------------
# Annotation collection and erasure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolKey:
    """Identifies a symbol across the original and the erased tree."""

    scope: str
    name: str
    kind: SymbolKind


class _AnnotationEraser:
    """Collect every type annotation of a tree and erase it, in one walk.

    Annotations live only on function signatures and ``AnnAssign``
    statements, and statements nest only inside other statements' bodies,
    so the walk visits statement lists alone and never descends into
    expressions.  Statements are visited in the order
    :class:`ast.NodeVisitor` would visit them, so the annotation map keeps
    its key order.  An ``AnnAssign`` is replaced in its statement list by a
    plain ``Assign`` (``x = None`` when it had no value).
    """

    def __init__(self) -> None:
        self.annotations: dict[SymbolKey, str] = {}
        self._scope: list[str] = ["module"]

    @property
    def scope_path(self) -> str:
        return ".".join(self._scope)

    def _record(self, name: str, kind: SymbolKind, annotation: Optional[ast.expr], scope: Optional[str] = None) -> None:
        if annotation is None:
            return
        key = SymbolKey(scope or self.scope_path, name, kind)
        self.annotations[key] = ast.unparse(annotation)

    def walk(self, body: list[ast.stmt]) -> None:
        for index, statement in enumerate(body):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(statement)
            elif isinstance(statement, ast.ClassDef):
                self._scope.append(statement.name)
                self.walk(statement.body)
                self._scope.pop()
            elif isinstance(statement, ast.AnnAssign):
                self._ann_assign(statement)
                value = statement.value if statement.value is not None else ast.Constant(value=None)
                body[index] = ast.copy_location(ast.Assign(targets=[statement.target], value=value), statement)
            else:
                self._nested(statement)

    def _nested(self, statement: ast.stmt) -> None:
        """Walk the statement lists of a compound statement, in field order."""
        for _, value in ast.iter_fields(statement):
            if not isinstance(value, list) or not value:
                continue
            if isinstance(value[0], ast.stmt):
                self.walk(value)
            elif isinstance(value[0], (ast.excepthandler, ast.match_case)):
                for item in value:
                    self.walk(item.body)

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scope.append(node.name)
        args = node.args
        arguments = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in arguments:
            self._record(arg.arg, SymbolKind.PARAMETER, arg.annotation)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                self._record(arg.arg, SymbolKind.PARAMETER, arg.annotation)
                arguments.append(arg)
        self._record(RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN, node.returns)
        self.walk(node.body)
        self._scope.pop()
        for arg in arguments:
            arg.annotation = None
        node.returns = None

    def _ann_assign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            self._record(target.id, SymbolKind.VARIABLE, node.annotation)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            # self.attr annotations belong to the enclosing class scope.
            class_scope = ".".join(self._scope[:-1]) if len(self._scope) > 1 else self.scope_path
            self._record(f"self.{target.attr}", SymbolKind.VARIABLE, node.annotation, scope=class_scope)


def _collect_and_erase(source: str) -> tuple[dict[SymbolKey, str], str]:
    """Parse ``source`` once; return its annotation map and its erased text."""
    tree = ast.parse(source)
    eraser = _AnnotationEraser()
    eraser.walk(tree.body)
    return eraser.annotations, ast.unparse(tree)


def collect_annotations(source: str) -> dict[SymbolKey, str]:
    """Return the annotation map ``(scope, name, kind) -> annotation string``."""
    return _collect_and_erase(source)[0]


def erase_annotations(source: str) -> str:
    """Return ``source`` re-generated with every type annotation removed."""
    return _collect_and_erase(source)[1]


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Fast child iteration
# ---------------------------------------------------------------------------

#: Fields that only ever hold strings, numbers or ``None`` — never a node.
_SCALAR_FIELDS = frozenset({
    "id", "name", "attr", "arg", "asname", "module", "level", "is_async", "simple",
    "conversion", "kind", "type_comment", "tag", "rest", "kwd_attrs",
})

_NODE_FIELDS: dict[type, tuple[str, ...]] = {}


def _node_fields(cls: type) -> tuple[str, ...]:
    """The fields of an AST class that can hold child nodes, in field order."""
    fields = _NODE_FIELDS.get(cls)
    if fields is None:
        fields = tuple(
            name for name in cls._fields
            if name not in _SCALAR_FIELDS and not (cls is ast.Constant and name == "value")
        )
        _NODE_FIELDS[cls] = fields
    return fields


def _children(node: ast.AST) -> list[ast.AST]:
    """``list(ast.iter_child_nodes(node))``, without the generator machinery."""
    children: list[ast.AST] = []
    for name in _node_fields(type(node)):
        value = getattr(node, name, None)
        if isinstance(value, ast.AST):
            children.append(value)
        elif isinstance(value, list):
            children.extend(item for item in value if isinstance(item, ast.AST))
    return children


_SCOPE_ROOTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _assigned_names(node: ast.AST) -> list[str]:
    """Names bound by assignment-like statements directly in a scope body.

    The traversal stops at nested function, class and lambda definitions so
    that names local to an inner scope are not hoisted into the outer one.
    Names come back in first-occurrence (pre-order) order, so the symbols a
    graph declares never depend on the string-hash seed.
    """
    names: dict[str, None] = {}
    stack = _children(node)
    stack.reverse()
    while stack:
        child = stack.pop()
        if isinstance(child, _SCOPE_ROOTS):
            continue
        if type(child) is ast.Name and type(child.ctx) is ast.Store:
            names[child.id] = None
        grandchildren = _children(child)
        grandchildren.reverse()
        stack.extend(grandchildren)
    return list(names)


def _names_within(node: ast.AST) -> list[ast.Name]:
    """Every ``Name`` inside ``node`` (itself included), in ``ast.walk`` order.

    Like ``ast.walk`` this does not stop at nested definitions.
    """
    names: list[ast.Name] = []
    queue = [node]
    for current in queue:  # the list grows while it is read: breadth first
        if type(current) is ast.Name:
            names.append(current)
        queue.extend(_children(current))
    return names


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


class GraphBuilder:
    """Builds :class:`~repro.graph.codegraph.CodeGraph` objects from source.

    Parameters
    ----------
    include_edges:
        Optional subset of :class:`EdgeKind` to keep (used by the ablation
        experiments).  ``None`` keeps all edge kinds.
    """

    def __init__(self, include_edges: Optional[Iterable[EdgeKind]] = None) -> None:
        self.include_edges = set(include_edges) if include_edges is not None else None

    # -- public API --------------------------------------------------------------

    def build(self, source: str, filename: str = "<string>") -> CodeGraph:
        """Build the graph of one file; :class:`GraphBuildError` if it cannot be parsed or walked.

        The AST walks are recursive, so a file nested too deeply for them
        (say, a 500-term flat expression) fails like a syntax error does.
        """
        try:
            return self._build(source, filename)
        except RecursionError as error:
            raise GraphBuildError(f"cannot build the graph of {filename}: nesting too deep") from error

    def _build(self, source: str, filename: str) -> CodeGraph:
        try:
            annotations, erased = _collect_and_erase(source)
            tree = ast.parse(erased)
        except SyntaxError as error:
            raise GraphBuildError(f"cannot parse {filename}: {error}") from error

        arena = FlatGraphBuilder(filename=filename, source=erased)
        state = _BuildState(graph=arena, annotations=annotations)
        state.add_tokens(erased)
        state.walk_module(tree)
        state.run_dataflow()
        state.add_subtoken_edges()
        state.attach_annotations()
        flat = arena.finish()
        flat.validate()

        if self.include_edges is not None:
            excluded = set(EdgeKind) - self.include_edges
            flat = flat.without_edges(excluded)
        return CodeGraph.from_flat(flat)

    def build_file(self, path: str) -> CodeGraph:
        with open(path, "r", encoding="utf-8") as handle:
            return self.build(handle.read(), filename=path)


@dataclass
class _FunctionContext:
    """Per-function bookkeeping used while walking the AST."""

    scope: _Scope
    node_index: int
    return_symbol: SymbolInfo


_TOKEN = NODE_KIND_CODES[NodeKind.TOKEN]
_NON_TERMINAL = NODE_KIND_CODES[NodeKind.NON_TERMINAL]
_SYMBOL = NODE_KIND_CODES[NodeKind.SYMBOL]

# What the walk does at a node besides creating it and visiting its children.
_FUNCTION, _CLASS, _NAME, _ATTRIBUTE, _ARG, _CONSTANT, _RETURN, _ASSIGN, _PLAIN = range(9)
#: Node classes with no fields and no position: expression contexts and operators.
_LEAVES = frozenset(
    cls for base in (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)
    for cls in base.__subclasses__()
)
_ROLES: dict[type, int] = {
    ast.FunctionDef: _FUNCTION, ast.AsyncFunctionDef: _FUNCTION, ast.ClassDef: _CLASS,
    ast.Name: _NAME, ast.Attribute: _ATTRIBUTE, ast.arg: _ARG, ast.Constant: _CONSTANT,
    ast.Return: _RETURN, ast.Yield: _RETURN, ast.YieldFrom: _RETURN,
    ast.Assign: _ASSIGN, ast.AugAssign: _ASSIGN,
}


class _BuildState:
    """Mutable state of a single graph construction.

    ``graph`` is the :class:`FlatGraphBuilder` arena.  Tokens go in as whole
    columns, with ``NEXT_TOKEN`` as one index range.  The AST walk appends
    each node to the arena's node columns and each edge to a per-kind pair
    of int lists; no intermediate object graph is built.  The walk's edge
    kinds are handed to the arena in the order each was first used, which
    is the order the frozen graph keeps them in.
    """

    def __init__(self, graph: FlatGraphBuilder, annotations: dict[SymbolKey, str]) -> None:
        self.graph = graph
        self.annotations = annotations
        self.token_index_at: dict[tuple[int, int], int] = {}
        self.scopes: list[tuple[_Scope, list[ast.stmt]]] = []
        self.function_stack: list[_FunctionContext] = []
        self.scope_stack: list[_Scope] = []
        walk_kinds = (EdgeKind.CHILD, EdgeKind.OCCURRENCE_OF, EdgeKind.RETURNS_TO, EdgeKind.ASSIGNED_FROM)
        self._walk_edges: dict[EdgeKind, tuple[list[int], list[int]]] = {kind: ([], []) for kind in walk_kinds}
        self._walk_edge_order: list[EdgeKind] = []

    # -- token pass ---------------------------------------------------------------

    def add_tokens(self, source: str) -> None:
        try:
            tokens = list(tokenize_module.generate_tokens(io.StringIO(source).readline))
        except tokenize_module.TokenError as error:  # pragma: no cover - defensive
            raise GraphBuildError(f"tokenisation failed: {error}") from error
        kept = [(string, start) for token_type, string, start, _, _ in tokens
                if token_type in _KEPT_TOKEN_TYPES and string]
        kinds, texts, lines, cols = self.graph.node_columns()
        kinds.extend([_TOKEN] * len(kept))
        texts.extend(self.graph.strings.intern_all([string for string, _ in kept]))
        lines.extend([start[0] for _, start in kept])
        cols.extend([start[1] for _, start in kept])
        self.token_index_at = {start: index for index, (_, start) in enumerate(kept)}
        if len(kept) > 1:
            sources, targets = self.graph.edge_columns(EdgeKind.NEXT_TOKEN)
            sources.extend(range(len(kept) - 1))
            targets.extend(range(1, len(kept)))

    # -- scope / symbol helpers -----------------------------------------------------

    def _declare_symbol(
        self, name: str, kind: SymbolKind, scope: _Scope, lineno: int = -1
    ) -> SymbolInfo:
        if name in scope.symbols:
            return scope.symbols[name]
        info = self.graph.add_symbol(name, kind, scope.path, lineno=lineno)
        scope.symbols[name] = info
        return info

    def _first_use(self, kind: EdgeKind) -> None:
        """Note the first edge of a walk kind other than ``CHILD``.

        ``CHILD`` edges are too many to check one by one; whether the first
        of them came before this one shows in its list being non-empty.
        """
        order = self._walk_edge_order
        if self._walk_edges[EdgeKind.CHILD][0] and EdgeKind.CHILD not in order:
            order.append(EdgeKind.CHILD)
        order.append(kind)

    def _record_occurrence(self, symbol: SymbolInfo, node_index: int) -> None:
        sources, targets = self._walk_edges[EdgeKind.OCCURRENCE_OF]
        if not sources:
            self._first_use(EdgeKind.OCCURRENCE_OF)
        sources.append(node_index)
        targets.append(symbol.node_index)
        symbol.occurrence_indices.append(node_index)

    def _add_edge(self, kind: EdgeKind, source: int, target: int) -> None:
        """Append one ``RETURNS_TO`` or ``ASSIGNED_FROM`` edge."""
        sources, targets = self._walk_edges[kind]
        if not sources:
            self._first_use(kind)
        sources.append(source)
        targets.append(target)

    # -- AST walk ---------------------------------------------------------------------

    def walk_module(self, tree: ast.Module) -> None:
        module_scope = _Scope(path="module", parent=None)
        self.scope_stack.append(module_scope)
        self.scopes.append((module_scope, list(tree.body)))
        for name in _assigned_names(tree):
            self._declare_symbol(name, SymbolKind.VARIABLE, module_scope)
        module_node = self.graph.add_node(NodeKind.NON_TERMINAL, "Module")
        child_sources, child_targets = self._walk_edges[EdgeKind.CHILD]
        visit = self._visitor()
        for statement in tree.body:
            child_index = visit(statement, visit)
            child_sources.append(module_node)
            child_targets.append(child_index)
        self.scope_stack.pop()
        if child_sources and EdgeKind.CHILD not in self._walk_edge_order:
            self._walk_edge_order.append(EdgeKind.CHILD)
        for kind in self._walk_edge_order:
            sources, targets = self.graph.edge_columns(kind)
            sources.extend(self._walk_edges[kind][0])
            targets.extend(self._walk_edges[kind][1])

    def _visitor(self):
        """The recursive per-node visit, with the walk's state bound to locals.

        ``visit(node, visit)`` creates the non-terminal node of ``node``,
        adds its symbol occurrences and token link, visits its children (a
        ``CHILD`` edge after each), then adds ``RETURNS_TO``/``ASSIGNED_FROM``
        edges, and returns the node's index.  It is handed itself rather than
        closing over its own name: that closure would be a reference cycle,
        keeping the whole build state alive until the cyclic collector ran.
        """
        kinds, texts, lines, cols = self.graph.node_columns()
        intern = self.graph.strings.intern
        token_at = self.token_index_at.get
        child_sources, child_targets = self._walk_edges[EdgeKind.CHILD]
        record = self._record_occurrence
        scope_stack = self.scope_stack
        function_stack = self.function_stack
        label_ids: dict[type, int] = {}
        roles = _ROLES
        node_fields = _NODE_FIELDS
        leaves = _LEAVES
        AST = ast.AST

        def visit(node: ast.AST, visit) -> int:
            cls = type(node)
            index = len(kinds)
            label = label_ids.get(cls)
            if label is None:
                label = label_ids[cls] = intern(cls.__name__)
            kinds.append(_NON_TERMINAL)
            texts.append(label)
            lines.append(getattr(node, "lineno", -1))
            cols.append(getattr(node, "col_offset", -1))
            role = roles.get(cls, _PLAIN)
            if role == _FUNCTION:
                self._enter_function(node, index)
            elif role == _CLASS:
                self._enter_class(node)
            elif role == _NAME or role == _ARG:
                symbol = scope_stack[-1].resolve(node.id if role == _NAME else node.arg)
                token = token_at((node.lineno, node.col_offset))
                if symbol is not None:
                    record(symbol, index)
                    if token is not None:
                        record(symbol, token)
                if token is not None:
                    child_sources.append(index)
                    child_targets.append(token)
            elif role == _CONSTANT:
                token = token_at((node.lineno, node.col_offset))
                if token is not None:
                    child_sources.append(index)
                    child_targets.append(token)
            elif role == _ATTRIBUTE:
                self._handle_attribute(node, index)

            fields = node_fields.get(cls)
            if fields is None:
                fields = _node_fields(cls)
            children = [] if role == _ASSIGN else None
            for name in fields:
                value = getattr(node, name, None)
                if isinstance(value, AST):
                    value_cls = type(value)
                    if value_cls in leaves:  # a context or an operator: added in place
                        child_index = len(kinds)
                        label = label_ids.get(value_cls)
                        if label is None:
                            label = label_ids[value_cls] = intern(value_cls.__name__)
                        kinds.append(_NON_TERMINAL)
                        texts.append(label)
                        lines.append(-1)
                        cols.append(-1)
                    else:
                        child_index = visit(value, visit)
                    child_sources.append(index)
                    child_targets.append(child_index)
                    if children is not None:
                        children.append((value, child_index))
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, AST):
                            child_index = visit(item, visit)
                            child_sources.append(index)
                            child_targets.append(child_index)
                            if children is not None:
                                children.append((item, child_index))

            if role == _FUNCTION:
                scope_stack.pop()
                function_stack.pop()
            elif role == _CLASS:
                scope_stack.pop()
            elif role == _RETURN:
                if function_stack:
                    context = function_stack[-1]
                    self._add_edge(EdgeKind.RETURNS_TO, index, context.node_index)
                    record(context.return_symbol, index)
            elif role == _ASSIGN:
                self._add_assigned_from(node, children)
            return index

        return visit

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef, node_index: int) -> None:
        enclosing = self.scope_stack[-1]
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
        name_token = self.token_index_at.get((node.lineno, node.col_offset + len("def ")))
        if name_token is not None:
            self._record_occurrence(return_symbol, name_token)
        self.function_stack.append(_FunctionContext(scope=scope, node_index=node_index, return_symbol=return_symbol))
        self.scope_stack.append(scope)
        self.scopes.append((scope, list(node.body)))

    def _enter_class(self, node: ast.ClassDef) -> None:
        enclosing = self.scope_stack[-1]
        scope = _Scope(path=f"{enclosing.path}.{node.name}", parent=enclosing, is_class=True)
        for name in _assigned_names(node):
            self._declare_symbol(name, SymbolKind.VARIABLE, scope, lineno=node.lineno)
        self.scope_stack.append(scope)

    # -- per-node-type edges -----------------------------------------------------------

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

    def _enclosing_class_scope(self) -> Optional[_Scope]:
        for scope in reversed(self.scope_stack):
            if scope.is_class:
                return scope
        return None

    def _add_assigned_from(
        self, node: ast.Assign | ast.AugAssign, children: list[tuple[ast.AST, int]]
    ) -> None:
        """ASSIGNED_FROM: the value flows into each target.

        ``children`` are the node's children as the walk visited them.  The
        value is the last child labelled like ``node.value``; every other
        child labelled like a target receives an edge from it.
        """
        value_label = type(node.value).__name__
        value_index = None
        for child, index in children:
            if type(child).__name__ == value_label:
                value_index = index
        if value_index is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        target_labels = {type(target).__name__ for target in targets}
        for child, index in children:
            if index != value_index and type(child).__name__ in target_labels:
                self._add_edge(EdgeKind.ASSIGNED_FROM, value_index, index)

    # -- dataflow pass ---------------------------------------------------------------------

    def run_dataflow(self) -> None:
        kinds, _, lines, cols = self.graph.node_columns()
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
                first = next((index for index in symbol.occurrence_indices if kinds[index] == _TOKEN), None)
                if first is None:
                    continue
                events_in_scope.append(
                    UseEvent(name=symbol.qualified_name, occurrence_id=first, lineno=lines[first], col=cols[first])
                )
                initial_last[symbol.qualified_name] = {first}

            # A node's uses never change, and loop bodies are analysed more
            # than once, so each node is walked once per scope.
            uses_by_node: dict[int, list[UseEvent]] = {}

            def uses_of(
                node: ast.AST, scope: _Scope = scope, sink: list[UseEvent] = events_in_scope,
                memo: dict[int, list[UseEvent]] = uses_by_node,
            ) -> list[UseEvent]:
                events = memo.get(id(node))
                if events is None:
                    events = memo[id(node)] = self._uses_in(node, scope)
                sink.extend(events)
                return events

            analysis = NextMayUseAnalysis(uses_of)
            analysis.analyse_body(body, initial=initial_last)
            next_may_use.update(analysis.pairs)
            next_lexical.update(compute_next_lexical_use(events_in_scope))

        for kind, pairs in ((EdgeKind.NEXT_LEXICAL_USE, next_lexical), (EdgeKind.NEXT_MAY_USE, next_may_use)):
            if pairs:
                sources, targets = self.graph.edge_columns(kind)
                for source_token, target_token in sorted(pairs):
                    sources.append(source_token)
                    targets.append(target_token)

    def _uses_in(self, node: ast.AST, scope: _Scope) -> list[UseEvent]:
        """Lexically ordered occurrences of resolvable names within ``node``."""
        events: list[UseEvent] = []
        token_at = self.token_index_at.get
        for child in _names_within(node):
            symbol = scope.resolve(child.id)
            if symbol is None:
                continue
            token = token_at((child.lineno, child.col_offset))
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
        kinds, texts, _, _ = graph.node_columns()
        strings = graph.strings
        vocabulary_nodes: dict[str, int] = {}
        # Each interned lexeme is split once; nodes sharing a text share its
        # vocabulary nodes (None: the lexeme contributes no subtokens).
        vocabulary_of_text: dict[int, Optional[list[int]]] = {}
        eligible = [
            (index, text_id)
            for index, (kind_code, text_id) in enumerate(zip(kinds, texts))
            if kind_code == _TOKEN or kind_code == _SYMBOL
        ]
        sources: list[int] = []
        targets: list[int] = []
        for node_index, text_id in eligible:
            if text_id in vocabulary_of_text:
                vocabulary = vocabulary_of_text[text_id]
            else:
                text = strings[text_id]
                vocabulary = None
                if is_identifier_text(text):
                    vocabulary = []
                    for subtoken in split_identifier(text):
                        vocab_index = vocabulary_nodes.get(subtoken)
                        if vocab_index is None:
                            vocab_index = vocabulary_nodes[subtoken] = graph.add_node(NodeKind.VOCABULARY, subtoken)
                        vocabulary.append(vocab_index)
                vocabulary_of_text[text_id] = vocabulary
            if vocabulary:
                sources.extend([node_index] * len(vocabulary))
                targets.extend(vocabulary)
        if sources:
            edge_sources, edge_targets = graph.edge_columns(EdgeKind.SUBTOKEN_OF)
            edge_sources.extend(sources)
            edge_targets.extend(targets)

    # -- annotations --------------------------------------------------------------------------

    def attach_annotations(self) -> None:
        for symbol in self.graph.symbols:
            key = SymbolKey(symbol.scope, symbol.name, symbol.kind)
            if key in self.annotations:
                symbol.annotation = self.annotations[key]


def build_graph(source: str, filename: str = "<string>", include_edges: Optional[Iterable[EdgeKind]] = None) -> CodeGraph:
    """Convenience wrapper: build the graph of one source string."""
    return GraphBuilder(include_edges=include_edges).build(source, filename=filename)
