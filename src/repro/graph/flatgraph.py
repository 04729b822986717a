"""Arena/columnar program-graph storage: the :class:`FlatGraph` core.

A program graph stored as one object per node, a tuple list per edge kind
and one :class:`SymbolInfo` per symbol costs millions of small heap objects
and repeated string keys at corpus scale.  Every layer downstream of graph
extraction — featurization, batch assembly, dataset persistence, the
annotation engine — therefore reads a handful of flat arrays instead:

* an **interned string table** — every node text, symbol name, scope and
  annotation appears exactly once; nodes refer to strings by ``int32`` id;
* ``int32`` **node columns** — kind code, text id, line, column — one entry
  per node, laid out struct-of-arrays;
* one contiguous ``(2, E_k) int32`` **edge array** per
  :class:`~repro.graph.edges.EdgeKind` (insertion order preserved);
* **struct-of-arrays symbol storage** — node index, name id, kind code,
  scope id, annotation id (``-1`` for unannotated), line number — plus a
  CSR pair (``occurrence_ids`` / ``occurrence_splits``) holding every
  symbol's occurrence node indices.

:class:`FlatGraphBuilder` is the *arena* the graph builder appends into
while walking a file; :meth:`FlatGraphBuilder.finish` freezes the arena
into an immutable :class:`FlatGraph`.  It is the only way to build a graph:
:class:`~repro.graph.codegraph.CodeGraph` is a read-only view over a
:class:`FlatGraph` whose node and edge objects are derived from these arrays
on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.graph.edges import EdgeKind
from repro.graph.nodes import NodeKind, SymbolInfo, SymbolKind, is_identifier_text

__all__ = [
    "FlatGraph",
    "FlatGraphBuilder",
    "StringTable",
    "rebuild_symbol_columns",
    "is_identifier_text",
]

#: Stable integer codes for node / symbol kinds (enum declaration order).
NODE_KIND_ORDER: tuple[NodeKind, ...] = tuple(NodeKind)
NODE_KIND_CODES: dict[NodeKind, int] = {kind: code for code, kind in enumerate(NODE_KIND_ORDER)}
SYMBOL_KIND_ORDER: tuple[SymbolKind, ...] = tuple(SymbolKind)
SYMBOL_KIND_CODES: dict[SymbolKind, int] = {kind: code for code, kind in enumerate(SYMBOL_KIND_ORDER)}

#: Sentinel annotation id for "symbol has no ground-truth annotation".
NO_ANNOTATION = -1

_EMPTY_EDGES = np.zeros((2, 0), dtype=np.int32)


class StringTable:
    """Append-only intern table: text → dense ``int32`` id."""

    __slots__ = ("strings", "_index")

    def __init__(self, strings: Optional[Iterable[str]] = None) -> None:
        self.strings: list[str] = list(strings) if strings is not None else []
        self._index: dict[str, int] = {text: i for i, text in enumerate(self.strings)}

    def intern(self, text: str) -> int:
        index = self._index.get(text)
        if index is None:
            index = len(self.strings)
            self.strings.append(text)
            self._index[text] = index
        return index

    def intern_all(self, texts: Iterable[str]) -> list[int]:
        """:meth:`intern` of each text, in order."""
        index, strings = self._index, self.strings
        ids = []
        for text in texts:
            found = index.get(text)
            if found is None:
                found = index[text] = len(strings)
                strings.append(text)
            ids.append(found)
        return ids

    def __len__(self) -> int:
        return len(self.strings)

    def __getitem__(self, index: int) -> str:
        return self.strings[index]


@dataclass(eq=False)
class FlatGraph:
    """Columnar storage of one file's program graph.

    All arrays are ``int32``; ``strings`` is the intern table every text
    column indexes into.  Instances are treated as immutable — consumers
    take zero-copy views of the arrays and never write to them.  Equality
    is identity (``eq=False``): an auto-generated field-wise ``__eq__``
    would hit NumPy's ambiguous array truthiness; compare graphs through
    their :class:`~repro.graph.codegraph.CodeGraph` views or serialized
    payloads instead.
    """

    filename: str
    source: str
    strings: tuple[str, ...]
    node_kind: np.ndarray  # (N,) NodeKind codes
    node_text: np.ndarray  # (N,) string-table ids
    node_line: np.ndarray  # (N,)
    node_col: np.ndarray  # (N,)
    edges: dict[EdgeKind, np.ndarray]  # kind -> (2, E_k), rows = (source, target)
    symbol_node: np.ndarray  # (S,) node index of each symbol node
    symbol_name: np.ndarray  # (S,) string-table ids
    symbol_kind: np.ndarray  # (S,) SymbolKind codes
    symbol_scope: np.ndarray  # (S,) string-table ids
    symbol_annotation: np.ndarray  # (S,) string-table ids, NO_ANNOTATION for none
    symbol_line: np.ndarray  # (S,)
    occurrence_ids: np.ndarray  # (sum of occurrences,) node indices, CSR values
    occurrence_splits: np.ndarray  # (S + 1,) CSR row splits
    _subtoken_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- sizes ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.node_kind.shape[0])

    @property
    def num_symbols(self) -> int:
        return int(self.symbol_node.shape[0])

    @property
    def num_edges(self) -> int:
        return sum(int(pairs.shape[1]) for pairs in self.edges.values())

    @property
    def nbytes(self) -> int:
        """Resident bytes of this graph's columns, strings and source text.

        The array columns are exact (``ndarray.nbytes``); strings count one
        byte per character — an underestimate of CPython object headers but
        proportional to the real footprint, which is what a byte-bounded
        cache needs to make eviction decisions.
        """
        total = (
            self.node_kind.nbytes
            + self.node_text.nbytes
            + self.node_line.nbytes
            + self.node_col.nbytes
            + self.symbol_node.nbytes
            + self.symbol_name.nbytes
            + self.symbol_kind.nbytes
            + self.symbol_scope.nbytes
            + self.symbol_annotation.nbytes
            + self.symbol_line.nbytes
            + self.occurrence_ids.nbytes
            + self.occurrence_splits.nbytes
        )
        total += sum(pairs.nbytes for pairs in self.edges.values())
        total += len(self.source)
        total += sum(len(text) for text in self.strings)
        return int(total)

    # -- node queries -----------------------------------------------------------

    def node_texts(self) -> list[str]:
        """Every node's text, resolved through the intern table."""
        return [self.strings[i] for i in self.node_text.tolist()]

    def text_of(self, node_index: int) -> str:
        return self.strings[int(self.node_text[node_index])]

    def kind_of(self, node_index: int) -> NodeKind:
        return NODE_KIND_ORDER[int(self.node_kind[node_index])]

    def node_indices_of_kind(self, kind: NodeKind) -> np.ndarray:
        return np.flatnonzero(self.node_kind == NODE_KIND_CODES[kind])

    def count_of_kind(self, kind: NodeKind) -> int:
        return int(np.count_nonzero(self.node_kind == NODE_KIND_CODES[kind]))

    def edge_array(self, kind: EdgeKind) -> np.ndarray:
        """The ``(2, E)`` array of one edge kind (empty view when absent)."""
        return self.edges.get(kind, _EMPTY_EDGES)

    # -- symbol queries ----------------------------------------------------------

    def occurrences_of(self, symbol_position: int) -> np.ndarray:
        start = int(self.occurrence_splits[symbol_position])
        stop = int(self.occurrence_splits[symbol_position + 1])
        return self.occurrence_ids[start:stop]

    def annotation_of(self, symbol_position: int) -> Optional[str]:
        annotation_id = int(self.symbol_annotation[symbol_position])
        return None if annotation_id == NO_ANNOTATION else self.strings[annotation_id]

    def materialise_symbols(self) -> list[SymbolInfo]:
        """Rebuild the per-symbol :class:`SymbolInfo` records a
        :class:`~repro.graph.codegraph.CodeGraph` view holds."""
        strings = self.strings
        nodes = self.symbol_node.tolist()
        names = self.symbol_name.tolist()
        kinds = self.symbol_kind.tolist()
        scopes = self.symbol_scope.tolist()
        annotations = self.symbol_annotation.tolist()
        lines = self.symbol_line.tolist()
        occurrences = self.occurrence_ids.tolist()
        splits = self.occurrence_splits.tolist()
        return [
            SymbolInfo(
                node_index=nodes[i],
                name=strings[names[i]],
                kind=SYMBOL_KIND_ORDER[kinds[i]],
                scope=strings[scopes[i]],
                annotation=None if annotations[i] == NO_ANNOTATION else strings[annotations[i]],
                lineno=lines[i],
                occurrence_indices=occurrences[splits[i] : splits[i + 1]],
            )
            for i in range(len(nodes))
        ]

    # -- derived structures -------------------------------------------------------

    def node_subtokens(self):
        """Yield ``(node_index, subtokens)`` per node, splitting each unique
        lexeme exactly once (the intern table is the memo)."""
        from repro.graph.subtokens import split_identifier

        cache = self._subtoken_cache
        for node_index, text_id in enumerate(self.node_text.tolist()):
            subtokens = cache.get(text_id)
            if subtokens is None:
                subtokens = split_identifier(self.strings[text_id])
                cache[text_id] = subtokens
            yield node_index, subtokens

    def without_edges(self, excluded: Iterable[EdgeKind]) -> "FlatGraph":
        """A copy sharing all arrays except the excluded edge kinds."""
        excluded_set = set(excluded)
        return replace(
            self,
            edges={kind: pairs for kind, pairs in self.edges.items() if kind not in excluded_set},
            _subtoken_cache=self._subtoken_cache,
        )

    def with_filename(self, filename: str) -> "FlatGraph":
        """This graph relabelled (content-addressed cache hits on renames)."""
        if filename == self.filename:
            return self
        return replace(self, filename=filename, _subtoken_cache=self._subtoken_cache)

    # -- consistency --------------------------------------------------------------

    def validate(self) -> None:
        """Vectorised consistency check; raises ``ValueError`` on violation."""
        num_nodes = self.num_nodes
        for kind, pairs in self.edges.items():
            if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
                raise ValueError(f"dangling edge {kind.value} in {self.filename}")
        if self.node_text.size and int(self.node_text.max()) >= len(self.strings):
            raise ValueError("node text id out of string-table range")
        symbol_code = NODE_KIND_CODES[NodeKind.SYMBOL]
        symbol_node = self.symbol_node
        in_range = (symbol_node >= 0) & (symbol_node < num_nodes)
        misplaced = ~in_range
        misplaced[in_range] = self.node_kind[symbol_node[in_range]] != symbol_code
        if misplaced.any():
            position = int(np.flatnonzero(misplaced)[0])
            raise ValueError(
                f"symbol {self.strings[int(self.symbol_name[position])]} does not point at a symbol node"
            )
        if self.occurrence_ids.size and (
            self.occurrence_ids.min() < 0 or self.occurrence_ids.max() >= num_nodes
        ):
            raise ValueError("symbol occurrence references a missing node")


class FlatGraphBuilder:
    """The mutable arena a single graph construction appends into.

    Nodes live in four columns of plain ints (kind code, text id, line,
    column) plus an intern table, and every edge kind in a pair of int
    lists (sources, targets).  :meth:`add_node` / :meth:`add_edge` append
    one element and check it; a builder that emits thousands of elements
    appends to the lists of :meth:`node_columns` and :meth:`edge_columns`
    directly.  Symbols are accumulated as :class:`SymbolInfo` records (they
    are few and the AST walk mutates them freely); :meth:`finish` freezes
    everything into a :class:`FlatGraph`.
    """

    def __init__(self, filename: str = "<unknown>", source: str = "") -> None:
        self.filename = filename
        self.source = source
        self.strings = StringTable()
        self._node_kind: list[int] = []
        self._node_text: list[int] = []
        self._node_line: list[int] = []
        self._node_col: list[int] = []
        self._edges: dict[EdgeKind, tuple[list[int], list[int]]] = {}
        self.symbols: list[SymbolInfo] = []

    # -- construction -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._node_kind)

    def node_columns(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The live ``(kind code, text id, line, column)`` node lists.

        Appending to them adds nodes; all four must grow together, and text
        ids must come from :attr:`strings`.
        """
        return self._node_kind, self._node_text, self._node_line, self._node_col

    def edge_columns(self, kind: EdgeKind) -> tuple[list[int], list[int]]:
        """The live ``(sources, targets)`` lists of one edge kind.

        Appending to them adds edges without the checks of :meth:`add_edge`.
        The frozen graph keeps its edge kinds in the order of their first
        call here.
        """
        columns = self._edges.get(kind)
        if columns is None:
            columns = self._edges[kind] = ([], [])
        return columns

    def add_node(self, kind: NodeKind, text: str, lineno: int = -1, col: int = -1) -> int:
        index = len(self._node_kind)
        self._node_kind.append(NODE_KIND_CODES[kind])
        self._node_text.append(self.strings.intern(text))
        self._node_line.append(lineno)
        self._node_col.append(col)
        return index

    def add_edge(self, kind: EdgeKind, source: int, target: int) -> None:
        """Append one edge; a self loop is dropped, a missing node is an ``IndexError``."""
        if source == target:
            return
        if not (0 <= source < self.num_nodes and 0 <= target < self.num_nodes):
            raise IndexError(
                f"edge {kind.value} references missing node ({source}, {target}); "
                f"graph has {self.num_nodes} nodes"
            )
        sources, targets = self.edge_columns(kind)
        sources.append(source)
        targets.append(target)

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

    # -- freezing ----------------------------------------------------------------------

    def finish(self) -> FlatGraph:
        """Freeze the arena into an immutable :class:`FlatGraph`."""
        edges = {
            kind: np.array(columns, dtype=np.int32)
            for kind, columns in self._edges.items()
            if columns[0]
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


def _symbols_match_columns(flat: FlatGraph, symbols: Sequence[SymbolInfo]) -> bool:
    """Whether the live symbol objects still equal the stored columns."""
    if len(symbols) != flat.num_symbols:
        return False
    strings = flat.strings
    nodes = flat.symbol_node.tolist()
    names = flat.symbol_name.tolist()
    kinds = flat.symbol_kind.tolist()
    scopes = flat.symbol_scope.tolist()
    annotations = flat.symbol_annotation.tolist()
    lines = flat.symbol_line.tolist()
    occurrences = flat.occurrence_ids.tolist()
    splits = flat.occurrence_splits.tolist()
    for i, symbol in enumerate(symbols):
        stored_annotation = None if annotations[i] == NO_ANNOTATION else strings[annotations[i]]
        if (
            symbol.node_index != nodes[i]
            or symbol.lineno != lines[i]
            or SYMBOL_KIND_CODES[symbol.kind] != kinds[i]
            or symbol.annotation != stored_annotation
            or symbol.name != strings[names[i]]
            or symbol.scope != strings[scopes[i]]
            or symbol.occurrence_indices != occurrences[splits[i] : splits[i + 1]]
        ):
            return False
    return True


def rebuild_symbol_columns(flat: FlatGraph, symbols: Sequence[SymbolInfo]) -> FlatGraph:
    """``flat`` with its symbol columns rebuilt from live symbol objects.

    Symbols are the one editable part of a
    :class:`~repro.graph.codegraph.CodeGraph` (callers hold and occasionally
    edit them), so :meth:`~repro.graph.codegraph.CodeGraph.to_flat`
    re-derives the symbol arrays — and any newly introduced
    name/scope/annotation strings — from the objects while reusing the node
    and edge arrays untouched.  When the objects still match the stored
    columns (the common case: nobody edited them), ``flat`` itself is
    returned.
    """
    if _symbols_match_columns(flat, symbols):
        return flat
    table = StringTable(flat.strings)
    intern = table.intern
    symbol_node: list[int] = []
    symbol_name: list[int] = []
    symbol_kind: list[int] = []
    symbol_scope: list[int] = []
    symbol_annotation: list[int] = []
    symbol_line: list[int] = []
    counts: list[int] = []
    occurrences: list[int] = []
    for symbol in symbols:
        symbol_node.append(symbol.node_index)
        symbol_name.append(intern(symbol.name))
        symbol_kind.append(SYMBOL_KIND_CODES[symbol.kind])
        symbol_scope.append(intern(symbol.scope))
        symbol_annotation.append(
            NO_ANNOTATION if symbol.annotation is None else intern(symbol.annotation)
        )
        symbol_line.append(symbol.lineno)
        counts.append(len(symbol.occurrence_indices))
        occurrences.extend(symbol.occurrence_indices)
    splits = np.zeros(len(symbols) + 1, dtype=np.int32)
    np.cumsum(counts, out=splits[1:])
    return replace(
        flat,
        strings=tuple(table.strings),
        symbol_node=np.asarray(symbol_node, dtype=np.int32),
        symbol_name=np.asarray(symbol_name, dtype=np.int32),
        symbol_kind=np.asarray(symbol_kind, dtype=np.int32),
        symbol_scope=np.asarray(symbol_scope, dtype=np.int32),
        symbol_annotation=np.asarray(symbol_annotation, dtype=np.int32),
        symbol_line=np.asarray(symbol_line, dtype=np.int32),
        occurrence_ids=np.asarray(occurrences, dtype=np.int32),
        occurrence_splits=splits,
        _subtoken_cache=flat._subtoken_cache,
    )

