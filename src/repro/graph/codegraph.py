"""The program-graph container produced by :mod:`repro.graph.builder`.

A :class:`CodeGraph` is a read-only view over one
:class:`~repro.graph.flatgraph.FlatGraph`: hot paths (featurization, batch
assembly, persistence) read the arrays through :attr:`flat`, and the
``nodes`` / ``edges`` views are immutable tuples built from the arrays on
first access and cached.  Reading them never changes the representation;
editing them raises.  Symbols are the one live part: they are few, callers
hold references to them and occasionally edit them (an annotation attached
by the pipeline), and :meth:`to_flat` rebuilds the symbol columns from the
objects.  New graphs are built with
:class:`~repro.graph.flatgraph.FlatGraphBuilder` and wrapped with
:meth:`CodeGraph.from_flat`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import NODE_KIND_ORDER, FlatGraph, rebuild_symbol_columns
from repro.graph.nodes import GraphNode, NodeKind, SymbolInfo, SymbolKind

EdgePairs = tuple[tuple[int, int], ...]


class CodeGraph:
    """A program graph for a single Python file.

    The graph stores the four node categories of Sec. 5.1, the labelled edge
    lists of Table 1, and one :class:`SymbolInfo` per symbol node carrying
    the (erased) ground-truth annotation used for supervision and evaluation.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "CodeGraph is a view over a FlatGraph: build with FlatGraphBuilder "
            "and wrap the result with CodeGraph.from_flat"
        )

    @classmethod
    def from_flat(cls, flat: FlatGraph, filename: Optional[str] = None) -> "CodeGraph":
        """Wrap a columnar graph, optionally relabelled to ``filename``.

        Symbols are materialised eagerly (one object per symbol, versus
        hundreds of nodes) so that callers can hold and edit them.
        """
        if filename is not None:
            flat = flat.with_filename(filename)
        graph = cls.__new__(cls)
        graph._flat = flat
        graph._nodes = None
        graph._edges = None
        graph._symbols = flat.materialise_symbols()
        return graph

    # -- the backing arrays --------------------------------------------------------

    @property
    def flat(self) -> FlatGraph:
        """The columnar backing (node and edge arrays are never rebuilt)."""
        return self._flat

    @property
    def filename(self) -> str:
        return self._flat.filename

    @property
    def source(self) -> str:
        return self._flat.source

    def to_flat(self) -> FlatGraph:
        """This graph as a :class:`FlatGraph`, including any symbol edits.

        The node and edge arrays are reused as-is; the symbol columns are
        rebuilt from the live :class:`SymbolInfo` objects only when one of
        them was edited.
        """
        return rebuild_symbol_columns(self._flat, self._symbols)

    # -- read-only views -------------------------------------------------------------

    @property
    def nodes(self) -> tuple[GraphNode, ...]:
        """Every node as a frozen :class:`GraphNode`, in index order (cached)."""
        if self._nodes is None:
            flat = self._flat
            strings = flat.strings
            kinds = flat.node_kind.tolist()
            texts = flat.node_text.tolist()
            lines = flat.node_line.tolist()
            cols = flat.node_col.tolist()
            self._nodes = tuple(
                GraphNode(index=i, kind=NODE_KIND_ORDER[kinds[i]], text=strings[texts[i]],
                          lineno=lines[i], col=cols[i])
                for i in range(len(kinds))
            )
        return self._nodes

    @property
    def edges(self) -> Mapping[EdgeKind, EdgePairs]:
        """Edge kind → ``(source, target)`` pairs, insertion order (cached)."""
        if self._edges is None:
            self._edges = MappingProxyType({
                kind: tuple(tuple(pair) for pair in pairs.T.tolist())
                for kind, pairs in self._flat.edges.items()
            })
        return self._edges

    @property
    def symbols(self) -> list[SymbolInfo]:
        return self._symbols

    def __getstate__(self) -> dict:
        # The views are rebuilt on demand, and a mapping proxy cannot be pickled.
        return {**self.__dict__, "_nodes": None, "_edges": None}

    # -- equality / repr -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeGraph):
            return NotImplemented
        if (
            self.filename != other.filename
            or self.source != other.source
            or self.symbols != other.symbols
        ):
            return False
        mine, theirs = self._flat, other._flat
        if mine is theirs:
            return True
        # Text ids are table-local, so texts (not ids) are compared; kind
        # codes are canonical.
        return (
            np.array_equal(mine.node_kind, theirs.node_kind)
            and np.array_equal(mine.node_line, theirs.node_line)
            and np.array_equal(mine.node_col, theirs.node_col)
            and mine.node_texts() == theirs.node_texts()
            and set(mine.edges) == set(theirs.edges)
            and all(np.array_equal(pairs, theirs.edges[kind]) for kind, pairs in mine.edges.items())
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CodeGraph(filename={self.filename!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, symbols={len(self.symbols)})"
        )

    # -- queries ----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._flat.num_nodes

    @property
    def num_edges(self) -> int:
        return self._flat.num_edges

    def edges_of(self, kind: EdgeKind) -> EdgePairs:
        """The pairs of one edge kind; ``()`` for a kind with no edges."""
        return self.edges.get(kind, ())

    def node_texts(self) -> list[str]:
        """Every node's text, without building node objects."""
        return self._flat.node_texts()

    def nodes_of_kind(self, kind: NodeKind) -> list[GraphNode]:
        return [node for node in self.nodes if node.kind == kind]

    def count_of_kind(self, kind: NodeKind) -> int:
        return self._flat.count_of_kind(kind)

    def annotated_symbols(self) -> list[SymbolInfo]:
        return [symbol for symbol in self.symbols if symbol.is_annotated]

    def symbol_by_node(self, node_index: int) -> Optional[SymbolInfo]:
        for symbol in self.symbols:
            if symbol.node_index == node_index:
                return symbol
        return None

    def find_symbol(self, name: str, scope: Optional[str] = None, kind: Optional[SymbolKind] = None) -> Optional[SymbolInfo]:
        for symbol in self.symbols:
            if symbol.name != name:
                continue
            if scope is not None and symbol.scope != scope:
                continue
            if kind is not None and symbol.kind != kind:
                continue
            return symbol
        return None

    def node_subtokens(self) -> Iterator[tuple[int, list[str]]]:
        """Yield ``(node_index, subtokens)`` for initialising node states (Eq. 7)."""
        return self._flat.node_subtokens()

    def without_edges(self, excluded: Iterable[EdgeKind]) -> "CodeGraph":
        """A copy of the graph with the given edge kinds removed (Table 4 ablations).

        The copy shares the node arrays and carries the current symbols,
        edits included.
        """
        return CodeGraph.from_flat(self.to_flat().without_edges(excluded))

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violation."""
        self.to_flat().validate()

    def summary(self) -> dict[str, int]:
        """Small statistics dictionary used by corpus reporting."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "tokens": self.count_of_kind(NodeKind.TOKEN),
            "non_terminals": self.count_of_kind(NodeKind.NON_TERMINAL),
            "vocabulary": self.count_of_kind(NodeKind.VOCABULARY),
            "symbols": len(self.symbols),
            "annotated_symbols": len(self.annotated_symbols()),
        }
