"""Tests for the program-graph builder (nodes, edges, symbols, annotations)."""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import graph_oracle
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.graph import (
    CodeGraph,
    EdgeKind,
    GraphBuildError,
    GraphBuilder,
    NodeKind,
    SymbolKind,
    build_graph,
    collect_annotations,
    erase_annotations,
    to_dot,
)
from repro.graph.builder import RETURN_SYMBOL_NAME, SymbolKey
from repro.graph.flatgraph import FlatGraphBuilder


@pytest.fixture()
def graph(sample_source) -> CodeGraph:
    return build_graph(sample_source, "sample.py")


class TestAnnotationCollection:
    def test_parameter_annotations_collected(self, sample_source):
        annotations = collect_annotations(sample_source)
        assert annotations[SymbolKey("module.get_foo", "i", SymbolKind.PARAMETER)] == "int"
        assert annotations[SymbolKey("module.Widget.__init__", "sizes", SymbolKind.PARAMETER)] == "List[int]"
        assert annotations[SymbolKey("module.process", "scale", SymbolKind.PARAMETER)] == "Optional[float]"

    def test_return_annotations_collected(self, sample_source):
        annotations = collect_annotations(sample_source)
        assert annotations[SymbolKey("module.get_foo", RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN)] == "str"
        assert annotations[SymbolKey("module.process", RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN)] == "float"

    def test_variable_annotations_collected(self, sample_source):
        annotations = collect_annotations(sample_source)
        assert annotations[SymbolKey("module", "MAX_RETRIES", SymbolKind.VARIABLE)] == "int"
        assert annotations[SymbolKey("module.get_foo", "result", SymbolKind.VARIABLE)] == "str"

    def test_self_attribute_annotations_recorded_under_class_scope(self, sample_source):
        annotations = collect_annotations(sample_source)
        assert annotations[SymbolKey("module.Widget", "self.name", SymbolKind.VARIABLE)] == "str"


class TestAnnotationErasure:
    def test_erased_source_has_no_annotations(self, sample_source):
        erased = erase_annotations(sample_source)
        assert collect_annotations(erased) == {}
        assert "->" not in erased
        assert ": int" not in erased and ": str" not in erased

    def test_erased_source_still_parses_and_keeps_structure(self, sample_source):
        import ast

        original = ast.parse(sample_source)
        erased = ast.parse(erase_annotations(sample_source))
        original_functions = [n.name for n in ast.walk(original) if isinstance(n, ast.FunctionDef)]
        erased_functions = [n.name for n in ast.walk(erased) if isinstance(n, ast.FunctionDef)]
        assert original_functions == erased_functions

    def test_bare_annotated_declaration_becomes_assignment(self):
        erased = erase_annotations("x: int\ny = x")
        assert "x = None" in erased

    def test_graph_nodes_never_contain_annotation_text(self):
        source = "def f(parameter: SomeVeryUniqueTypeName) -> AnotherUniqueType:\n    return parameter\n"
        graph = build_graph(source)
        texts = {node.text for node in graph.nodes}
        assert "SomeVeryUniqueTypeName" not in texts
        assert "AnotherUniqueType" not in texts


_FRONT_END_CASES = [
    "x: int\ny = x\n",
    "def f(*args: int, a: str, b: 'B' = 1, **kw: float) -> None:\n    pass\n",
    "def f(a, /, b: int, *, c: str):\n    async def g(d: int) -> str:\n        e: int\n        return e\n",
    "class A:\n    x: int = 1\n    class B:\n        def __init__(self, y: int) -> None:\n            self.y: int = y\n",
    "def f():\n    self.z: str = ''\n",
    "self.w: int = 3\n",
    "try:\n    a: int = 1\nexcept ValueError as e:\n    b: str = ''\nelse:\n    c: int\nfinally:\n    d: bytes\n",
    "for i in range(3):\n    j: int = i\nelse:\n    k: int = 0\nwhile True:\n    m: int = 1\n",
    "with open(p) as h:\n    if h:\n        n: str = ''\n    elif h:\n        o: int\n",
    "match v:\n    case [x]:\n        q: int = x\n    case _:\n        r: str\n",
    "@decorate(lambda z: z)\nclass C(Base, metaclass=M):\n    def m(self) -> 'C':\n        t: List[int] = [u for u in range(2)]\n        return self\n",
    "a.b: int = 1\nc[0]: str = ''\n(d): int = 2\n",
]


class TestFrontEndParity:
    """The one-walk front-end against the two-visitor oracle it replaced."""

    @staticmethod
    def _assert_same(source, filename):
        annotations = collect_annotations(source)
        oracle_annotations = graph_oracle.collect_annotations(source)
        assert annotations == oracle_annotations
        assert list(annotations) == list(oracle_annotations)
        assert erase_annotations(source) == graph_oracle.erase_annotations(source)
        graph = build_graph(source, filename)
        oracle = graph_oracle.build(source, filename)
        assert graph_oracle.flat_arrays(graph) == graph_oracle.flat_arrays(oracle)
        assert list(graph.flat.edges) == list(oracle.flat.edges)  # edge kinds in the same order
        assert graph.symbols == oracle.symbols

    @pytest.mark.parametrize("source", _FRONT_END_CASES)
    def test_hand_written_sources(self, source):
        self._assert_same(source, "case.py")

    def test_sample_source(self, sample_source):
        self._assert_same(sample_source, "sample.py")

    def test_benchmark_pool(self):
        """Byte-identical annotation maps, erased text and FlatGraph arrays
        over the 400-file pool the annotate benchmark draws its projects from."""
        config = SynthesisConfig(num_files=400, seed=1000, duplicate_fraction=0.0)
        for entry in CorpusSynthesizer(config).generate():
            self._assert_same(entry.source, entry.filename)


def _assignments(count: int) -> str:
    return "".join(f"name_{index} = {index}\n" for index in range(count))


class TestBuildCost:
    def test_assigned_from_is_linear_in_the_number_of_assignments(self):
        """Four times the assignments must cost about four times as much.

        ``ASSIGNED_FROM`` once scanned every ``CHILD`` edge of the file per
        assignment: 4,000 assignments took 9.4 times as long as 1,000.
        """

        def best_of_three(source: str) -> float:
            # The cyclic collector's passes scale with everything the test
            # process holds, not with the build, so they are kept out.
            timings = []
            gc.collect()
            gc.disable()
            try:
                for _ in range(3):
                    started = time.perf_counter()
                    build_graph(source)
                    timings.append(time.perf_counter() - started)
            finally:
                gc.enable()
            return min(timings)

        small, large = _assignments(1000), _assignments(4000)
        build_graph(small)  # warm up
        ratio = best_of_three(large) / best_of_three(small)
        assert ratio < 6.0, ratio
        assert len(build_graph(large).edges_of(EdgeKind.ASSIGNED_FROM)) == 4000

    def test_build_leaves_no_reference_cycles(self, sample_source):
        """A build's state is freed when it returns, not when the cyclic
        collector next runs (a pass builds dozens of graphs, then embeds)."""
        gc.collect()
        gc.disable()
        try:
            build_graph(sample_source)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGraphStructure:
    def test_all_node_kinds_present(self, graph):
        kinds = {node.kind for node in graph.nodes}
        assert kinds == {NodeKind.TOKEN, NodeKind.NON_TERMINAL, NodeKind.VOCABULARY, NodeKind.SYMBOL}

    def test_all_edge_kinds_present(self, graph):
        assert set(graph.edges) == set(EdgeKind)

    def test_next_token_edges_form_a_chain(self, graph):
        token_count = len(graph.nodes_of_kind(NodeKind.TOKEN))
        assert len(graph.edges_of(EdgeKind.NEXT_TOKEN)) == token_count - 1

    def test_symbols_have_occurrences(self, graph):
        symbol = graph.find_symbol("widget", kind=SymbolKind.PARAMETER)
        assert symbol is not None
        assert len(symbol.occurrence_indices) >= 2  # declaration plus at least one use

    def test_return_symbol_exists_per_function(self, graph):
        scopes = {s.scope for s in graph.symbols if s.kind == SymbolKind.FUNCTION_RETURN}
        assert "module.get_foo" in scopes and "module.process" in scopes
        assert "module.Widget.total_size" in scopes

    def test_symbol_kinds_assigned_correctly(self, graph):
        assert graph.find_symbol("MAX_RETRIES").kind == SymbolKind.VARIABLE
        assert graph.find_symbol("scale").kind == SymbolKind.PARAMETER
        assert graph.find_symbol("self.name").kind == SymbolKind.VARIABLE

    def test_annotations_attached_to_symbols(self, graph):
        assert graph.find_symbol("i", kind=SymbolKind.PARAMETER).annotation == "int"
        assert graph.find_symbol(RETURN_SYMBOL_NAME, scope="module.summarise").annotation == "str"
        assert graph.find_symbol("value", scope="module.process").annotation is None

    def test_returns_to_edges_point_at_function_definitions(self, graph):
        for source, target in graph.edges_of(EdgeKind.RETURNS_TO):
            assert graph.nodes[source].text in ("Return", "Yield", "YieldFrom")
            assert graph.nodes[target].text in ("FunctionDef", "AsyncFunctionDef")

    def test_assigned_from_edges_exist(self, graph):
        assert len(graph.edges_of(EdgeKind.ASSIGNED_FROM)) >= 3

    def test_subtoken_edges_connect_to_vocabulary_nodes(self, graph):
        for _, target in graph.edges_of(EdgeKind.SUBTOKEN_OF):
            assert graph.nodes[target].kind == NodeKind.VOCABULARY

    def test_occurrence_edges_target_symbol_nodes(self, graph):
        for _, target in graph.edges_of(EdgeKind.OCCURRENCE_OF):
            assert graph.nodes[target].kind == NodeKind.SYMBOL

    def test_validate_passes(self, graph):
        graph.validate()

    def test_summary_counts_are_consistent(self, graph):
        summary = graph.summary()
        assert summary["nodes"] == graph.num_nodes
        assert summary["annotated_symbols"] == len(graph.annotated_symbols())
        assert summary["symbols"] == len(graph.symbols)


class TestScoping:
    def test_module_scope_excludes_function_locals(self):
        graph = build_graph("total = 0\n\ndef f(x):\n    local_value = x\n    return local_value\n")
        module_names = {s.name for s in graph.symbols if s.scope == "module"}
        assert module_names == {"total"}

    def test_shadowed_names_create_separate_symbols(self):
        source = "count = 1\n\ndef f(count):\n    return count\n"
        graph = build_graph(source)
        symbols = [s for s in graph.symbols if s.name == "count"]
        assert len(symbols) == 2
        assert {s.scope for s in symbols} == {"module", "module.f"}

    def test_nested_function_scopes(self):
        source = "def outer(a):\n    def inner(b):\n        return b\n    return inner(a)\n"
        graph = build_graph(source)
        assert graph.find_symbol("b", scope="module.outer.inner") is not None
        assert graph.find_symbol("a", scope="module.outer") is not None


class TestHashSeedIndependence:
    _SCRIPT = (
        "import json, sys\n"
        "from repro.graph import build_graph\n"
        "graph = build_graph(sys.stdin.read(), 'sample.py')\n"
        "print(json.dumps({\n"
        "    'symbols': [repr(symbol) for symbol in graph.symbols],\n"
        "    'nodes': [repr(node) for node in graph.nodes],\n"
        "    'edges': sorted([kind.name, pairs] for kind, pairs in graph.edges.items()),\n"
        "}))\n"
    )

    def _build_under_seed(self, source, seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", self._SCRIPT], input=source, env=env,
            capture_output=True, text=True, check=True,
        )
        return json.loads(completed.stdout)

    def test_graph_does_not_depend_on_the_string_hash_seed(self, sample_source):
        """Symbols, nodes and edges come out identical in every process,
        whatever ``PYTHONHASHSEED`` it runs under (fleet workers included)."""
        first = self._build_under_seed(sample_source, 1)
        second = self._build_under_seed(sample_source, 2)
        assert first["symbols"] == second["symbols"]
        assert first["nodes"] == second["nodes"]
        assert first["edges"] == second["edges"]


class TestEdgeAblation:
    def test_include_edges_filters_graph(self, sample_source):
        builder = GraphBuilder(include_edges=[EdgeKind.CHILD, EdgeKind.OCCURRENCE_OF])
        graph = builder.build(sample_source)
        assert set(graph.edges) <= {EdgeKind.CHILD, EdgeKind.OCCURRENCE_OF}
        assert graph.edges_of(EdgeKind.CHILD)

    def test_without_edges_returns_filtered_copy(self, graph):
        filtered = graph.without_edges([EdgeKind.NEXT_TOKEN])
        assert EdgeKind.NEXT_TOKEN not in filtered.edges
        assert EdgeKind.NEXT_TOKEN in graph.edges  # original untouched
        assert filtered.num_nodes == graph.num_nodes


class TestErrorsAndExport:
    def test_unparsable_source_raises_graph_build_error(self):
        with pytest.raises(GraphBuildError):
            build_graph("def broken(:\n")

    def test_build_file_reads_from_disk(self, tmp_path, sample_source):
        path = tmp_path / "module.py"
        path.write_text(sample_source)
        graph = GraphBuilder().build_file(str(path))
        assert graph.filename == str(path)
        assert graph.num_nodes > 0

    def test_dot_export_mentions_every_node(self, graph):
        dot = to_dot(graph)
        assert dot.startswith("digraph")
        assert dot.count("->") == graph.num_edges

    def test_add_edge_rejects_dangling_indices(self):
        arena = FlatGraphBuilder()
        arena.add_node(NodeKind.TOKEN, "x")
        with pytest.raises(IndexError):
            arena.add_edge(EdgeKind.CHILD, 0, 5)

    def test_self_loops_are_dropped(self):
        arena = FlatGraphBuilder()
        index = arena.add_node(NodeKind.TOKEN, "x")
        arena.add_edge(EdgeKind.CHILD, index, index)
        graph = CodeGraph.from_flat(arena.finish())
        assert graph.num_edges == 0
