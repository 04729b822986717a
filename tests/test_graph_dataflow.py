"""Tests for the dataflow analysis (NEXT_LEXICAL_USE / NEXT_MAY_USE) and subtokens."""

import ast
import time

import pytest
from hypothesis import given, strategies as st

import graph_oracle
from conftest import SAMPLE_SOURCE
from repro.graph import EdgeKind, NodeKind, build_graph
from repro.graph.dataflow import NextMayUseAnalysis, UseEvent
from repro.graph.subtokens import (
    EMPTY_SUBTOKEN,
    UNKNOWN_SUBTOKEN,
    CharacterVocabulary,
    SubtokenVocabulary,
    split_identifier,
)


def _use_pairs(source: str, kind: EdgeKind) -> set[tuple[str, str]]:
    """Map edge endpoints to (token text, token text) pairs for readability."""
    graph = build_graph(source)
    pairs = set()
    for source_index, target_index in graph.edges_of(kind):
        pairs.add((graph.nodes[source_index].text, graph.nodes[target_index].text))
    return pairs


class TestNextLexicalUse:
    def test_sequential_uses_are_chained(self):
        source = "def f(value):\n    a = value + 1\n    b = value + 2\n    return value\n"
        graph = build_graph(source)
        value_tokens = [
            node.index for node in graph.nodes if node.kind == NodeKind.TOKEN and node.text == "value"
        ]
        lexical = set(graph.edges_of(EdgeKind.NEXT_LEXICAL_USE))
        chained = [(a, b) for a, b in zip(value_tokens, value_tokens[1:])]
        assert set(chained) <= lexical

    def test_distinct_variables_not_linked(self):
        source = "def f(alpha, beta):\n    x = alpha\n    y = beta\n    return x + y\n"
        pairs = _use_pairs(source, EdgeKind.NEXT_LEXICAL_USE)
        assert ("alpha", "beta") not in pairs and ("beta", "alpha") not in pairs


class TestNextMayUse:
    def test_both_branches_reachable_from_pre_branch_use(self):
        source = (
            "def f(flag, value):\n"
            "    start = value\n"
            "    if flag:\n"
            "        a = value + 1\n"
            "    else:\n"
            "        b = value + 2\n"
            "    return value\n"
        )
        graph = build_graph(source)
        value_tokens = [n.index for n in graph.nodes if n.kind == NodeKind.TOKEN and n.text == "value"]
        may_use = set(graph.edges_of(EdgeKind.NEXT_MAY_USE))
        first_use = value_tokens[1]  # the RHS of `start = value` (index 0 is the parameter)
        then_use = value_tokens[2]
        else_use = value_tokens[3]
        assert (first_use, then_use) in may_use
        assert (first_use, else_use) in may_use

    def test_final_use_reachable_from_both_branches(self):
        source = (
            "def f(flag, value):\n"
            "    if flag:\n"
            "        a = value + 1\n"
            "    else:\n"
            "        b = value + 2\n"
            "    return value\n"
        )
        graph = build_graph(source)
        value_tokens = [n.index for n in graph.nodes if n.kind == NodeKind.TOKEN and n.text == "value"]
        may_use = set(graph.edges_of(EdgeKind.NEXT_MAY_USE))
        then_use, else_use, final_use = value_tokens[1], value_tokens[2], value_tokens[3]
        assert (then_use, final_use) in may_use
        assert (else_use, final_use) in may_use
        # Lexical-use is a chain, so the else-branch -> final edge distinguishes
        # the two relations.
        lexical = set(graph.edges_of(EdgeKind.NEXT_LEXICAL_USE))
        assert (then_use, else_use) in lexical

    def test_loop_back_edge_connects_last_use_to_first_use(self):
        source = (
            "def f(items):\n"
            "    total = 0\n"
            "    for item in items:\n"
            "        total = total + item\n"
            "    return total\n"
        )
        graph = build_graph(source)
        total_tokens = [n.index for n in graph.nodes if n.kind == NodeKind.TOKEN and n.text == "total"]
        may_use = set(graph.edges_of(EdgeKind.NEXT_MAY_USE))
        # The assignment target inside the loop may flow back to the RHS use
        # of the next iteration.
        in_loop_target, in_loop_use = total_tokens[1], total_tokens[2]
        assert (in_loop_target, in_loop_use) in may_use or (in_loop_use, in_loop_target) in may_use

    def test_nested_function_uses_not_crossed(self):
        source = (
            "def outer(shared):\n"
            "    def inner(shared):\n"
            "        return shared\n"
            "    return shared\n"
        )
        graph = build_graph(source)
        # The inner function's `shared` is a different symbol: no may-use edge
        # should connect occurrences across the two scopes.
        outer_symbol = graph.find_symbol("shared", scope="module.outer")
        inner_symbol = graph.find_symbol("shared", scope="module.outer.inner")
        assert outer_symbol is not None and inner_symbol is not None
        outer_occurrences = set(outer_symbol.occurrence_indices)
        inner_occurrences = set(inner_symbol.occurrence_indices)
        for a, b in graph.edges_of(EdgeKind.NEXT_MAY_USE):
            assert not (a in outer_occurrences and b in inner_occurrences)
            assert not (a in inner_occurrences and b in outer_occurrences)


def _nested_loops(depth: int) -> str:
    """A function whose body is ``depth`` nested ``for`` loops, each using ``total``."""
    lines = ["def f(items):", "    total = 0"]
    for level in range(depth):
        indent = "    " * (level + 1)
        lines.append(f"{indent}for v{level} in items:")
        lines.append(f"{indent}    total = total + v{level}")
    lines.append("    return total")
    return "\n".join(lines) + "\n"


def _analysis_pairs(analysis_class, source: str) -> list[set[tuple[int, int]]]:
    """NEXT_MAY_USE pairs of every function body and the module body of ``source``.

    Uses are the ``Name`` nodes of a statement, identified by source position.
    """
    tree = ast.parse(source)
    positions: dict[tuple[int, int], int] = {}

    def uses_of(node):
        events = []
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                position = (child.lineno, child.col_offset)
                occurrence = positions.setdefault(position, len(positions))
                events.append(UseEvent(child.id, occurrence, child.lineno, child.col_offset))
        return sorted(events, key=lambda event: (event.lineno, event.col))

    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    results = []
    for body in bodies:
        analysis = analysis_class(uses_of)
        analysis.analyse_body(body)
        results.append(analysis.pairs)
    return results


class TestMemoisedNextMayUse:
    """The memoised analysis yields the pairs of the unmemoised one."""

    @pytest.mark.parametrize(
        "source",
        [SAMPLE_SOURCE, _nested_loops(4), _nested_loops(8), _nested_loops(12),
         "while a:\n    for b in a:\n        while b:\n            a = b\n        else:\n            c = a\n"
         "    try:\n        for d in c:\n            b = d\n    except E:\n        a = c\n    finally:\n        d = a\n"],
    )
    def test_pairs_equal_the_unmemoised_analysis(self, source):
        assert _analysis_pairs(NextMayUseAnalysis, source) == _analysis_pairs(graph_oracle.UnmemoisedNextMayUse, source)

    def test_parity_cases(self):
        from test_graph_builder import _FRONT_END_CASES

        for source in _FRONT_END_CASES:
            erased = graph_oracle.erase_annotations(source)
            assert _analysis_pairs(NextMayUseAnalysis, erased) == \
                _analysis_pairs(graph_oracle.UnmemoisedNextMayUse, erased)

    def test_nested_loop_graph_equals_the_unmemoised_build(self):
        source = _nested_loops(8)
        assert graph_oracle.flat_arrays(build_graph(source)) == graph_oracle.flat_arrays(graph_oracle.build(source))

    def test_deep_loop_nest_builds_quickly(self):
        """Unmemoised, each loop level doubles the work: depth 20 took minutes."""
        started = time.perf_counter()
        graph = build_graph(_nested_loops(20))
        assert time.perf_counter() - started < 5.0
        assert graph.edges_of(EdgeKind.NEXT_MAY_USE)


class TestSubtokenSplitting:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("numNodes", ["num", "nodes"]),
            ("get_foo", ["get", "foo"]),
            ("+", [EMPTY_SUBTOKEN]),
            ("", [EMPTY_SUBTOKEN]),
            ("CONSTANT_VALUE", ["constant", "value"]),
        ],
    )
    def test_split_identifier(self, text, expected):
        assert split_identifier(text) == expected

    def test_vocabulary_keeps_frequent_subtokens(self):
        vocabulary = SubtokenVocabulary(max_size=4)
        for _ in range(5):
            vocabulary.observe(["count", "total"])
        vocabulary.observe(["rare"])
        vocabulary.finalise()
        assert "count" in vocabulary and "total" in vocabulary
        assert len(vocabulary) <= 4

    def test_unknown_maps_to_unk_id(self):
        vocabulary = SubtokenVocabulary()
        vocabulary.observe(["alpha"])
        vocabulary.finalise()
        assert vocabulary.lookup("never_seen") == vocabulary.lookup(UNKNOWN_SUBTOKEN)
        assert vocabulary.lookup("alpha") != vocabulary.lookup(UNKNOWN_SUBTOKEN)

    def test_observe_after_finalise_raises(self):
        vocabulary = SubtokenVocabulary().finalise()
        with pytest.raises(RuntimeError):
            vocabulary.observe(["late"])

    def test_ids_for_identifier(self):
        vocabulary = SubtokenVocabulary()
        vocabulary.observe_identifier("numNodes")
        vocabulary.finalise()
        ids = vocabulary.ids_for_identifier("numNodes")
        assert len(ids) == 2 and all(isinstance(i, int) for i in ids)

    @given(st.text(alphabet="abcdefgXYZ_09", min_size=0, max_size=20))
    def test_property_split_never_empty(self, text):
        parts = split_identifier(text)
        assert parts  # always at least the EMPTY pseudo-subtoken

    def test_character_vocabulary_encoding(self):
        characters = CharacterVocabulary()
        encoded = characters.encode("abc", max_chars=6)
        assert len(encoded) == 6
        assert encoded[3:] == [CharacterVocabulary.PAD] * 3
        assert characters.encode("€", 2)[0] == CharacterVocabulary.UNKNOWN
