"""The incremental prediction checker agrees with the whole-file oracle.

Every verdict the program gives — ``PredictionChecker.check_prediction`` and
the batched ``TypeCheckedFilter.filter_many`` — must equal what re-checking
the whole rewritten file gives (``tests/checker_oracle.py``), and a symbol's
filtered answer must not depend on the other symbols filtered with it.
"""

from __future__ import annotations

import gc
import random

import pytest
import test_checker
from hypothesis import HealthCheck, given, settings, strategies as st

from checker_oracle import oracle_apply_annotation, oracle_check_prediction
from conftest import SAMPLE_SOURCE
from repro.checker import (
    AnnotationRewriteError,
    CheckerMode,
    PredictionChecker,
    SourcePredictionChecker,
    apply_annotation,
    check_source,
)
from repro.checker.checker import TOO_DEEP_MESSAGE
from repro.checker.incremental import IncrementalChecker, parse_annotation
from repro.core import TypeCheckedFilter, TypePrediction
from repro.core.filter import FilterRequest
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.graph.builder import GraphBuilder
from repro.graph.nodes import SymbolKind

CANDIDATES = [
    "int", "str", "float", "bool", "List[int]", "Dict[str, int]", "Optional[int]", "Tuple[int, str]",
    "Union[int, str]", "Base", "Child", "Any", "None", "List[", "typing.List[int]",
]

#: Hand-written files for the places where a re-check must reach beyond the
#: edited scope, or must fall back to checking the whole file.
TRICKY_SOURCES = [
    # __init__ of a base class, constructed through a subclass.
    "class Base:\n    def __init__(self, a, b=0):\n        self.a = a\n        self.b = b\n\n"
    "    def get(self, k):\n        return self.a + k\n\n"
    "class Child(Base):\n    def extra(self):\n        self.c = self.get(1)\n        return self.c\n\n"
    "def make(v):\n    return Child(v, 'x').get(2)\n",
    # Module-level code reading a function's result; redefined function.
    "def f0(x):\n    return x\n\ndef f0(x, y=1):\n    return x * y\n\n"
    "value = f0(1)\nif value:\n    print(f0('a'))\n",
    # Class-body variables and a module-level annotated variable.
    "LIMIT: int = 3\n\nclass Box:\n    size: int = 0\n    label = 'box'\n\n"
    "    def grow(self, by):\n        self.size = self.size + by\n        return self.size\n\n"
    "def use(box: Box, n):\n    return box.grow(n) + LIMIT\n\ndef show(box: Box):\n    return box.label + 1\n",
    # A redefined class: only the last definition reaches the module context.
    "class Box:\n    def grow(self, by):\n        return by + 1\n\nclass Box:\n    def other(self):\n        return 1\n\n"
    "def use(b: Box):\n    return b.grow('x')\n",
    # Nested definitions that share a top-level name take its signature.
    "def helper(q):\n    return q\n\ndef outer(p):\n    def helper(q):\n        return q + 1\n    return p\n\n"
    "class Holder:\n    def __init__(self, a):\n        self.a = a\n\n"
    "def make(n):\n    class Holder:\n        def __init__(self, a):\n            self.a = a + 1\n    return n\n",
    # `self.attr` assigned outside any class, before the class that owns it.
    "def setter(self, v):\n    self.a = v\n\nclass Holder:\n    def __init__(self, a):\n        self.a = a\n",
    # Definitions inside a module-level `if`; a class nested in a function.
    "import sys\n\nif sys:\n    def late(n):\n        return n + 1\n\n"
    "def factory(x):\n    class Inner:\n        def __init__(self, y):\n            self.y = y\n    return Inner(x).y\n",
    # A function reading a module-level name that is bound only after it.
    "def read():\n    return LATER + 1\n\ndef later_user(n):\n    return read() + n\n\nLATER = 'text'\n",
    # Module-level variables read by later statements, functions and a re-annotation.
    "LIMIT: int = 3\ncount = LIMIT\nlabel = 'n'\nratio = count / 2\n\n"
    "def scaled(n):\n    return n * ratio + LIMIT\n\n"
    "if count:\n    label = count\n    extra = label + 1\n\n"
    "total: float = scaled(count)\nLIMIT = 'x'\nlabel: str = 'm'\n",
    # Variables assigned under module-level compound statements, one inside a nested def.
    "import sys\n\nif sys:\n    def late(n):\n        m = n + 1\n        return m\n    value = late(1)\n\n"
    "for item in [1, 2]:\n    total = item\n    label = total\nprint(label + 1, value)\n",
    # Optional narrowing and attributes read through annotated parameters.
    "from typing import Optional\n\nclass Node:\n    def __init__(self, value, nxt=None):\n"
    "        self.value = value\n        self.nxt = nxt\n\n"
    "def total(node: Optional[Node]):\n    if node is None:\n        return 0\n    return node.value + total(node.nxt)\n",
]


def _synthetic_sources() -> list[str]:
    config = SynthesisConfig(num_files=12, seed=11, duplicate_fraction=0.0)
    return [entry.source for entry in CorpusSynthesizer(config).generate()]


SOURCES = (
    _synthetic_sources() + TRICKY_SOURCES + [SAMPLE_SOURCE, test_checker.WELL_TYPED, test_checker.TestPredictionHarness.SOURCE]
)


def _symbols(source: str) -> list[tuple[str, str, SymbolKind, str | None]]:
    graph = GraphBuilder().build(source)
    symbols = [(s.scope, s.name, s.kind, s.annotation) for s in graph.symbols]
    # Symbols the graph builder never produces must be rejected the same way.
    symbols.append(("module.nowhere", "x", SymbolKind.PARAMETER, None))
    symbols.append(("module", "<return>", SymbolKind.VARIABLE, None))
    return symbols


SYMBOLS = [_symbols(source) for source in SOURCES]


def _verdict(outcome) -> tuple:
    return (outcome.ok, outcome.introduced_errors, outcome.skipped, outcome.reason, outcome.category)


def _rewrite(rewrite, *args) -> str:
    try:
        return rewrite(*args)
    except AnnotationRewriteError as error:
        return f"error: {error}"


@st.composite
def _programs(draw) -> str:
    """Small modules mixing calls, classes, inheritance and module-level code."""
    expressions = ["1", "'a'", "2.5", "[1, 2]", "{'k': 1}", "None", "a", "b", "a + b", "f0(a)", "f1(a, b)",
                   "Base(a)", "Child(a, b)", "Base(a).get(1)", "a.get(b)", "a.size"]

    def expression() -> str:
        return draw(st.sampled_from(expressions))

    def annotation() -> str:
        return draw(st.sampled_from(["", ": int", ": str", ": Base", ": Optional[int]"]))

    pieces = {
        "f0": lambda: f"def f0(a{annotation()}):\n    x = {expression()}\n    return x\n",
        "f1": lambda: f"def f1(a, b{annotation()}):\n    y{annotation()} = {expression()}\n    return {expression()}\n",
        "base": lambda: (
            f"class Base:\n    size: int = 0\n\n    def __init__(self, a, b=0):\n"
            f"        self.a = {expression()}\n        self.b = b\n\n"
            f"    def get(self, k{annotation()}):\n        return {draw(st.sampled_from(['self.a', 'k', 'self.a + k']))}\n"
        ),
        "child": lambda: (
            f"class Child(Base):\n    def extra(self, a, b):\n        self.c = {expression()}\n        return self.c\n"
        ),
        "user": lambda: f"def user(a, b):\n    z = {expression()}\n    return z.get(b)\n",
        "module": lambda: f"value = {expression()}\n",
        "nested": lambda: "def outer(a, b):\n    def f0(q):\n        return q\n    return f0(a)\n",
    }
    chosen = draw(st.lists(st.sampled_from(sorted(pieces)), min_size=2, max_size=7))
    return "from typing import Optional\n\n" + "\n".join(pieces[name]() for name in chosen)


@st.composite
def _module_programs(draw) -> str:
    """Module-level code: plain and annotated variables (some rebound), variables
    under ``if``/``for``, and functions and a class that read them."""
    names = ["a", "b", "c"]
    values = ["1", "'s'", "2.5", "[1]", "None", "a", "b", "a + 1", "f(a)", "Box(1).size"]
    annotations = ["", "", ": int", ": str", ": Optional[int]", ": List[int]"]

    def assignment(indent: str = "") -> str:
        name, annotation, value = (draw(st.sampled_from(options)) for options in (names, annotations, values))
        return f"{indent}{name}{annotation} = {value}"

    pieces = {
        "assign": lambda: [assignment()],
        "if": lambda: [f"if {draw(st.sampled_from(names))}:", assignment("    ")],
        "for": lambda: [f"for {draw(st.sampled_from(names))} in [1, 2]:", assignment("    ")],
        "def": lambda: [f"def f(x{draw(st.sampled_from(annotations))}):",
                        f"    y = {draw(st.sampled_from(values))}", f"    return {draw(st.sampled_from(['x', 'y', 'b']))}"],
        "class": lambda: ["class Box:", f"    size{draw(st.sampled_from(annotations))} = 0",
                          "    def __init__(self, v):", f"        self.v = {draw(st.sampled_from(values))}",
                          "    def get(self):", f"        return {draw(st.sampled_from(['self.v', 'a', 'size']))}"],
        "print": lambda: [f"print({draw(st.sampled_from(values))})"],
    }
    chosen = draw(st.lists(st.sampled_from(["assign", "assign", "if", "for", "def", "class", "print"]),
                           min_size=3, max_size=9))
    return "\n".join(["from typing import List, Optional"] + [line for name in chosen for line in pieces[name]()]) + "\n"


def _assert_matches_oracle(source: str, symbols, picks, mode: CheckerMode) -> None:
    checker = SourcePredictionChecker(source, mode)
    for symbol_index, candidate in picks:
        scope, name, kind, annotation = symbols[symbol_index % len(symbols)]
        incremental = checker.check_prediction(scope, name, kind, candidate, annotation)
        oracle = oracle_check_prediction(source, scope, name, kind, candidate, mode, annotation)
        assert _verdict(incremental) == _verdict(oracle), (scope, name, kind, candidate)
        assert _verdict(PredictionChecker(mode).check_prediction(source, scope, name, kind, candidate, annotation)) \
            == _verdict(oracle)
        assert _rewrite(apply_annotation, source, scope, name, kind, candidate) == \
            _rewrite(oracle_apply_annotation, source, scope, name, kind, candidate)


class TestOracleProperty:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        source_index=st.integers(0, len(SOURCES) - 1),
        picks=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(CANDIDATES)), min_size=1, max_size=6),
        mode=st.sampled_from(list(CheckerMode)),
    )
    def test_corpus_and_fixtures_match_whole_file_verdicts(self, source_index, picks, mode):
        _assert_matches_oracle(SOURCES[source_index], SYMBOLS[source_index], picks, mode)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        source=_programs(),
        picks=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(CANDIDATES)), min_size=1, max_size=6),
        mode=st.sampled_from(list(CheckerMode)),
    )
    def test_generated_programs_match_whole_file_verdicts(self, source, picks, mode):
        _assert_matches_oracle(source, _symbols(source), picks, mode)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(source=_module_programs(), mode=st.sampled_from(list(CheckerMode)))
    def test_module_level_programs_match_for_every_symbol(self, source, mode):
        symbols = _symbols(source)
        picks = [(index, candidate) for index in range(len(symbols)) for candidate in ("int", "str", "List[int]")]
        _assert_matches_oracle(source, symbols, picks, mode)

    @pytest.mark.parametrize("mode", list(CheckerMode))
    def test_every_tricky_symbol_matches(self, mode):
        for source in TRICKY_SOURCES:
            symbols = _symbols(source)
            picks = [(index, candidate) for index in range(len(symbols))
                     for candidate in ("int", "str", "Base", "Dict[str, int]")]
            _assert_matches_oracle(source, symbols, picks, mode)


def _requests(source: str, seed: int) -> list[FilterRequest]:
    rng = random.Random(seed)
    requests = []
    for scope, name, kind, annotation in _symbols(source):
        candidates = rng.sample(CANDIDATES, 3)
        probabilities = sorted((rng.random() for _ in candidates), reverse=True)
        requests.append(FilterRequest(scope, name, kind, TypePrediction(list(zip(candidates, probabilities))),
                                      original_annotation=annotation))
    return requests


class TestFilterIndependence:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        source=st.one_of(st.sampled_from(SOURCES), _programs()),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(list(CheckerMode)),
    )
    def test_batched_filter_equals_per_symbol_filter_in_any_order(self, source, seed, mode):
        requests = _requests(source, seed)
        checker_filter = TypeCheckedFilter(mode=mode)
        batched = checker_filter.filter_many(source, requests)
        alone = [
            checker_filter.filter(source, r.scope, r.name, r.kind, r.prediction, r.original_annotation)
            for r in requests
        ]
        assert batched == alone
        order = list(range(len(requests)))
        random.Random(seed).shuffle(order)
        permuted = checker_filter.filter_many(source, [requests[i] for i in order])
        assert permuted == [batched[i] for i in order]


#: Every annotated symbol sits in exactly one slot that already holds its annotation.
FAST_PATH_SOURCE = """from typing import List, Optional

LIMIT: int = 3


def total(values: List[int], scale: float = 1.0) -> float:
    result: float = 0.0
    for value in values:
        result = result + value * scale
    return result


class Box:
    size: int = 0

    def __init__(self, label: str) -> None:
        self.label = label

    def grow(self, by: int) -> Optional[int]:
        step: int = by + 1
        return self.size + step
"""

#: A class-body annotation between two methods binds ``size`` for the second only.
MEMBER_SCOPE_SOURCE = """size = 'text'


class Box:
    def first(self):
        y = size
        return y

    size: int = 0

    def second(self):
        z = size
        return z
"""


def _counted(source: str, mode: CheckerMode, scope: str, name: str, kind: SymbolKind, candidate: str) -> tuple[int, int]:
    """``(introduced errors, functions the checker re-checked)`` for one candidate."""
    checker = IncrementalChecker(source, mode)
    checker._functions = 0  # the checker's function counter, from after the baseline check
    introduced = checker.introduced_errors(scope, name, kind, parse_annotation(candidate))
    return introduced, checker._functions


def _oracle_errors(source, mode, scope, name, kind, candidate) -> int:
    return oracle_check_prediction(source, scope, name, kind, candidate, mode).introduced_errors


@pytest.mark.parametrize("mode", list(CheckerMode))
class TestFastPaths:
    def test_own_annotation_is_answered_without_a_recheck(self, mode):
        annotated = [symbol for symbol in _symbols(FAST_PATH_SOURCE) if symbol[3] is not None]
        assert len(annotated) >= 10
        for scope, name, kind, annotation in annotated:
            introduced, rechecked = _counted(FAST_PATH_SOURCE, mode, scope, name, kind, annotation)
            assert introduced == _oracle_errors(FAST_PATH_SOURCE, mode, scope, name, kind, annotation) == 0
            assert rechecked == 0, (scope, name)

    def test_own_annotations_across_the_corpus_match_the_oracle(self, mode):
        fast = 0
        for source, symbols in zip(SOURCES, SYMBOLS):
            for scope, name, kind, annotation in symbols:
                if annotation is None:
                    continue
                try:
                    introduced, rechecked = _counted(source, mode, scope, name, kind, annotation)
                except AnnotationRewriteError:
                    continue
                assert introduced == _oracle_errors(source, mode, scope, name, kind, annotation), (scope, name)
                fast += rechecked == 0
        assert fast > 20

    def test_partly_annotated_slot_is_rechecked(self, mode):
        source = "def f(a: int):\n    return a\n\n\ndef f(a):\n    return a + 1\n\n\nf('x')\n"
        for candidate in ("int", "str"):
            introduced, rechecked = _counted(source, mode, "module.f", "a", SymbolKind.PARAMETER, candidate)
            assert introduced == _oracle_errors(source, mode, "module.f", "a", SymbolKind.PARAMETER, candidate)
            assert rechecked > 0

    def test_qualified_spelling_is_not_a_no_op(self, mode):
        source = "import typing\nfrom typing import List\n\n\ndef head(xs: List[int]) -> int:\n    return xs[0]\n"
        args = ("module.head", "xs", SymbolKind.PARAMETER)
        introduced, rechecked = _counted(source, mode, *args, "typing.List[int]")
        assert introduced == _oracle_errors(source, mode, *args, "typing.List[int]")
        assert rechecked == 1
        assert _counted(source, mode, *args, "List[int]") == (0, 0)

    def test_module_variable_rechecks_only_its_readers(self, mode):
        source = (
            "def unrelated(a):\n    return a\n\n\ndef other(b):\n    return b + 1\n\n\n"
            "count = 3\nlabel = count\n\n\ndef reader():\n    return label + 1\n"
        )
        # `count: int` leaves `label` bound as before, so no function reads a change;
        # `count: str` and `label: str` change what `reader` sees, so `reader` alone is re-checked.
        for name, candidate, functions in (("count", "int", 0), ("count", "str", 1), ("label", "str", 1)):
            args = ("module", name, SymbolKind.VARIABLE, candidate)
            introduced, rechecked = _counted(source, mode, *args)
            assert introduced == _oracle_errors(source, mode, *args), args
            assert rechecked == functions, args

    def test_method_local_edit_rechecks_only_its_method(self, mode):
        for scope, name in (("module.Box.first", "y"), ("module.Box.second", "z")):
            for candidate in ("int", "str"):
                args = (scope, name, SymbolKind.VARIABLE, candidate)
                introduced, rechecked = _counted(MEMBER_SCOPE_SOURCE, mode, *args)
                assert introduced == _oracle_errors(MEMBER_SCOPE_SOURCE, mode, *args), args
                assert rechecked == 1, args
        # The second method starts from the module scope the class-body
        # annotation left, so its local's verdicts differ from the first's.
        if mode == CheckerMode.STRICT:
            assert _counted(MEMBER_SCOPE_SOURCE, mode, "module.Box.first", "y", SymbolKind.VARIABLE, "str")[0] == 0
            assert _counted(MEMBER_SCOPE_SOURCE, mode, "module.Box.second", "z", SymbolKind.VARIABLE, "str")[0] > 0


def test_checking_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        checker = SourcePredictionChecker(FAST_PATH_SOURCE)
        for scope, name, kind, annotation in _symbols(FAST_PATH_SOURCE):
            checker.check_prediction(scope, name, kind, "int", annotation)
            if annotation is not None:
                checker.check_prediction(scope, name, kind, annotation, annotation)
        del checker
        assert gc.collect() == 0
    finally:
        gc.enable()


DEEP_SOURCE = "def f(x):\n    y = " + " + ".join(["x"] * 500) + "\n    return y\n"
GOOD_SOURCE = "def shout(word):\n    return word.upper() + '!'\n"


class TestHostileInput:
    def test_checker_contains_deep_nesting(self):
        result = check_source(DEEP_SOURCE)
        assert not result.ok
        outcome = PredictionChecker().check_prediction(DEEP_SOURCE, "module.f", "x", SymbolKind.PARAMETER, "int")
        assert outcome.skipped and outcome.reason == TOO_DEEP_MESSAGE

    @pytest.mark.parametrize("use_type_checker", [True, False])
    def test_deep_file_fails_alone(self, trained_pipeline, use_type_checker):
        results = trained_pipeline.suggest_for_sources(
            {"bad.py": DEEP_SOURCE, "good.py": GOOD_SOURCE},
            use_type_checker=use_type_checker,
            skip_unparsable=True,
        )
        assert "bad.py" not in results
        assert {suggestion.name for suggestion in results["good.py"]} >= {"word", "<return>"}
