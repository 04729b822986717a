"""Harness that assesses type predictions with the optional type checker.

This is the experimental protocol of Sec. 6.3: for each prediction ``τ`` for
a symbol ``s`` in program ``P``, add ``τ`` to ``P`` (or replace the existing
annotation of ``s``), re-run the type checker and record whether the new
annotation introduces a type error.  Predictions are grouped into the three
categories of Table 5:

* ``ϵ → τ`` — the symbol was previously unannotated;
* ``τ → τ'`` — the prediction differs from the original annotation;
* ``τ → τ`` — the prediction equals the original annotation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.checker.checker import TOO_DEEP_MESSAGE, CheckerMode
from repro.checker.incremental import AnnotationRewriteError, IncrementalChecker, SlotIndex, parse_annotation
from repro.graph.nodes import SymbolKind
from repro.types.normalize import canonical_string


class PredictionCategory(str, Enum):
    """The three rows of Table 5."""

    ADDED = "eps_to_tau"  # ϵ → τ
    CHANGED = "tau_to_tau_prime"  # τ → τ′
    UNCHANGED = "tau_to_tau"  # τ → τ


@dataclass
class PredictionCheckOutcome:
    """Result of checking a single prediction."""

    scope: str
    name: str
    kind: SymbolKind
    predicted_type: str
    original_annotation: Optional[str]
    category: PredictionCategory
    introduced_errors: int
    ok: bool
    skipped: bool = False
    reason: str = ""


def apply_annotation(source: str, scope: str, name: str, kind: SymbolKind, type_string: str) -> str:
    """Return ``source`` with the annotation of one symbol set to ``type_string``."""
    annotation = parse_annotation(type_string)
    tree = ast.parse(source)
    SlotIndex(tree).locate(scope, name, kind).apply(annotation)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


class PredictionChecker:
    """Applies predictions one at a time and classifies the checker verdicts."""

    def __init__(self, mode: CheckerMode = CheckerMode.STRICT) -> None:
        self.mode = mode

    def check_prediction(
        self,
        source: str,
        scope: str,
        name: str,
        kind: SymbolKind,
        predicted_type: str,
        original_annotation: Optional[str] = None,
    ) -> PredictionCheckOutcome:
        """Insert one prediction into ``source`` and report whether it type checks."""
        return SourcePredictionChecker(source, self.mode).check_prediction(
            scope, name, kind, predicted_type, original_annotation
        )


class SourcePredictionChecker:
    """Checks many predictions into one file, each as if it were the only one.

    The file is parsed and checked once, on the first prediction that needs
    it; every prediction is then checked incrementally against that baseline
    (see :mod:`repro.checker.incremental`) and leaves nothing behind, so a
    verdict never depends on which predictions were checked before it.
    Each distinct type string is parsed once; its expression node is only
    ever read, so every prediction of that type shares it.
    """

    def __init__(self, source: str, mode: CheckerMode = CheckerMode.STRICT) -> None:
        self.source = source
        self.mode = mode
        self._checker: Optional[IncrementalChecker] = None
        self._annotations: dict[str, ast.expr] = {}

    def check_prediction(
        self,
        scope: str,
        name: str,
        kind: SymbolKind,
        predicted_type: str,
        original_annotation: Optional[str] = None,
    ) -> PredictionCheckOutcome:
        category = _categorise(predicted_type, original_annotation)

        def outcome(introduced: int, skip_reason: Optional[str] = None) -> PredictionCheckOutcome:
            return PredictionCheckOutcome(
                scope, name, kind, predicted_type, original_annotation, category,
                introduced_errors=introduced, ok=skip_reason is None and introduced == 0,
                skipped=skip_reason is not None, reason=skip_reason or "",
            )

        canonical_prediction = canonical_string(predicted_type)
        if canonical_prediction is None or canonical_prediction == "Any":
            return outcome(0, "prediction skipped (Any or unparsable)")
        try:
            annotation = self._annotations.get(predicted_type)
            if annotation is None:
                annotation = self._annotations[predicted_type] = parse_annotation(predicted_type)
            if self._checker is None:
                self._checker = IncrementalChecker(self.source, self.mode)
            return outcome(self._checker.introduced_errors(scope, name, kind, annotation))
        except AnnotationRewriteError as error:
            return outcome(0, str(error))
        except RecursionError:
            return outcome(0, TOO_DEEP_MESSAGE)


def _categorise(predicted_type: str, original_annotation: Optional[str]) -> PredictionCategory:
    if original_annotation is None:
        return PredictionCategory.ADDED
    original = canonical_string(original_annotation)
    predicted = canonical_string(predicted_type)
    if original is not None and predicted is not None and original == predicted:
        return PredictionCategory.UNCHANGED
    return PredictionCategory.CHANGED
