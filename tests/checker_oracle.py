"""Whole-file reference for checking a prediction: the oracle of the incremental checker.

For every prediction this parses the file, rewrites one annotation with an
AST transformer, unparses and re-parses the result and type checks the whole
module, then diffs its error signature against a whole-module check of the
unmodified file.  It is slow and obviously faithful to the Sec. 6.3
protocol, which is what an oracle should be; the program checks predictions
with :class:`repro.checker.incremental.IncrementalChecker` instead.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Optional

from repro.checker import (
    AnnotationRewriteError,
    CheckerMode,
    OptionalTypeChecker,
    PredictionCheckOutcome,
)
from repro.checker.checker import TOO_DEEP_MESSAGE
from repro.checker.harness import _categorise
from repro.graph.nodes import SymbolKind
from repro.types.normalize import canonical_string


class _AnnotationInserter(ast.NodeTransformer):
    """Insert or replace the annotation of one symbol identified by scope path."""

    def __init__(self, scope: str, name: str, kind: SymbolKind, annotation: ast.expr) -> None:
        self.target_scope = scope
        self.target_name = name
        self.kind = kind
        self.annotation = annotation
        self.applied = False
        self._scope: list[str] = ["module"]

    @property
    def scope_path(self) -> str:
        return ".".join(self._scope)

    def _visit_scope(self, node: ast.AST, name: str) -> ast.AST:
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()
        return node

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        return self._visit_scope(node, node.name)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> ast.AST:
        function_scope = f"{self.scope_path}.{node.name}"
        if function_scope == self.target_scope:
            if self.kind == SymbolKind.FUNCTION_RETURN and self.target_name == "<return>":
                node.returns = self.annotation
                self.applied = True
            elif self.kind == SymbolKind.PARAMETER:
                args = node.args
                for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                    if arg.arg == self.target_name:
                        arg.annotation = self.annotation
                        self.applied = True
                for vararg in (args.vararg, args.kwarg):
                    if vararg is not None and vararg.arg == self.target_name:
                        vararg.annotation = self.annotation
                        self.applied = True
        return self._visit_scope(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        return self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> ast.AST:
        return self._visit_function(node)

    def visit_Assign(self, node: ast.Assign) -> ast.AST:
        if self.kind != SymbolKind.VARIABLE or self.applied or self.scope_path != self.target_scope:
            return self.generic_visit(node)
        if len(node.targets) == 1 and self._matches_target(node.targets[0]):
            self.applied = True
            return ast.copy_location(
                ast.AnnAssign(target=node.targets[0], annotation=self.annotation, value=node.value, simple=1
                              if isinstance(node.targets[0], ast.Name) else 0),
                node,
            )
        return self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.AST:
        if self.kind == SymbolKind.VARIABLE and not self.applied and self.scope_path == self.target_scope:
            if self._matches_target(node.target):
                node.annotation = self.annotation
                self.applied = True
                return node
        return self.generic_visit(node)

    def _matches_target(self, target: ast.expr) -> bool:
        if isinstance(target, ast.Name):
            return target.id == self.target_name
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}" == self.target_name
        return False


class _SelfAttributeInserter(ast.NodeTransformer):
    """Annotate the first ``self.attr = ...`` assignment inside a class's methods."""

    def __init__(self, class_scope: str, dotted_name: str, annotation: ast.expr) -> None:
        self.class_scope = class_scope
        self.attr = dotted_name.split(".", 1)[1]
        self.annotation = annotation
        self.applied = False
        self._scope: list[str] = ["module"]

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.AST:
        self._scope.append(node.name)
        if ".".join(self._scope) == self.class_scope:
            self.generic_visit(node)
        self._scope.pop()
        return node

    def visit_Assign(self, node: ast.Assign) -> ast.AST:
        if self.applied or len(node.targets) != 1:
            return node
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr == self.attr
        ):
            self.applied = True
            return ast.copy_location(
                ast.AnnAssign(target=target, annotation=self.annotation, value=node.value, simple=0), node
            )
        return node


def oracle_apply_annotation(source: str, scope: str, name: str, kind: SymbolKind, type_string: str) -> str:
    """Return ``source`` with the annotation of one symbol set to ``type_string``."""
    try:
        annotation_expr = ast.parse(type_string, mode="eval").body
    except SyntaxError as error:
        raise AnnotationRewriteError(f"prediction {type_string!r} is not a valid annotation") from error
    tree = ast.parse(source)
    inserter = _AnnotationInserter(scope, name, kind, annotation_expr)
    new_tree = inserter.visit(tree)
    if not inserter.applied and kind == SymbolKind.VARIABLE and name.startswith("self."):
        retry = _SelfAttributeInserter(scope, name, annotation_expr)
        new_tree = retry.visit(ast.parse(source))
        if retry.applied:
            ast.fix_missing_locations(new_tree)
            return ast.unparse(new_tree)
    if not inserter.applied:
        raise AnnotationRewriteError(f"could not locate symbol {name!r} in scope {scope!r}")
    ast.fix_missing_locations(new_tree)
    return ast.unparse(new_tree)


def _signature(source: str, mode: CheckerMode) -> Counter:
    result = OptionalTypeChecker(mode=mode).check_source(source)
    return Counter((error.code, error.scope) for error in result.errors)


def oracle_check_prediction(
    source: str,
    scope: str,
    name: str,
    kind: SymbolKind,
    predicted_type: str,
    mode: CheckerMode,
    original_annotation: Optional[str] = None,
) -> PredictionCheckOutcome:
    """The whole-file verdict for one prediction."""
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
        modified = oracle_apply_annotation(source, scope, name, kind, predicted_type)
        introduced = _signature(modified, mode) - _signature(source, mode)
    except AnnotationRewriteError as error:
        return outcome(0, str(error))
    except RecursionError:
        return outcome(0, TOO_DEEP_MESSAGE)
    return outcome(sum(introduced.values()))
