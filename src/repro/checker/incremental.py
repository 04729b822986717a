"""Incremental type checking of one file under single-annotation edits.

Checking a prediction means: set one symbol's annotation, re-check the file
and count the diagnostics the annotation introduced.  Re-parsing and
re-checking the whole file per candidate repeats almost all of the work, so
:class:`IncrementalChecker` parses a file once, builds its
:class:`~repro.checker.env.ModuleContext` once and checks it once.  Each
candidate is then written into the tree in place, the one context entry it
changes is patched, and only what can observe the change is re-checked
before the tree is restored.  A candidate that every site of its slot
already carries (equal in structure, as ``ast.dump`` would compare them)
introduces nothing and is not re-checked at all.

Which statements observe a change follows from how the checker flows types
between scopes: function signatures and attribute types come from
annotations only, so a change travels one hop.

* a local variable → the top-level function that owns it, or only the
  method of a top-level class that holds it;
* a parameter or return of a top-level ``f`` → its own statement plus every
  statement that mentions the name ``f`` (or nests a ``def f``);
* a method ``m`` or attribute ``a`` of a class → the class's members that
  hold the edit, read ``.m`` / ``.a`` or define an ``m``, plus every other
  statement that reads ``.m`` / ``.a`` (or nests a ``class`` of the same
  name); for ``__init__`` also every statement that mentions the class or
  one of its subclasses.  Inside every class this reaches, only such
  members are re-checked.
* a variable assigned under a top-level statement that is not a
  ``def``/``class`` (a module-level variable, say) → that statement, then,
  in order, every statement that mentions a module name whose binding now
  differs from the baseline check's at that point (a top-level annotation
  also binds its name before the first statement).

A re-checked statement or class member starts from the module scope the
baseline check gave it.  Its check reads and binds only the module names it
mentions, so only their bindings are recorded: per name after every
top-level statement, and before every member of a top-level class
(class-body annotations bind module names for the members after them;
methods bind none).

Where that reasoning does not hold — class-body variables, any other edit
under a top-level statement that is not a ``def``/``class`` (the signature
of a ``def`` inside a module-level ``if``, ``self.attr`` assigned at module
level), names defined twice at the top level, or a dependent statement that
is not a ``def``/``class`` (it may bind module-level names later statements
read) — the patched tree is checked whole instead, still without
re-parsing.

:class:`SlotIndex` is the single locator of annotation slots, shared with
:func:`repro.checker.harness.apply_annotation`.
"""

from __future__ import annotations

import ast
import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from repro.checker.checker import (
    TOO_DEEP_MESSAGE,
    CheckerMode,
    OptionalTypeChecker,
    attribute_statements,
)
from repro.checker.env import ClassInfo, FunctionSignature, ModuleContext, Scope
from repro.checker.errors import TypeCheckError
from repro.graph.nodes import SymbolKind
from repro.types.expr import TypeExpr

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``SlotIndex._walk``'s ``member`` for the body of a top-level class.
_MEMBERS = -1

#: A module name's binding: its type (``None`` when unbound) and whether it is declared.
_Binding = tuple[Optional[TypeExpr], bool]


class AnnotationRewriteError(ValueError):
    """Raised when the requested symbol cannot be located in the program."""


def parse_annotation(type_string: str) -> ast.expr:
    """The expression node of a predicted type, ready to be set as an annotation."""
    try:
        return ast.parse(type_string, mode="eval").body
    except SyntaxError as error:
        raise AnnotationRewriteError(f"prediction {type_string!r} is not a valid annotation") from error


def _shape(node: ast.AST) -> tuple:
    """A node's type and fields, recursively: equal exactly when ``ast.dump``
    (which leaves out positions) would be.  Unlike ``ast.dump`` it leaves no
    reference cycles behind."""
    fields = []
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, ast.AST):
            fields.append(_shape(value))
        elif isinstance(value, list):
            fields.append(tuple(_shape(item) if isinstance(item, ast.AST) else repr(item) for item in value))
        else:
            fields.append(repr(value))
    return (type(node).__name__, *fields)


def _error_signature(errors: list[TypeCheckError]) -> Counter:
    """The diagnostics compared between a file and its annotated variant."""
    return Counter((error.code, error.scope) for error in errors)


@dataclass
class _Site:
    """One place an annotation is written.

    ``node`` is a parameter (``ast.arg``), a function (its return) or an
    assignment statement; an assignment also records the statement list
    holding it, because a plain ``Assign`` is swapped for an ``AnnAssign``.
    """

    top: int  # index of the top-level statement that holds the site
    node: ast.AST
    body: Optional[list] = None
    index: int = 0
    class_body: bool = False
    function: Optional[ast.AST] = None  # the function whose signature holds the site
    self_attribute: bool = False  # an assignment to ``self.attr``
    member: Optional[int] = None  # index of the top-level class's member that holds the site

    def annotation(self) -> Optional[ast.expr]:
        """The annotation the site holds now (``None`` for a plain assignment)."""
        node = self.node
        if isinstance(node, _FUNCTIONS):
            return node.returns
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            return node.annotation
        return None

    def write(self, annotation: ast.expr) -> Optional[ast.expr]:
        """Set the annotation; return what :meth:`restore` needs to undo it."""
        node = self.node
        if isinstance(node, ast.arg):
            previous, node.annotation = node.annotation, annotation
        elif isinstance(node, _FUNCTIONS):
            previous, node.returns = node.returns, annotation
        elif isinstance(node, ast.AnnAssign):
            previous, node.annotation = node.annotation, annotation
        else:
            assert isinstance(node, ast.Assign) and self.body is not None
            target = node.targets[0]
            self.body[self.index] = ast.copy_location(
                ast.AnnAssign(target=target, annotation=annotation, value=node.value,
                              simple=1 if isinstance(target, ast.Name) else 0),
                node,
            )
            previous = None
        return previous

    def restore(self, previous: Optional[ast.expr]) -> None:
        node = self.node
        if isinstance(node, ast.arg):
            node.annotation = previous
        elif isinstance(node, _FUNCTIONS):
            node.returns = previous
        elif isinstance(node, ast.AnnAssign):
            node.annotation = previous
        else:
            assert self.body is not None
            self.body[self.index] = node


class Slot:
    """Every site one symbol's annotation is written to."""

    def __init__(self, sites: list[_Site]) -> None:
        self.sites = sites
        self._previous: list[Optional[ast.expr]] = []

    @property
    def tops(self) -> set[int]:
        return {site.top for site in self.sites}

    @property
    def members(self) -> set[Optional[int]]:
        return {site.member for site in self.sites}

    def holds(self, annotation: ast.expr, shape) -> bool:
        """Whether every site already carries ``annotation`` (equal under ``shape``)."""
        target = shape(annotation)
        for site in self.sites:
            current = site.annotation()
            if current is None or shape(current) != target:
                return False
        return True

    def apply(self, annotation: ast.expr) -> None:
        self._previous = [site.write(annotation) for site in self.sites]

    def revert(self) -> None:
        for site, previous in zip(self.sites, self._previous):
            site.restore(previous)
        self._previous = []


def _assignment_key(statement: ast.stmt) -> Optional[str]:
    """The symbol a single-target assignment defines: ``x`` or ``self.x``."""
    if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
        target = statement.targets[0]
    elif isinstance(statement, ast.AnnAssign):
        target = statement.target
    else:
        return None
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
        return f"self.{target.attr}"
    return None


class SlotIndex:
    """Every annotation slot of a module, found in one walk.

    Symbols are identified as the graph builder names them: a scope path
    (``module.Class.method``), a name and a kind.

    * A parameter is every same-name parameter of every function with that
      scope path; a return is every such function's return.
    * A variable is the first single-target ``Assign`` or ``AnnAssign`` to
      the name in that scope, in source order.
    * ``self.attr`` is recorded against its class scope, but the assignment
      lives in a method: when the scope holds no such assignment, the first
      plain ``self.attr = ...`` is used that lies outside every class other
      than the one named (nested classes never match).
    """

    def __init__(self, tree: ast.Module) -> None:
        self._parameters: dict[tuple[str, str], list[_Site]] = {}
        self._returns: dict[str, list[_Site]] = {}
        self._variables: dict[tuple[str, str], _Site] = {}
        # First `self.attr = ...` per attribute outside any class, and per
        # (class path, attribute) inside exactly one class: (order, site).
        self._free_self: dict[str, tuple[int, _Site]] = {}
        self._class_self: dict[tuple[str, str], tuple[int, _Site]] = {}
        self._order = 0
        self._walk(tree.body, "module", "module", 0, None, False, None)

    def locate(self, scope: str, name: str, kind: SymbolKind) -> Slot:
        sites: Optional[list[_Site]] = None
        if kind == SymbolKind.FUNCTION_RETURN and name == "<return>":
            sites = self._returns.get(scope)
        elif kind == SymbolKind.PARAMETER:
            sites = self._parameters.get((scope, name))
        elif kind == SymbolKind.VARIABLE:
            site = self._variables.get((scope, name))
            if site is None and name.startswith("self."):
                site = self._self_assignment(scope, name.split(".", 1)[1])
            sites = [site] if site is not None else None
        if not sites:
            raise AnnotationRewriteError(f"could not locate symbol {name!r} in scope {scope!r}")
        return Slot(sites)

    def _self_assignment(self, class_scope: str, attr: str) -> Optional[_Site]:
        found = [entry for entry in (self._free_self.get(attr), self._class_self.get((class_scope, attr))) if entry]
        return min(found, key=lambda entry: entry[0])[1] if found else None

    def _walk(
        self, body: list[ast.stmt], path: str, class_path: str, class_depth: int, top: Optional[int],
        class_body: bool, member: Optional[int],
    ) -> None:
        """Record the sites of one statement list.

        ``member`` is the top-level class member that holds the list, or
        ``_MEMBERS`` for the body of a top-level class itself, whose
        statements are the members.
        """
        for index, statement in enumerate(body):
            owner = index if top is None else top
            holder = index if member == _MEMBERS else member
            self._order += 1
            if isinstance(statement, _FUNCTIONS):
                function_path = f"{path}.{statement.name}"
                self._returns.setdefault(function_path, []).append(
                    _Site(owner, statement, function=statement, member=holder))
                args = statement.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                    if arg is not None:
                        site = _Site(owner, arg, function=statement, member=holder)
                        self._parameters.setdefault((function_path, arg.arg), []).append(site)
                self._walk(statement.body, function_path, class_path, class_depth, owner, False, holder)
                continue
            if isinstance(statement, ast.ClassDef):
                self._walk(statement.body, f"{path}.{statement.name}", f"{class_path}.{statement.name}",
                           class_depth + 1, owner, True, _MEMBERS if top is None else holder)
                continue
            key = _assignment_key(statement)
            if key is not None:
                site = _Site(owner, statement, body, index, class_body, self_attribute=key.startswith("self."),
                             member=holder)
                self._variables.setdefault((path, key), site)
                if site.self_attribute and isinstance(statement, ast.Assign):
                    if class_depth == 0:
                        self._free_self.setdefault(key[5:], (self._order, site))
                    elif class_depth == 1:
                        self._class_self.setdefault((class_path, key[5:]), (self._order, site))
            for _, value in ast.iter_fields(statement):
                if not isinstance(value, list):
                    continue
                for item in value:
                    if isinstance(item, (ast.excepthandler, ast.match_case)):
                        self._walk(item.body, path, class_path, class_depth, owner, False, holder)
                if value and isinstance(value[0], ast.stmt):
                    self._walk(value, path, class_path, class_depth, owner, False, holder)


class _Uses:
    """Which statements of a list mention each name, attribute, ``def`` and ``class``.

    For a top-level class, :attr:`members` holds the same index over its
    body, built in the same walk.
    """

    def __init__(self, statements: list[ast.stmt], members: bool = False) -> None:
        self.names: dict[str, set[int]] = {}
        self.attributes: dict[str, set[int]] = {}
        self.functions: dict[str, set[int]] = {}
        self.classes: dict[str, set[int]] = {}
        self.members: dict[int, _Uses] = {}
        self.mentions: list[set[str]] = [set() for _ in statements]  # per statement, its ``Name`` ids
        for index, statement in enumerate(statements):
            if not (members and isinstance(statement, ast.ClassDef)):
                self._add(index, ast.walk(statement))
                continue
            body = statement.body
            inner = self.members[index] = _Uses(body)
            outside = [child for child in ast.iter_child_nodes(statement) if child not in body]
            self._add(index, [statement, *(node for child in outside for node in ast.walk(child))])
            for own, theirs in ((self.names, inner.names), (self.attributes, inner.attributes),
                                (self.functions, inner.functions), (self.classes, inner.classes)):
                for key in theirs:
                    own.setdefault(key, set()).add(index)
            self.mentions[index].update(inner.names)

    def _add(self, index: int, nodes) -> None:
        for node in nodes:
            if isinstance(node, ast.Name):
                self.names.setdefault(node.id, set()).add(index)
                self.mentions[index].add(node.id)
            elif isinstance(node, ast.Attribute):
                self.attributes.setdefault(node.attr, set()).add(index)
            elif isinstance(node, _FUNCTIONS):
                self.functions.setdefault(node.name, set()).add(index)
            elif isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, set()).add(index)

    @staticmethod
    def union(index: dict[str, set[int]], keys) -> set[int]:
        found: set[int] = set()
        for key in keys:
            found |= index.get(key, set())
        return found


def _changed_keys(before: dict, after: dict) -> set[str]:
    return {key for key in before.keys() | after.keys() if before.get(key) != after.get(key)}


class IncrementalChecker(OptionalTypeChecker):
    """One file, parsed and checked once, re-checked per annotation edit.

    The constructor runs the file's one :meth:`check_source`, recording for
    every top-level statement the diagnostics it reported and the binding
    of each module name it mentions after it, and for every member of a
    top-level class its diagnostics and the module scope it started from:
    checking mutates ``context.globals``, and a statement re-checked alone
    must see what it saw in the whole-module walk.

    Raises :class:`SyntaxError` for unparsable sources and
    :class:`RecursionError` for sources nested too deeply to check.

    Three memos live as long as the checker: the type and the
    :func:`_shape` of every annotation node it has read (the file's own and the
    candidates'), and each top-level class's attribute-defining statements,
    so a ``self.attr`` edit re-reads those statements instead of walking
    every method.
    """

    def __init__(self, source: str, mode: CheckerMode = CheckerMode.STRICT) -> None:
        super().__init__(mode=mode)
        self.tree: Optional[ast.Module] = None
        self._context = ModuleContext()
        self._initial_scope: tuple[dict, set] = ({}, set())
        # Per module name: the top-level statements that mention it, and its
        # binding (type or None, declared) after each of them.
        self._history: dict[str, tuple[list[int], list[_Binding]]] = {}
        self._statement_errors: list[Counter] = []
        self._annotation_types: dict[ast.expr, TypeExpr] = {}
        self._annotation_shapes: dict[ast.expr, tuple] = {}
        self._attribute_statements: dict[ast.ClassDef, dict[str, ast.stmt]] = {}
        # Per top-level class, per member: the bindings it started from and its diagnostics.
        self._members: dict[ast.ClassDef, list[tuple[dict[str, _Binding], Counter]]] = {}
        self._recording: Optional[tuple[ast.ClassDef, _Uses]] = None  # the class whose members are recorded
        baseline = self.check_source(source)
        if self.tree is None:
            ast.parse(source)  # raises the SyntaxError the check reported
            raise RecursionError(TOO_DEEP_MESSAGE)
        if len(self._statement_errors) != len(self.tree.body):
            raise RecursionError(TOO_DEEP_MESSAGE)
        self._baseline = _error_signature(baseline.errors)
        self.slots = SlotIndex(self.tree)
        defined = Counter(statement.name for statement in self.tree.body if isinstance(statement, _DEFINITIONS))
        self._redefined = {name for name, count in defined.items() if count > 1}
        # The last top-level annotated assignment of each name binds it before any statement runs.
        self._last_annotated = {
            statement.target.id: index for index, statement in enumerate(self.tree.body)
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
        }

    def _annotation_or_any(self, node: Optional[ast.expr]) -> TypeExpr:
        # Annotation nodes are never edited in place (an edit swaps in
        # another node), so a node's type is fixed for the checker's life.
        found = self._annotation_types.get(node)
        if found is None:
            found = self._annotation_types[node] = super()._annotation_or_any(node)
        return found

    def _shape(self, annotation: ast.expr) -> tuple:
        # Like the type memo: an annotation node is never edited in place.
        found = self._annotation_shapes.get(annotation)
        if found is None:
            found = self._annotation_shapes[annotation] = _shape(annotation)
        return found

    def _class_attributes(self, node: ast.ClassDef) -> dict[str, TypeExpr]:
        if self.tree is not None:  # a whole-module check of an edited tree
            return super()._class_attributes(node)
        statements = self._attribute_statements[node] = attribute_statements(node)
        return self._attribute_types(statements)

    def _edited_attributes(self, statement: ast.ClassDef, slot: Slot) -> dict[str, TypeExpr]:
        """:meth:`_class_attributes` of an edited class, from its recorded statements.

        An edit writes into the defining statements, or swaps an ``Assign``
        for an ``AnnAssign`` in place; either way the set of defining
        statements and their order do not change.
        """
        current = {site.node: site.body[site.index] for site in slot.sites if site.body is not None}
        statements = self._attribute_statements[statement]
        return self._attribute_types({name: current.get(defining, defining) for name, defining in statements.items()})

    def _check_module(self, tree: ast.Module, context: ModuleContext) -> None:
        if self.tree is not None:  # a whole-module check of an edited tree
            super()._check_module(tree, context)
            return
        self.tree, self._context = tree, context
        self._uses = _Uses(tree.body, members=True)
        module_scope = context.globals
        self._initial_scope = (dict(module_scope.bindings), set(module_scope.declared))
        for index, statement in enumerate(tree.body):
            self._recording = (statement, self._uses.members[index]) if isinstance(statement, ast.ClassDef) else None
            self._statement_errors.append(_error_signature(self._check_top_level(statement, context)))
            for name in self._uses.mentions[index]:
                indices, bindings = self._history.setdefault(name, ([], []))
                indices.append(index)
                bindings.append((module_scope.bindings.get(name), name in module_scope.declared))
        self._recording = None

    def _binding_before(self, name: str, index: int) -> _Binding:
        """A module name's binding just before top-level statement ``index`` in the baseline check."""
        indices, bindings = self._history.get(name, ((), ()))
        position = bisect_left(indices, index)
        if position:
            return bindings[position - 1]
        initial, declared = self._initial_scope
        return initial.get(name), name in declared

    def _binding_after(self, name: str, index: int) -> _Binding:
        """A module name's binding just after top-level statement ``index``, which mentions it."""
        indices, bindings = self._history[name]
        return bindings[bisect_left(indices, index)]

    def _enter(self, bindings: dict[str, _Binding]) -> None:
        """Set the module scope to ``bindings``: the names a check will read."""
        module_scope = self._context.globals
        module_scope.bindings = {name: value for name, (value, _) in bindings.items() if value is not None}
        module_scope.declared = {name for name, (_, declared) in bindings.items() if declared}

    def _bindings_before(self, index: int, changed: dict[str, _Binding]) -> dict[str, _Binding]:
        """What top-level statement ``index`` reads: the names it mentions,
        bound as in the baseline check except for the ``changed`` ones."""
        return {
            name: changed[name] if name in changed else self._binding_before(name, index)
            for name in self._uses.mentions[index]
        }

    def _check_class(self, node: ast.ClassDef, scope: Scope, context: ModuleContext) -> None:
        if self._recording is None or node is not self._recording[0]:
            super()._check_class(node, scope, context)
            return
        # The baseline check of a top-level class: record, per member, the
        # bindings it started from and the diagnostics it reported.
        mentions = self._recording[1].mentions
        members = self._members[node] = []
        for index, member in enumerate(node.body):
            before = {name: (scope.bindings.get(name), name in scope.declared) for name in mentions[index]}
            start = len(self._errors)
            self._check_member(member, node.name, scope, context)
            members.append((before, _error_signature(self._errors[start:])))

    def introduced_errors(self, scope: str, name: str, kind: SymbolKind, annotation: ast.expr) -> int:
        """How many diagnostics setting one symbol's annotation introduces.

        Raises :class:`AnnotationRewriteError` when the symbol has no slot.
        """
        slot = self.slots.locate(scope, name, kind)
        if slot.holds(annotation, self._shape):
            return 0  # the file already says this: nothing to re-check
        slot.apply(annotation)
        try:
            after = self._check_edited(slot)
        finally:
            slot.revert()
        return sum((after - self._baseline).values())

    def _check_edited(self, slot: Slot) -> Counter:
        tops = slot.tops
        if len(tops) != 1 or any(site.class_body for site in slot.sites):
            return self._check_whole()
        top = tops.pop()
        statement = self.tree.body[top]
        if not isinstance(statement, _DEFINITIONS):
            site = slot.sites[0]
            if len(slot.sites) == 1 and site.body is not None and isinstance(site.body[site.index].target, ast.Name):
                return self._check_module_variable(site)
            return self._check_whole()
        if statement.name in self._redefined:
            return self._check_whole()
        entries = self._context.classes if isinstance(statement, ast.ClassDef) else self._context.functions
        before = entries[statement.name]
        after = self._edited_definition(statement, before, slot)
        affected = {top} | self._observers(statement, before, after, self._uses)
        if any(not isinstance(self.tree.body[index], _DEFINITIONS) for index in affected):
            return self._check_whole()
        # A class is re-checked member by member: the members that hold the
        # edit and those that read the changed entry, found as above.
        members: dict[int, set[int]] = {}
        for index in affected:
            uses = self._uses.members.get(index)
            if uses is None:
                continue
            found = self._observers(statement, before, after, uses)
            if index == top:
                found |= slot.members
                if before != after:  # a method reads its own signature by name
                    found |= uses.union(uses.functions, _changed_keys(before.methods, after.methods))
            members[index] = found
        entries[statement.name] = after
        try:
            return self._recheck(affected, members)
        finally:
            entries[statement.name] = before

    def _edited_definition(
        self,
        statement: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
        before: FunctionSignature | ClassInfo,
        slot: Slot,
    ) -> FunctionSignature | ClassInfo:
        """The context entry of ``statement`` with the slot's annotation set.

        Only a signature of the statement itself (or of one of its methods)
        and ``self.attr`` assignments reach the context; anything nested
        deeper is seen by the statement's own check alone.
        """
        functions = [site.function for site in slot.sites if site.function is not None]
        if not isinstance(statement, ast.ClassDef):
            return self._signature_from_node(statement, is_method=False) if statement in functions else before
        assert isinstance(before, ClassInfo)
        if any(site.self_attribute for site in slot.sites):
            return replace(before, attributes=self._edited_attributes(statement, slot))
        # `ClassInfo.methods` keeps the last member of each name.
        members = {member.name: member for member in statement.body if isinstance(member, _FUNCTIONS)}
        edited = {name: member for name, member in members.items() if member in functions}
        if not edited:
            return before
        methods = dict(before.methods)
        for name, member in edited.items():
            methods[name] = self._signature_from_node(member, is_method=True)
        return replace(before, methods=methods)

    def _observers(
        self,
        statement: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
        before: FunctionSignature | ClassInfo,
        after: FunctionSignature | ClassInfo,
        uses: _Uses,
    ) -> set[int]:
        """The statements of ``uses`` whose check reads the changed context entry."""
        if before == after:
            return set()
        if not isinstance(statement, ast.ClassDef):
            return uses.names.get(statement.name, set()) | uses.functions.get(statement.name, set())
        assert isinstance(before, ClassInfo) and isinstance(after, ClassInfo)
        methods = _changed_keys(before.methods, after.methods)
        members = _changed_keys(before.attributes, after.attributes) | methods
        observers = uses.union(uses.attributes, members) | uses.classes.get(statement.name, set())
        if "__init__" in methods:
            observers |= uses.union(uses.names, self._subclasses(statement.name))
        return observers

    def _subclasses(self, name: str) -> set[str]:
        """``name`` and every module class that inherits from it."""
        family = {name}
        grew = True
        while grew:
            grew = False
            for info in self._context.classes.values():
                if info.name not in family and family.intersection(info.bases):
                    family.add(info.name)
                    grew = True
        return family

    def _recheck(self, affected: set[int], members: dict[int, set[int]]) -> Counter:
        """The error signature with ``affected`` top-level statements re-checked.

        A statement in ``members`` is a class; only those of its members are
        re-checked.  Every statement or member starts from the module scope
        recorded before it in the baseline check.  A method binds nothing in
        the module scope, so the members after it start as they did.
        """
        self._errors = []
        module_scope = self._context.globals
        signature = self._baseline.copy()
        for index in sorted(affected):
            statement = self.tree.body[index]
            if index not in members:
                self._enter(self._bindings_before(index, {}))
                signature.subtract(self._statement_errors[index])
                signature.update(_error_signature(self._check_top_level(statement, self._context)))
                continue
            recorded = self._members[statement]
            for member in sorted(members[index]):
                bindings, errors = recorded[member]
                self._enter(bindings)
                signature.subtract(errors)
                start = len(self._errors)
                self._check_member(statement.body[member], statement.name, module_scope, self._context)
                signature.update(_error_signature(self._errors[start:]))
        return signature

    def _check_module_variable(self, site: _Site) -> Counter:
        """The error signature with a variable's assignment annotated, where
        the assignment lies under a top-level statement that is not a
        ``def``/``class`` (so no context entry changes).

        The edit reaches other statements only through the module scope,
        one name at a time: re-check, in order, the statement holding it and
        every statement that mentions a name whose binding now differs from
        the baseline's at that point.  A top-level annotated assignment that
        is the name's last also binds it before the first statement.
        """
        name = site.body[site.index].target.id
        changed: dict[str, _Binding] = {}
        pending = [site.top]
        if site.body is self.tree.body and site.index >= self._last_annotated.get(name, -1):
            changed[name] = (self._annotation_or_any(site.body[site.index].annotation), True)
            if changed[name] != self._binding_before(name, 0):
                pending.extend(self._uses.names.get(name, ()))
            else:
                del changed[name]
        heapq.heapify(pending)
        self._errors = []
        signature = self._baseline.copy()
        done: set[int] = set()
        while pending:
            index = heapq.heappop(pending)
            mentions = self._uses.mentions[index]
            if index in done or (index != site.top and mentions.isdisjoint(changed)):
                continue
            done.add(index)
            self._enter(self._bindings_before(index, changed))
            signature.subtract(self._statement_errors[index])
            signature.update(_error_signature(self._check_top_level(self.tree.body[index], self._context)))
            module_scope = self._context.globals
            for mentioned in mentions:
                binding = (module_scope.bindings.get(mentioned), mentioned in module_scope.declared)
                if binding == self._binding_after(mentioned, index):
                    changed.pop(mentioned, None)
                    continue
                if mentioned not in changed:
                    pending.extend(later for later in self._uses.names[mentioned] if later > index)
                    heapq.heapify(pending)
                changed[mentioned] = binding
        return signature

    def _check_whole(self) -> Counter:
        return _error_signature(self.check_tree(self.tree).errors)
