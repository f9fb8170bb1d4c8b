"""RL003: sensing is a pure predicate of the user's local view.

Theorem 1 calls sensing "trustworthy indications": the safety and
viability properties are defined for *predicates of the view*, so an
``indicate`` that mutates its object, performs I/O, or reads ambient
state is outside the theorem — its verdicts can differ between the run
that was judged and the replay that is audited, and the grace/incremental
machinery (which consults the inner sensing at different times on
different paths) is only sound because verdicts depend on nothing but
the view prefix.

Flagged inside ``indicate`` of any ``Sensing`` subclass, and inside
lambdas passed directly to ``FunctionSensing``:

* writes to ``self`` or to the view parameter (including mutating
  method calls on either);
* ``global``/``nonlocal`` declarations — closure over mutable state;
* I/O: ``open``/``input``/``print``;
* ambient nondeterminism (same detector as RL001).

Stateful *incremental monitors* (``IncrementalSensing.observe``) are
exempt by design: a monitor is single-trial and owns its state — its
contract is equivalence with the pure ``indicate`` on the observed
prefix, which the equivalence tests check dynamically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import (
    MUTATING_METHODS,
    ModuleContext,
    attribute_root,
    iter_methods,
)
from repro.lint.rules._ambient import iter_ambient_calls
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation

_IO_CALLS = frozenset({"open", "input", "print"})


def _is_sensing_class(context: ModuleContext, cls: ast.ClassDef) -> bool:
    bases = context.transitive_bases(cls.name)
    return any(base == "Sensing" or base.endswith("Sensing") for base in bases)


class SensingPurityRule(Rule):
    code = "RL003"
    summary = "sensing `indicate` must be a pure, I/O-free predicate of the view"
    rationale = (
        "Safety/viability (Theorem 1) are properties of view-predicates; "
        "impure sensing can return different verdicts on the replayed "
        "prefix than it did live, voiding the empirical certificates."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for cls in context.index.of_type(ast.ClassDef):
            if not _is_sensing_class(context, cls):
                continue
            for method in iter_methods(cls, {"indicate"}):
                view = _view_param(method)
                yield from self._check_body(
                    context, f"`{cls.name}.indicate`", method, view
                )
        for node in context.index.of_type(ast.Call):
            if _is_function_sensing(node):
                for arg in list(node.args[:1]) + [
                    kw.value for kw in node.keywords if kw.arg == "fn"
                ]:
                    if isinstance(arg, ast.Lambda):
                        yield from self._check_body(
                            context, "sensing lambda", arg, None
                        )

    def _check_body(
        self,
        context: ModuleContext,
        where: str,
        root: ast.AST,
        view: Optional[str],
    ) -> Iterator[Violation]:
        watched = {"self"} | ({view} if view else set())
        for node in context.index.subtree(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    hit = _deref_write(target, watched)
                    if hit is not None:
                        yield self.violation(
                            context,
                            node.lineno,
                            node.col_offset,
                            f"{where} writes `{hit}`: sensing must not carry "
                            "state between calls (use an IncrementalSensing "
                            "monitor for per-trial state)",
                        )
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.violation(
                    context,
                    node.lineno,
                    node.col_offset,
                    f"{where} declares `{type(node).__name__.lower()}`: "
                    "closure over mutable state makes the verdict depend on "
                    "call history, not the view",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _IO_CALLS:
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"{where} performs I/O (`{func.id}`): sensing runs "
                        "inside the simulation hot loop and must stay a pure "
                        "predicate (attach a tracer for observability)",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                ):
                    root_name = attribute_root(func.value)
                    if root_name is not None and root_name.id in watched:
                        if not isinstance(func.value, ast.Name) or root_name.id != "self":
                            yield self.violation(
                                context,
                                node.lineno,
                                node.col_offset,
                                f"{where} mutates `{root_name.id}` via "
                                f"`.{func.attr}(...)`",
                            )
        calls = context.index.within(root, ast.Call)
        for node, target, reason in iter_ambient_calls(context, calls):
            yield self.violation(
                context,
                node.lineno,
                node.col_offset,
                f"{where} calls `{target}`: {reason}",
            )


def _view_param(method: ast.FunctionDef) -> Optional[str]:
    names = [a.arg for a in method.args.args]
    if len(names) >= 2 and names[0] == "self":
        return names[1]
    return None


def _is_function_sensing(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "FunctionSensing"
    return isinstance(func, ast.Attribute) and func.attr == "FunctionSensing"


def _deref_write(target: ast.expr, roots: "set[str]") -> Optional[str]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            hit = _deref_write(element, roots)
            if hit is not None:
                return hit
        return None
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return None
    root = attribute_root(target)
    if root is not None and root.id in roots:
        return root.id
    return None
