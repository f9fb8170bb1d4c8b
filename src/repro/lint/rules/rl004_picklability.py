"""RL004: sweep-reachable objects must stay statically picklable.

The process-pool executor ships every sweep cell to its worker by
pickling the :class:`~repro.analysis.runner.CellTask` — user, server,
goal, sensing and all.  ``ensure_picklable`` catches offenders at run
time, but only for the object graphs a given sweep happens to build;
this rule catches the *code shapes* that can never pickle, before any
sweep runs:

* a lambda stored on an instance attribute (``self.fn = lambda ...``);
* a locally-defined function stored on an instance attribute (closures
  pickle neither by value nor by reference);
* a lambda as a class attribute or dataclass field default;
* an open file handle stored on an instance attribute.

The fix is always the same hoist: make it a module-level function (which
pickles by reference) or a named method.  The runtime pre-flight remains
the backstop for shapes no static rule can see (e.g. a lambda passed in
through a constructor parameter).
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.context import ModuleContext, attribute_root
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation


class PicklabilityRule(Rule):
    code = "RL004"
    summary = "no lambdas/local functions/open handles on picklable objects"
    rationale = (
        "Process-pool sweeps pickle every cell; a stored lambda or handle "
        "turns a parallel sweep into a runtime PicklingError (extends the "
        "`ensure_picklable` pre-flight to a static guarantee)."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for cls in context.index.of_type(ast.ClassDef):
            yield from self._check_class_body(context, cls)
            for method in [n for n in cls.body if isinstance(n, ast.FunctionDef)]:
                yield from self._check_method(context, cls, method)

    def _check_class_body(
        self, context: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        for node in cls.body:
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
            if value is None:
                continue
            if isinstance(value, ast.Lambda):
                yield self.violation(
                    context,
                    value.lineno,
                    value.col_offset,
                    f"class attribute of `{cls.name}` holds a lambda: "
                    "lambdas never pickle — hoist it to a module-level "
                    "function",
                )
            elif _is_field_default_lambda(value):
                yield self.violation(
                    context,
                    value.lineno,
                    value.col_offset,
                    f"dataclass field of `{cls.name}` defaults to a lambda: "
                    "instances will not pickle — use a module-level function",
                )

    def _check_method(
        self, context: ModuleContext, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        index = context.index
        nested: List[ast.FunctionDef | ast.AsyncFunctionDef] = [
            *index.within(method, ast.FunctionDef),
            *index.within(method, ast.AsyncFunctionDef),
        ]
        local_defs = {node.name for node in nested if node is not method}
        for node in index.within(method, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                root = attribute_root(target)
                if root is None or root.id != "self":
                    continue
                attr = f"self.{target.attr}"
                if isinstance(node.value, ast.Lambda):
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"`{cls.name}.{method.name}` stores a lambda on "
                        f"`{attr}`: the instance will not pickle for "
                        "process-pool sweeps — hoist to module level",
                    )
                elif (
                    isinstance(node.value, ast.Name)
                    and node.value.id in local_defs
                ):
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"`{cls.name}.{method.name}` stores the local "
                        f"function `{node.value.id}` on `{attr}`: closures "
                        "do not pickle — hoist it to module level",
                    )
                elif _is_open_call(node.value):
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"`{cls.name}.{method.name}` stores an open file "
                        f"handle on `{attr}`: handles do not cross process "
                        "boundaries — store the path and open lazily",
                    )


def _is_field_default_lambda(value: ast.expr) -> bool:
    """``field(default=lambda ...)`` (default_factory lambdas are fine —
    the factory runs per instance and the *result* is what pickles)."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "field":
        return False
    return any(
        kw.arg == "default" and isinstance(kw.value, ast.Lambda)
        for kw in value.keywords
    )


def _is_open_call(value: ast.expr) -> bool:
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "open"
    )
