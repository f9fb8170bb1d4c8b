"""RL002: strategy ``step``/``initial_state`` must not mutate the strategy.

A strategy object is *shared*: the same instance serves every execution
of a sweep cell, every trial of a universal user's enumeration, and — on
the serial path — every seed of a cell.  The engine threads all
per-execution dynamics through the explicit ``state`` value; anything a
``step`` writes onto ``self`` instead leaks between executions, which is
precisely the ``ResettableServer`` bug PR 3 caught by hand (a reset
counter stored on the wrapper survived into the next run and skewed the
fault grid).  Levin-style enumeration is only sound when a candidate
cannot corrupt the shared enumeration state behind the cursor's back.

The *threaded state* is deliberately out of scope: states are created
per-execution by ``initial_state`` and owned by the caller (the mutable
dataclass state of the universal users is the documented idiom, see
``CompactUniversalState``).  What RL002 also flags is mutation of the
``inbox`` — inboxes are build-once views of the channel and must read
the same to every observer (transcripts, tracers, views).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.context import (
    MUTATING_METHODS,
    ModuleContext,
    attribute_root,
    iter_methods,
)
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation

#: Base-class names that mark a class as a strategy implementation.
_STRATEGY_BASE_RE = re.compile(r"(Strategy|User|Server|World|Party)$")

#: The engine-called methods that must leave the strategy untouched.
_CHECKED_METHODS = {"step", "initial_state", "react"}


def is_strategy_class(context: ModuleContext, cls: ast.ClassDef) -> bool:
    """Heuristic: any (transitive, textual) base looks like a strategy.

    Matches the repo's naming convention (`*Strategy`, `*User`,
    `*Server`, `*World`, `*Party`); same-module inheritance is resolved
    transitively, cross-module inheritance falls back to the base's
    written name — which is exactly the suffix the convention fixes.
    """
    bases = {base for base in context.transitive_bases(cls.name)}
    return any(_STRATEGY_BASE_RE.search(base) for base in bases)


class MutatingStepRule(Rule):
    code = "RL002"
    summary = "strategy step/initial_state must not mutate self (or the inbox)"
    rationale = (
        "Strategy objects are shared across executions, sweep cells, and "
        "enumeration trials; hidden state on `self` breaks per-seed "
        "determinism and the soundness of enumeration (Levin 1973)."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for cls in context.index.of_type(ast.ClassDef):
            if not is_strategy_class(context, cls):
                continue
            for method in iter_methods(cls, _CHECKED_METHODS):
                targets = {"self"}
                inbox = _inbox_param(method)
                if inbox is not None:
                    targets.add(inbox)
                yield from self._check_method(context, cls, method, targets)

    def _check_method(
        self,
        context: ModuleContext,
        cls: ast.ClassDef,
        method: ast.FunctionDef,
        targets: "set[str]",
    ) -> Iterator[Violation]:
        where = f"`{cls.name}.{method.name}`"
        for node in context.index.subtree(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                assign_targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in assign_targets:
                    hit = _written_target(target, targets)
                    if hit is not None:
                        yield self.violation(
                            context,
                            node.lineno,
                            node.col_offset,
                            f"{where} writes `{hit}`: strategies are shared "
                            "across executions — thread per-run dynamics "
                            "through the returned state instead",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    hit = _written_target(target, targets)
                    if hit is not None:
                        yield self.violation(
                            context,
                            node.lineno,
                            node.col_offset,
                            f"{where} deletes `{hit}` (shared strategy state)",
                        )
            elif isinstance(node, ast.Call):
                hit = _mutating_call_target(node, targets)
                if hit is not None:
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"{where} calls a mutating method on `{hit}`: "
                        "strategies are shared across executions — keep "
                        "containers on the threaded state",
                    )


def _inbox_param(method: ast.FunctionDef) -> Optional[str]:
    """The inbox parameter of an engine-shaped ``step``/``react``."""
    if method.name not in ("step", "react"):
        return None
    names = [a.arg for a in method.args.args]
    # step(self, state, inbox, rng) / react(self, round_index, inbox, rng)
    if len(names) >= 3 and names[0] == "self":
        return names[2]
    return None


def _written_target(target: ast.expr, roots: "set[str]") -> Optional[str]:
    """If the assignment/delete target dereferences a watched root, name it.

    Bare rebinding of the name itself (``state = ...``) is fine — it
    changes a local binding, not the shared object.  Writes *through* the
    name (``self.x = ...``, ``self.x[k] = ...``) are not.
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            hit = _written_target(element, roots)
            if hit is not None:
                return hit
        return None
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return None
    root = attribute_root(target)
    if root is not None and root.id in roots:
        return root.id
    return None


def _mutating_call_target(node: ast.Call, roots: "set[str]") -> Optional[str]:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
        return None
    root = attribute_root(func.value)
    if root is None or root.id not in roots:
        return None
    # `self.foo()` with foo in MUTATING_METHODS would be a method *on the
    # strategy itself*; only container access through an attribute or
    # subscript (self.cache.append, inbox.messages.pop) is mutation.
    if isinstance(func.value, ast.Name):
        return None
    return root.id
