"""RL102: shared-attribute read-modify-write split by an ``await``.

An ``await`` is a scheduling point: every other task runs before the
function resumes, so a value read from ``self.*`` before the ``await``
is stale after it.  Writing shared state from the stale copy is the
classic asyncio lost update — no data race in the threading sense, just
interleaving — and it is exactly how a serve-engine counter or queue
drifts under load while staying correct in single-session tests.

Three shapes are flagged, all on ``self.*`` attributes (the state that
is shared between tasks):

* **stale local**: ``tmp = self.x`` … ``await …`` … ``self.x = f(tmp)``;
* **split expression**: ``self.x = <expr reading self.x and awaiting>``
  (including ``self.x += await f()`` — the augmented load happens before
  the await's suspension resolves);
* **stale guard**: ``if self.x …: … await … … self.x = …`` — the guard
  no longer holds when the write runs.  ``while``-based re-check loops
  (the condition-variable idiom: ``while not pred(): await cond.wait()``)
  are exempt: re-testing after resumption is the fix, not the bug.

The analysis is intra-function and path-insensitive: it over-approximates
"an await may run between the read and the write", which is the only
fact interleaving cares about.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.context import ModuleContext
from repro.lint.dataflow import (
    attr_path,
    child_bodies,
    contains_await,
    self_attr_reads,
    statement_facts,
)
from repro.lint.index import NodeIndex
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation


def _single_self_attr_source(index: NodeIndex, value: ast.expr) -> Optional[str]:
    """The one ``self.*`` path ``value`` reads, if exactly one and no call.

    Calls may return fresh objects each time; only plain reads (possibly
    through arithmetic) count as "a copy of shared state".
    """
    if index.within(value, ast.Call):
        return None
    reads = self_attr_reads(index, value)
    if len(reads) != 1:
        return None
    return next(iter(reads))


class AwaitInterleavingRule(Rule):
    code = "RL102"
    scopes = frozenset({"src", "scripts"})
    summary = "shared-state read-modify-write must not straddle an await"
    rationale = (
        "await is a scheduling point: state read before it is stale "
        "after it, and writing from the stale copy silently drops every "
        "update the other tasks made in between."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for fn in context.index.of_type(ast.AsyncFunctionDef):
            yield from self._check_split_expressions(context, fn)
            yield from self._check_stale_locals(context, fn)
            yield from self._check_stale_guards(context, fn)

    # -- split expression -------------------------------------------------

    def _check_split_expressions(
        self, context: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for facts in statement_facts(context.index, fn):
            stmt = facts.stmt
            if not facts.has_await:
                continue
            if isinstance(stmt, ast.AugAssign):
                target = attr_path(stmt.target)
                if target is not None and target.startswith("self."):
                    yield self.violation(
                        context,
                        stmt.lineno,
                        stmt.col_offset,
                        f"`{target} {_aug_op(stmt)}= <await …>` reads "
                        f"`{target}` before the await and writes after it: "
                        "interleaved tasks' updates are lost — await into a "
                        "local first, then update atomically",
                    )
            elif isinstance(stmt, ast.Assign):
                for target_node in stmt.targets:
                    target = (
                        attr_path(target_node)
                        if isinstance(target_node, ast.Attribute)
                        else None
                    )
                    if (
                        target is not None
                        and target.startswith("self.")
                        and target in self_attr_reads(context.index, stmt.value)
                    ):
                        yield self.violation(
                            context,
                            stmt.lineno,
                            stmt.col_offset,
                            f"`{target} = …{target}… await …` straddles a "
                            "scheduling point: the value read is stale by "
                            "the time the write lands — split the await out",
                        )

    # -- stale local ------------------------------------------------------

    def _check_stale_locals(
        self, context: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        #: local name -> (source attr path, captured-before-await line,
        #: an await has happened since the capture)
        tracked: Dict[str, Tuple[str, int, bool]] = {}
        for facts in statement_facts(context.index, fn):
            stmt = facts.stmt
            captured_this_stmt = False
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and not facts.has_await
            ):
                source = _single_self_attr_source(context.index, stmt.value)
                if source is not None:
                    tracked[stmt.targets[0].id] = (source, stmt.lineno, False)
                    captured_this_stmt = True
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                for target_attr in facts.attr_writes:
                    if not target_attr.startswith("self."):
                        continue
                    value = (
                        stmt.value
                        if isinstance(stmt, (ast.Assign, ast.AugAssign))
                        else None
                    )
                    if value is None:
                        continue
                    for name in sorted(facts.name_reads):
                        entry = tracked.get(name)
                        if entry is None:
                            continue
                        source, captured_line, awaited = entry
                        if awaited and source == target_attr:
                            yield self.violation(
                                context,
                                stmt.lineno,
                                stmt.col_offset,
                                f"`{target_attr}` is written from `{name}` "
                                f"(a copy taken on line {captured_line}) "
                                "after an await: the copy is stale and "
                                "every interleaved update is lost — "
                                "re-read after the await or restructure "
                                "so the read-modify-write is atomic",
                            )
            if facts.has_await:
                tracked = {
                    name: (source, line, True)
                    for name, (source, line, _awaited) in tracked.items()
                }
            if not captured_this_stmt:
                for name in facts.name_writes:
                    tracked.pop(name, None)

    # -- stale guard ------------------------------------------------------

    def _check_stale_guards(
        self, context: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        yield from self._scan_guards(context, fn.body, in_while=False)

    def _scan_guards(
        self,
        context: ModuleContext,
        body: Sequence[ast.stmt],
        in_while: bool,
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, ast.If) and not in_while:
                guard_attrs = self_attr_reads(context.index, stmt.test)
                if guard_attrs and not contains_await(context.index, stmt.test):
                    yield from self._scan_guard_body(
                        context, stmt.body, guard_attrs
                    )
            nested_in_while = in_while or isinstance(stmt, ast.While)
            for block in child_bodies(stmt):
                yield from self._scan_guards(context, block, nested_in_while)

    def _scan_guard_body(
        self,
        context: ModuleContext,
        body: Sequence[ast.stmt],
        guard_attrs: "frozenset[str] | set[str]",
    ) -> Iterator[Violation]:
        awaited = False
        for stmt in _linear(body):
            writes = {
                path
                for path in _attr_writes_of(stmt)
                if path in guard_attrs
            }
            if awaited and writes:
                written = ", ".join(sorted(writes))
                yield self.violation(
                    context,
                    stmt.lineno,
                    stmt.col_offset,
                    f"`{written}` is written under an `if` guard that was "
                    "tested before an await: the guard no longer holds — "
                    "re-check after resuming (while-loop idiom) or write "
                    "before awaiting",
                )
            if contains_await(context.index, stmt):
                awaited = True


def _aug_op(stmt: ast.AugAssign) -> str:
    return {
        ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
        ast.FloorDiv: "//", ast.Mod: "%", ast.BitOr: "|", ast.BitAnd: "&",
        ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>", ast.Pow: "**",
    }.get(type(stmt.op), "?")


def _linear(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        for block in child_bodies(stmt):
            yield from _linear(block)


def _attr_writes_of(stmt: ast.stmt) -> Iterator[str]:
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Attribute):
            path = attr_path(target)
            if path is not None:
                yield path
