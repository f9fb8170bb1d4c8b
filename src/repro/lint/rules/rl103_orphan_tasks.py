"""RL103: no unawaited coroutines, no fire-and-forget tasks.

Calling an ``async def`` without ``await`` builds a coroutine object
and throws it away — the body never runs, and Python only mentions it
in a warning that CI logs swallow.  ``asyncio.create_task`` with the
handle discarded is the subtler version: the task *runs*, but nothing
observes its exception (silently dropped at GC time) and nothing can
drain it at shutdown — the serve engine's graceful-drain guarantee dies
exactly there.

Flagged:

* an expression statement that calls a project ``async def`` without
  ``await`` (the coroutine is created and dropped);
* ``asyncio.create_task`` / ``ensure_future`` (module call or method
  form) whose result is discarded or bound to a name that is never read
  again — keep the handle and either ``await`` it, register an
  ``add_done_callback``, or park it where shutdown can find it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.lint.dataflow import own_statements, read_names
from repro.lint.graph import FunctionInfo, Project
from repro.lint.rules.base import ProjectRule
from repro.lint.violations import Violation

_SPAWNERS = frozenset({"asyncio.create_task", "asyncio.ensure_future"})
_SPAWNER_ATTRS = frozenset({"create_task", "ensure_future"})


class OrphanTaskRule(ProjectRule):
    code = "RL103"
    scopes = frozenset({"src", "scripts"})
    summary = "coroutines must be awaited; task handles must be kept"
    rationale = (
        "A dropped coroutine never runs; a dropped task handle hides "
        "its exception and escapes graceful drain — both turn 'served' "
        "into 'silently lost' under load."
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        for fn in project.functions.values():
            if fn.module.kind not in self.scopes:
                continue
            yield from self._check_function(project, fn)

    def _check_function(
        self, project: Project, fn: FunctionInfo
    ) -> Iterator[Violation]:
        sites: Dict[int, "tuple[str, ...]"] = {
            id(site.node): site.targets for site in fn.calls
        }
        reads = read_names(fn.module.context.index, fn.node)
        for stmt, _depth in own_statements(fn.node):
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if self._is_spawner(fn, call):
                    yield self.project_violation(
                        fn.module.path,
                        call.lineno,
                        call.col_offset,
                        "fire-and-forget task: the handle is discarded, so "
                        "its exception is lost and shutdown cannot drain it "
                        "— keep the handle and await it or add a "
                        "done-callback",
                    )
                    continue
                targets = sites.get(id(call), ())
                if any(
                    (callee := project.functions.get(t)) is not None
                    and callee.is_async
                    for t in targets
                ):
                    yield self.project_violation(
                        fn.module.path,
                        call.lineno,
                        call.col_offset,
                        "coroutine is never awaited: the async body will "
                        "not run — `await` it (or create_task and keep the "
                        "handle)",
                    )
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and self._is_spawner(fn, stmt.value)
            ):
                name = stmt.targets[0].id
                if name != "_" and name not in reads:
                    yield self.project_violation(
                        fn.module.path,
                        stmt.lineno,
                        stmt.col_offset,
                        f"task handle `{name}` is never read: the task "
                        "outlives anyone who could observe its failure — "
                        "await it, add a done-callback, or track it for "
                        "drain",
                    )

    @staticmethod
    def _is_spawner(fn: FunctionInfo, call: ast.Call) -> bool:
        dotted = fn.module.context.resolve_call(call.func)
        if dotted in _SPAWNERS:
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _SPAWNER_ATTRS
        )

