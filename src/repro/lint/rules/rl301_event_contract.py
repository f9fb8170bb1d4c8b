"""RL301/302/303: the event registry, emit sites, and consumers agree.

``repro.obs.events`` is a *contract*: every registered ``kind`` is a
promise that (a) some producer emits it and (b) the offline consumers —
the certificate checker, the trace summarizer, the overhead accounting —
know what it means.  The contract has no runtime enforcement: a new
event lands, certify never learns about it, and certificates silently
stop covering part of the trace.  These rules make the drift a lint
failure instead.

* **RL301 — registered but never emitted**: an event class carrying a
  ``@register`` decorator that no ``src``/``scripts`` module ever
  constructs.  Dead vocabulary — either wire up a producer or remove
  the registration (tests-only construction does not count: a kind only
  tests emit is not part of any real trace).
* **RL302 — registered but never consumed**: an event class that none
  of the consumer modules (``certify``, ``analyze``, ``overhead``)
  references.  The certificate checker would skip it silently; handle
  it or exempt the class with a pragma stating why.
* **RL303 — payload mismatch at a construction site**: keyword that is
  not a declared field, more positional arguments than fields, or a
  required (default-less) field left unfilled.  At runtime this is a
  ``TypeError`` at emit time — i.e. mid-serve; statically it is free.

Registry discovery is structural (``@register``-decorated class with a
``kind`` string attribute), so the rules follow the registry wherever
it moves and fixture tests can build miniature ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.graph import ClassInfo, Project, ProjectModule, is_classvar
from repro.lint.rules.base import ProjectRule
from repro.lint.violations import Violation

#: Module basenames treated as trace consumers for RL302.
CONSUMER_BASENAMES = frozenset({"certify", "analyze", "overhead"})


@dataclass
class _EventClass:
    info: ClassInfo
    kind: str
    #: (field name, required) in declaration order, base fields first.
    payload: List[Tuple[str, bool]]


def _collect_registry(project: Project) -> List[_EventClass]:
    cached = project.analysis_cache.get("event-registry")
    if isinstance(cached, list):
        return cached
    found: List[_EventClass] = []
    for cls in project.classes.values():
        if not _has_register_decorator(cls.node):
            continue
        kind = _kind_literal(cls.node)
        if kind is None:
            continue
        found.append(
            _EventClass(info=cls, kind=kind, payload=_payload_fields(project, cls))
        )
    found.sort(key=lambda e: (e.info.module.path, e.info.node.lineno))
    project.analysis_cache["event-registry"] = found
    return found


def _has_register_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "register":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr == "register":
            return True
    return False


def _kind_literal(node: ast.ClassDef) -> Optional[str]:
    for item in node.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(item, ast.AnnAssign):
            target, value = item.target, item.value
        elif isinstance(item, ast.Assign) and len(item.targets) == 1:
            target, value = item.targets[0], item.value
        if (
            isinstance(target, ast.Name)
            and target.id == "kind"
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value
    return None


def _payload_fields(project: Project, cls: ClassInfo) -> List[Tuple[str, bool]]:
    """Dataclass __init__ fields in order: base-class fields first."""
    chain: List[ClassInfo] = []
    cursor: Optional[ClassInfo] = cls
    seen: Set[str] = set()
    while cursor is not None and cursor.qual not in seen:
        seen.add(cursor.qual)
        chain.append(cursor)
        parent: Optional[ClassInfo] = None
        for ref in cursor.base_refs:
            candidate = project.classes.get(ref)
            if candidate is not None:
                parent = candidate
                break
        cursor = parent
    result: List[Tuple[str, bool]] = []
    for info in reversed(chain):
        for item in info.node.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            if not isinstance(item.target, ast.Name):
                continue
            if is_classvar(info.module.context.index, item.annotation):
                continue
            result.append((item.target.id, item.value is None))
    return result


def _construction_sites(
    project: Project, event: _EventClass
) -> Iterator[Tuple[ProjectModule, ast.Call]]:
    """Every ``EventClass(...)`` call in the project, any tree kind.

    Backed by the project's shared one-pass call index: bare same-module
    constructions land under the ``<module>.<name>`` key, which is
    exactly the event class qual.
    """
    yield from project.call_index().get(event.info.qual, [])


class EventContractRule(ProjectRule):
    code = "RL301"
    scopes = frozenset({"src"})
    summary = "every registered event kind is emitted by real code"
    rationale = (
        "A registered-but-never-emitted kind is dead vocabulary: the "
        "certificate format promises evidence no run can contain."
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        for event in _collect_registry(project):
            emitted = any(
                mod.kind in ("src", "scripts")
                for mod, _call in _construction_sites(project, event)
            )
            if not emitted:
                yield self.project_violation(
                    event.info.module.path,
                    event.info.node.lineno,
                    event.info.node.col_offset,
                    f"event kind `{event.kind}` ({event.info.node.name}) is "
                    "registered but no src/scripts module ever constructs "
                    "it: dead vocabulary — wire up a producer or drop the "
                    "registration",
                )


class EventConsumerRule(ProjectRule):
    code = "RL302"
    scopes = frozenset({"src"})
    summary = "every registered event kind is handled by the consumers"
    rationale = (
        "certify/analyze/overhead are the contract's readers; a kind "
        "none of them references is silently invisible to certificates "
        "and summaries."
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        consumers = [
            mod
            for mod in project.modules.values()
            if mod.name.rsplit(".", 1)[-1] in CONSUMER_BASENAMES
        ]
        if not consumers:
            return
        for event in _collect_registry(project):
            name = event.info.node.name
            if not any(
                name in project.name_references(mod.name) for mod in consumers
            ):
                yield self.project_violation(
                    event.info.module.path,
                    event.info.node.lineno,
                    event.info.node.col_offset,
                    f"event kind `{event.kind}` ({name}) is registered but "
                    "no consumer (certify/analyze/overhead) references it: "
                    "certificates and summaries will silently skip it — "
                    "handle it or exempt the class with a pragma",
                )


class EventPayloadRule(ProjectRule):
    code = "RL303"
    scopes = frozenset({"src", "scripts", "tests", "benchmarks"})
    summary = "event construction sites match the declared payload fields"
    rationale = (
        "A misnamed payload field is a TypeError at emit time — i.e. "
        "mid-serve, in whichever code path finally exercises it."
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        for event in _collect_registry(project):
            field_names = [name for name, _required in event.payload]
            required = {
                name for name, is_required in event.payload if is_required
            }
            declared = set(field_names)
            for mod, call in _construction_sites(project, event):
                if any(isinstance(arg, ast.Starred) for arg in call.args):
                    continue
                if any(keyword.arg is None for keyword in call.keywords):
                    continue  # **payload: dynamic, checked at runtime
                site: Dict[str, bool] = {}
                ok = True
                if len(call.args) > len(field_names):
                    yield self.project_violation(
                        mod.path,
                        call.lineno,
                        call.col_offset,
                        f"`{event.info.node.name}` takes "
                        f"{len(field_names)} field(s) but "
                        f"{len(call.args)} positional argument(s) are "
                        "given",
                    )
                    ok = False
                else:
                    for index in range(len(call.args)):
                        site[field_names[index]] = True
                for keyword in call.keywords:
                    assert keyword.arg is not None
                    if keyword.arg not in declared:
                        yield self.project_violation(
                            mod.path,
                            keyword.value.lineno,
                            keyword.value.col_offset,
                            f"`{keyword.arg}` is not a field of "
                            f"`{event.info.node.name}` (fields: "
                            f"{', '.join(field_names)})",
                        )
                        ok = False
                    else:
                        site[keyword.arg] = True
                if ok:
                    missing = sorted(required - set(site))
                    if missing:
                        yield self.project_violation(
                            mod.path,
                            call.lineno,
                            call.col_offset,
                            f"`{event.info.node.name}` construction misses "
                            f"required field(s): {', '.join(missing)}",
                        )
