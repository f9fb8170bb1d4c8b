"""RL201: a seed/rng parameter that never reaches a sink is dropped entropy.

RL005 checks the *signature* — randomness-consuming public callables
must accept ``rng``/``seed``.  This rule checks the *flow*: a parameter
that is accepted and then never threaded anywhere is worse than a
missing one, because every caller believes the seed matters while the
function ignores it — sweeps silently stop being functions of their
seed column.

The analysis is interprocedural over the project call graph: a seedish
parameter is **sunk** if it is read in any terminal position (stored,
returned, used in an expression, passed to an external/stdlib call such
as ``random.Random``) or passed as an argument to a project function
whose corresponding parameter is itself sunk (computed to a fixed
point, so ``run -> _dispatch -> derive_party_seeds`` chains resolve).
A parameter that is never sunk is flagged at its definition.

Exempt:

* methods named after Protocol interface methods (``step``, ``observe``,
  …) and methods that override a base-class method — a deterministic
  strategy legitimately ignores the ``rng`` its interface obliges it to
  accept, and an override's signature belongs to the base's contract;
* parameters whose name starts with ``_`` (the author already declared
  the drop deliberate);
* trivial bodies (``...``/``pass``/docstring/``raise``): protocol and
  overload declarations, not implementations.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.graph import FunctionInfo, Project
from repro.lint.rules.base import ProjectRule
from repro.lint.violations import Violation


def _is_seedish(name: str) -> bool:
    return (
        name in ("rng", "seed", "seeds")
        or name.endswith("_rng")
        or name.endswith("_seed")
        or name.endswith("seeds")
    )


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> List[str]:
    args = fn.args
    return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


def _trivial_body(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    return all(
        isinstance(stmt, (ast.Pass, ast.Raise))
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    ) or not body


#: (function qual, parameter name) — the liveness lattice's elements.
_ParamKey = Tuple[str, str]


class SeedFlowRule(ProjectRule):
    code = "RL201"
    scopes = frozenset({"src"})
    summary = "accepted seed/rng parameters must flow into a sink"
    rationale = (
        "Experiments quantify over seeds; a parameter that is accepted "
        "and dropped makes every caller's seed a no-op while the "
        "signature promises determinism control."
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        protocol_methods = _protocol_method_names(project)
        live: Set[_ParamKey] = set()
        #: (F, p) -> set of (G, q) it transfers to via bare-arg calls.
        transfers: Dict[_ParamKey, Set[_ParamKey]] = {}
        candidates: List[Tuple[FunctionInfo, str, ast.arg]] = []

        for fn in project.functions.values():
            for arg_node in _all_args(fn.node):
                param = arg_node.arg
                if not _is_seedish(param):
                    continue
                key = (fn.qual, param)
                terminal, edges = _classify_uses(project, fn, param)
                if terminal:
                    live.add(key)
                transfers[key] = edges
                if (
                    fn.module.kind in self.scopes
                    and not param.startswith("_")
                    and fn.name not in protocol_methods
                    and not _trivial_body(fn.node)
                    and "<locals>" not in fn.qual
                    and not _overrides_base_method(project, fn)
                ):
                    candidates.append((fn, param, arg_node))

        # Protocol-obliged params count as sinks for their callers: the
        # engine passing rng into step() has done its plumbing job even
        # when one deterministic implementation ignores it.
        for fn in project.functions.values():
            if fn.name in protocol_methods:
                for param in _param_names(fn.node):
                    if _is_seedish(param):
                        live.add((fn.qual, param))

        changed = True
        while changed:
            changed = False
            for key, edges in transfers.items():
                if key in live:
                    continue
                if any(edge in live or edge not in transfers for edge in edges):
                    # Unknown callee params (external or non-seedish) are
                    # assumed live: conservative, no false flags.
                    live.add(key)
                    changed = True

        for fn, param, arg_node in candidates:
            if (fn.qual, param) in live:
                continue
            yield self.project_violation(
                fn.module.path,
                arg_node.lineno,
                arg_node.col_offset,
                f"`{fn.name}` accepts `{param}` but never threads it into "
                "a randomness sink or child call: callers' seeds are "
                "silently dropped — use it or remove it from the signature",
            )


def _all_args(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> List[ast.arg]:
    args = fn.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


def _overrides_base_method(project: Project, fn: FunctionInfo) -> bool:
    """Whether ``fn`` reimplements a method some project base declares.

    An override's parameter list is the base's contract, not the
    implementation's choice — ignoring an obliged ``rng`` there is the
    deterministic-implementation case, not dropped entropy.
    """
    if fn.class_qual is None:
        return False
    cls = project.classes.get(fn.class_qual)
    if cls is None:
        return False
    stack = list(cls.base_refs)
    seen: Set[str] = set()
    while stack:
        ref = stack.pop()
        if ref in seen:
            continue
        seen.add(ref)
        base = project.classes.get(ref)
        if base is None:
            continue
        if fn.name in base.methods:
            return True
        stack.extend(base.base_refs)
    return False


def _protocol_method_names(project: Project) -> Set[str]:
    names: Set[str] = set()
    for cls in project.classes.values():
        if any(
            ref == "typing.Protocol" or ref.endswith(".Protocol") or ref == "Protocol"
            for ref in cls.base_refs
        ):
            names.update(cls.methods.keys())
    return names


def _classify_uses(
    project: Project, fn: FunctionInfo, param: str
) -> Tuple[bool, Set[_ParamKey]]:
    """How ``fn`` uses ``param``: (has terminal use, transfer edges).

    A *transfer* is ``param`` appearing as a bare ``Name`` argument to a
    resolved project call; every other Load of the name is terminal
    (stored, returned, computed with, passed to external code).
    """
    transfer_loads: Set[int] = set()
    edges: Set[_ParamKey] = set()
    for site in fn.calls:
        callee_infos = [
            info
            for t in site.targets
            if (info := project.functions.get(t)) is not None
        ]
        for position, arg in enumerate(site.node.args):
            if isinstance(arg, ast.Name) and arg.id == param:
                arg_edges: Set[_ParamKey] = set()
                for callee in callee_infos:
                    target_param = _positional_param(callee, position)
                    if target_param is not None:
                        arg_edges.add((callee.qual, target_param))
                if arg_edges:
                    edges.update(arg_edges)
                    transfer_loads.add(id(arg))
        for keyword in site.node.keywords:
            if (
                keyword.arg is not None
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == param
            ):
                kw_edges: Set[_ParamKey] = set()
                for callee in callee_infos:
                    if keyword.arg in _param_names(callee.node):
                        kw_edges.add((callee.qual, keyword.arg))
                if kw_edges:
                    edges.update(kw_edges)
                    transfer_loads.add(id(keyword.value))
    terminal = any(
        isinstance(node.ctx, ast.Load)
        and node.id == param
        and id(node) not in transfer_loads
        for node in fn.module.context.index.within(fn.node, ast.Name)
    )
    return terminal, edges


def _positional_param(fn: FunctionInfo, position: int) -> Optional[str]:
    params = _param_names(fn.node)
    offset = 0
    if fn.class_qual is not None and params and params[0] in ("self", "cls"):
        offset = 1
    index = position + offset
    if index < len(params):
        return params[index]
    return None
