"""RL202/RL203: derived entropy must be used, and streams must not alias.

Two intra-function dataflow checks on the *derivation* side of seed
plumbing (RL201 polices the parameter side):

**RL202 — dropped derivation.**  A call to a ``derive_*`` helper or a
``.getrandbits()`` draw whose result is discarded, or bound to a local
that is never read again, advanced a seed chain for nothing.  That is
not just waste: anyone replaying the chain must reproduce the dead draw
to stay aligned, and the next refactor that removes it silently shifts
every downstream seed.

**RL203 — aliased streams.**  Two independent stream constructors
(``random.Random(X)`` or ``derive_*(X, …)``) seeded from the *same*
expression in one function produce correlated randomness: both consume
the identical underlying stream, so "the law" and "the session seeds"
(say) are deterministic functions of each other rather than independent
draws.  Derive distinct child seeds from one root instead — e.g. one
``random.Random(seed)`` whose ``getrandbits(64)`` results seed each
consumer.

Both rules skip ``tests/`` — parity tests *deliberately* construct
twin streams from one seed to compare engines.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.context import ModuleContext
from repro.lint.dataflow import read_names
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation


def _derivation_label(
    context: ModuleContext, call: ast.Call
) -> Optional[str]:
    """A short label when ``call`` derives entropy, else None."""
    func = call.func
    dotted = context.resolve_call(func)
    if dotted is not None:
        tail = dotted.rsplit(".", 1)[-1]
        if tail.startswith("derive_"):
            return tail
    if isinstance(func, ast.Name) and func.id.startswith("derive_"):
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in (
        "getrandbits",
        "randbytes",
    ):
        return f".{func.attr}()"
    return None


def _stream_constructor_seed(
    context: ModuleContext, call: ast.Call
) -> Optional[Tuple[str, str]]:
    """(constructor label, seed-expression fingerprint) for RL203.

    A *stream constructor* turns a seed into an independent random
    stream: ``random.Random(X)`` or ``derive_*(X, …)``.  The fingerprint
    is the dump of the first argument, so two constructors fed the same
    expression collide.
    """
    if not call.args:
        return None
    func = call.func
    dotted = context.resolve_call(func)
    label: Optional[str] = None
    if dotted == "random.Random":
        label = "random.Random"
    elif dotted is not None and dotted.rsplit(".", 1)[-1].startswith("derive_"):
        label = dotted.rsplit(".", 1)[-1]
    elif isinstance(func, ast.Name) and func.id.startswith("derive_"):
        label = func.id
    if label is None:
        return None
    seed_arg = call.args[0]
    if not _is_seed_expression(seed_arg):
        return None
    return label, ast.dump(seed_arg)


def _is_seed_expression(node: ast.expr) -> bool:
    """Only plain seed values fingerprint: names, attrs, constants.

    A call like ``rng.getrandbits(64)`` yields a *fresh* value each
    evaluation, so two constructors fed syntactically identical calls do
    not alias.
    """
    return isinstance(node, (ast.Name, ast.Attribute, ast.Constant))


def _functions(
    context: ModuleContext,
) -> List[ast.FunctionDef | ast.AsyncFunctionDef]:
    index = context.index
    return [*index.of_type(ast.FunctionDef), *index.of_type(ast.AsyncFunctionDef)]


class SeedSinkRule(Rule):
    code = "RL202"
    scopes = frozenset({"src", "scripts", "benchmarks"})
    summary = "derived seeds/draws must be used, not discarded"
    rationale = (
        "A dead draw still advances the seed chain: replays must "
        "reproduce it to stay aligned, and deleting it later silently "
        "shifts every downstream seed."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        index = context.index
        for fn in _functions(context):
            reads = read_names(index, fn)
            statements: List[ast.Expr | ast.Assign] = [
                *index.within(fn, ast.Expr),
                *index.within(fn, ast.Assign),
            ]
            for stmt in statements:
                if isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Call
                ):
                    label = _derivation_label(context, stmt.value)
                    if label is not None:
                        yield self.violation(
                            context,
                            stmt.lineno,
                            stmt.col_offset,
                            f"`{label}` result is discarded: the draw "
                            "advances the seed chain but nothing consumes "
                            "it — bind it or delete the call",
                        )
                elif (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                ):
                    label = _derivation_label(context, stmt.value)
                    if label is None:
                        continue
                    for target in stmt.targets:
                        names = (
                            list(target.elts)
                            if isinstance(target, ast.Tuple)
                            else [target]
                        )
                        for element in names:
                            if (
                                isinstance(element, ast.Name)
                                and element.id != "_"
                                and element.id not in reads
                            ):
                                yield self.violation(
                                    context,
                                    stmt.lineno,
                                    stmt.col_offset,
                                    f"`{element.id}` holds a `{label}` "
                                    "draw that is never read: dropped "
                                    "entropy — use it or name it `_`",
                                )


class SeedAliasRule(Rule):
    code = "RL203"
    scopes = frozenset({"src", "scripts"})
    summary = "one seed must not feed two independent stream constructors"
    rationale = (
        "Streams seeded identically are copies, not independent draws: "
        "every 'random' choice in one is a deterministic function of "
        "the other, which collapses the experiment's quantification "
        "over randomness."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for fn in _functions(context):
            by_seed: Dict[str, List[Tuple[ast.Call, str]]] = {}
            for call in context.index.own_calls(fn):
                entry = _stream_constructor_seed(context, call)
                if entry is None:
                    continue
                label, fingerprint = entry
                by_seed.setdefault(fingerprint, []).append((call, label))
            for group in by_seed.values():
                if len(group) < 2:
                    continue
                group.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
                first_call, first_label = group[0]
                for call, label in group[1:]:
                    yield self.violation(
                        context,
                        call.lineno,
                        call.col_offset,
                        f"`{label}` is seeded by the same expression as "
                        f"`{first_label}` on line {first_call.lineno}: the "
                        "two streams are identical, not independent — "
                        "derive distinct child seeds from one root "
                        "(e.g. per-purpose getrandbits(64) prefixes)",
                    )
