"""Intra-function dataflow facts for the RL1xx/RL2xx rule families.

``graph.py`` answers *who calls whom*; this module answers *what one
function does with its values*: which names and ``self.*`` attributes
each statement reads and writes, where the ``await`` points are, and
which locals are never read again.  Every fact is read off the module's
:class:`~repro.lint.index.NodeIndex`; the only traversal here is
:func:`own_statements`, which follows a function's statement lists, not
its expressions.  The facts are deliberately simple —
statement-ordered, path-insensitive — because the rules built on them
(RL102 lost-update detection, RL2xx dropped-entropy detection) only need
happens-after relationships that survive any interleaving, not precise
path conditions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.index import NodeIndex


def attr_path(node: ast.expr) -> Optional[str]:
    """Dotted path of an attribute chain rooted at a Name, else None.

    ``self._open`` → ``"self._open"``; ``a.b.c`` → ``"a.b.c"``;
    anything rooted at a call or subscript → None.
    """
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


@dataclass
class StatementFacts:
    """What one statement reads, writes, and awaits."""

    stmt: ast.stmt
    #: Nesting context: how many While loops enclose this statement
    #: (inside the function).  A read-check-write under a While is the
    #: condition-variable idiom, not a lost update.
    while_depth: int
    #: Attribute paths read in Load context (``self.x``, ``a.b``).
    attr_reads: Set[str] = field(default_factory=set)
    #: Attribute paths written by assignment/augassign targets.
    attr_writes: Set[str] = field(default_factory=set)
    #: Local names read in Load context.
    name_reads: Set[str] = field(default_factory=set)
    #: Local names bound by this statement.
    name_writes: Set[str] = field(default_factory=set)
    #: True when the statement contains an ``await`` expression.
    has_await: bool = False


def child_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """The nested statement lists of a compound statement: ``body``,
    ``orelse``, ``finalbody``, then each ``except`` handler's body."""
    bodies: List[List[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def own_statements(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[Tuple[ast.stmt, int]]:
    """(statement, while-depth) pairs of ``fn``'s own body, nested
    ``def``/``class`` statements skipped.

    Each statement comes before its nested blocks, which follow in
    :func:`child_bodies` order.  ``match`` cases are not descended
    into: their statements belong to the ``match`` statement's
    :meth:`~repro.lint.index.NodeIndex.statement_nodes`.
    """

    def visit(
        body: Sequence[ast.stmt], depth: int
    ) -> Iterator[Tuple[ast.stmt, int]]:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield stmt, depth
            child_depth = depth + 1 if isinstance(stmt, ast.While) else depth
            for block in child_bodies(stmt):
                yield from visit(block, child_depth)

    yield from visit(fn.body, 0)


def statement_facts(
    index: NodeIndex, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> List[StatementFacts]:
    """Statement-ordered read/write/await facts for ``fn``'s own body."""
    result: List[StatementFacts] = []
    for stmt, depth in own_statements(fn):
        facts = StatementFacts(stmt=stmt, while_depth=depth)
        for node in index.statement_nodes(stmt):
            if isinstance(node, (ast.Await,)):
                facts.has_await = True
            elif isinstance(node, ast.Attribute):
                path = attr_path(node)
                if path is None:
                    continue
                if isinstance(node.ctx, ast.Load):
                    facts.attr_reads.add(path)
                else:
                    facts.attr_writes.add(path)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    facts.name_reads.add(node.id)
                else:
                    facts.name_writes.add(node.id)
        # While/If tests live on the statement node itself and were
        # covered by statement_nodes; comprehension generators too.
        result.append(facts)
    return result


def read_names(index: NodeIndex, node: ast.AST) -> Set[str]:
    """All Name loads inside ``node`` (nested defs included)."""
    return {
        child.id
        for child in index.within(node, ast.Name)
        if isinstance(child.ctx, ast.Load)
    }


def contains_await(index: NodeIndex, node: ast.AST) -> bool:
    """True when ``node`` contains an Await outside nested functions."""
    owner = index.function_of(node)
    return any(
        index.function_of(found) is owner
        for found in index.within(node, ast.Await)
    )


def self_attr_reads(index: NodeIndex, node: ast.AST) -> Set[str]:
    """``self.*`` attribute paths read (Load) anywhere inside ``node``."""
    found: Set[str] = set()
    for child in index.within(node, ast.Attribute):
        if isinstance(child.ctx, ast.Load):
            path = attr_path(child)
            if path is not None and path.startswith("self."):
                found.add(path)
    return found


__all__ = [
    "StatementFacts",
    "attr_path",
    "child_bodies",
    "contains_await",
    "own_statements",
    "read_names",
    "self_attr_reads",
    "statement_facts",
]
