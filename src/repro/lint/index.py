"""One walk per module: the node index every rule and the graph read.

:meth:`repro.lint.context.ModuleContext.parse` walks each parsed tree
exactly once into a :class:`NodeIndex`.  The walk records every node in
source (pre-)order, grouped by exact AST class, together with the end
of its subtree, its depth and its *scope* — the innermost enclosing
``def``, ``lambda`` or ``class``.  Those facts answer every question the
rules and :mod:`repro.lint.graph` ask of a module without walking it
again:

* "all calls in the module" — :meth:`NodeIndex.of_type`;
* "all assignments inside this method" — :meth:`NodeIndex.within`, a
  slice of the source-ordered list;
* "all calls of this function, nested defs excluded" —
  :meth:`NodeIndex.own_calls`, a scope comparison per call;
* "the expressions of this one statement" —
  :meth:`NodeIndex.statement_nodes`;
* "in the order ``ast.walk`` would give" — :meth:`NodeIndex.walk_order`,
  for the first- and last-definition-wins tables (imports, class bases,
  nested defs, attribute types) whose contents depend on it.

The expression-context and operator nodes (``Load``, ``Add``, …) are
left out: the parser shares one instance of each among all its uses,
and no rule asks for them by walking.
"""

from __future__ import annotations

import ast
from bisect import bisect_left
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    cast,
)

N = TypeVar("N", bound=ast.AST)

#: The nodes that open a new scope.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Shared singleton nodes the index leaves out.
_UNINDEXED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)
_NOT_EXPRESSIONS = (ast.stmt,) + _UNINDEXED


class NodeIndex:
    """Every node of one module, in source order, with its context."""

    def __init__(self, tree: ast.AST) -> None:
        nodes: List[ast.AST] = []
        parents: List[int] = []
        depths: List[int] = []
        scopes: List[Optional[ast.AST]] = []
        by_type: Dict[Type[ast.AST], List[int]] = {}
        stack: List[Tuple[ast.AST, int, Optional[ast.AST], int]] = [
            (tree, -1, None, 0)
        ]
        while stack:
            node, parent, scope, depth = stack.pop()
            position = len(nodes)
            nodes.append(node)
            parents.append(parent)
            depths.append(depth)
            scopes.append(scope)
            by_type.setdefault(type(node), []).append(position)
            inner = node if isinstance(node, _SCOPES) else scope
            children: List[Tuple[ast.AST, int, Optional[ast.AST], int]] = []
            for name in node._fields:
                value = getattr(node, name, None)
                for item in value if isinstance(value, list) else (value,):
                    if isinstance(item, ast.AST) and not isinstance(item, _UNINDEXED):
                        children.append((item, position, inner, depth + 1))
            stack.extend(reversed(children))
        # A subtree is the contiguous run [position, end) of the pre-order.
        ends = [position + 1 for position in range(len(nodes))]
        for position in range(len(nodes) - 1, 0, -1):
            parent = parents[position]
            if ends[position] > ends[parent]:
                ends[parent] = ends[position]
        self._nodes = nodes
        self._position = {id(node): pos for pos, node in enumerate(nodes)}
        self._ends = ends
        self._depths = depths
        self._scopes = scopes
        self._by_type = by_type

    def _pos(self, node: ast.AST) -> int:
        return self._position[id(node)]

    def of_type(self, kind: Type[N]) -> List[N]:
        """Every node whose class is exactly ``kind``, in source order."""
        nodes = self._nodes
        return [cast(N, nodes[p]) for p in self._by_type.get(kind, ())]

    def within(self, node: ast.AST, kind: Type[N]) -> List[N]:
        """The ``kind`` nodes in ``node``'s subtree (``node`` included)."""
        positions = self._by_type.get(kind, [])
        start = self._pos(node)
        first = bisect_left(positions, start)
        last = bisect_left(positions, self._ends[start], lo=first)
        nodes = self._nodes
        return [cast(N, nodes[p]) for p in positions[first:last]]

    def subtree(self, node: ast.AST) -> List[ast.AST]:
        """``node`` and everything under it, in source order."""
        start = self._pos(node)
        return self._nodes[start : self._ends[start]]

    def function_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The innermost ``def``/``lambda`` above ``node``, classes skipped."""
        scope = self._scopes[self._pos(node)]
        while isinstance(scope, ast.ClassDef):
            scope = self._scopes[self._pos(scope)]
        return scope

    def enclosing_functions(self, node: ast.AST) -> Iterator[ast.AST]:
        """Every ``def``/``lambda`` above ``node``, innermost first."""
        scope = self.function_of(node)
        while scope is not None:
            yield scope
            scope = self.function_of(scope)

    def own_calls(self, fn: ast.AST) -> List[ast.Call]:
        """Calls in ``fn`` itself: not inside a nested ``def``/``lambda``.

        Class bodies nested in ``fn`` count as ``fn``'s own code, and so
        do its decorators, defaults and annotations.
        """
        calls = self.within(fn, ast.Call)
        return [call for call in calls if self.function_of(call) is fn]

    def statement_nodes(self, stmt: ast.stmt) -> List[ast.AST]:
        """The nodes of one statement's own expressions, in source order.

        That is everything under the statement's non-statement children
        — including the bodies of its ``case`` clauses, which hang off
        such children — except nested ``def``, ``lambda`` and ``class``
        nodes and what they contain.  Of an ``except`` handler only the
        type expression counts: its body statements are statements of
        their own (see :func:`repro.lint.dataflow.own_statements`).
        """
        found: List[ast.AST] = []
        scopes = self._scopes
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.ExceptHandler):
                if child.type is None:
                    continue
                child = child.type
            elif isinstance(child, _NOT_EXPRESSIONS):
                continue
            start = self._pos(child)
            owner = scopes[start]
            for position in range(start, self._ends[start]):
                if scopes[position] is owner:
                    node = self._nodes[position]
                    if not isinstance(node, _SCOPES):
                        found.append(node)
        return found

    def walk_order(self, nodes: Sequence[N]) -> List[N]:
        """``nodes`` in breadth-first (``ast.walk``) order."""
        return sorted(
            nodes, key=lambda node: (self._depths[self._pos(node)], self._pos(node))
        )

    def right_to_left(self, nodes: Sequence[N]) -> List[N]:
        """``nodes`` in pre-order with siblings visited last to first."""
        ends = self._ends
        return sorted(
            nodes, key=lambda node: (-ends[self._pos(node)], self._pos(node))
        )


__all__ = ["NodeIndex"]
