"""Per-module analysis context shared by every rule.

One parse and one walk per file: the engine builds a
:class:`ModuleContext` — tree, :class:`~repro.lint.index.NodeIndex`,
import table, class graph, pragmas — and hands it to each rule and to
the project graph, so rules stay cheap (index reads, no re-walks) and
consistent (every rule sees the same import table and class graph).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.index import NodeIndex
from repro.lint.pragmas import PragmaIndex, parse_pragmas


def _build_import_table(index: NodeIndex) -> Dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import random`` -> ``{"random": "random"}``;
    ``import datetime as dt`` -> ``{"dt": "datetime"}``;
    ``from time import time`` -> ``{"time": "time.time"}``;
    ``from os import urandom as entropy`` -> ``{"entropy": "os.urandom"}``.

    Only module-level and function-level imports are recorded — enough to
    resolve the ambient-state modules the rules care about.  Relative
    imports resolve to their stated module path (leading dots dropped),
    which is never one of the watched stdlib modules, so they are inert.
    A name imported twice keeps the binding seen last in breadth-first
    order.
    """
    table: Dict[str, str] = {}
    imports: List[ast.Import | ast.ImportFrom] = [*index.of_type(ast.Import)]
    imports.extend(index.of_type(ast.ImportFrom))
    for node in index.walk_order(imports):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    index: NodeIndex
    imports: Dict[str, str]
    pragmas: PragmaIndex
    #: Class name -> direct base names (as written), for same-module MRO walks.
    class_bases: Dict[str, List[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        index = NodeIndex(tree)
        context = cls(
            path=path,
            source=source,
            tree=tree,
            index=index,
            imports=_build_import_table(index),
            pragmas=parse_pragmas(source),
        )
        for node in index.walk_order(index.of_type(ast.ClassDef)):
            context.class_bases[node.name] = [
                base_name
                for base in node.bases
                if (base_name := _base_name(base)) is not None
            ]
        return context

    def resolve_call(self, node: ast.AST) -> Optional[str]:
        """The dotted path a name/attribute chain refers to, if importable.

        ``dt.datetime.now`` with ``import datetime as dt`` resolves to
        ``datetime.datetime.now``; a chain rooted in a local variable
        (``rng.random``) resolves to ``None`` — locals are exactly what
        the rules must *not* treat as ambient modules.
        """
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self.imports.get(cursor.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def transitive_bases(self, class_name: str) -> Set[str]:
        """All base names reachable from ``class_name`` within this module.

        Cross-module inheritance falls back to the textual base name
        itself, which is what the suffix heuristics in the rules match
        against.
        """
        seen: Set[str] = set()
        stack = list(self.class_bases.get(class_name, ()))
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            stack.extend(self.class_bases.get(base, ()))
        return seen


def _base_name(base: ast.expr) -> Optional[str]:
    """The rightmost identifier of a base expression (``a.B`` -> ``B``)."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Subscript):  # Generic[...] bases
        return _base_name(base.value)
    return None


def iter_methods(cls: ast.ClassDef, names: Set[str]) -> Iterator[ast.FunctionDef]:
    """The directly-defined methods of ``cls`` whose names are in ``names``."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            yield node


def attribute_root(node: ast.expr) -> Optional[ast.Name]:
    """The ``Name`` at the bottom of an attribute/subscript chain, if any."""
    cursor = node
    while isinstance(cursor, (ast.Attribute, ast.Subscript)):
        cursor = cursor.value
    return cursor if isinstance(cursor, ast.Name) else None


#: Method names that, when called on an object, mutate it in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "setdefault",
        "appendleft",
        "extendleft",
        "popleft",
    }
)
