"""The rule interface: one code, one invariant, read off one module context."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.context import ModuleContext
from repro.lint.violations import Violation


class Rule:
    """A single lint rule.

    Subclasses set the class attributes and implement :meth:`check` as a
    generator of :class:`Violation` objects.  Rules must not mutate the
    context; the engine reuses one :class:`ModuleContext` per file across
    all rules.
    """

    #: Stable identifier used in output, pragmas, and ``--select``.
    code: str = "RL000"
    #: One-line summary shown by ``--explain`` and the docs generator.
    summary: str = ""
    #: Which paper-level property the rule protects (docs cross-link).
    rationale: str = ""
    #: Tree kinds the rule applies to; engine classifies each file as
    #: "src", "tests", or "benchmarks" by its path components.
    scopes: "frozenset[str]" = frozenset({"src", "tests", "benchmarks"})

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, context: ModuleContext, line: int, col: int, message: str
    ) -> Violation:
        """Build a violation for this rule at a location in ``context``."""
        return Violation(
            path=context.path, line=line, col=col + 1, code=self.code, message=message
        )


class ProjectRule(Rule):
    """A rule that needs the whole-program view, not one module.

    The engine parses every file first, builds one
    :class:`repro.lint.graph.Project` per run, and calls
    :meth:`check_project` once.  Pragma suppression still applies —
    the engine routes each violation back through its module's pragma
    index — and ``scopes`` is advisory: project rules see all modules
    and decide per-module relevance themselves (a call graph crossing
    src and tests is the point).
    """

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Violation]:
        raise NotImplementedError

    def project_violation(
        self, path: str, line: int, col: int, message: str
    ) -> Violation:
        """Build a violation at an arbitrary module location."""
        return Violation(
            path=path, line=line, col=col + 1, code=self.code, message=message
        )


if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.lint.graph import Project
