"""The lint engine: walk files, parse once, run rules, apply pragmas.

Two tiers run per invocation.  Per-module rules (:class:`Rule`) see one
:class:`ModuleContext` at a time, exactly as in PR 4.  Project rules
(:class:`ProjectRule`) run after every file has parsed, against one
shared :class:`repro.lint.graph.Project` — the import/call-graph view —
so invariants that span files (event-loop blocking, event-contract
coverage) are checked once per run, not once per file.
"""

from __future__ import annotations

import os
import time
import tokenize
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.lint.context import ModuleContext
from repro.lint.graph import build_project
from repro.lint.rules import ALL_RULES
from repro.lint.rules.base import ProjectRule, Rule
from repro.lint.violations import Violation

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", "related"})


def classify_path(path: str) -> str:
    """Which tree a file belongs to: ``src``, ``tests``, ``benchmarks``
    or ``scripts``.

    Rules scope themselves by this (e.g. RL005 polices the library API
    only).  CI helper scripts under ``.github`` get their own kind so
    async-hazard rules can cover them without the src-only rules firing
    on glue code.  Anything else that is not a test or benchmark tree
    counts as ``src`` — the strict default.
    """
    parts = os.path.normpath(path).split(os.sep)
    if ".github" in parts:
        return "scripts"
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    return "src"


@dataclass
class LintReport:
    """Everything one lint run produced, for any output format."""

    violations: List[Violation] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)
    suppressed: int = 0
    #: Wall-clock seconds for the whole run (drives the CI time gate).
    elapsed_s: float = 0.0

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors

    def as_dict(self) -> Dict[str, Any]:
        """The ``--format json`` document (and the baseline-file shape)."""
        return {
            "files_scanned": self.files_scanned,
            "violation_count": len(self.violations),
            "suppressed": self.suppressed,
            "elapsed_s": round(self.elapsed_s, 3),
            "counts_by_rule": self.counts_by_rule,
            "parse_errors": list(self.parse_errors),
            "violations": [v.as_dict() for v in self.violations],
        }


def _select_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[Rule]:
    chosen = list(ALL_RULES)
    if select:
        wanted = {code.upper() for code in select}
        chosen = [rule for rule in chosen if rule.code in wanted]
    if ignore:
        dropped = {code.upper() for code in ignore}
        chosen = [rule for rule in chosen if rule.code not in dropped]
    return chosen


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    kind: Optional[str] = None,
) -> LintReport:
    """Lint one in-memory module (the unit the fixture tests drive).

    Project rules run too, over a single-module project — enough for
    fixtures whose hazard is self-contained (most are).
    """
    return lint_sources({path: source}, select=select, ignore=ignore, kind=kind)


def lint_sources(
    files: Mapping[str, str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    kind: Optional[str] = None,
) -> LintReport:
    """Lint a virtual tree of ``{path: source}`` modules.

    The multi-module counterpart of :func:`lint_source`: fixture tests
    use it to exercise cross-module resolution (imports, dispatch,
    registry/emit splits) without touching disk.
    """
    started = time.perf_counter()
    rules = _select_rules(select, ignore)
    report = LintReport()
    entries: List[Tuple[str, str, ModuleContext]] = []
    for path, source in files.items():
        context = _lint_one(report, path, source, rules, kind)
        if context is not None:
            file_kind = kind if kind is not None else classify_path(path)
            entries.append((path, file_kind, context))
    _run_project_rules(report, rules, entries)
    report.violations.sort()
    report.elapsed_s = time.perf_counter() - started
    return report


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint files and directory trees; the ``python -m repro.lint`` core."""
    started = time.perf_counter()
    rules = _select_rules(select, ignore)
    report = LintReport()
    entries: List[Tuple[str, str, ModuleContext]] = []
    for filename in _walk(paths):
        try:
            # tokenize.open honours a PEP 263 coding cookie (UTF-8 otherwise).
            with tokenize.open(filename) as handle:
                source = handle.read()
        except OSError as error:
            report.parse_errors.append(f"{filename}: unreadable: {error}")
            continue
        except (SyntaxError, UnicodeDecodeError) as error:
            report.parse_errors.append(f"{filename}: undecodable: {error}")
            continue
        context = _lint_one(report, filename, source, rules, None)
        if context is not None:
            entries.append((filename, classify_path(filename), context))
    _run_project_rules(report, rules, entries)
    report.violations.sort()
    report.elapsed_s = time.perf_counter() - started
    return report


def _lint_one(
    report: LintReport,
    path: str,
    source: str,
    rules: Sequence[Rule],
    kind: Optional[str],
) -> Optional[ModuleContext]:
    report.files_scanned += 1
    try:
        context = ModuleContext.parse(path, source)
    except SyntaxError as error:
        report.parse_errors.append(
            f"{path}:{error.lineno or 0}: syntax error: {error.msg}"
        )
        return None
    tree_kind = kind if kind is not None else classify_path(path)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            continue
        if tree_kind not in rule.scopes:
            continue
        for violation in rule.check(context):
            if context.pragmas.is_suppressed(violation.line, violation.code):
                report.suppressed += 1
            else:
                report.violations.append(violation)
    return context


def _run_project_rules(
    report: LintReport,
    rules: Sequence[Rule],
    entries: Sequence[Tuple[str, str, ModuleContext]],
) -> None:
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    if not project_rules or not entries:
        return
    project = build_project(entries)
    contexts = {path: context for path, _, context in entries}
    for rule in project_rules:
        for violation in rule.check_project(project):
            context = contexts.get(violation.path)
            if context is not None and context.pragmas.is_suppressed(
                violation.line, violation.code
            ):
                report.suppressed += 1
            else:
                report.violations.append(violation)


def _walk(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIPPED_DIRS
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


__all__ = [
    "LintReport",
    "classify_path",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
