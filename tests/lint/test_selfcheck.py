"""The wall checks itself: the shipped tree is reprolint-clean.

These tests run the real checker over the repository, exactly as the CI
job does — if a change introduces an ambient clock, a blocking call in an
async path, an unplumbed seed, or an event-contract drift anywhere in the
four scanned trees, the suite fails before the CI gate does.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.engine import classify_path

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "benchmarks" / "lint_baseline.json"
ALL_TREES = [
    str(ROOT / "src"),
    str(ROOT / "tests"),
    str(ROOT / "benchmarks"),
    str(ROOT / ".github"),
]


@pytest.fixture(scope="class")
def full_scan():
    """One whole-project scan of the four trees through the CLI, as
    ``(exit code, parsed --format json report)``, shared by the tests
    that read it (each scan rebuilds the call graph)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(ALL_TREES + ["--format", "json"])
    return code, json.loads(out.getvalue())


class TestSelfCheck:
    def test_src_and_tests_are_clean(self):
        report = lint_paths([str(ROOT / "src"), str(ROOT / "tests")])
        assert report.parse_errors == []
        assert report.violations == [], "\n".join(
            v.render() for v in report.violations
        )
        assert report.files_scanned > 100

    def test_all_four_trees_are_clean(self, full_scan):
        # The full project-level run: module rules + call-graph/dataflow
        # rules (RL1xx/2xx/3xx) over src, tests, benchmarks and the CI
        # scripts — the same invocation the lint-graph CI job gates on.
        _code, report = full_scan
        assert report["parse_errors"] == []
        assert report["violations"] == [], "\n".join(
            "{path}:{line}:{col}: {code} {message}".format(**v)
            for v in report["violations"]
        )

    def test_full_scan_is_fast_enough_for_ci(self, full_scan):
        # The CI job budgets 10 s of wall time for the whole-project
        # analysis; leave headroom so slow runners do not flake.
        _code, report = full_scan
        assert report["elapsed_s"] < 10.0

    def test_cli_exits_zero_on_the_shipped_tree(self, full_scan):
        code, _report = full_scan
        assert code == 0

    def test_benchmarks_stay_at_or_below_the_recorded_baseline(self):
        # The benchmark tree is linted in report-only mode with a recorded
        # baseline (the ratchet): violations may be fixed, never added.
        recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
        report = lint_paths([str(ROOT / "benchmarks")])
        assert report.parse_errors == []
        assert len(report.violations) <= recorded["violation_count"]

    def test_benchmarks_baseline_is_ratcheted_to_zero(self):
        recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert recorded["violation_count"] == 0


class TestClassifyPath:
    def test_tests_tree(self):
        assert classify_path("tests/lint/test_cli.py") == "tests"

    def test_benchmarks_tree(self):
        assert classify_path("benchmarks/bench_engine.py") == "benchmarks"

    def test_ci_scripts_tree(self):
        assert classify_path(".github/scripts/serve_smoke.py") == "scripts"
        assert classify_path("/root/repo/.github/scripts/x.py") == "scripts"

    def test_everything_else_is_src(self):
        assert classify_path("src/repro/core/execution.py") == "src"
        assert classify_path("examples/demo.py") == "src"
