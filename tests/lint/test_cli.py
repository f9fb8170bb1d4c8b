"""The ``python -m repro.lint`` CLI: formats, exit codes, baseline ratchet."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.rules import rule_codes

DIRTY = """\
import time


def stamp():
    return time.time()
"""

CLEAN = """\
def double(value):
    return 2 * value
"""


def write(tmp_path: Path, name: str, source: str) -> str:
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return str(target)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main([path]) == 0
        assert "0 violation(s) in 1 file(s)" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert f"{path}:5:" in out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "broken.py", "def broken(:\n")
        assert main([path]) == 2
        assert "syntax error" in capsys.readouterr().out

    def test_non_utf8_source_is_a_parse_error_not_a_crash(self, tmp_path):
        write(tmp_path, "clean.py", CLEAN)
        # A PEP 263 cookie is honoured; latin-1 bytes without one are not UTF-8.
        declared = "# -*- coding: latin-1 -*-\n# caf\xe9\n" + DIRTY
        (tmp_path / "declared.py").write_bytes(declared.encode("latin-1"))
        (tmp_path / "undeclared.py").write_bytes("# caf\xe9\n".encode("latin-1"))
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 2
        assert {Path(v.path).name for v in report.violations} == {"declared.py"}
        assert len(report.parse_errors) == 1
        assert "undeclared.py: undecodable" in report.parse_errors[0]

    def test_report_only_always_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--report-only"]) == 0
        assert "RL001" in capsys.readouterr().out


class TestFormats:
    def test_json_document_shape(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["files_scanned"] == 1
        assert document["violation_count"] == len(document["violations"])
        assert set(document["counts_by_rule"]) <= set(rule_codes())
        first = document["violations"][0]
        assert {"path", "line", "col", "code", "message"} <= set(first)

    def test_github_annotations(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert f"::error file={path},line=5," in out
        assert "title=RL001" in out

    def test_statistics_appends_per_rule_counts(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        main([path, "--statistics"])
        assert "RL001: 1" in capsys.readouterr().out


class TestSelection:
    def test_select_restricts_rules(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--select", "RL004"]) == 0
        assert main([path, "--select", "RL001"]) == 1
        capsys.readouterr()

    def test_ignore_drops_rules(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        # DIRTY trips RL001 (ambient clock) and RL005 (no seed param).
        assert main([path, "--ignore", "RL001,RL005"]) == 0
        capsys.readouterr()

    def test_comma_separated_and_lowercase_codes(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--select", "rl001,rl005"]) == 1
        capsys.readouterr()

    def test_unknown_rule_code_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        with pytest.raises(SystemExit) as excinfo:
            main([path, "--select", "RL999"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestBaselineRatchet:
    def record(self, tmp_path, capsys, *paths: str) -> str:
        main([*paths, "--format", "json", "--report-only"])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out, encoding="utf-8")
        return str(baseline)

    def test_unchanged_count_passes(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        baseline = self.record(tmp_path, capsys, path)
        assert main([path, "--baseline", baseline]) == 0
        capsys.readouterr()

    def test_new_violation_breaks_the_ratchet(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        baseline = self.record(tmp_path, capsys, path)
        worse = write(tmp_path, "worse.py", DIRTY + DIRTY.replace("stamp", "again"))
        assert main([path, worse, "--baseline", baseline]) == 1
        assert "ratchet broken" in capsys.readouterr().err

    def test_fixing_violations_still_passes(self, tmp_path, capsys):
        dirty = write(tmp_path, "dirty.py", DIRTY)
        baseline = self.record(tmp_path, capsys, dirty)
        clean = write(tmp_path, "fixed.py", CLEAN)
        assert main([clean, "--baseline", baseline]) == 0
        capsys.readouterr()

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--baseline", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()


class TestExplain:
    def test_catalogue_lists_every_rule(self, capsys):
        assert main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out
