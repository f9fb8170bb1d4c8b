"""The ``python -m repro.obs`` CLI: exit codes, formats, malformed inputs."""

from __future__ import annotations

import json

import pytest

from repro.obs import JsonlSink
from repro.obs.__main__ import main
from repro.obs.events import (
    ExecutionFinished,
    ExecutionStarted,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)

EVENTS = [
    ExecutionStarted(user="u", server="s", world="w", max_rounds=10, seed=0),
    TrialStarted(round_index=0, trial_number=0, candidate_index=0),
    RoundExecuted(round_index=0, messages=2, message_bytes=8, halted=False),
    SensingIndication(round_index=0, candidate_index=0, positive=False),
    TrialFinished(round_index=0, trial_number=0, candidate_index=0,
                  rounds_used=1, reason="evicted"),
    StrategySwitch(round_index=0, from_index=0, to_index=1, wrapped=False),
    TrialStarted(round_index=1, trial_number=1, candidate_index=1),
    RoundExecuted(round_index=1, messages=2, message_bytes=8, halted=False),
    RoundExecuted(round_index=2, messages=2, message_bytes=8, halted=False),
    ExecutionFinished(rounds_executed=3, halted=False),
]


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        for event in EVENTS:
            sink.emit(event)
    return path


def write_manifests(directory, old_rounds, new_rounds):
    """Two run manifests that differ only in ``rounds``; returns the paths."""
    from repro.obs.ledger import RunManifest, write_manifest

    paths = []
    for name, rounds in (("old", old_rounds), ("new", new_rounds)):
        manifest = RunManifest(
            kind="run", goal="g", user="u", server="s", channel=None,
            recording="full", seeds=(0,), max_rounds=200, rounds=rounds,
            achieved=1, halted=1, wall_time_s=0.1, cpu_time_s=0.1,
        )
        paths.append(str(write_manifest(manifest, directory / f"{name}.json")))
    return paths


class TestSummarize:
    def test_text_output(self, trace, capsys):
        assert main(["summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "u vs s" in out
        assert "rounds     : 3" in out
        assert "round-executed" in out

    def test_json_output(self, trace, capsys):
        assert main(["summarize", str(trace), "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["rounds"] == 3
        assert documents[0]["counts"]["round-executed"] == 3
        assert documents[0]["trace_schema"] == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_event_kind_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "unknown.jsonl"
        bad.write_text('{"trace_schema": 1}\n{"kind": "martian"}\n')
        assert main(["summarize", str(bad)]) == 2

    def test_future_schema_exits_2(self, tmp_path, capsys):
        future = tmp_path / "future.jsonl"
        future.write_text('{"trace_schema": 99}\n')
        assert main(["summarize", str(future)]) == 2
        assert "newer than the supported" in capsys.readouterr().err


class TestOverhead:
    def test_text_output(self, trace, capsys):
        assert main(["overhead", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "total rounds      : 3" in out
        assert "settled index     : 1" in out

    def test_json_output_matches_library(self, trace, capsys):
        from repro.obs.overhead import compute_overhead
        from repro.obs.sinks import read_jsonl

        assert main(["overhead", str(trace), "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        expected = compute_overhead(read_jsonl(trace)).to_dict()
        assert documents[0] == {"path": str(trace), **expected}


class TestTimeline:
    def test_renders_one_line_per_event(self, trace, capsys):
        assert main(["timeline", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(EVENTS)
        assert "execution-started" in lines[0]
        assert "0 -> 1" in lines[5]

    def test_limit_truncates(self, trace, capsys):
        assert main(["timeline", str(trace), "--limit", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "truncated" in lines[-1]


class TestDiff:
    def test_identical_traces_diff_clean(self, trace, capsys):
        code = main(["diff", str(trace), str(trace), "--fail-on", "rounds"])
        assert code == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        old, new = write_manifests(tmp_path, 10, 15)
        assert main(["diff", old, new, "--fail-on", "rounds"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_allows_small_increase(self, tmp_path):
        old, new = write_manifests(tmp_path, 100, 104)
        assert main([
            "diff", old, new, "--fail-on", "rounds", "--tolerance", "5",
        ]) == 0

    def test_unwatched_increase_is_reported_not_failed(self, tmp_path, capsys):
        old, new = write_manifests(tmp_path, 10, 15)
        assert main(["diff", old, new]) == 0
        assert "10 -> 15" in capsys.readouterr().out

    def test_unknown_fail_on_metric_exits_2(self, trace, capsys):
        assert main([
            "diff", str(trace), str(trace), "--fail-on", "nope"
        ]) == 2
        assert "absent from both inputs" in capsys.readouterr().err

    def test_manifest_diff(self, tmp_path, capsys):
        from repro.obs.ledger import RunManifest, write_manifest

        manifest = RunManifest(
            kind="run", goal="g", user="u", server="s", channel=None,
            recording="full", seeds=(0,), max_rounds=10, rounds=5,
            achieved=1, halted=1, wall_time_s=0.1, cpu_time_s=0.1,
        )
        a = write_manifest(manifest, tmp_path / "a.json")
        b = write_manifest(manifest, tmp_path / "b.json")
        assert main(["diff", str(a), str(b), "--fail-on", "rounds"]) == 0

    def test_wrong_arity_exits_2(self, trace):
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(trace)])
        assert excinfo.value.code == 2

    def test_unclassifiable_input_exits_2(self, tmp_path, capsys):
        odd = tmp_path / "data.txt"
        odd.write_text("hello")
        assert main(["diff", str(odd), str(odd)]) == 2
        assert "cannot classify" in capsys.readouterr().err
