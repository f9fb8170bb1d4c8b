"""Run ledger: manifest round-trips, provenance capture, sweep ledgers."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.runner import sweep
from repro.comm.codecs import codec_family
from repro.core.execution import METRICS_RECORDING
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerSchemaError,
    RunManifest,
    SweepManifest,
    git_sha,
    read_manifest,
    record_run,
    write_manifest,
)
from repro.obs.sinks import read_trace
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

import random

LAW = random_law(random.Random(7))
GOAL = control_goal(LAW)
CODECS = codec_family(4)
SERVERS = advisor_server_class(LAW, CODECS)


def make_user():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


def sample_manifest(**overrides):
    payload = dict(
        kind="run",
        goal="g",
        user="u",
        server="s",
        channel=None,
        recording="full",
        seeds=(0, 1),
        max_rounds=100,
        rounds=42,
        achieved=1,
        halted=0,
        wall_time_s=0.5,
        cpu_time_s=0.4,
    )
    payload.update(overrides)
    return RunManifest(**payload)


class TestRunManifest:
    def test_json_round_trip_is_identity(self, tmp_path):
        manifest = sample_manifest(trace_path="run.jsonl", git_sha="abc")
        path = write_manifest(manifest, tmp_path / "run.json")
        assert read_manifest(path) == manifest

    def test_serialisation_is_deterministic_and_schema_first(self):
        manifest = sample_manifest()
        data = json.loads(manifest.to_json())
        assert next(iter(data)) == "ledger_schema"
        assert data["ledger_schema"] == LEDGER_SCHEMA
        assert manifest.to_json() == sample_manifest().to_json()

    def test_run_id_depends_on_identity_not_timing(self):
        a = sample_manifest(wall_time_s=0.1, cpu_time_s=0.1)
        b = sample_manifest(wall_time_s=9.9, cpu_time_s=8.8)
        assert a.run_id() == b.run_id()
        assert len(a.run_id()) == 12

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seeds", (5,)),
            ("goal", "other-goal"),
            ("server", "other-server"),
            ("channel", "drop(0.1)"),
            ("recording", "metrics"),
            ("max_rounds", 999),
        ],
    )
    def test_run_id_separates_identity_fields(self, field, value):
        assert sample_manifest().run_id() != sample_manifest(
            **{field: value}
        ).run_id()

    def test_newer_schema_major_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["ledger_schema"] = LEDGER_SCHEMA + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LedgerSchemaError, match="newer than the supported"):
            read_manifest(path)

    def test_malformed_schema_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["ledger_schema"] = "one"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LedgerSchemaError, match="malformed"):
            read_manifest(path)

    def test_unknown_kind_is_rejected(self, tmp_path):
        data = json.loads(sample_manifest().to_json())
        data["kind"] = "mystery"
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown manifest kind"):
            read_manifest(path)


class TestSweepManifestDocument:
    def test_json_round_trip_is_identity(self, tmp_path):
        manifest = SweepManifest(
            goal="g", user="u", cells=("a.json", "b.json"), seeds=(0,),
            max_rounds=50, wall_time_s=1.0, git_sha=None,
        )
        path = write_manifest(manifest, tmp_path / "sweep.json")
        assert read_manifest(path) == manifest

    def test_ledger_from_removed_batch_backend_still_loads(self, tmp_path):
        """A ``sweep.json`` written before the lockstep backends were
        removed (backend ``batch``, a ``batch_width`` stamp) reads back:
        unknown keys are ignored, the backend stays as provenance."""
        path = tmp_path / "sweep.json"
        path.write_text(
            """{
  "ledger_schema": 1,
  "goal": "relay-echo[4]",
  "user": "relay-shift0",
  "cells": [
    "cell-000-176800d62c7c.json",
    "cell-001-a758bf708fa1.json",
    "cell-002-549254712c8e.json",
    "cell-003-5bc47c6e3754.json"
  ],
  "seeds": [
    0,
    1
  ],
  "max_rounds": 80,
  "wall_time_s": 0.015458,
  "cells_sha256": "ee7a6a4be350bbf2d448ba73ff9063b0184a60593eb5654c2c24ac242da9af58",
  "repro_version": "1.0.0",
  "git_sha": "c7ff0cf1eb65935bac2fb5acd0f581400f99b7b2",
  "kind": "sweep",
  "backend": "batch",
  "batch_width": 8
}
"""
        )
        manifest = read_manifest(path)
        assert isinstance(manifest, SweepManifest)
        assert manifest.backend == "batch"
        assert manifest.goal == "relay-echo[4]"
        assert len(manifest.cells) == 4
        assert manifest.seeds == (0, 1)
        assert manifest.max_rounds == 80
        assert not hasattr(manifest, "batch_width")


class TestGitSha:
    def test_returns_hex_or_none(self):
        sha = git_sha()
        assert sha is None or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )


class TestRecordRun:
    def test_writes_trace_and_matching_manifest(self, tmp_path):
        recorded = record_run(
            make_user(), SERVERS[1], GOAL,
            max_rounds=600, seed=3, out_dir=tmp_path, name="demo",
        )
        assert recorded.trace_path == tmp_path / "demo.jsonl"
        assert recorded.manifest_path == tmp_path / "demo.json"

        manifest = read_manifest(recorded.manifest_path)
        assert manifest == recorded.manifest
        assert manifest.kind == "run"
        assert manifest.seeds == (3,)
        assert manifest.max_rounds == 600
        assert manifest.rounds == recorded.execution.rounds_executed
        assert manifest.achieved == 1
        assert manifest.trace_path == "demo.jsonl"
        assert manifest.wall_time_s >= 0
        assert manifest.cpu_time_s >= 0

        header, events = read_trace(recorded.trace_path)
        assert header["trace_schema"] >= 1
        # Both the engine's and the universal user's events are present.
        kinds = {event.kind for event in events}
        assert "round-executed" in kinds
        assert "sensing-indication" in kinds

    def test_restores_user_tracer(self, tmp_path):
        user = make_user()
        assert user.tracer is None
        record_run(
            user, SERVERS[0], GOAL, max_rounds=600, out_dir=tmp_path
        )
        assert user.tracer is None

    def test_respects_recording_policy(self, tmp_path):
        recorded = record_run(
            make_user(), SERVERS[0], GOAL,
            max_rounds=600, out_dir=tmp_path, recording=METRICS_RECORDING,
        )
        assert recorded.manifest.recording == METRICS_RECORDING.label


class TestSweepLedger:
    def test_sweep_writes_cell_manifests_and_index(self, tmp_path):
        ledger = tmp_path / "ledger"
        result = sweep(
            make_user(), SERVERS, GOAL,
            seeds=(0, 1), max_rounds=600, ledger_dir=ledger,
        )
        index = read_manifest(ledger / "sweep.json")
        assert isinstance(index, SweepManifest)
        assert index.seeds == (0, 1)
        assert len(index.cells) == len(SERVERS)

        seen_ids = set()
        for cell_file, cell_result in zip(index.cells, result.cells):
            manifest = read_manifest(ledger / cell_file)
            assert manifest.kind == "cell"
            assert manifest.server == cell_result.server_name
            assert manifest.seeds == (0, 1)
            assert manifest.rounds == sum(
                run.rounds for run in cell_result.runs
            )
            assert manifest.achieved == sum(
                run.achieved for run in cell_result.runs
            )
            # The manifest uniquely identifies its configuration.
            seen_ids.add(manifest.run_id())
            # And round-trips exactly through JSON.
            assert read_manifest(ledger / cell_file) == manifest
        assert len(seen_ids) == len(SERVERS)

    def test_cell_timing_fields_do_not_break_parity(self):
        """compare=False timing keeps the parallel == serial contract."""
        serial = sweep(make_user(), SERVERS[:2], GOAL, seeds=(0,), max_rounds=600)
        again = sweep(make_user(), SERVERS[:2], GOAL, seeds=(0,), max_rounds=600)
        assert serial.cells == again.cells
        assert all(cell.wall_time_s >= 0 for cell in serial.cells)

    def test_no_ledger_dir_writes_nothing(self, tmp_path):
        sweep(make_user(), SERVERS[:1], GOAL, seeds=(0,), max_rounds=600)
        assert list(tmp_path.iterdir()) == []

    def test_mean_rounds_nan_guard(self):
        # Manifest totals stay integers even when nothing achieves.
        assert not math.isnan(float(sample_manifest(achieved=0).achieved))


class TestLazyAnalysisImports:
    def test_engine_import_does_not_load_analysis_modules(self):
        """The tracing-off path never pays for ledger/overhead/analyze.

        Module state is process-global, so this has to run in a fresh
        interpreter: import the engine, then assert the analysis-side obs
        modules stayed unloaded (they are PEP 562 lazy re-exports).
        """
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.core.execution\n"
            "banned = ['repro.obs.ledger', 'repro.obs.overhead',"
            " 'repro.obs.analyze']\n"
            "loaded = [m for m in banned if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
