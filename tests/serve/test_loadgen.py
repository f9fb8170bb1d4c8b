"""Load generator: grid conversion, pacing, admission policy, the CLI.

The generator is measurement plumbing, so the tests pin its arithmetic
(percentiles, report totals), its determinism (grid order matches the
sweep's crossing; demo fleets are seed-stable), and both admission modes
against a deliberately tiny engine.  The CLI tests drive ``main()``
in-process and check the ``BENCH_serve.json`` contract the bench gate
consumes.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.analysis.runner import sweep
from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.errors import ServeError
from repro.faults.channel import drop_channel
from repro.serve.engine import ServeEngine
from repro.serve.loadgen import (
    LoadReport,
    demo_specs,
    generate_load,
    grid_specs,
    percentile,
    run_load,
)
from repro.serve.__main__ import main as serve_main
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

import random


def control_cast():
    codecs = codec_family(3)
    law = random_law(random.Random(5))
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs), label="followers"),
        control_sensing(),
    )
    return user, advisor_server_class(law, codecs), control_goal(law)


class TestGridSpecs:
    def test_crossing_matches_sweep_cell_order(self):
        user, servers, goal = control_cast()
        channels = (None, drop_channel(0.1))
        specs = grid_specs(
            user, servers, goal, seeds=(0, 1), max_rounds=120,
            channels=channels,
        )
        assert len(specs) == len(servers) * len(channels) * 2
        result = sweep(
            user, servers, goal, seeds=(0, 1), max_rounds=120,
            faults=channels,
        )
        # server-major, then channel: spec block i belongs to cell i.
        for cell_index, cell in enumerate(result.cells):
            block = specs[cell_index * 2 : cell_index * 2 + 2]
            assert all(s.server.name == cell.server_name for s in block)
            for spec, run_metrics in zip(block, cell.runs):
                execution = run_execution(
                    spec.user, spec.server, spec.goal.world,
                    max_rounds=spec.max_rounds, seed=spec.seed,
                    channel=spec.channel,
                )
                outcome = spec.goal.evaluate(execution)
                assert outcome.achieved == run_metrics.achieved, spec.label

    def test_labels_identify_the_cell(self):
        user, servers, goal = control_cast()
        specs = grid_specs(user, servers, goal, seeds=(7,), max_rounds=10)
        assert specs[0].label == f"{servers[0].name}|-|7"


class TestPercentile:
    def test_nearest_rank(self):
        sample = [10.0, 20.0, 30.0, 40.0]
        assert percentile(sample, 50.0) == 20.0
        assert percentile(sample, 75.0) == 30.0
        assert percentile(sample, 100.0) == 40.0
        assert percentile(sample, 0.0) == 10.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_range_checked(self):
        with pytest.raises(ServeError):
            percentile([1.0], 101.0)


class TestGenerateLoad:
    def test_burst_park_settles_everything(self):
        specs = demo_specs("mixed", 12, seed=3, max_rounds=60, drop=0.1)

        async def go():
            async with ServeEngine(max_open=5, workers=2, slice_rounds=8) as eng:
                return await generate_load(eng, specs)

        report = go_result = asyncio.run(go())
        assert report.sessions == report.settled == 12
        assert report.failed == report.rejected == 0
        assert report.open_high_water <= 5
        assert report.rounds > 0
        assert report.sessions_per_s > 0
        assert go_result.latency_p99_ms >= go_result.latency_p50_ms

    def test_burst_reject_sheds_the_overflow(self):
        """Burst arrivals with reject admission never yield to the
        workers, so exactly max_open sessions get in."""
        specs = demo_specs("relay", 10, seed=1, max_rounds=30)

        async def go():
            async with ServeEngine(max_open=4, workers=1) as engine:
                return await generate_load(engine, specs, admission="reject")

        report = asyncio.run(go())
        assert report.rejected == 6
        assert report.settled == 4
        assert report.sessions == 10

    def test_parked_time_counts_toward_latency(self):
        """A burst into a one-slot engine parks every arrival behind the
        sessions before it, so the last settle is ~the whole run after
        its due time."""
        specs = demo_specs("relay", 20, seed=1, max_rounds=30)

        async def go():
            async with ServeEngine(max_open=1, workers=1) as engine:
                return await generate_load(engine, specs, admission="park")

        report = asyncio.run(go())
        assert report.settled == 20
        assert report.latency_p99_ms >= 0.5 * report.wall_s * 1000.0

    def test_rate_paces_arrivals(self):
        specs = demo_specs("relay", 5, seed=1, max_rounds=10)

        async def go():
            async with ServeEngine(max_open=8, workers=1) as engine:
                return await generate_load(engine, specs, rate=100.0)

        report = asyncio.run(go())
        # 5 arrivals at 100/s: the last is due at t=40ms.
        assert report.wall_s >= 0.04

    def test_unknown_admission_mode(self):
        async def go():
            async with ServeEngine() as engine:
                await generate_load(engine, [], admission="drop-table")

        with pytest.raises(ServeError, match="admission"):
            asyncio.run(go())


class TestRunLoadAndReport:
    def test_run_load_round_trip(self, tmp_path):
        report = run_load(
            demo_specs("control", 8, seed=2, max_rounds=60),
            workers=2, max_open=6, slice_rounds=8,
            ledger_dir=str(tmp_path), trace=True, certify=True,
        )
        assert isinstance(report, LoadReport)
        assert report.settled == 8
        assert len(list(tmp_path.glob("*.jsonl"))) == 8
        payload = report.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["sessions_per_s"] == round(report.sessions_per_s, 3)

    def test_payload_handles_empty_latencies(self):
        report = LoadReport(
            sessions=0, settled=0, achieved=0, failed=0, rejected=0,
            rounds=0, wall_s=0.0, sessions_per_s=0.0, rounds_per_s=0.0,
            open_high_water=0, latency_p50_ms=math.nan,
            latency_p95_ms=math.nan, latency_p99_ms=math.nan,
        )
        payload = report.to_payload()
        assert payload["latency_p50_ms"] is None


class TestDemoSpecs:
    def test_families_and_determinism(self):
        for family in ("relay", "control", "universal", "mixed"):
            first = demo_specs(family, 6, seed=9, max_rounds=20)
            again = demo_specs(family, 6, seed=9, max_rounds=20)
            assert [s.label for s in first] == [s.label for s in again]
            assert [s.seed for s in first] == [s.seed for s in again]
            assert len(first) == 6

    def test_mixed_interleaves_families(self):
        labels = [s.label.split("|")[0] for s in demo_specs("mixed", 6, seed=0)]
        assert labels == ["relay", "control", "universal"] * 2

    def test_drop_attaches_a_channel(self):
        specs = demo_specs("relay", 2, seed=0, drop=0.25)
        assert all(s.channel is not None for s in specs)
        assert all(s.channel.name.startswith("drop") for s in specs)
        clean = demo_specs("relay", 2, seed=0)
        assert all(s.channel is None for s in clean)

    def test_unknown_family_rejected(self):
        with pytest.raises(ServeError, match="family"):
            demo_specs("quantum", 1)
        with pytest.raises(ServeError, match="non-negative"):
            demo_specs("relay", -1)


class TestCli:
    def test_writes_bench_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = serve_main(
            [
                "--sessions", "30", "--family", "mixed", "--horizon", "40",
                "--drop", "0.1", "--max-open", "50", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sessions"] == 30
        assert payload["settled"] == 30
        assert payload["sessions_per_s"] > 0
        assert "sessions/s" in capsys.readouterr().out

    def test_json_format_and_merge(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        out.write_text(json.dumps({"custom_note": "kept"}))
        code = serve_main(
            [
                "--sessions", "6", "--family", "relay", "--horizon", "20",
                "--out", str(out), "--format", "json",
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["sessions"] == 6
        merged = json.loads(out.read_text())
        assert merged["custom_note"] == "kept"  # baselines compose

    def test_ledger_flags_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            serve_main(["--sessions", "1", "--trace"])

    def test_cli_ledger_certifies(self, tmp_path):
        ledger = tmp_path / "runs"
        code = serve_main(
            [
                "--sessions", "4", "--family", "control", "--horizon", "30",
                "--ledger", str(ledger), "--trace", "--certify",
            ]
        )
        assert code == 0
        assert len(list(ledger.glob("*.jsonl"))) == 4
        assert (ledger / "engine.json").exists()
