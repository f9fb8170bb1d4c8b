"""Tests for the experiment sweep runner."""

from __future__ import annotations

from repro.analysis.metrics import collect_metrics
from repro.analysis.runner import sweep, sweep_goals
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import FULL_RECORDING, run_execution
from repro.faults.channel import drop_channel
from repro.servers.advisors import AdvisorServer, advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.worlds.control import control_goal, control_sensing

LAW = {"red": "blue", "blue": "red"}
GOAL = control_goal(LAW)
CODECS = codec_family(2)


def universal():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


class TestSweep:
    def test_universal_success_over_class(self):
        servers = advisor_server_class(LAW, CODECS)
        result = sweep(universal(), servers, GOAL, seeds=(0, 1), max_rounds=600)
        assert result.universal_success
        assert len(result.cells) == 2
        assert not result.failures()

    def test_rigid_user_fails_somewhere(self):
        servers = advisor_server_class(LAW, CODECS)
        result = sweep(
            AdvisorFollowingUser(IdentityCodec()), servers, GOAL,
            seeds=(0,), max_rounds=400,
        )
        assert not result.universal_success
        assert len(result.failures()) == 1  # Fails only the mismatched codec.

    def test_cell_statistics(self):
        result = sweep(
            AdvisorFollowingUser(IdentityCodec()), [AdvisorServer(LAW)], GOAL,
            seeds=(0, 1, 2), max_rounds=300,
        )
        cell = result.cells[0]
        assert cell.success_rate == 1.0
        assert cell.mean_rounds() == 300.0

    def test_mean_rounds_nan_when_never_achieved(self):
        import math

        from repro.core.strategy import SilentServer

        result = sweep(
            AdvisorFollowingUser(IdentityCodec()), [SilentServer()], GOAL,
            seeds=(0,), max_rounds=100,
        )
        assert math.isnan(result.cells[0].mean_rounds())


class TestSweepGoals:
    def test_quantifies_over_worlds(self):
        laws = [{"red": "blue", "blue": "red"}, {"red": "red", "blue": "blue"}]
        pairs = [(control_goal(law), AdvisorServer(law)) for law in laws]
        cells = sweep_goals(universal, pairs, seeds=(0,), max_rounds=600)
        assert len(cells) == 2
        assert all(cell.all_achieved for cell in cells)


class TestSweepKeepsOnlyMetrics:
    def test_cells_equal_full_recording_runs(self):
        """Sweeps run metrics-only; each cell reports what full-recording
        runs of its seeds report, faulted cells included."""
        servers = advisor_server_class(LAW, CODECS)
        faults = [None, drop_channel(0.1, salt=2)]
        seeds = (0, 1)
        result = sweep(
            universal(), servers, GOAL, seeds=seeds, max_rounds=600, faults=faults
        )
        grid = [(server, channel) for server in servers for channel in faults]
        assert len(result.cells) == len(grid)
        for cell, (server, channel) in zip(result.cells, grid):
            assert cell.runs == tuple(
                collect_metrics(
                    run_execution(
                        universal(), server, GOAL.world, max_rounds=600,
                        seed=seed, recording=FULL_RECORDING, channel=channel,
                    ),
                    GOAL,
                )
                for seed in seeds
            )
        assert result.universal_success
