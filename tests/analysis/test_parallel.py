"""Executor backends may move cells between processes, never change them.

The determinism contract of :mod:`repro.analysis.parallel`: same seeds in,
equal :class:`SweepResult` out — cell names, run metrics, and telemetry
totals — regardless of backend, worker count, or chunking.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import collect_metrics
from repro.analysis.parallel import ProcessExecutor, SerialExecutor, ensure_picklable
from repro.analysis.runner import CellTask, CellTelemetry, merge_telemetry, sweep, sweep_goals
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import FULL_RECORDING, run_execution
from repro.core.goals import CompactGoal
from repro.core.referees import LastStateCompactReferee
from repro.errors import ExecutionError
from repro.servers.advisors import AdvisorServer, advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.worlds.control import ControlWorld, control_goal, control_sensing

LAW = {"red": "blue", "blue": "red"}
GOAL = control_goal(LAW)
CODECS = codec_family(4)
SERVERS = advisor_server_class(LAW, CODECS)


def make_universal():
    """Module-level factory: sweep_goals pickles the instances it returns."""
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(codec_family(2))), control_sensing()
    )


def serial_reference(**kwargs):
    return sweep(
        AdvisorFollowingUser(IdentityCodec()), SERVERS, GOAL,
        seeds=(0, 1, 2), max_rounds=300, **kwargs,
    )


class TestBackendParity:
    def test_serial_executor_matches_default(self):
        assert serial_reference(executor=SerialExecutor()) == serial_reference()

    def test_process_pool_matches_serial(self):
        serial = serial_reference(telemetry=True)
        parallel = serial_reference(
            telemetry=True, executor=ProcessExecutor(max_workers=2)
        )
        assert parallel == serial

    def test_chunked_dispatch_matches_serial(self):
        serial = serial_reference()
        for chunk_size in (2, 3, 16):
            parallel = serial_reference(
                executor=ProcessExecutor(max_workers=2, chunk_size=chunk_size)
            )
            assert parallel == serial, f"chunk_size={chunk_size}"

    def test_metrics_recording_parity_across_backends(self):
        serial = serial_reference()
        parallel = serial_reference(executor=ProcessExecutor(max_workers=2))
        assert parallel == serial
        # Sweeps run metrics-only; they report what full-recording runs do.
        for cell, server in zip(serial.cells, SERVERS):
            assert cell.runs == tuple(
                collect_metrics(
                    run_execution(
                        AdvisorFollowingUser(IdentityCodec()), server, GOAL.world,
                        max_rounds=300, seed=seed, recording=FULL_RECORDING,
                    ),
                    GOAL,
                )
                for seed in (0, 1, 2)
            )

    def test_universal_user_parity_with_telemetry(self):
        """User-level tracer counters survive the process boundary."""
        def run(executor=None):
            return sweep(
                make_universal(), advisor_server_class(LAW, codec_family(2)),
                GOAL, seeds=(0,), max_rounds=600,
                telemetry=True, executor=executor,
            )

        serial = run()
        parallel = run(executor=ProcessExecutor(max_workers=2))
        assert parallel == serial
        assert serial.universal_success
        cell = serial.cells[1]  # the mismatched codec forces switching
        assert cell.telemetry.get("switches") >= 1

    def test_sweep_goals_parity(self):
        laws = [LAW, {"red": "red", "blue": "blue"}]
        pairs = [(control_goal(law), AdvisorServer(law)) for law in laws]
        serial = sweep_goals(make_universal, pairs, seeds=(0,), max_rounds=400)
        parallel = sweep_goals(
            make_universal, pairs, seeds=(0,), max_rounds=400,
            executor=ProcessExecutor(max_workers=2),
        )
        assert parallel == serial

    def test_telemetry_totals_merge_identically(self):
        serial = serial_reference(telemetry=True)
        parallel = serial_reference(
            telemetry=True, executor=ProcessExecutor(max_workers=2, chunk_size=2)
        )
        serial_totals = merge_telemetry([c.telemetry for c in serial.cells])
        parallel_totals = merge_telemetry([c.telemetry for c in parallel.cells])
        assert parallel_totals == serial_totals
        assert serial_totals.get("rounds") == sum(
            c.telemetry.get("rounds") for c in serial.cells
        )


class TestPicklability:
    def unpicklable_task(self):
        goal = CompactGoal(
            name="lambda-trap",
            world=ControlWorld(LAW),
            referee=LastStateCompactReferee(
                state_acceptable=lambda state: True, label="lambda"
            ),
        )
        return CellTask(
            index=0, user=AdvisorFollowingUser(IdentityCodec()),
            server=AdvisorServer(LAW), goal=goal,
            seeds=(0,), max_rounds=10, telemetry=False,
        )

    def test_ensure_picklable_accepts_library_goals(self):
        ensure_picklable(
            CellTask(
                index=0, user=make_universal(), server=AdvisorServer(LAW),
                goal=GOAL, seeds=(0, 1), max_rounds=10, telemetry=True,
            )
        )

    def test_ensure_picklable_names_the_cell(self):
        with pytest.raises(ExecutionError, match="cell 0.*not picklable"):
            ensure_picklable(self.unpicklable_task())

    def test_process_executor_rejects_before_spawning(self):
        with pytest.raises(ExecutionError, match="module-level"):
            ProcessExecutor(max_workers=2).map_cells([self.unpicklable_task()])


class TestExecutorEdgeCases:
    def test_empty_task_list(self):
        assert ProcessExecutor(max_workers=2).map_cells([]) == []
        assert SerialExecutor().map_cells([]) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor(chunk_size=0)


class TestCellTelemetryCache:
    def test_as_dict_built_once(self):
        telemetry = CellTelemetry(counters=(("rounds", 10), ("messages", 4)))
        first = telemetry.as_dict()
        assert first == {"rounds": 10, "messages": 4}
        assert telemetry.as_dict() is first  # cached, not rebuilt

    def test_get_reads_through_cache(self):
        telemetry = CellTelemetry(counters=(("rounds", 10),))
        assert telemetry.get("rounds") == 10
        assert telemetry.get("missing", 7) == 7

    def test_cache_is_invisible_to_equality(self):
        left = CellTelemetry(counters=(("rounds", 10),))
        right = CellTelemetry(counters=(("rounds", 10),))
        left.as_dict()  # populate one side's cache only
        assert left == right
