"""Interleaved-slice parity: sharing a process never changes results.

The session service (:mod:`repro.serve`) multiplexes many executions in
one thread: each session is an :class:`ExecutionStepper`, the scheduler
hands them :meth:`~ExecutionStepper.step_many` slices round-robin, and the
casts share user/server/world objects.  Every stepper driven that way must
produce an :class:`ExecutionResult` equal, field by field, to
:func:`run_execution` on the same cast and seed — including RNG consumers,
halting users, fault channels, both recording policies, and tracer
streams.  :func:`interleave` is that scheduler pattern in miniature.
"""

from __future__ import annotations

import pytest

from repro.comm.messages import UserOutbox
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    ExecutionStepper,
    derive_party_seeds,
    run_execution,
)
from repro.errors import ExecutionError
from repro.faults.channel import drop_channel
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.users.scripted import ScriptedUser

from tests.core.helpers import (
    CountingWorld,
    EchoServer,
    IncrementingUser,
    RandomCoinUser,
)
from repro.core.strategy import SilentServer, SilentUser

#: Slice sizes the round-robin scheduler hands out: single rounds, slices
#: that straddle other slots' settles, and one slice bigger than any run.
SLICES = (1, 3, 50)


def interleave(steppers, rounds):
    """Round-robin ``step_many(rounds)`` over the live steppers until all
    settle; results in stepper order."""
    live = list(steppers)
    while live:
        for stepper in live:
            stepper.step_many(rounds)
        live = [s for s in live if s.live]
    return [s.finish() for s in steppers]


def assert_executions_equal(got, expected):
    """Field-wise ExecutionResult equality, view type included."""
    assert got.rounds == expected.rounds
    assert got.world_states == expected.world_states
    assert (got.transcript is None) == (expected.transcript is None)
    assert list(got.transcript or ()) == list(expected.transcript or ())
    assert got.halted == expected.halted
    assert got.user_output == expected.user_output
    assert got.final_user_state == expected.final_user_state
    assert got.rounds_completed == expected.rounds_completed
    assert got.recording == expected.recording
    assert got.channel_name == expected.channel_name
    assert list(got.user_view) == list(expected.user_view)
    assert type(got.user_view) is type(expected.user_view)


def assert_interleaved_parity(user, server, world, slots, **kwargs):
    """Steppers over one shared cast, one per ``(seed, max_rounds)`` slot,
    interleaved at every slice size, each equal to its serial run."""
    expected = [
        run_execution(user, server, world, seed=seed, max_rounds=rounds, **kwargs)
        for seed, rounds in slots
    ]
    for size in SLICES:
        got = interleave(
            [
                ExecutionStepper(
                    user, server, world, seed=seed, max_rounds=rounds, **kwargs
                )
                for seed, rounds in slots
            ],
            size,
        )
        for result, reference in zip(got, expected):
            assert_executions_equal(result, reference)


class TestScalarLockstepParity:
    def test_silent_cast(self):
        assert_interleaved_parity(
            SilentUser(), SilentServer(), CountingWorld(), [(0, 7), (1, 7)]
        )

    def test_rng_consuming_user(self):
        """Per-slot RNG streams match the serial per-party derivation."""
        assert_interleaved_parity(
            RandomCoinUser(), EchoServer(), CountingWorld(),
            [(0, 9), (1, 9), (17, 9)],
        )

    def test_halting_user_stops_its_slot_only(self):
        for size in SLICES:
            steppers = [
                ExecutionStepper(IncrementingUser(limit=3), SilentServer(),
                                 CountingWorld(), seed=0, max_rounds=100),
                ExecutionStepper(SilentUser(), SilentServer(), CountingWorld(),
                                 seed=0, max_rounds=10),
            ]
            halted, full = interleave(steppers, size)
            assert halted.halted and halted.rounds_executed == 4
            assert halted.user_output == "sent:3"
            assert not full.halted and full.rounds_executed == 10

    def test_fault_channel_parity(self):
        """One channel object shared by every slot; each run's fault trace
        still derives from its own seed."""
        assert_interleaved_parity(
            ScriptedUser([UserOutbox(to_server="ping")] * 6),
            EchoServer(), CountingWorld(),
            [(3, 6), (4, 6), (5, 4)],
            channel=drop_channel(0.2),
        )

    def test_recording_policy_parity(self):
        for recording in (FULL_RECORDING, METRICS_RECORDING):
            assert_interleaved_parity(
                RandomCoinUser(), EchoServer(), CountingWorld(),
                [(5, 12), (6, 5)], recording=recording,
            )

    def test_mixed_batch_matches_pairwise_serial(self):
        """Slots with different seeds and horizons interleave freely.

        All slots share one user, server and world object: interleaving
        steps one slot between two slices of another, which must not leak
        through a shared strategy.
        """
        assert_interleaved_parity(
            RandomCoinUser(), EchoServer(), CountingWorld(),
            [(0, 3), (1, 11), (2, 7), (3, 1)],
        )

    def test_tracer_counters_match_serial(self):
        """Each slot's tracer sees its own run's event stream, in order,
        with the serial run's counter totals."""
        user = ScriptedUser([UserOutbox(to_server="ping")] * 4)
        server, world = EchoServer(), CountingWorld()
        seeds = (0, 1)
        expected = []
        for seed in seeds:
            tracer = Tracer(sink=MemorySink())
            run_execution(user, server, world, max_rounds=4, seed=seed,
                          tracer=tracer)
            expected.append(tracer)
        for size in SLICES:
            tracers = [Tracer(sink=MemorySink()) for _ in seeds]
            interleave(
                [
                    ExecutionStepper(user, server, world, max_rounds=4,
                                     seed=seed, tracer=tracer)
                    for seed, tracer in zip(seeds, tracers)
                ],
                size,
            )
            for got, reference in zip(tracers, expected):
                assert got.sink.events == reference.sink.events
                assert got.counters.snapshot() == reference.counters.snapshot()

    def test_empty_batch(self):
        assert interleave([], 4) == []
        stepper = ExecutionStepper(SilentUser(), SilentServer(),
                                   CountingWorld(), max_rounds=3, seed=0)
        assert stepper.step_many(0) == 0
        assert stepper.live and stepper.rounds_completed == 0

    def test_item_validation(self):
        with pytest.raises(ExecutionError):
            ExecutionStepper(SilentUser(), SilentServer(), CountingWorld(),
                             max_rounds=0)
        stepper = ExecutionStepper(SilentUser(), SilentServer(),
                                   CountingWorld(), max_rounds=2)
        with pytest.raises(ExecutionError):
            stepper.step_many(-1)
        assert stepper.step_many(5) == 2
        assert stepper.step_many(5) == 0  # settled: a no-op, not an error
        with pytest.raises(ExecutionError):
            stepper.step()

    def test_seed_derivation_matches_engine_observables(self):
        """Same master seed → same user coin stream as the serial engine."""
        u, s, w, _chan = derive_party_seeds(42)
        assert (u, s, w) != (0, 0, 0)
        [a] = interleave(
            [ExecutionStepper(RandomCoinUser(), EchoServer(), CountingWorld(),
                              max_rounds=5, seed=42, record_transcript=True)],
            2,
        )
        b = run_execution(RandomCoinUser(), EchoServer(), CountingWorld(),
                          max_rounds=5, seed=42, record_transcript=True)
        assert len(a.transcript) > 0
        assert list(a.transcript) == list(b.transcript)
        assert_executions_equal(a, b)
