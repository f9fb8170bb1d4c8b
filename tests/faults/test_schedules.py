"""Fault schedules: determinism, shapes, and the consultation contract."""

from __future__ import annotations

import pickle

import pytest

from repro.faults.schedules import (
    BernoulliSchedule,
    BurstSchedule,
    NeverSchedule,
    ScriptedSchedule,
)


def trace(schedule, seed: int, rounds: int = 64):
    run = schedule.start(seed)
    return [run.fires(r) for r in range(rounds)]


class TestNeverSchedule:
    def test_never_fires(self):
        assert trace(NeverSchedule(), seed=0) == [False] * 64

    def test_name(self):
        assert NeverSchedule().name == "never"


class TestBernoulliSchedule:
    def test_same_seed_same_trace(self):
        schedule = BernoulliSchedule(0.3)
        assert trace(schedule, seed=7) == trace(schedule, seed=7)

    def test_different_seeds_differ(self):
        schedule = BernoulliSchedule(0.5)
        assert trace(schedule, seed=1) != trace(schedule, seed=2)

    def test_salts_decorrelate(self):
        """Two salted schedules from one seed are independent streams."""
        a = trace(BernoulliSchedule(0.5, salt=0), seed=3)
        b = trace(BernoulliSchedule(0.5, salt=1), seed=3)
        assert a != b

    def test_rate_zero_never_fires(self):
        assert trace(BernoulliSchedule(0.0), seed=0) == [False] * 64

    def test_rate_one_always_fires(self):
        assert trace(BernoulliSchedule(1.0), seed=0) == [True] * 64

    def test_empirical_rate(self):
        fires = trace(BernoulliSchedule(0.2), seed=11, rounds=2000)
        assert 0.15 < sum(fires) / len(fires) < 0.25

    def test_out_of_order_consultation_rejected(self):
        """Skipping rounds would silently desync the trace — fail loudly."""
        run = BernoulliSchedule(0.5).start(0)
        run.fires(0)
        with pytest.raises(ValueError):
            run.fires(2)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            BernoulliSchedule(1.5)
        with pytest.raises(ValueError):
            BernoulliSchedule(-0.1)

    def test_start_does_not_mutate_schedule(self):
        """One schedule object can drive many independent runs."""
        schedule = BernoulliSchedule(0.4)
        first = trace(schedule, seed=5)
        _ = trace(schedule, seed=99)
        assert trace(schedule, seed=5) == first

    def test_trace_survives_pickling(self):
        """Cross-process determinism: a pickled schedule replays the trace."""
        schedule = BernoulliSchedule(0.3, salt=2)
        clone = pickle.loads(pickle.dumps(schedule))
        assert trace(clone, seed=13) == trace(schedule, seed=13)


class TestBurstSchedule:
    def test_fires_in_window_each_period(self):
        fires = trace(BurstSchedule(period=10, burst=3), seed=0, rounds=25)
        expected = [(r % 10) < 3 for r in range(25)]
        assert fires == expected

    def test_phase_shifts_the_window(self):
        fires = trace(BurstSchedule(period=10, burst=2, phase=4), seed=0, rounds=20)
        assert [r for r in range(20) if fires[r]] == [4, 5, 14, 15]

    def test_window_wraps_modulo_period(self):
        """phase + burst past the period wraps to the period's start."""
        fires = trace(BurstSchedule(period=8, burst=3, phase=7), seed=0, rounds=16)
        assert [r for r in range(16) if fires[r]] == [0, 1, 7, 8, 9, 15]

    @pytest.mark.parametrize("on", range(1, 6))
    @pytest.mark.parametrize("off", range(1, 6))
    def test_on_off_duty_cycle(self, on, off):
        """``period=on+off, burst=off, phase=on`` is down exactly in the
        dead phase of a server live for ``on`` rounds, then dead for
        ``off`` (the cycle ``FlakyServer`` uses for intermittent servers)."""
        fires = trace(BurstSchedule(period=on + off, burst=off, phase=on), seed=0, rounds=61)
        assert fires == [clock % (on + off) >= on for clock in range(61)]

    def test_seed_is_irrelevant(self):
        schedule = BurstSchedule(period=6, burst=2)
        assert trace(schedule, seed=1) == trace(schedule, seed=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstSchedule(period=0, burst=0)
        with pytest.raises(ValueError):
            BurstSchedule(period=5, burst=6)
        with pytest.raises(ValueError):
            BurstSchedule(period=5, burst=2, phase=5)

    def test_name(self):
        assert BurstSchedule(period=32, burst=4, phase=8).name == "burst(4/32@8)"


class TestScriptedSchedule:
    def test_fires_exactly_on_listed_rounds(self):
        fires = trace(ScriptedSchedule([2, 5, 6]), seed=0, rounds=10)
        assert [r for r in range(10) if fires[r]] == [2, 5, 6]

    def test_accepts_any_iterable(self):
        assert ScriptedSchedule(range(3)).rounds == frozenset({0, 1, 2})

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            ScriptedSchedule([3, -1])

    def test_name_truncates_long_scripts(self):
        assert ScriptedSchedule([1, 2]).name == "scripted(1,2)"
        assert ScriptedSchedule(range(9)).name == "scripted(0,1,2,3,...)"

    def test_equality_ignores_listing_order(self):
        assert ScriptedSchedule([3, 1]) == ScriptedSchedule([1, 3])
