"""Tabular strategy adapters and the relay cast builders.

Pins the adapters' step semantics, the builders' validation, and the
relay goal's "one achieving cell per matching codec" shape, both run by
run and through a serial :func:`~repro.analysis.runner.sweep`.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.runner import sweep
from repro.comm.messages import SILENCE
from repro.core.execution import run_execution
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy
from repro.machines.tabular import (
    RELAY_LATENCY,
    StateFlagPredicate,
    TabularParty,
    TabularUser,
    coded_server,
    coded_server_class,
    cycle_world,
    relay_decoder_class,
    relay_goal,
    relay_user,
)

SYMBOLS = ("x", "y", "z")


def one_state_party(n_symbols):
    zero = tuple(
        tuple(tuple(0 for _ in range(n_symbols)) for _ in range(n_symbols))
        for _ in range(1)
    )
    return TabularParty(
        n_symbols=n_symbols, initial_state=0,
        next_state=zero, out_a=zero, out_b=zero,
    )


class TestAdapters:
    def test_alphabet_must_start_with_silence(self):
        with pytest.raises(ValueError, match="SILENCE"):
            TabularUser(one_state_party(3), ("x", "y", "z"), "bad")

    def test_alphabet_must_be_unique(self):
        with pytest.raises(ValueError, match="duplicate"):
            TabularUser(one_state_party(3), (SILENCE, "x", "x"), "bad")

    def test_table_width_must_match_alphabet(self):
        with pytest.raises(ValueError, match="width"):
            TabularUser(one_state_party(2), (SILENCE, "x", "y"), "bad")

    def test_party_tables_are_validated(self):
        good = one_state_party(2)
        with pytest.raises(ValueError, match="at least one state"):
            TabularParty(n_symbols=2, initial_state=0,
                         next_state=(), out_a=(), out_b=())
        with pytest.raises(ValueError, match="initial state"):
            TabularParty(n_symbols=2, initial_state=1, next_state=good.next_state,
                         out_a=good.out_a, out_b=good.out_b)
        with pytest.raises(ValueError, match="entry out of range"):
            TabularParty(n_symbols=2, initial_state=0,
                         next_state=(((0, 1), (0, 0)),),
                         out_a=good.out_a, out_b=good.out_b)
        with pytest.raises(ValueError, match="row width"):
            TabularParty(n_symbols=2, initial_state=0, next_state=good.next_state,
                         out_a=(((0,), (0,)),), out_b=good.out_b)

    def test_adapters_satisfy_the_protocol(self):
        assert isinstance(relay_user(SYMBOLS), UserStrategy)
        assert isinstance(coded_server_class(SYMBOLS)[0], ServerStrategy)
        assert isinstance(cycle_world(SYMBOLS)[0], WorldStrategy)

    def test_foreign_symbols_read_as_silence(self):
        user = relay_user(SYMBOLS)
        rng = random.Random(0)
        state = user.initial_state(rng)
        from repro.comm.messages import UserInbox

        _, outbox = user.step(state, UserInbox(from_server="???",
                                               from_world="x"), rng)
        assert outbox.to_world == SILENCE  # "???" decoded as silence
        assert outbox.to_server == "x"

    def test_parties_are_rng_free(self):
        user = relay_user(SYMBOLS)
        assert user.initial_state(random.Random(0)) == user.initial_state(
            random.Random(99)
        )


class TestBuilders:
    def test_relay_user_rejects_unknown_decode_keys(self):
        with pytest.raises(ValueError, match="outside"):
            relay_user(SYMBOLS, {"nope": "x"})

    def test_coded_server_requires_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            coded_server(SYMBOLS, {"x": "x", "y": "x", "z": "z"})

    def test_coded_server_class_is_cyclic(self):
        servers = coded_server_class(SYMBOLS)
        assert [s.name for s in servers] == [
            "coded-shift0", "coded-shift1", "coded-shift2"
        ]

    def test_decoder_class_matches_server_class(self):
        assert [u.name for u in relay_decoder_class(SYMBOLS)] == [
            "relay-shift0", "relay-shift1", "relay-shift2"
        ]

    def test_cycle_world_validation(self):
        with pytest.raises(ValueError):
            cycle_world(())
        with pytest.raises(ValueError):
            cycle_world(SYMBOLS, latency=0)

    def test_state_flag_predicate_round_trips(self):
        predicate = StateFlagPredicate((True, False, True))
        assert predicate(0) and not predicate(1)
        clone = pickle.loads(pickle.dumps(predicate))
        assert clone == predicate
        assert hash(clone) == hash(predicate)


class TestRelayGoalSemantics:
    """The relay cast's verdicts, run by run and swept."""

    def run_point(self, user_shift, server_shift, max_rounds=60):
        goal = relay_goal(SYMBOLS)
        user = relay_decoder_class(SYMBOLS)[user_shift]
        server = coded_server_class(SYMBOLS)[server_shift]
        execution = run_execution(
            user, server, goal.world, max_rounds=max_rounds, seed=0
        )
        return goal.evaluate(execution)

    def test_matched_decoder_achieves(self):
        for k in range(len(SYMBOLS)):
            assert self.run_point(k, k).achieved

    def test_mismatched_decoder_fails(self):
        assert not self.run_point(0, 1).achieved
        assert not self.run_point(2, 0).achieved

    def test_goal_is_forgiving_within_latency(self):
        """Warmup rounds (< RELAY_LATENCY deep) never count as bad."""
        outcome = self.run_point(0, 0, max_rounds=RELAY_LATENCY)
        assert outcome.achieved

    def test_goal_name_carries_alphabet_size(self):
        assert relay_goal(SYMBOLS).name == "relay-echo[3]"


    def test_only_matching_decoder_achieves(self):
        """Across the coded-server class, decoder 1 achieves only against
        server 1 — on every seed of a serial sweep."""
        result = sweep(
            relay_decoder_class(SYMBOLS)[1], coded_server_class(SYMBOLS),
            relay_goal(SYMBOLS), seeds=(0, 1), max_rounds=60,
        )
        assert [
            [m.achieved for m in cell.runs] for cell in result.cells
        ] == [[False, False], [True, True], [False, False]]
