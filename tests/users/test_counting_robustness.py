"""Robustness and edge tests for counting users/provers."""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import IdentityCodec
from repro.core.execution import run_execution
from repro.faults.channel import (
    CORRUPT,
    SERVER_TO_USER,
    ChannelFault,
    FaultyChannel,
    drop_channel,
)
from repro.faults.schedules import BernoulliSchedule
from repro.mathx.modular import Field
from repro.qbf.formulas import Var
from repro.qbf.generators import random_cnf
from repro.servers.counting_provers import HonestCountingServer
from repro.users.counting_users import CountingUser
from repro.worlds.counting import counting_goal

F = Field()
GOAL = counting_goal([random_cnf(random.Random(1), 4, 5)])


class TestFaultTolerance:
    def test_survives_dropped_replies(self):
        user = CountingUser(IdentityCodec(), F, resend_every=4)
        result = run_execution(
            user, HonestCountingServer(F), GOAL.world, max_rounds=2000, seed=5,
            channel=drop_channel(0.3, direction=SERVER_TO_USER),
        )
        assert GOAL.evaluate(result).achieved

    def test_garbled_replies_never_cause_wrong_count(self):
        user = CountingUser(IdentityCodec(), F, resend_every=4)
        channel = FaultyChannel(
            [ChannelFault(CORRUPT, BernoulliSchedule(0.3), SERVER_TO_USER)]
        )
        for seed in range(3):
            result = run_execution(
                user, HonestCountingServer(F), GOAL.world, max_rounds=2000,
                seed=seed, channel=channel,
            )
            if result.halted:
                assert GOAL.evaluate(result).achieved


class TestValidation:
    def test_resend_period_validated(self):
        with pytest.raises(ValueError):
            CountingUser(IdentityCodec(), F, resend_every=0)

    def test_single_variable_instance(self):
        goal = counting_goal([Var("x")])
        user = CountingUser(IdentityCodec(), F)
        result = run_execution(
            user, HonestCountingServer(F), goal.world, max_rounds=100, seed=0
        )
        assert result.halted
        assert result.user_output == "COUNT:1"
        assert goal.evaluate(result).achieved


class TestServerEdgeCases:
    def test_variable_free_instance_refused(self):
        from repro.comm.messages import ServerInbox

        server = HonestCountingServer(F)
        rng = random.Random(0)
        state = server.initial_state(rng)
        _, out = server.step(state, ServerInbox(from_user="COUNT:1"), rng)
        assert out.to_user == "ERR:no-variables"

    def test_bad_instance_refused(self):
        from repro.comm.messages import ServerInbox

        server = HonestCountingServer(F)
        rng = random.Random(0)
        state = server.initial_state(rng)
        _, out = server.step(state, ServerInbox(from_user="COUNT:((("), rng)
        assert out.to_user == "ERR:bad-instance"

    def test_round_before_count_refused(self):
        from repro.comm.messages import ServerInbox

        server = HonestCountingServer(F)
        rng = random.Random(0)
        state = server.initial_state(rng)
        _, out = server.step(state, ServerInbox(from_user="SROUND:0"), rng)
        assert out.to_user == "ERR:no-session"

    def test_reserves_rounds_idempotently(self):
        from repro.comm.messages import ServerInbox
        from repro.qbf.formulas import serialize

        formula = random_cnf(random.Random(2), 3, 3)
        server = HonestCountingServer(F)
        rng = random.Random(0)
        state = server.initial_state(rng)
        state, _ = server.step(
            state, ServerInbox(from_user=f"COUNT:{serialize(formula)}"), rng
        )
        state, first = server.step(state, ServerInbox(from_user="SROUND:0"), rng)
        state, second = server.step(state, ServerInbox(from_user="SROUND:0"), rng)
        assert first.to_user == second.to_user
