"""Tests for the delegation (verifier) users."""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import IdentityCodec, ReverseCodec, codec_family
from repro.core.execution import run_execution
from repro.faults.channel import SERVER_TO_USER, drop_channel
from repro.mathx.modular import Field
from repro.qbf.generators import random_qbf
from repro.servers.provers import (
    CheatingProverServer,
    HonestProverServer,
    LazyProverServer,
)
from repro.servers.wrappers import EncodedServer
from repro.users.delegation_users import DelegationUser, delegation_user_class
from repro.worlds.computation import delegation_goal

F = Field()
INSTANCES = [random_qbf(random.Random(s), 2) for s in (1, 4)]
GOAL = delegation_goal(INSTANCES)


def run_pair(user, server, max_rounds=300, seed=0, channel=None):
    result = run_execution(
        user, server, GOAL.world, max_rounds=max_rounds, seed=seed, channel=channel
    )
    return GOAL.evaluate(result), result


class TestHonestInteraction:
    def test_matched_codec_answers_correctly(self):
        user = DelegationUser(IdentityCodec(), F)
        outcome, result = run_pair(user, HonestProverServer(F))
        assert outcome.achieved
        assert result.user_output.startswith("ANSWER:")

    def test_through_codec(self):
        user = DelegationUser(ReverseCodec(), F)
        server = EncodedServer(HonestProverServer(F), ReverseCodec())
        outcome, _ = run_pair(user, server)
        assert outcome.achieved

    def test_state_exposes_proof_accepted(self):
        user = DelegationUser(IdentityCodec(), F)
        _, result = run_pair(user, HonestProverServer(F))
        assert result.rounds[-1].user_state_after.proof_accepted

    def test_survives_reply_drops(self):
        """Request re-sending recovers from lost prover replies."""
        user = DelegationUser(IdentityCodec(), F, resend_every=4)
        outcome, _ = run_pair(
            user, HonestProverServer(F), max_rounds=2000, seed=7,
            channel=drop_channel(0.3, direction=SERVER_TO_USER),
        )
        assert outcome.achieved


class TestMismatch:
    def test_wrong_codec_never_halts(self):
        user = DelegationUser(ReverseCodec(), F)
        outcome, result = run_pair(user, HonestProverServer(F))
        assert not result.halted
        assert not result.rounds[-1].user_state_after.proof_accepted


class TestMaliceResistance:
    @pytest.mark.parametrize("style", ["flip", "constant", "random"])
    def test_never_answers_wrong_against_cheaters(self, style):
        user = DelegationUser(IdentityCodec(), F)
        outcome, result = run_pair(user, CheatingProverServer(F, style))
        # Either it never halts, or (vanishing probability) it halts right;
        # it must never halt with a wrong answer.
        if result.halted:
            assert outcome.achieved
        assert not result.rounds[-1].user_state_after.proof_accepted

    def test_lazy_claim_never_trusted(self):
        user = DelegationUser(IdentityCodec(), F)
        _, result = run_pair(user, LazyProverServer(1))
        assert not result.halted


class TestValidation:
    def test_resend_period_validated(self):
        with pytest.raises(ValueError):
            DelegationUser(IdentityCodec(), F, resend_every=0)

    def test_class_builder(self):
        codecs = codec_family(4)
        users = delegation_user_class(codecs, F)
        assert len(users) == 4
        assert users[2].name == f"delegate@{codecs[2].name}"
