"""Integration: robustness under injected faults.

Beyond the paper's noiseless model: the universal users should degrade
gracefully when servers drop, garble, or intermittently vanish — safety
stays absolute (no wrong halts, no false settling), success costs more
rounds but still arrives for forgiving goals.
"""

from __future__ import annotations

import random

from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.faults.channel import (
    CORRUPT,
    SERVER_TO_USER,
    ChannelFault,
    FaultyChannel,
    drop_channel,
)
from repro.faults.schedules import BernoulliSchedule, BurstSchedule
from repro.faults.servers import FlakyServer
from repro.mathx.modular import Field
from repro.qbf.generators import random_qbf
from repro.servers.advisors import AdvisorServer
from repro.servers.provers import HonestProverServer
from repro.servers.wrappers import EncodedServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.universal.schedules import doubling_sweep_trials
from repro.users.control_users import follower_user_class
from repro.users.delegation_users import delegation_user_class
from repro.worlds.computation import delegation_goal, delegation_sensing
from repro.worlds.control import control_goal, control_sensing, random_law

F = Field()
CODECS = codec_family(3)


class TestDelegationUnderFaults:
    def _universal(self):
        return FiniteUniversalUser(
            ListEnumeration(delegation_user_class(CODECS, F)),
            delegation_sensing(),
            schedule_factory=lambda cap: doubling_sweep_trials(
                None if cap is None else cap - 1
            ),
        )

    def test_garbled_prover_replies_never_cause_wrong_answers(self):
        goal = delegation_goal([random_qbf(random.Random(1), 2)])
        server = EncodedServer(HonestProverServer(F), CODECS[1])
        channel = FaultyChannel(
            [ChannelFault(CORRUPT, BernoulliSchedule(0.3), SERVER_TO_USER)]
        )
        for seed in range(3):
            result = run_execution(
                self._universal(), server, goal.world, max_rounds=4000,
                seed=seed, channel=channel,
            )
            if result.halted:
                assert goal.evaluate(result).achieved

    def test_dropping_prover_still_delegates(self):
        goal = delegation_goal([random_qbf(random.Random(2), 2)])
        result = run_execution(
            self._universal(), HonestProverServer(F), goal.world,
            max_rounds=6000, seed=1,
            channel=drop_channel(0.25, direction=SERVER_TO_USER),
        )
        assert result.halted
        assert goal.evaluate(result).achieved


class TestControlUnderFaults:
    def test_intermittent_advisor_still_converges(self):
        law = random_law(random.Random(5))
        goal = control_goal(law, deadline=20)
        # Live for 12 rounds, then dead for 4.
        server = FlakyServer(
            EncodedServer(AdvisorServer(law), CODECS[2]),
            BurstSchedule(period=16, burst=4, phase=12),
        )
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(CODECS)),
            control_sensing(grace_rounds=30),
        )
        result = run_execution(user, server, goal.world, max_rounds=4000, seed=2)
        assert goal.evaluate(result).achieved
