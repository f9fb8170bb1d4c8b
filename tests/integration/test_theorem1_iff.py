"""Integration: Theorem 1's *characterisation* — the "iff".

"This universal strategy achieves the goal when coupled with a server S
**iff** there is some user strategy that achieves the goal when coupled
with S."  Over a mixed class — helpful advisors in several languages,
a misleading advisor, a silent server, and faulty-but-helpful members —
the universal user's success must coincide *exactly* with helpfulness,
server by server.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.core.helpfulness import is_helpful
from repro.core.strategy import SilentServer
from repro.faults.schedules import BernoulliSchedule
from repro.faults.servers import FlakyServer
from repro.servers.advisors import (
    AdvisorServer,
    MisleadingAdvisorServer,
    advisor_server_class,
)
from repro.servers.wrappers import EncodedServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(4)
LAW = random_law(random.Random(17))
GOAL = control_goal(LAW, deadline=16)
USER_CLASS = follower_user_class(CODECS)

MIXED_CLASS = (
    advisor_server_class(LAW, CODECS)
    + [
        MisleadingAdvisorServer(LAW),
        SilentServer(),
        FlakyServer(
            EncodedServer(AdvisorServer(LAW), CODECS[1]), BernoulliSchedule(0.15)
        ),
    ]
)


def universal():
    return CompactUniversalUser(
        ListEnumeration(USER_CLASS), control_sensing(grace_rounds=24)
    )


@pytest.mark.parametrize("server", MIXED_CLASS, ids=lambda s: s.name)
def test_universal_success_iff_helpful(server):
    helpful = bool(
        is_helpful(server, GOAL, USER_CLASS, seeds=(0, 1), max_rounds=700)
    )
    achieved_all = all(
        GOAL.evaluate(
            run_execution(universal(), server, GOAL.world, max_rounds=3000, seed=seed)
        ).achieved
        for seed in (0, 1)
    )
    assert achieved_all == helpful, (
        f"{server.name}: helpful={helpful} but universal achieved={achieved_all}"
    )


def test_the_mixed_class_really_is_mixed():
    """Guard the experiment's premise: both kinds are represented."""
    verdicts = {
        server.name: bool(
            is_helpful(server, GOAL, USER_CLASS, seeds=(0,), max_rounds=700)
        )
        for server in MIXED_CLASS
    }
    assert any(verdicts.values())
    assert not all(verdicts.values())
    assert verdicts["advisor-misleading"] is False
    assert verdicts["SilentServer"] is False
