"""Fuzz: no shipped strategy ever raises on peer input.

PROTOCOLS.md's contract: strategies facing untrusted peers must treat
malformed, adversarial, or binary-garbage messages as noise — rejecting or
ignoring, never crashing.  These tests drive every shipped server and user
strategy with hypothesis-generated message streams and assert the contract
holds (the engine would surface any exception).

This is the safety net under the whole adversarial story: a strategy that
crashes on garbage is a strategy a malicious peer can kill.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.codecs import IdentityCodec, PrefixCodec, codec_family
from repro.comm.messages import ServerInbox, UserInbox
from repro.mathx.modular import Field
from repro.qbf.generators import random_cnf, random_qbf

F = Field()

# Messages that look *almost* right are the best crashers: mix structured
# near-misses with raw unicode junk.
_near_misses = st.sampled_from(
    [
        "PROVE:", "PROVE:Ax1:x1", "ROUND:", "ROUND:-1", "ROUND:0:",
        "ROUND:0:1e9", "POLY:0:", "POLY:0:1,,2", "CLAIM:2", "CLAIMSUM:-",
        "COUNT:", "SROUND:99:xx", "JOB:", "PRINT", "PRINT ", "DATA",
        "HELLO ", "AUTH:", "ACT:=", "ACT:red=", "ADV:red", "PRED:=1",
        "MOVE:", "MOVE:up", "GO:1,1=", "POS:,", "INSTANCE::;FB:",
        "ANSWER:=1", "OBS:;FB:", "Q:zzz;FB:ok@", ":", ";", "=", "@",
    ]
)
_junk = st.text(max_size=40)
messages = st.lists(st.one_of(_near_misses, _junk), min_size=1, max_size=12)


def all_server_strategies():
    """One instance of every shipped server species."""
    from repro.multiparty.babel import babel_server, community_names
    from repro.servers.advisors import AdvisorServer, MisleadingAdvisorServer
    from repro.servers.counting_provers import (
        CheatingCountingServer,
        HonestCountingServer,
        OverflowCountingServer,
    )
    from repro.faults.schedules import BernoulliSchedule, BurstSchedule
    from repro.faults.servers import ByzantineWrapper, FlakyServer
    from repro.servers.guides import GuideServer, MisleadingGuideServer
    from repro.servers.password import PasswordServer
    from repro.servers.printer_servers import (
        HandshakePrinter,
        LyingPrinter,
        SpacePrinter,
        TaggedPrinter,
    )
    from repro.servers.provers import (
        CheatingProverServer,
        HonestProverServer,
        LazyProverServer,
    )
    from repro.servers.wrappers import EncodedServer, ResettableServer
    from repro.worlds.navigation import Grid

    law = {"red": "blue", "blue": "red"}
    grid = Grid(4, 4, frozenset(), (0, 0), (3, 3))
    return [
        SpacePrinter(),
        TaggedPrinter(),
        HandshakePrinter(),
        LyingPrinter("tagged"),
        HonestProverServer(F),
        CheatingProverServer(F, "flip"),
        CheatingProverServer(F, "constant"),
        CheatingProverServer(F, "random"),
        LazyProverServer(1),
        HonestCountingServer(F),
        CheatingCountingServer(F, "inflate"),
        CheatingCountingServer(F, "adaptive"),
        OverflowCountingServer(F),
        AdvisorServer(law),
        MisleadingAdvisorServer(law),
        GuideServer(grid),
        MisleadingGuideServer(grid),
        PasswordServer("101", AdvisorServer(law)),
        EncodedServer(SpacePrinter(), PrefixCodec("~")),
        ResettableServer(TaggedPrinter(), idle_reset=2),
        FlakyServer(AdvisorServer(law), BernoulliSchedule(0.5)),
        ByzantineWrapper(SpacePrinter(), BernoulliSchedule(0.5)),
        FlakyServer(AdvisorServer(law), BurstSchedule(period=4, burst=2, phase=2)),
        babel_server(IdentityCodec(), community_names(3), ["red", "green"]),
    ]


def all_user_strategies():
    """One instance of every shipped user species."""
    from repro.multiparty.babel import babel_user_class, community_names
    from repro.online.adapter import ThresholdUser
    from repro.online.equivalence import halving_user
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.universal.finite import FiniteUniversalUser
    from repro.users.control_users import AdvisorFollowingUser, AuthenticatingUser
    from repro.users.counting_users import CountingUser
    from repro.users.delegation_users import DelegationUser, RepeatedDelegationUser
    from repro.users.navigation_users import GuidedNavigator
    from repro.users.printer_users import PrinterProtocolUser
    from repro.worlds.control import control_sensing
    from repro.worlds.printer import printing_sensing

    codecs = codec_family(2)
    followers = [AdvisorFollowingUser(c) for c in codecs]
    return [
        PrinterProtocolUser("space", codecs[0]),
        PrinterProtocolUser("handshake", codecs[1], blind_halt_after=4),
        DelegationUser(codecs[0], F),
        RepeatedDelegationUser(codecs[1], F),
        CountingUser(codecs[0], F),
        AdvisorFollowingUser(codecs[1]),
        AuthenticatingUser("01", AdvisorFollowingUser(codecs[0])),
        GuidedNavigator(codecs[0]),
        ThresholdUser(3),
        halving_user(8),
        CompactUniversalUser(ListEnumeration(followers), control_sensing()),
        FiniteUniversalUser(ListEnumeration(followers), printing_sensing()),
        babel_user_class(codecs, community_names(3))[0],
    ]


@given(stream=messages, seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_servers_never_crash_on_garbage(stream, seed):
    for server in all_server_strategies():
        rng = random.Random(seed)
        state = server.initial_state(rng)
        for message in stream:
            state, out = server.step(
                state, ServerInbox(from_user=message, from_world=message), rng
            )
        assert out is not None


@given(stream=messages, seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_users_never_crash_on_garbage(stream, seed):
    for user in all_user_strategies():
        rng = random.Random(seed)
        state = user.initial_state(rng)
        for message in stream:
            state, out = user.step(
                state, UserInbox(from_server=message, from_world=message), rng
            )
        assert out is not None


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_provers_survive_protocol_confusion(seed):
    """Valid openings followed by garbage rounds, replays, and re-opens."""
    from repro.servers.counting_provers import HonestCountingServer
    from repro.servers.provers import HonestProverServer

    rng = random.Random(seed)
    qbf_wire = random_qbf(random.Random(seed % 7), 2).serialize()
    from repro.qbf.formulas import serialize

    cnf_wire = serialize(random_cnf(random.Random(seed % 5), 3, 3))
    confusion = [
        f"PROVE:{qbf_wire}", "ROUND:0", "ROUND:0", "ROUND:5:1", "ROUND:1:x",
        f"PROVE:{qbf_wire}", "ROUND:1:3", f"COUNT:{cnf_wire}", "SROUND:0",
    ]
    for server in (HonestProverServer(F), HonestCountingServer(F)):
        state = server.initial_state(rng)
        for message in confusion:
            state, out = server.step(state, ServerInbox(from_user=message), rng)
            assert out is not None
