"""Reply drops, intermittent servers and garbled replies, on ``repro.faults``.

Each fault is expressed with the one fault-injection layer:

* dropped replies — a ``drop`` clause on the ``server->user`` direction of
  a :class:`~repro.faults.channel.FaultyChannel`;
* an intermittent server (``on`` live rounds, then ``off`` dead ones) — a
  :class:`~repro.faults.servers.FlakyServer` over
  ``BurstSchedule(period=on + off, burst=off, phase=on)``;
* garbled replies — a ``corrupt`` clause on ``server->user``.

Channel faults are checked through the engine, on what the user and the
world actually hear, so the tests also pin that faults touch only the
user↔server link.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.messages import ServerInbox, UserOutbox
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
from repro.servers.printer_servers import HandshakePrinter, SpacePrinter
from repro.users.scripted import ScriptedUser

from tests.core.helpers import CountingWorld


def drive(server, messages, seed=0):
    rng = random.Random(seed)
    state = server.initial_state(rng)
    outs = []
    for message in messages:
        state, out = server.step(state, ServerInbox(from_user=message), rng)
        outs.append(out)
    return outs


def heard(channel, messages, seed=0):
    """What the user and the world hear from a SpacePrinter, per request.

    The user sends ``messages`` in rounds 0.., the printer answers each one
    round later, and the answer arrives a round after that.
    """
    user = ScriptedUser([UserOutbox(to_server=m) for m in messages])
    result = run_execution(
        user, SpacePrinter(), CountingWorld(),
        max_rounds=len(messages) + 2, seed=seed, channel=channel,
    )
    replies = result.rounds[2:]
    return (
        [r.user_inbox.from_server for r in replies],
        [r.world_inbox.from_server for r in replies],
    )


def corrupt_channel(rate):
    return FaultyChannel(
        [ChannelFault(CORRUPT, BernoulliSchedule(rate), SERVER_TO_USER)]
    )


class TestDroppingServer:
    def test_drops_roughly_at_rate(self):
        to_user, _ = heard(drop_channel(0.5, direction=SERVER_TO_USER), ["PRINT x"] * 400)
        acks = sum(1 for m in to_user if m)
        assert 120 < acks < 280  # ~200 expected.

    def test_world_channel_never_dropped(self):
        to_user, to_world = heard(
            drop_channel(0.9, direction=SERVER_TO_USER), ["PRINT x"] * 50
        )
        assert to_world == ["OUT:x"] * 50
        assert to_user.count("") > 25

    def test_zero_probability_is_transparent(self):
        to_user, _ = heard(drop_channel(0.0, direction=SERVER_TO_USER), ["PRINT x"] * 10)
        assert to_user == ["ACK:"] * 10

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            drop_channel(1.5, direction=SERVER_TO_USER)


class TestIntermittentServer:
    def test_dead_phase_is_silent(self):
        server = FlakyServer(SpacePrinter(), BurstSchedule(period=4, burst=2, phase=2))
        outs = drive(server, ["PRINT x"] * 8)
        pattern = [bool(o.to_world) for o in outs]
        assert pattern == [True, True, False, False, True, True, False, False]

    def test_inner_state_preserved_across_dead_phase(self):
        server = FlakyServer(
            HandshakePrinter(), BurstSchedule(period=3, burst=1, phase=2)
        )
        outs = drive(server, ["HELLO", "DATA x", "DATA y", "DATA z"])
        # Round 0: HELLO unlocks; round 1: prints; round 2: dead; round 3:
        # still unlocked from round 0.
        assert outs[1].to_world == "OUT:x"
        assert outs[2].to_world == ""
        assert outs[3].to_world == "OUT:z"

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            BurstSchedule(period=0, burst=0)
        with pytest.raises(ValueError):
            BurstSchedule(period=3, burst=4)
        with pytest.raises(ValueError):
            BurstSchedule(period=3, burst=1, phase=3)


class TestGarblingServer:
    def test_garbles_at_rate_but_never_silences(self):
        to_user, _ = heard(corrupt_channel(0.5), ["PRINT x"] * 400)
        clean = to_user.count("ACK:")
        garbled = [m for m in to_user if m != "ACK:"]
        assert all(len(m) == len("ACK:") for m in garbled)
        assert len(garbled) + clean == 400
        assert 120 < len(garbled) < 280

    def test_world_channel_untouched(self):
        to_user, to_world = heard(corrupt_channel(0.9), ["PRINT x"] * 50)
        assert to_world == ["OUT:x"] * 50
        assert to_user.count("ACK:") < 25

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            corrupt_channel(-0.1)
