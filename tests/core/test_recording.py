"""Recording policies must change what is *kept*, never what *happens*.

``METRICS_RECORDING`` skips per-round allocations; everything metric
collection reads — world states, halt flag, user output, round count,
final user state, goal evaluation — must be identical to a ``FULL_RECORDING``
run from the same seed, on every benchmark goal family and on every family
the experiments sweep (sweeps run metrics-only).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.metrics import collect_metrics
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    RecordingPolicy,
    run_execution,
)
from repro.core.sensing import (
    ConstantSensing,
    FunctionSensing,
    GraceSensing,
    LastWorldMessageSensing,
    NoRecentProgressSensing,
)
from repro.core.views import BoundedUserView, UserView, ViewRecord
from repro.comm.messages import UserInbox, UserOutbox
from repro.faults.channel import drop_channel
from repro.mathx.modular import Field
from repro.qbf.generators import random_cnf, random_qbf
from repro.servers.advisors import AdvisorServer
from repro.servers.counting_provers import HonestCountingServer
from repro.servers.guides import GuideServer
from repro.servers.password import all_passwords, password_server_class
from repro.servers.printer_servers import (
    DIALECTS,
    make_printer,
    printer_server_class,
)
from repro.servers.provers import HonestProverServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.universal.schedules import doubling_sweep_trials
from repro.users.control_users import (
    AdvisorFollowingUser,
    follower_user_class,
    password_user_class,
)
from repro.users.counting_users import CountingUser
from repro.users.delegation_users import DelegationUser
from repro.users.navigation_users import GuidedNavigator
from repro.users.printer_users import PrinterProtocolUser, printer_user_class
from repro.worlds.computation import delegation_goal
from repro.worlds.control import control_goal, control_sensing
from repro.worlds.counting import counting_goal
from repro.worlds.navigation import corridor_grid, navigation_goal
from repro.worlds.printer import printing_goal, printing_sensing

LAW = {"red": "blue", "blue": "red"}
F = Field()


def control_family():
    return (
        AdvisorFollowingUser(IdentityCodec()),
        AdvisorServer(LAW),
        control_goal(LAW),
        200,
        None,
    )


def control_universal_family():
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codec_family(2))), control_sensing()
    )
    return user, AdvisorServer(LAW), control_goal(LAW), 400, None


def printer_family():
    return (
        PrinterProtocolUser("tagged", IdentityCodec()),
        make_printer("tagged"),
        printing_goal(["the document"]),
        120,
        None,
    )


def counting_family():
    formula = random_cnf(random.Random(1), 4, 5)
    return (
        CountingUser(IdentityCodec(), F),
        HonestCountingServer(F),
        counting_goal([formula]),
        300,
        None,
    )


def delegation_family():
    instances = [random_qbf(random.Random(s), 2) for s in (1, 4)]
    return (
        DelegationUser(IdentityCodec(), F),
        HonestProverServer(F),
        delegation_goal(instances),
        300,
        None,
    )


def navigation_family():
    grid = corridor_grid(8)
    return (
        GuidedNavigator(IdentityCodec()),
        GuideServer(grid),
        navigation_goal(grid),
        300,
        None,
    )


# The families the experiments sweep; ``sweep()`` runs them all under
# METRICS_RECORDING, so their parity here is what keeps sweeps exact.


def finite_e2_family():
    codecs = codec_family(2)
    user = FiniteUniversalUser(
        ListEnumeration(printer_user_class(DIALECTS, codecs)),
        printing_sensing(),
    )
    server = printer_server_class(DIALECTS, codecs)[2]
    return user, server, printing_goal(["report"]), 3000, None


def password_e3_family():
    users = password_user_class(
        all_passwords(2), lambda: AdvisorFollowingUser(IdentityCodec())
    )
    user = CompactUniversalUser(
        ListEnumeration(users, label="pw2"), control_sensing()
    )
    server = password_server_class(2, LAW)[-1]
    return user, server, control_goal(LAW), 1500, None


def printer_e9_family():
    codecs = codec_family(3)
    user = FiniteUniversalUser(
        ListEnumeration(printer_user_class(DIALECTS, codecs)),
        printing_sensing(),
        schedule_factory=lambda cap: doubling_sweep_trials(
            None if cap is None else cap - 1
        ),
    )
    server = printer_server_class(DIALECTS, codecs)[-1]
    return user, server, printing_goal(["annual report 2011"]), 6000, None


def printer_e9_blind_family():
    codecs = codec_family(3)
    user = PrinterProtocolUser("space", codecs[0], blind_halt_after=5)
    server = printer_server_class(DIALECTS, codecs)[-1]
    goal = printing_goal(["annual report 2011"], feedback=False)
    return user, server, goal, 400, None


def control_faulted_family():
    user, server, goal, max_rounds, _ = control_universal_family()
    return user, server, goal, max_rounds, drop_channel(0.1, salt=2)


#: (achieved, halted) of the sweep families: halting success, compact
#: success and failure are all covered, so the parity is not vacuous.
OUTCOMES = {
    finite_e2_family: (True, True),
    password_e3_family: (True, False),
    printer_e9_family: (True, True),
    printer_e9_blind_family: (False, True),
    control_faulted_family: (True, False),
}


FAMILIES = [
    pytest.param(control_family, id="control"),
    pytest.param(control_universal_family, id="control-universal"),
    pytest.param(printer_family, id="printer"),
    pytest.param(counting_family, id="counting"),
    pytest.param(delegation_family, id="delegation"),
    pytest.param(navigation_family, id="navigation"),
    pytest.param(finite_e2_family, id="finite-e2"),
    pytest.param(password_e3_family, id="password-e3"),
    pytest.param(printer_e9_family, id="printer-e9"),
    pytest.param(printer_e9_blind_family, id="printer-e9-blind"),
    pytest.param(control_faulted_family, id="control-faulted"),
]


class TestMetricsParity:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_metrics_run_matches_full_run(self, family, seed):
        user, server, goal, max_rounds, channel = family()
        full = run_execution(
            user, server, goal.world, max_rounds=max_rounds, seed=seed,
            recording=FULL_RECORDING, channel=channel,
        )
        user, server, goal, max_rounds, channel = family()  # fresh strategies
        lean = run_execution(
            user, server, goal.world, max_rounds=max_rounds, seed=seed,
            recording=METRICS_RECORDING, channel=channel,
        )

        assert lean.rounds == []
        assert len(full.rounds) == full.rounds_executed
        assert lean.rounds_executed == full.rounds_executed
        assert lean.world_states == full.world_states
        assert lean.halted == full.halted
        assert lean.user_output == full.user_output
        # Some user states hold protocol sessions without ``__eq__``, so
        # compare type here and content via the metrics extracted below.
        assert type(lean.final_user_state) is type(full.rounds[-1].user_state_after)
        metrics = collect_metrics(lean, goal)
        assert metrics == collect_metrics(full, goal)
        if family in OUTCOMES:
            assert (metrics.achieved, metrics.halted) == OUTCOMES[family]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_goal_outcome_identical(self, family):
        user, server, goal, max_rounds, channel = family()
        full_outcome = goal.evaluate(
            run_execution(
                user, server, goal.world, max_rounds=max_rounds, seed=3,
                channel=channel,
            )
        )
        user, server, goal, max_rounds, channel = family()
        lean_outcome = goal.evaluate(
            run_execution(
                user, server, goal.world, max_rounds=max_rounds, seed=3,
                recording=METRICS_RECORDING, channel=channel,
            )
        )
        assert lean_outcome == full_outcome


class TestRecordingPolicy:
    def test_defaults(self):
        assert FULL_RECORDING.keep_rounds
        assert FULL_RECORDING.view_window is None
        assert not METRICS_RECORDING.keep_rounds
        assert METRICS_RECORDING.view_window == 0

    def test_for_sensing_uses_declared_window(self):
        policy = RecordingPolicy.for_sensing(NoRecentProgressSensing(stall_rounds=6))
        assert not policy.keep_rounds
        assert policy.view_window == 6
        assert RecordingPolicy.for_sensing(ConstantSensing(True)).view_window == 0

    def test_for_sensing_keeps_full_view_when_undeclared(self):
        custom = FunctionSensing(fn=lambda view: True, label="opaque")
        assert RecordingPolicy.for_sensing(custom).view_window is None

    def test_declared_windows(self):
        inner = LastWorldMessageSensing(predicate=lambda m: True)
        assert inner.view_window() is None  # last message can be arbitrarily old
        assert GraceSensing(ConstantSensing(True), 5).view_window() == 0
        assert NoRecentProgressSensing(stall_rounds=4).view_window() == 4

    def test_engine_honours_view_window(self):
        user, server, goal, max_rounds, _ = control_family()
        policy = RecordingPolicy(keep_rounds=False, view_window=5, label="metrics")
        result = run_execution(
            user, server, goal.world, max_rounds=50, seed=0, recording=policy
        )
        view = result.user_view
        assert isinstance(view, BoundedUserView)
        assert len(view) == 50          # len counts every round...
        assert len(view.records) == 5   # ...but only the window is retained
        assert [r.round_index for r in view.records] == [45, 46, 47, 48, 49]


def record(index: int) -> ViewRecord:
    return ViewRecord(
        round_index=index,
        state_before=index,
        inbox=UserInbox(),
        outbox=UserOutbox(),
        state_after=index + 1,
    )


class TestBoundedUserView:
    def test_len_counts_total_not_retained(self):
        view = BoundedUserView(3)
        for i in range(10):
            view.append(record(i))
        assert len(view) == 10
        assert [r.round_index for r in view.records] == [7, 8, 9]

    def test_tail_within_window(self):
        view = BoundedUserView(4)
        for i in range(6):
            view.append(record(i))
        assert [r.round_index for r in view.tail(2)] == [4, 5]

    def test_zero_window_stores_nothing(self):
        view = BoundedUserView(0)
        for i in range(5):
            view.append(record(i))
        view.advance(3)
        assert len(view) == 8
        assert list(view) == []
        assert view.last() is None

    def test_sensing_on_bounded_view_matches_full(self):
        """A windowed sensing reads the same verdict off a bounded view."""
        sensing = NoRecentProgressSensing(stall_rounds=3)
        full = UserView()
        bounded = BoundedUserView(3)
        rng = random.Random(9)
        for i in range(40):
            inbox = UserInbox(from_world="ping" if rng.random() < 0.3 else "")
            rec = ViewRecord(
                round_index=i, state_before=i, inbox=inbox,
                outbox=UserOutbox(), state_after=i + 1,
            )
            full.append(rec)
            bounded.append(rec)
            assert sensing.indicate(bounded) == sensing.indicate(full)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            BoundedUserView(-1)
