"""The synchronous execution engine.

Couples one user, one server, and one world strategy and runs them in
lockstep, exactly as in the paper's model: each round, every party reads the
messages emitted in the previous round, updates its state, and emits new
messages (delivered next round).  All three parties step *simultaneously* —
a user request sent in round *t* is read by the server in round *t+1* and
the reply reaches the user in round *t+2*.

One round body serves every caller.  :class:`ExecutionStepper` holds one
execution and advances it a round per :meth:`~ExecutionStepper.step`;
:func:`run_execution` drives a stepper to completion in one call, and
the session service (:mod:`repro.serve`) parks steppers between scheduler
slices of :meth:`~ExecutionStepper.step_many`, interleaving many sessions
in one process.  Because both share the one body, they agree bitwise by
construction; ``tests/core/test_engine_golden.py`` pins what that body
computes, and ``tests/core/test_batch.py`` pins interleaved-slice parity.
Sweeps, fault grids and robustness checks all run on
:func:`run_execution`, one execution at a time.

The engine records the full world-state history (goal achievement is defined
on it), the user's local view (sensing is defined on it), and optionally a
flat transcript of channel traffic.

Reproducibility: the engine derives an independent PRNG per party from the
master seed, so a strategy that consumes more randomness does not perturb
the other parties' random streams.

Observability: pass ``tracer=`` (see :mod:`repro.obs`) to stream typed
round/message events.  Tracing is read-only — it never touches the RNGs or
channel state — so a traced run is bitwise-identical to an untraced one,
and the off path (``tracer=None`` or a disabled tracer) allocates nothing.

Recording policies: by default the engine retains everything
(:data:`FULL_RECORDING`) — one :class:`RoundRecord` and one
:class:`~repro.core.views.ViewRecord` per round.  Metric-only callers
(sweeps over thousands of runs) pass ``recording=METRICS_RECORDING`` to
skip those per-round allocations: world states, the round count, the halt
flag, the final user state, and tracer counters are kept — exactly what
:func:`repro.analysis.metrics.collect_metrics` reads — while ``rounds``
stays empty and ``user_view`` becomes a bounded
:class:`~repro.core.views.BoundedUserView`.  The simulation itself is
untouched: both policies execute identical rounds from identical seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.comm.channels import ChannelState, Roles
from repro.comm.messages import ServerInbox, ServerOutbox, UserInbox, UserOutbox, WorldInbox, WorldOutbox
from repro.core.interfaces import ChannelLike
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy
from repro.core.views import BoundedUserView, UserView, ViewRecord
from repro.comm.transcripts import Transcript
from repro.errors import ExecutionError
from repro.obs.events import (
    ExecutionFinished,
    ExecutionStarted,
    MessageSent,
    RoundExecuted,
    rng_chain_digest,
)
from repro.obs.tracer import TracerLike, is_tracing


@dataclass(frozen=True)
class RecordingPolicy:
    """What an execution retains as it runs.

    ``keep_rounds`` controls the per-round :class:`RoundRecord` list;
    ``view_window`` controls the engine-level user view: ``None`` keeps
    the full history, an integer keeps a :class:`BoundedUserView` of that
    many trailing records (0 = count rounds, store nothing).

    Use :data:`FULL_RECORDING` (the default — property checkers and
    anything replaying histories need it) or :data:`METRICS_RECORDING`;
    :meth:`for_sensing` builds a metrics policy whose view window honours
    what a sensing function declares it needs.
    """

    keep_rounds: bool = True
    view_window: Optional[int] = None
    label: str = "full"

    @staticmethod
    def for_sensing(sensing: Any) -> "RecordingPolicy":
        """Metrics recording with the view window ``sensing`` asks for.

        ``sensing.view_window()`` returning ``None`` (the whole history
        may matter) keeps the full view — lean rounds, safe sensing.
        """
        window = sensing.view_window()
        return RecordingPolicy(
            keep_rounds=False, view_window=window, label="metrics"
        )


#: Retain everything (the historical behaviour, and still the default).
FULL_RECORDING = RecordingPolicy(keep_rounds=True, view_window=None, label="full")

#: Retain only what metric collection reads; no per-round allocations.
METRICS_RECORDING = RecordingPolicy(keep_rounds=False, view_window=0, label="metrics")


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened during one synchronous round."""

    index: int
    user_inbox: UserInbox
    user_outbox: UserOutbox
    server_inbox: ServerInbox
    server_outbox: ServerOutbox
    world_inbox: WorldInbox
    world_outbox: WorldOutbox
    user_state_after: Any
    server_state_after: Any
    world_state_after: Any


@dataclass
class ExecutionResult:
    """The outcome of running a (user, server, world) system.

    ``world_states`` contains the initial world state followed by the state
    after each executed round — this is the sequence the referee judges.
    ``halted`` is True iff the *user* halted (finite-goal semantics); an
    execution that merely hit ``max_rounds`` has ``halted == False``.

    Under :data:`METRICS_RECORDING`, ``rounds`` stays empty (the count
    lives in ``rounds_completed``) and ``user_view`` may be bounded;
    ``final_user_state`` is filled by the engine under every policy so
    metric collection never needs the round list.
    """

    rounds: List[RoundRecord] = field(default_factory=list)
    world_states: List[Any] = field(default_factory=list)
    user_view: UserView = field(default_factory=UserView)
    transcript: Optional[Transcript] = None
    halted: bool = False
    user_output: Optional[str] = None
    final_user_state: Any = None
    rounds_completed: int = 0
    recording: RecordingPolicy = FULL_RECORDING
    #: Name of the fault channel the run went through (None = perfect link).
    channel_name: Optional[str] = None

    @property
    def rounds_executed(self) -> int:
        """Number of rounds that actually ran (under any recording policy)."""
        return len(self.rounds) if self.rounds else self.rounds_completed

    def final_world_state(self) -> Any:
        """The last recorded world state."""
        if not self.world_states:
            raise ExecutionError("execution recorded no world states")
        return self.world_states[-1]


def derive_party_seeds(seed: int) -> Tuple[int, int, int, int]:
    """The engine's per-party seed chain for master ``seed``.

    User, server, and world streams first, then the channel stream —
    drawn last so a fault-free run's party streams are the ones it had
    before fault channels existed.  Every stepper, and so every served
    session, derives its streams through this chain.
    """
    master = random.Random(seed)
    return (
        master.getrandbits(64),
        master.getrandbits(64),
        master.getrandbits(64),
        master.getrandbits(64),
    )


class ExecutionStepper:
    """One execution, advanced one synchronous round per :meth:`step` call.

    Construction does everything that precedes the first round: seed
    derivation, the tracer's start event, the channel run, and the
    parties' initial states.  The stepper goes *settled* when the user
    halts or ``max_rounds`` is exhausted, after which :meth:`step` is an
    error and :meth:`finish` returns the result (and emits the finish
    event).

    Steppers are single-use and not thread-safe; cooperative interleaving
    (many steppers advanced from one thread, in any order) is the intended
    mode and changes no stepper's results — all state is per-instance.
    Strategies shared between steppers must keep all run state in the
    state object the engine threads (rule RL002): interleaving calls
    ``step`` for one execution between two calls for another, which a
    ``self``-mutating strategy would observe.
    """

    __slots__ = (
        "user", "server", "world", "max_rounds", "recording", "channel",
        "tracer", "user_rng", "server_rng", "world_rng", "user_state",
        "server_state", "world_state", "channels", "channel_run", "result",
        "tracing", "keep_rounds", "keep_view_records", "live", "finished",
        "round_index",
    )

    def __init__(
        self,
        user: UserStrategy,
        server: ServerStrategy,
        world: WorldStrategy,
        *,
        max_rounds: int,
        seed: int = 0,
        record_transcript: bool = False,
        tracer: TracerLike = None,
        recording: RecordingPolicy = FULL_RECORDING,
        channel: Optional[ChannelLike] = None,
    ) -> None:
        if max_rounds <= 0:
            raise ExecutionError(f"max_rounds must be positive: {max_rounds}")
        self.user = user
        self.server = server
        self.world = world
        self.max_rounds = max_rounds
        self.recording = recording
        self.channel = channel
        self.tracer = tracer
        user_seed, server_seed, world_seed, channel_seed = derive_party_seeds(seed)
        self.user_rng = random.Random(user_seed)
        self.server_rng = random.Random(server_seed)
        self.world_rng = random.Random(world_seed)
        # Hoisted once: the round body must not pay for tracing when off.
        self.tracing = is_tracing(tracer)
        if self.tracing:
            assert tracer is not None
            tracer.emit(
                ExecutionStarted(
                    user=user.name,
                    server=server.name,
                    world=world.name,
                    max_rounds=max_rounds,
                    seed=seed,
                    rng_digest=rng_chain_digest(
                        seed, (user_seed, server_seed, world_seed)
                    ),
                )
            )
        self.channel_run = (
            channel.start(channel_seed, tracer if self.tracing else None)
            if channel is not None
            else None
        )
        self.user_state = user.initial_state(self.user_rng)
        self.server_state = server.initial_state(self.server_rng)
        self.world_state = world.initial_state(self.world_rng)
        self.channels = ChannelState()
        self.result = ExecutionResult(
            transcript=Transcript() if record_transcript else None,
            recording=recording,
        )
        self.result.world_states.append(self.world_state)
        # Hoisted recording-policy flags: each round pays one branch, not
        # attribute lookups, per retained artefact.
        self.keep_rounds = recording.keep_rounds
        view_window = recording.view_window
        if view_window is not None:
            self.result.user_view = BoundedUserView(view_window)
        self.keep_view_records = view_window is None or view_window > 0
        self.live = True
        self.finished = False
        self.round_index = 0

    @property
    def rounds_completed(self) -> int:
        """Rounds executed so far (== the next round's index while live)."""
        return self.result.rounds_completed

    def step(self) -> bool:
        """Advance one synchronous round; return ``True`` while live.

        Raises :class:`~repro.errors.ExecutionError` when called after the
        execution settled (a scheduler bug, not a recoverable condition).
        """
        if not self.live:
            raise ExecutionError("step() called on a settled execution")
        self.step_many(1)
        return self.live

    def step_many(self, rounds: int) -> int:
        """Advance up to ``rounds`` rounds; return how many actually ran.

        The round body: party steps, outbox validation, delivery, channel
        faults, recording, tracing, and the halt check.  Stops early when
        the execution settles, and is a no-op (returning 0) on an already
        settled stepper — schedulers may race a settle without guarding.
        Raises :class:`~repro.errors.ExecutionError` when a strategy
        returns an outbox of the wrong type (catching wiring mistakes
        before they corrupt channel state).
        """
        if rounds < 0:
            raise ExecutionError(f"rounds must be non-negative: {rounds}")
        if not self.live:
            return 0
        # Hoisted once per call, so each round reads locals rather than
        # attributes; run_execution makes a single call for the whole run.
        user, server, world = self.user, self.server, self.world
        user_rng, server_rng, world_rng = self.user_rng, self.server_rng, self.world_rng
        channels = self.channels
        channel_run = self.channel_run
        result = self.result
        keep_rounds = self.keep_rounds
        keep_view_records = self.keep_view_records
        user_view = result.user_view
        transcript = result.transcript
        tracer = self.tracer if self.tracing else None
        user_state, server_state, world_state = (
            self.user_state, self.server_state, self.world_state
        )
        start = round_index = self.round_index
        end = min(start + rounds, self.max_rounds)
        try:
            while round_index < end:
                user_inbox = channels.user_inbox()
                server_inbox = channels.server_inbox()
                world_inbox = channels.world_inbox()

                user_state_before = user_state
                user_state, user_out = user.step(user_state, user_inbox, user_rng)
                server_state, server_out = server.step(
                    server_state, server_inbox, server_rng
                )
                world_state, world_out = world.step(world_state, world_inbox, world_rng)

                if not isinstance(user_out, UserOutbox):
                    raise ExecutionError(
                        f"user strategy {user.name} returned {type(user_out).__name__}"
                    )
                if not isinstance(server_out, ServerOutbox):
                    raise ExecutionError(
                        f"server strategy {server.name} returned "
                        f"{type(server_out).__name__}"
                    )
                if not isinstance(world_out, WorldOutbox):
                    raise ExecutionError(
                        f"world strategy {world.name} returned "
                        f"{type(world_out).__name__}"
                    )

                channels.deliver(user_out, server_out, world_out)
                if channel_run is not None:
                    channels.user_to_server, channels.server_to_user = channel_run.apply(
                        round_index, channels.user_to_server, channels.server_to_user
                    )

                result.rounds_completed += 1
                if keep_rounds:
                    result.rounds.append(
                        RoundRecord(
                            index=round_index,
                            user_inbox=user_inbox,
                            user_outbox=user_out,
                            server_inbox=server_inbox,
                            server_outbox=server_out,
                            world_inbox=world_inbox,
                            world_outbox=world_out,
                            user_state_after=user_state,
                            server_state_after=server_state,
                            world_state_after=world_state,
                        )
                    )
                result.world_states.append(world_state)
                if keep_view_records:
                    user_view.append(
                        ViewRecord(
                            round_index=round_index,
                            state_before=user_state_before,
                            inbox=user_inbox,
                            outbox=user_out,
                            state_after=user_state,
                        )
                    )
                else:
                    user_view.advance()
                if transcript is not None:
                    record = transcript.record
                    record(round_index, Roles.USER, Roles.SERVER, user_out.to_server)
                    record(round_index, Roles.USER, Roles.WORLD, user_out.to_world)
                    record(round_index, Roles.SERVER, Roles.USER, server_out.to_user)
                    record(round_index, Roles.SERVER, Roles.WORLD, server_out.to_world)
                    record(round_index, Roles.WORLD, Roles.USER, world_out.to_user)
                    record(round_index, Roles.WORLD, Roles.SERVER, world_out.to_server)

                if tracer is not None:
                    messages = message_bytes = 0
                    for sender, receiver, payload in (
                        (Roles.USER, Roles.SERVER, user_out.to_server),
                        (Roles.USER, Roles.WORLD, user_out.to_world),
                        (Roles.SERVER, Roles.USER, server_out.to_user),
                        (Roles.SERVER, Roles.WORLD, server_out.to_world),
                        (Roles.WORLD, Roles.USER, world_out.to_user),
                        (Roles.WORLD, Roles.SERVER, world_out.to_server),
                    ):
                        if payload:
                            messages += 1
                            message_bytes += len(payload)
                            tracer.emit(
                                MessageSent(
                                    round_index=round_index, sender=sender,
                                    receiver=receiver, payload=payload,
                                )
                            )
                    tracer.emit(
                        RoundExecuted(
                            round_index=round_index, messages=messages,
                            message_bytes=message_bytes, halted=user_out.halt,
                        )
                    )

                round_index += 1
                if user_out.halt:
                    result.halted = True
                    result.user_output = user_out.output
                    self.live = False
                    break
        finally:
            # Also on a raise: finish() then reports the state reached.
            self.user_state = user_state
            self.server_state = server_state
            self.world_state = world_state
            self.round_index = round_index
        if round_index >= self.max_rounds:
            self.live = False
        return round_index - start

    def finish(self) -> ExecutionResult:
        """Seal and return the result (idempotent after the first call).

        Fills ``final_user_state``, stamps the channel name, and emits the
        :class:`~repro.obs.events.ExecutionFinished` event exactly once.
        Callable while live (an aborted drain still wants partial state),
        but the normal path calls it once ``step`` returned ``False``.
        """
        result = self.result
        if self.finished:
            return result
        self.finished = True
        result.final_user_state = self.user_state
        if self.channel_run is not None:
            result.channel_name = getattr(
                self.channel, "name", type(self.channel).__name__
            )
        if self.tracing:
            assert self.tracer is not None
            self.tracer.emit(
                ExecutionFinished(
                    rounds_executed=result.rounds_completed, halted=result.halted
                )
            )
        return result


def run_execution(
    user: UserStrategy,
    server: ServerStrategy,
    world: WorldStrategy,
    *,
    max_rounds: int,
    seed: int = 0,
    record_transcript: bool = False,
    tracer: TracerLike = None,
    recording: RecordingPolicy = FULL_RECORDING,
    channel: Optional[ChannelLike] = None,
) -> ExecutionResult:
    """Run the three-party system for up to ``max_rounds`` rounds.

    The execution stops early when the user halts.  ``seed`` controls all
    randomness; two runs with equal arguments are identical.  ``tracer``
    (optional) receives :class:`~repro.obs.events.ExecutionStarted`, per-
    message :class:`~repro.obs.events.MessageSent`, per-round
    :class:`~repro.obs.events.RoundExecuted`, and a final
    :class:`~repro.obs.events.ExecutionFinished` event; it observes but
    never influences the run.  ``recording`` picks how much history the
    result retains (see :class:`RecordingPolicy`); it never changes what
    the parties do, only what is kept.

    ``channel`` (optional) makes the user↔server link unreliable: a
    :class:`~repro.faults.channel.FaultyChannel` whose per-run state is
    seeded from the master seed, so fault traces replay exactly (see
    ``docs/ROBUSTNESS.md``).  Faults apply to the payloads *in flight* —
    after outboxes are recorded (the transcript shows what was said) and
    before the next round's inboxes (views show what was heard).  With
    ``channel=None`` the party RNG streams are untouched, so every
    pre-fault execution is bitwise unchanged.

    Raises :class:`ExecutionError` if ``max_rounds`` is not positive or a
    strategy returns an outbox of the wrong type.
    """
    stepper = ExecutionStepper(
        user, server, world,
        max_rounds=max_rounds,
        seed=seed,
        record_transcript=record_transcript,
        tracer=tracer,
        recording=recording,
        channel=channel,
    )
    stepper.step_many(max_rounds)
    return stepper.finish()
