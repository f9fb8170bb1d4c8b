"""The compact-goal universal user (Theorem 1, compact case).

"In the compact case, Theorem 1 is proved by enumerating all relevant user
strategies and switching from the current strategy to the next one when a
negative indication is obtained from the sensing function."  This module is
that proof turned into a strategy: :class:`CompactUniversalUser` simulates
the current candidate round by round, feeds the candidate's *trial-local*
view to the sensing function, and advances the enumeration on a negative
indication.

Why trial-local views: sensing is meant to judge the *current* strategy.
Judging it on the whole execution would blame it for its predecessors'
mistakes, breaking viability (the adequate candidate could never shake off
the errors accumulated before it was reached).  The full version of the
paper handles this by resetting the sensing scope on each switch; we do the
same.

Correctness invariants (property-tested in ``tests/universal/``):

* candidates are visited in enumeration order;
* the user never switches while sensing reads positive;
* with safe+viable sensing and a helpful server, the index eventually
  stabilises and the goal is achieved (this *is* Theorem 1's compact case).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.sensing import IncrementalSensing, Sensing, incremental_sensing
from repro.core.strategy import UserStrategy
from repro.core.views import ViewRecord
from repro.errors import EnumerationExhaustedError
from repro.obs.events import (
    SWITCH_SENSING_NEGATIVE,
    TRIAL_EVICTED,
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)
from repro.obs.tracer import TracerLike, is_tracing
from repro.universal.enumeration import EnumerationCursor, StrategyEnumeration


@dataclass
class CompactUniversalState:
    """Mutable state of the compact universal user.

    The engine threads this through :meth:`CompactUniversalUser.step`; it is
    never shared between executions (each ``initial_state`` call builds a
    fresh cursor).  ``monitor`` is the trial's incremental-sensing monitor
    (see :meth:`~repro.core.sensing.Sensing.incremental`), restarted on
    every switch; it observes each round of the trial.
    """

    cursor: EnumerationCursor
    index: int = 0
    inner_state: Any = None
    inner_started: bool = False
    monitor: Optional[IncrementalSensing] = None
    rounds_in_trial: int = 0
    strikes: int = 0
    switches: int = 0
    wraps: int = 0
    total_rounds: int = 0


class CompactUniversalUser(UserStrategy):
    """Enumerate-and-switch universal user for compact goals.

    Parameters
    ----------
    enumeration:
        The class of candidate user strategies, in enumeration order.
    sensing:
        The feedback function; consulted every round on the trial-local
        view.  Wrap it in :class:`~repro.core.sensing.GraceSensing` when the
        goal's feedback is delayed.
    min_trial_rounds:
        A floor on how long each candidate runs before sensing may evict it.
        This is the engine-level grace period; 0 defers entirely to the
        sensing function.
    patience:
        Per-trial budget of tolerated negative indications: the candidate
        is evicted on the ``patience + 1``-th negative of its trial
        (default 0 = evict on the first negative, the paper's noiseless
        behaviour).  On an unreliable channel a dropped reply can turn a
        round's indication negative even though the candidate is
        adequate; a small budget absorbs those spurious negatives instead
        of triggering an enumeration switch, while a genuinely failing
        candidate still burns through the budget and is evicted after a
        bounded delay.  The budget refills on every switch.
    wrap_around:
        What to do when a *finite* enumeration is exhausted: restart from
        index 0 (default, making the user robust to transient negative
        indications) or raise :class:`EnumerationExhaustedError`.
    tracer:
        Optional :mod:`repro.obs` tracer receiving per-round
        :class:`~repro.obs.events.SensingIndication` plus
        :class:`~repro.obs.events.TrialStarted` /
        :class:`~repro.obs.events.TrialFinished` /
        :class:`~repro.obs.events.StrategySwitch` events.  Public and
        reassignable (``user.tracer = ...``) so a sweep can attach per-cell
        telemetry to an already-built user.
    """

    def __init__(
        self,
        enumeration: StrategyEnumeration,
        sensing: Sensing,
        *,
        min_trial_rounds: int = 0,
        patience: int = 0,
        wrap_around: bool = True,
        tracer: TracerLike = None,
    ) -> None:
        if min_trial_rounds < 0:
            raise ValueError(f"min_trial_rounds must be >= 0: {min_trial_rounds}")
        if patience < 0:
            raise ValueError(f"patience must be >= 0: {patience}")
        self._enumeration = enumeration
        self._sensing = sensing
        self._min_trial_rounds = min_trial_rounds
        self._patience = patience
        self._wrap_around = wrap_around
        self.tracer = tracer

    @property
    def name(self) -> str:
        return f"universal-compact({self._enumeration.name},{self._sensing.name})"

    def initial_state(self, rng: random.Random) -> CompactUniversalState:
        return CompactUniversalState(cursor=EnumerationCursor(self._enumeration))

    def step(
        self, state: CompactUniversalState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[CompactUniversalState, UserOutbox]:
        tracing = is_tracing(self.tracer)
        inner = state.cursor.get(state.index)
        if not state.inner_started:
            state.inner_state = inner.initial_state(rng)
            state.inner_started = True
            state.monitor = incremental_sensing(self._sensing)
            if tracing:
                self.tracer.emit(
                    TrialStarted(
                        round_index=state.total_rounds,
                        trial_number=state.switches,
                        candidate_index=state.index,
                    )
                )

        state_before = state.inner_state
        state.inner_state, outbox = inner.step(state.inner_state, inbox, rng)
        state.rounds_in_trial += 1
        state.total_rounds += 1
        record = ViewRecord(
            round_index=state.rounds_in_trial - 1,
            state_before=state_before,
            inbox=inbox,
            outbox=outbox,
            state_after=state.inner_state,
        )

        # O(1) per round for the library sensing functions; custom sensing
        # falls back to replaying the view (the pre-incremental cost).
        indication = state.monitor.observe(record)
        if tracing:
            self.tracer.emit(
                SensingIndication(
                    round_index=state.total_rounds - 1,
                    candidate_index=state.index,
                    positive=indication,
                )
            )
        if not indication:
            state.strikes += 1
            if (
                state.rounds_in_trial >= max(1, self._min_trial_rounds)
                and state.strikes > self._patience
            ):
                self._advance(state, tracing)
            # A candidate being evicted (or surviving on patience) must not
            # get the last word on halting: compact goals run forever, and
            # a halt under a negative indication would end the execution on
            # a failure.
            if outbox.halt:
                outbox = UserOutbox(
                    to_server=outbox.to_server, to_world=outbox.to_world
                )
        return state, outbox

    def _advance(self, state: CompactUniversalState, tracing: bool = False) -> None:
        """Move to the next candidate (wrapping or raising at the end)."""
        next_index = state.index + 1
        wrapped = False
        try:
            state.cursor.get(next_index)
        except EnumerationExhaustedError:
            if not self._wrap_around:
                raise
            next_index = 0
            wrapped = True
            state.wraps += 1
        if tracing:
            self.tracer.emit(
                TrialFinished(
                    round_index=state.total_rounds - 1,
                    trial_number=state.switches,
                    candidate_index=state.index,
                    rounds_used=state.rounds_in_trial,
                    reason=TRIAL_EVICTED,
                )
            )
            self.tracer.emit(
                StrategySwitch(
                    round_index=state.total_rounds - 1,
                    from_index=state.index,
                    to_index=next_index,
                    wrapped=wrapped,
                    reason=SWITCH_SENSING_NEGATIVE,
                )
            )
        state.index = next_index
        state.inner_state = None
        state.inner_started = False
        state.monitor = None
        state.rounds_in_trial = 0
        state.strikes = 0
        state.switches += 1

    @staticmethod
    def stats(state: CompactUniversalState) -> "UniversalRunStats":
        """Extract run statistics from a final state (for benchmarks)."""
        return UniversalRunStats(
            final_index=state.index,
            switches=state.switches,
            wraps=state.wraps,
            total_rounds=state.total_rounds,
        )


@dataclass(frozen=True)
class UniversalRunStats:
    """Summary of a universal user's behaviour over one execution."""

    final_index: int
    switches: int
    wraps: int
    total_rounds: int
