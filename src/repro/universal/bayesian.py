"""Belief-weighted universal user (extension; cf. Juba–Sudan, ICS 2011).

The paper closes by motivating "the search for algorithms that are
compatible with broad classes" at lower overhead, citing the follow-up
*Efficient Semantic Communication via Compatible Beliefs*.  The idea there:
if user and server hold compatible prior beliefs about each other, the
overhead of universality drops from the enumeration index to (roughly) the
log of the prior mass on the adequate strategy.

:class:`BeliefWeightedUniversalUser` realises the user side: candidates
carry prior weights; the user always plays a highest-weight candidate and
multiplies the weight by ``decay`` on a negative indication.  With a uniform
prior this degenerates to round-robin over the class; with a concentrated,
*correct* prior it reaches the adequate candidate after few switches — the
ablation in experiment E8b quantifies the gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.sensing import IncrementalSensing, Sensing, incremental_sensing
from repro.core.strategy import UserStrategy
from repro.core.views import ViewRecord
from repro.obs.events import (
    SWITCH_BELIEF_DECAY,
    TRIAL_DECAYED,
    SensingIndication,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
)
from repro.obs.tracer import TracerLike, is_tracing


@dataclass
class BeliefState:
    """Mutable state of the belief-weighted universal user."""

    weights: List[float]
    index: int
    inner_state: Any = None
    inner_started: bool = False
    monitor: Optional[IncrementalSensing] = None
    rounds_in_trial: int = 0
    strikes: int = 0
    switches: int = 0
    total_rounds: int = 0


class BeliefWeightedUniversalUser(UserStrategy):
    """Prior-guided enumerate-and-switch user over a finite class.

    Parameters
    ----------
    candidates:
        The (finite) candidate class.
    sensing:
        Feedback function over the trial-local view, as for
        :class:`~repro.universal.compact.CompactUniversalUser`.
    prior:
        Per-candidate prior weights (uniform when omitted); need not be
        normalised, must be positive.
    decay:
        Multiplier applied to the current candidate's weight on a negative
        indication; in (0, 1).
    min_trial_rounds:
        Grace floor before sensing may evict a candidate.
    patience:
        Per-trial budget of tolerated negative indications before the
        weight decay applies — the noisy-channel retry budget, as for
        :class:`~repro.universal.compact.CompactUniversalUser`.  The
        budget refills when the user switches candidates.
    tracer:
        Optional :mod:`repro.obs` tracer receiving per-round
        :class:`~repro.obs.events.SensingIndication` plus
        :class:`~repro.obs.events.TrialStarted` /
        :class:`~repro.obs.events.TrialFinished` /
        :class:`~repro.obs.events.StrategySwitch` (``reason`` =
        ``"belief-decay"``) events, like the other universal users.
        Public and reassignable so sweeps can attach per-cell telemetry.
    """

    def __init__(
        self,
        candidates: Sequence[UserStrategy],
        sensing: Sensing,
        *,
        prior: Optional[Sequence[float]] = None,
        decay: float = 0.5,
        min_trial_rounds: int = 0,
        patience: int = 0,
        tracer: TracerLike = None,
    ) -> None:
        if not candidates:
            raise ValueError("candidate class must be non-empty")
        if prior is None:
            prior = [1.0] * len(candidates)
        if len(prior) != len(candidates):
            raise ValueError(
                f"prior length {len(prior)} != class size {len(candidates)}"
            )
        if any(w <= 0 for w in prior):
            raise ValueError("prior weights must be positive")
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1): {decay}")
        if patience < 0:
            raise ValueError(f"patience must be >= 0: {patience}")
        self._candidates = list(candidates)
        self._sensing = sensing
        self._prior = list(prior)
        self._decay = decay
        self._min_trial_rounds = min_trial_rounds
        self._patience = patience
        self.tracer = tracer

    @property
    def name(self) -> str:
        return f"universal-beliefs[{len(self._candidates)}]"

    def initial_state(self, rng: random.Random) -> BeliefState:
        weights = list(self._prior)
        return BeliefState(weights=weights, index=_argmax(weights))

    def step(
        self, state: BeliefState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[BeliefState, UserOutbox]:
        tracing = is_tracing(self.tracer)
        inner = self._candidates[state.index]
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

        indication = state.monitor.observe(record)
        if tracing:
            self.tracer.emit(
                SensingIndication(
                    round_index=state.total_rounds - 1,
                    candidate_index=state.index,
                    positive=indication,
                )
            )
        if not indication and state.rounds_in_trial >= max(1, self._min_trial_rounds):
            state.strikes += 1
            if state.strikes > self._patience:
                state.weights[state.index] *= self._decay
                best = _argmax(state.weights)
                if best != state.index:
                    if tracing:
                        self.tracer.emit(
                            TrialFinished(
                                round_index=state.total_rounds - 1,
                                trial_number=state.switches,
                                candidate_index=state.index,
                                rounds_used=state.rounds_in_trial,
                                reason=TRIAL_DECAYED,
                            )
                        )
                        self.tracer.emit(
                            StrategySwitch(
                                round_index=state.total_rounds - 1,
                                from_index=state.index,
                                to_index=best,
                                wrapped=False,
                                reason=SWITCH_BELIEF_DECAY,
                            )
                        )
                    state.index = best
                    state.inner_state = None
                    state.inner_started = False
                    state.monitor = None
                    state.rounds_in_trial = 0
                    state.strikes = 0
                    state.switches += 1
            if outbox.halt:
                outbox = UserOutbox(
                    to_server=outbox.to_server, to_world=outbox.to_world
                )
        return state, outbox


def _argmax(weights: Sequence[float]) -> int:
    """Index of the largest weight (first one on ties, for determinism)."""
    best_index = 0
    best = weights[0]
    for i, w in enumerate(weights):
        if w > best:
            best = w
            best_index = i
    return best_index
