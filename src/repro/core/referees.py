"""Referees: the judges of goal achievement.

The paper fixes a goal by fixing the world's strategy and "a set of
acceptable sequences of world states (or equivalently, ... a referee
predicate on the set of all possible histories of world states)".  Two
families are studied:

* **Finite goals** — the user must halt; the referee is a predicate on the
  finite world-state history (:class:`FiniteReferee`).
* **Compact goals** — the system runs forever; the referee marks each finite
  *prefix* acceptable or not, and the goal is achieved iff only finitely
  many prefixes are unacceptable (:class:`CompactReferee`).

At a finite horizon, "finitely many bad prefixes" is witnessed by the bad
prefixes *stopping*: :meth:`CompactReferee.judge` reports the count and the
last bad index, and :class:`repro.core.goals.CompactGoal` converts that into
an empirical achievement verdict with an explicit settle window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.core.execution import ExecutionResult


class FiniteReferee:
    """Judges a halted execution by its world-state history and user output."""

    def accepts(self, execution: ExecutionResult) -> bool:
        """Return True iff the finite history is acceptable.

        Implementations should return False (not raise) for executions that
        never halted: a user that talks forever has not achieved a finite
        goal.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FunctionFiniteReferee(FiniteReferee):
    """Adapts a plain predicate into a :class:`FiniteReferee`.

    Goals judged inside :func:`repro.analysis.runner.sweep` see executions
    run under :data:`~repro.core.execution.METRICS_RECORDING`, so a
    predicate used there may read only ``world_states``, ``halted``,
    ``user_output``, ``rounds_executed`` and ``final_user_state``;
    ``rounds`` is empty.
    """

    predicate: Callable[[ExecutionResult], bool]
    label: str = "finite-referee"

    def accepts(self, execution: ExecutionResult) -> bool:
        if not execution.halted:
            return False
        return bool(self.predicate(execution))


@dataclass(frozen=True)
class CompactVerdict:
    """Prefix-level accounting for a compact referee over one execution.

    ``bad_prefixes`` counts unacceptable prefixes, ``last_bad_round`` is the
    1-based length of the longest unacceptable prefix (``None`` when all
    prefixes were acceptable), and ``flags`` records the per-prefix verdicts
    (True = acceptable) for plotting error-decay curves.
    """

    bad_prefixes: int
    last_bad_round: Optional[int]
    flags: Sequence[bool]

    @property
    def total_prefixes(self) -> int:
        return len(self.flags)

    def settled_since(self, round_index: int) -> bool:
        """True iff no prefix of length > ``round_index`` was unacceptable."""
        if self.last_bad_round is None:
            return True
        return self.last_bad_round <= round_index


class CompactReferee:
    """Judges each finite prefix of the world-state history."""

    def prefix_acceptable(self, world_states: Sequence[Any]) -> bool:
        """Return True iff this prefix of world states is acceptable."""
        raise NotImplementedError

    def judge(self, execution: ExecutionResult) -> CompactVerdict:
        """Evaluate every prefix of the execution's world-state history.

        Prefix *t* (for t = 1..T) consists of the first *t* world states
        (the initial state plus the states after each of the first t−1
        rounds), matching the paper's "history of world states".
        """
        flags: List[bool] = []
        bad = 0
        last_bad: Optional[int] = None
        states = execution.world_states
        for t in range(1, len(states) + 1):
            ok = self.prefix_acceptable(states[:t])
            flags.append(ok)
            if not ok:
                bad += 1
                last_bad = t
        return CompactVerdict(bad_prefixes=bad, last_bad_round=last_bad, flags=tuple(flags))


@dataclass(frozen=True)
class FunctionCompactReferee(CompactReferee):
    """Adapts a plain prefix predicate into a :class:`CompactReferee`."""

    predicate: Callable[[Sequence[Any]], bool]
    label: str = "compact-referee"

    def prefix_acceptable(self, world_states: Sequence[Any]) -> bool:
        return bool(self.predicate(world_states))


@dataclass(frozen=True)
class LastStateCompactReferee(CompactReferee):
    """A compact referee that only inspects the most recent world state.

    Many natural compact goals are *local* in this sense — e.g. "the
    controller's last action was correct".  Implemented as its own class
    (rather than via :class:`FunctionCompactReferee`) because locality makes
    :meth:`judge` linear instead of quadratic in the horizon.
    """

    state_acceptable: Callable[[Any], bool]
    label: str = "last-state-referee"

    def prefix_acceptable(self, world_states: Sequence[Any]) -> bool:
        return bool(self.state_acceptable(world_states[-1]))

    def judge(self, execution: ExecutionResult) -> CompactVerdict:
        flags: List[bool] = []
        bad = 0
        last_bad: Optional[int] = None
        for t, state in enumerate(execution.world_states, start=1):
            ok = bool(self.state_acceptable(state))
            flags.append(ok)
            if not ok:
                bad += 1
                last_bad = t
        return CompactVerdict(bad_prefixes=bad, last_bad_round=last_bad, flags=tuple(flags))
