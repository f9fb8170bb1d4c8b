"""Sensing: the user's feedback about its own progress.

Section 3 of the paper introduces *sensing* — "predicates of the history of
the portion of the system visible to the user" — as the resource that makes
universal communication possible.  A :class:`Sensing` object maps a
:class:`~repro.core.views.UserView` to a Boolean indication; ``True`` is a
*positive* indication (things look fine), ``False`` a *negative* one (the
current strategy is failing).

The value of a sensing function is captured by two properties, *safety* and
*viability*, defined relative to a goal and a server class; the empirical
checkers for those properties live in :mod:`repro.core.properties`.  This
module provides the interface plus combinators that concrete goals use to
assemble their sensing from world feedback.

Incremental evaluation
----------------------
``indicate`` is a predicate of the *whole* trial view, so calling it every
round costs O(len(view)) for sensing that scans — which turns a T-round
trial quadratic.  :meth:`Sensing.incremental` optionally returns a
stateful :class:`IncrementalSensing` monitor whose ``observe(record)``
consumes one new :class:`~repro.core.views.ViewRecord` at a time and
returns exactly what ``indicate`` would return on the prefix observed so
far — O(1) per round for every sensing shipped here.  Custom sensing
classes need not implement it: :func:`incremental_sensing` falls back to a
replay wrapper that accumulates the records and calls ``indicate``, so
behaviour is unchanged (only the asymptotics stay whatever the custom
``indicate`` costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.core.views import UserView, ViewRecord
from repro.obs.events import GraceSuppressed
from repro.obs.tracer import TracerLike, is_tracing


class IncrementalSensing:
    """A stateful, per-trial monitor equivalent to some :class:`Sensing`.

    ``observe`` must be fed every record of a trial view, in order, and
    returns the indication for the prefix seen so far.  Monitors are
    single-trial: start a fresh one (via :meth:`Sensing.incremental` or
    :func:`incremental_sensing`) whenever the view they mirror restarts.
    """

    def observe(self, record: ViewRecord) -> bool:
        """Consume one new round's record; return the current indication."""
        raise NotImplementedError

    def _state(self) -> Tuple[object, ...]:
        """Every slot value, MRO order — the monitor's structural content."""
        names: List[str] = []
        for klass in type(self).__mro__:
            names.extend(getattr(klass, "__slots__", ()))
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same monitor type, same slot contents.

        Universal-user states embed their monitors, and the serve/stepper
        parity suites compare those states structurally — two runs of the
        same cast/seed must produce *equal* states, not merely equivalent
        ones.  Subclasses keep all state in ``__slots__``, so comparing
        slot tuples compares the full progress of the monitor.
        """
        if type(other) is not type(self):
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None  # type: ignore[assignment]  # mutable monitor


class Sensing:
    """A Boolean feedback function over the user's local view."""

    def indicate(self, view: UserView) -> bool:
        """Return the indication for the given (trial-local) view."""
        raise NotImplementedError

    def incremental(self) -> Optional[IncrementalSensing]:
        """A fresh O(1)-per-round monitor, or ``None`` if unsupported.

        Implementations must guarantee that feeding a view's records to
        ``observe`` in order yields the same Booleans as calling
        ``indicate`` on each prefix.  Callers wanting a monitor
        unconditionally should use :func:`incremental_sensing`, which
        supplies the replay fallback.
        """
        return None

    def view_window(self) -> Optional[int]:
        """How many trailing records ``indicate`` inspects.

        ``None`` means the whole history may matter (the safe default);
        an integer ``w`` promises the verdict depends only on the last
        ``w`` records plus the view's *length*.  The metrics-only
        recording policy uses this to bound the engine's view retention.
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__

    def negate(self) -> "Sensing":
        """The pointwise negation (used to build deliberately unsafe sensing)."""
        return _Negation(self)

    def __repr__(self) -> str:
        return f"<Sensing {self.name}>"


class _ReplayIncremental(IncrementalSensing):
    """Fallback monitor: accumulate records, re-ask ``indicate`` each round.

    Exactly as fast (or slow) as calling ``indicate`` on the growing view
    every round — which is what call sites did before the incremental
    protocol existed — so arbitrary custom sensing keeps its behaviour.
    """

    __slots__ = ("_sensing", "_view")

    def __init__(self, sensing: Sensing) -> None:
        self._sensing = sensing
        self._view = UserView()

    def observe(self, record: ViewRecord) -> bool:
        self._view.append(record)
        return self._sensing.indicate(self._view)


def incremental_sensing(sensing: Sensing) -> IncrementalSensing:
    """A fresh monitor for ``sensing``: native if offered, else replay."""
    return sensing.incremental() or _ReplayIncremental(sensing)


@dataclass(frozen=True)
class FunctionSensing(Sensing):
    """Adapts a plain callable into a :class:`Sensing`."""

    fn: Callable[[UserView], bool]
    label: str = "fn"

    @property
    def name(self) -> str:
        return self.label

    def indicate(self, view: UserView) -> bool:
        return bool(self.fn(view))


@dataclass(frozen=True)
class ConstantSensing(Sensing):
    """Always returns the same indication.

    ``ConstantSensing(True)`` is the degenerate, maximally *unsafe* sensing
    (never flags a failing strategy); ``ConstantSensing(False)`` is the
    maximally *non-viable* one (never endorses a working strategy).  Both
    appear in the ablation experiment E6.
    """

    value: bool

    @property
    def name(self) -> str:
        return "always-positive" if self.value else "always-negative"

    def indicate(self, view: UserView) -> bool:
        return self.value

    def incremental(self) -> IncrementalSensing:
        return _ConstantIncremental(self.value)

    def view_window(self) -> int:
        return 0


class _ConstantIncremental(IncrementalSensing):
    __slots__ = ("_value",)

    def __init__(self, value: bool) -> None:
        self._value = value

    def observe(self, record: ViewRecord) -> bool:
        return self._value


@dataclass(frozen=True)
class _Negation(Sensing):
    inner: Sensing

    @property
    def name(self) -> str:
        return f"not({self.inner.name})"

    def indicate(self, view: UserView) -> bool:
        return not self.inner.indicate(view)

    def incremental(self) -> Optional[IncrementalSensing]:
        monitor = self.inner.incremental()
        return None if monitor is None else _NegationIncremental(monitor)

    def view_window(self) -> Optional[int]:
        return self.inner.view_window()


class _NegationIncremental(IncrementalSensing):
    __slots__ = ("_inner",)

    def __init__(self, inner: IncrementalSensing) -> None:
        self._inner = inner

    def observe(self, record: ViewRecord) -> bool:
        return not self._inner.observe(record)


@dataclass(frozen=True)
class LastWorldMessageSensing(Sensing):
    """Judges the most recent non-silent message from the world.

    Many goals route ground-truth feedback through the world (the printer
    reports what it printed; the control world scores the last action).
    ``default`` is the indication used before any world message arrives —
    positive by default so a strategy is not condemned before it acted.
    """

    predicate: Callable[[str], bool]
    default: bool = True
    label: str = "last-world-msg"

    @property
    def name(self) -> str:
        return self.label

    def indicate(self, view: UserView) -> bool:
        message = view.last_world_message()
        if message is None:
            return self.default
        return bool(self.predicate(message))

    def incremental(self) -> IncrementalSensing:
        return _LastWorldMessageIncremental(self.predicate, self.default)


class _LastWorldMessageIncremental(IncrementalSensing):
    """Tracks the latest world message — O(1) where ``indicate`` rescans."""

    __slots__ = ("_predicate", "_verdict")

    def __init__(self, predicate: Callable[[str], bool], default: bool) -> None:
        self._predicate = predicate
        self._verdict = default

    def observe(self, record: ViewRecord) -> bool:
        message = record.inbox.from_world
        if message:
            self._verdict = bool(self._predicate(message))
        return self._verdict


@dataclass(frozen=True)
class GraceSensing(Sensing):
    """Wraps another sensing with an initial grace period.

    During the first ``grace_rounds`` of a trial the indication is positive
    regardless of the inner sensing; afterwards the inner verdict applies.
    Universal users need this when feedback is delayed by the two-round
    message latency of the synchronous model — without a grace period they
    would condemn every strategy before its first action could possibly be
    scored.

    When a :mod:`repro.obs` tracer is attached (``with_tracer``), each
    round where the grace window overrides a *negative* inner verdict
    emits a :class:`~repro.obs.events.GraceSuppressed` event — the exact
    feedback the grace ablation (E6) gives up.  The inner sensing is only
    consulted early when tracing, which is sound because sensing functions
    are pure predicates of the view.
    """

    inner: Sensing
    grace_rounds: int = 4
    tracer: TracerLike = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.grace_rounds < 0:
            raise ValueError(f"grace_rounds must be >= 0: {self.grace_rounds}")

    @property
    def name(self) -> str:
        return f"grace({self.grace_rounds},{self.inner.name})"

    def with_tracer(self, tracer: TracerLike) -> "GraceSensing":
        """A copy of this sensing reporting suppressions to ``tracer``."""
        return replace(self, tracer=tracer)

    def indicate(self, view: UserView) -> bool:
        if len(view) <= self.grace_rounds:
            if is_tracing(self.tracer) and not self.inner.indicate(view):
                self.tracer.emit(
                    GraceSuppressed(
                        round_index=len(view) - 1,
                        grace_rounds=self.grace_rounds,
                    )
                )
            return True
        return self.inner.indicate(view)

    def incremental(self) -> IncrementalSensing:
        # The inner monitor must see every record to stay in sync, so the
        # replay fallback is fine here: it costs what the plain per-round
        # ``indicate`` loop cost before.
        return _GraceIncremental(self, incremental_sensing(self.inner))

    def view_window(self) -> Optional[int]:
        return self.inner.view_window()


class _GraceIncremental(IncrementalSensing):
    """Counts rounds itself instead of re-measuring ``len(view)``.

    The inner monitor is advanced every round — including during grace,
    where the serial path only consults the inner sensing when tracing.
    Sensing functions are pure predicates of the view, so the verdicts
    (and any :class:`GraceSuppressed` events) are identical.
    """

    __slots__ = ("_sensing", "_inner", "_seen")

    def __init__(self, sensing: "GraceSensing", inner: IncrementalSensing) -> None:
        self._sensing = sensing
        self._inner = inner
        self._seen = 0

    def observe(self, record: ViewRecord) -> bool:
        self._seen += 1
        verdict = self._inner.observe(record)
        if self._seen <= self._sensing.grace_rounds:
            if not verdict and is_tracing(self._sensing.tracer):
                self._sensing.tracer.emit(
                    GraceSuppressed(
                        round_index=self._seen - 1,
                        grace_rounds=self._sensing.grace_rounds,
                    )
                )
            return True
        return verdict


@dataclass(frozen=True)
class AllOfSensing(Sensing):
    """Positive iff every component is positive."""

    parts: Tuple[Sensing, ...]

    @property
    def name(self) -> str:
        return "all(" + ",".join(p.name for p in self.parts) + ")"

    def indicate(self, view: UserView) -> bool:
        return all(part.indicate(view) for part in self.parts)

    def incremental(self) -> IncrementalSensing:
        return _CombinatorIncremental(
            [incremental_sensing(p) for p in self.parts], want_all=True
        )

    def view_window(self) -> Optional[int]:
        return _combined_window(self.parts)


@dataclass(frozen=True)
class AnyOfSensing(Sensing):
    """Positive iff at least one component is positive."""

    parts: Tuple[Sensing, ...]

    @property
    def name(self) -> str:
        return "any(" + ",".join(p.name for p in self.parts) + ")"

    def indicate(self, view: UserView) -> bool:
        return any(part.indicate(view) for part in self.parts)

    def incremental(self) -> IncrementalSensing:
        return _CombinatorIncremental(
            [incremental_sensing(p) for p in self.parts], want_all=False
        )

    def view_window(self) -> Optional[int]:
        return _combined_window(self.parts)


def _combined_window(parts: Tuple[Sensing, ...]) -> Optional[int]:
    """The widest component window (None as soon as any part is unbounded)."""
    widest = 0
    for part in parts:
        window = part.view_window()
        if window is None:
            return None
        widest = max(widest, window)
    return widest


class _CombinatorIncremental(IncrementalSensing):
    """Advances *every* component monitor, then combines.

    No short-circuiting — each component's state must track the full
    record stream; components are pure so the combined verdict matches
    the short-circuiting serial evaluation.
    """

    __slots__ = ("_monitors", "_want_all")

    def __init__(self, monitors: List[IncrementalSensing], want_all: bool) -> None:
        self._monitors = monitors
        self._want_all = want_all

    def observe(self, record: ViewRecord) -> bool:
        verdicts = [monitor.observe(record) for monitor in self._monitors]
        return all(verdicts) if self._want_all else any(verdicts)


@dataclass(frozen=True)
class NoRecentProgressSensing(Sensing):
    """Negative when the world has been silent for too long.

    A weak, generic sensing usable when the world offers no semantic
    feedback: it only detects *stalls*.  It is safe for goals where any
    progress is reflected in world chatter, and it is the best one can do in
    the feedback-free printer variant of experiment E9 — where it is
    provably not viable, illustrating why Theorem 1's hypotheses matter.
    """

    stall_rounds: int = 8

    @property
    def name(self) -> str:
        return f"no-stall({self.stall_rounds})"

    def indicate(self, view: UserView) -> bool:
        if len(view) < self.stall_rounds:
            return True
        recent = view.tail(self.stall_rounds)
        return any(r.inbox.from_world or r.inbox.from_server for r in recent)

    def incremental(self) -> IncrementalSensing:
        return _StallIncremental(self.stall_rounds)

    def view_window(self) -> int:
        return self.stall_rounds


class _StallIncremental(IncrementalSensing):
    """Remembers the last active round — O(1) where ``indicate`` rescans.

    Positive iff fewer than ``stall_rounds`` rounds have passed since the
    last inbound message (with round 0 counting as activity), which is
    precisely the windowed scan's verdict on every prefix length.
    """

    __slots__ = ("_stall_rounds", "_rounds", "_last_activity")

    def __init__(self, stall_rounds: int) -> None:
        self._stall_rounds = stall_rounds
        self._rounds = 0
        self._last_activity = 0

    def observe(self, record: ViewRecord) -> bool:
        self._rounds += 1
        if record.inbox.from_world or record.inbox.from_server:
            self._last_activity = self._rounds
        return self._rounds - self._last_activity < self._stall_rounds
