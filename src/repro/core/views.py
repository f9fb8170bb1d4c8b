"""The user's local view of an execution.

Sensing functions (Section 3 of the paper) are "predicates of the history of
the portion of the system visible to the user" — the user sees its own
states and the messages it sent and received, *never* the server's or the
world's internal state.  :class:`UserView` packages exactly that surface, so
that a sensing function physically cannot depend on hidden information: the
type system enforces the paper's information constraint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterator, List, Optional, Sequence

from repro.comm.messages import UserInbox, UserOutbox


@dataclass(frozen=True)
class ViewRecord:
    """What the user experienced during one round.

    ``state_before`` is the user's state entering the round; ``inbox`` what
    it read; ``outbox`` what it emitted; ``state_after`` the resulting state.
    """

    round_index: int
    state_before: Any
    inbox: UserInbox
    outbox: UserOutbox
    state_after: Any


class UserView:
    """An append-only sequence of :class:`ViewRecord`.

    The universal users maintain one view per *trial* (i.e., restarted from
    empty whenever they switch inner strategies), because a sensing verdict
    should judge the current strategy, not the wreckage of abandoned ones.
    The engine also maintains a whole-execution view for post-hoc analysis.
    """

    def __init__(self, records: Optional[Sequence[ViewRecord]] = None) -> None:
        self._records: List[ViewRecord] = list(records) if records else []

    def append(self, record: ViewRecord) -> None:
        """Add the latest round's record."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ViewRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> ViewRecord:
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        """Structural equality: same rounds seen, same retained records.

        Views compare by content, not identity, so two executions of the
        same cast/seed have *equal* results — the property the stepper and
        serve parity suites assert end to end.  Comparing ``len`` (total
        rounds, which for bounded views exceeds the retained count) keeps
        a bounded view distinct from a truncated full view.
        """
        if not isinstance(other, UserView):
            return NotImplemented
        return len(self) == len(other) and tuple(self._records) == tuple(
            other._records
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container

    @property
    def records(self) -> Sequence[ViewRecord]:
        """Read-only access to the underlying records."""
        return tuple(self._records)

    def last(self) -> Optional[ViewRecord]:
        """The most recent record, or ``None`` for an empty view."""
        return self._records[-1] if self._records else None

    def messages_from_world(self) -> List[str]:
        """Every non-silent message the world sent the user, in order."""
        return [r.inbox.from_world for r in self._records if r.inbox.from_world]

    def messages_from_server(self) -> List[str]:
        """Every non-silent message the server sent the user, in order."""
        return [r.inbox.from_server for r in self._records if r.inbox.from_server]

    def messages_to_server(self) -> List[str]:
        """Every non-silent message the user sent the server, in order."""
        return [r.outbox.to_server for r in self._records if r.outbox.to_server]

    def messages_to_world(self) -> List[str]:
        """Every non-silent message the user sent the world, in order."""
        return [r.outbox.to_world for r in self._records if r.outbox.to_world]

    def tail(self, count: int) -> "UserView":
        """A view of only the last ``count`` rounds."""
        return UserView(self._records[-count:])

    def iter_reversed(self) -> Iterator[ViewRecord]:
        """Iterate newest-first without copying the record list."""
        return reversed(self._records)

    def last_world_message(self) -> Optional[str]:
        """The most recent non-silent message from the world, if any.

        Early-exits on the reverse scan — sensing functions are evaluated
        every round on a growing view, so this must not rebuild the full
        message list (that turns long executions quadratic).
        """
        for record in reversed(self._records):
            if record.inbox.from_world:
                return record.inbox.from_world
        return None

    def last_server_message(self) -> Optional[str]:
        """The most recent non-silent message from the server, if any."""
        for record in reversed(self._records):
            if record.inbox.from_server:
                return record.inbox.from_server
        return None


class BoundedUserView(UserView):
    """A :class:`UserView` that retains only the last ``window`` records.

    The metrics-only recording policy (see
    :class:`~repro.core.execution.RecordingPolicy`) uses this to stop a
    long execution from accumulating one :class:`ViewRecord` per round
    when nothing downstream will read the full history.  ``len`` still
    reports the *total* number of rounds seen — length-based sensing
    (grace windows, stall detectors) keeps working — while the record
    accessors answer over the retained window only.

    ``window=0`` stores nothing at all; callers use :meth:`advance` to
    tick the round count without even allocating a record.
    """

    def __init__(
        self, window: int, records: Optional[Sequence[ViewRecord]] = None
    ) -> None:
        if window < 0:
            raise ValueError(f"view window must be >= 0: {window}")
        self._window = window
        self._records: Deque[ViewRecord] = deque(records or (), maxlen=window)  # type: ignore[assignment]
        self._total = len(self._records)

    @property
    def window(self) -> int:
        """How many trailing records this view retains."""
        return self._window

    def append(self, record: ViewRecord) -> None:
        """Add the latest round's record, evicting the oldest past the window."""
        if self._window:
            self._records.append(record)
        self._total += 1

    def advance(self, rounds: int = 1) -> None:
        """Advance the round count without storing anything."""
        self._total += rounds

    def __len__(self) -> int:
        return self._total

    def tail(self, count: int) -> UserView:
        """A view of (up to) the last ``count`` *retained* rounds."""
        kept = list(self._records)
        return UserView(kept[-count:])
