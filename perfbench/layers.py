"""Per-layer timing for the traced run: wrappers installed from outside.

Nothing here edits the program.  :func:`instrument` replaces public
functions and methods of each layer with timing wrappers for the length
of a ``with`` block and restores the originals on exit.  The wrappers
only observe: every call is forwarded with its arguments unchanged and
its return value untouched, which is why the traced pass must reproduce
the untraced pass's output digest exactly.

Two kinds of frame are kept:

* *spans* at coarse boundaries (``sweep``, ``run_execution``,
  ``Session.step``/``close``, ledger writes, certification) are stored in
  memory with name, start, end, parent and session id, and written out
  as JSON lines when the run ends;
* *tallies* at hot boundaries (party steps, codecs, channel, tracer,
  goal evaluation) are summed in place, because one record per call
  would not fit in memory on a serve run.

A frame's self time is its duration minus the time of the frames nested
inside it, so summing the self times of one layer never counts a nested
call twice.  The wrappers' own entry and exit cost lands in the caller's
self time; it is the same on every commit measured with this code.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Frames whose direct children are the parties of one round.
ROUND_LOOPS = ("core.execution", "serve.session.step")

SILENCE = ""


class Tally:
    """Calls, inclusive and self nanoseconds of one layer's frames."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Recorder:
    """In-memory spans, per-layer tallies, counts and GC pauses of one run."""

    def __init__(self) -> None:
        # Frame: [layer name, child ns, span index or -1].
        self.stack: List[List[Any]] = []
        self.tallies: Dict[str, Tally] = {}
        #: (name, start ns, end ns, parent span index, session id)
        self.spans: List[Tuple[str, int, int, int, str]] = []
        self.counts: Dict[str, int] = {}
        self.gc_pauses_ns: List[int] = []
        self.gc_gen2 = 0
        self._gc_start = 0

    def tally(self, name: str) -> Tally:
        found = self.tallies.get(name)
        if found is None:
            found = self.tallies[name] = Tally()
        return found

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _parent_span(self) -> int:
        for frame in reversed(self.stack):
            if frame[2] >= 0:
                return int(frame[2])
        return -1

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        span: bool = False,
        session: Optional[Callable[[Tuple[Any, ...]], str]] = None,
        observe: Optional[Callable[[Tuple[Any, ...], Any, Optional[str]], None]] = None,
        unless_inside: str = "",
    ) -> Callable[..., Any]:
        """``fn`` timed as a frame of layer ``name``.

        ``span`` keeps one span per call; ``session`` names the session a
        span belongs to; ``observe(args, result, parent_layer)`` counts
        work from the call's arguments and result.  Calls made while a
        frame of layer ``unless_inside`` is open are left to that frame.
        """
        tally = self.tally(name)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            if unless_inside and any(frame[0] == unless_inside for frame in stack):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            index = -1
            if span:
                index = len(spans)
                spans.append(
                    (name, 0, 0, self._parent_span(),
                     session(args) if session is not None else "")
                )
            frame = [name, 0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tally.calls += 1
                tally.total_ns += duration
                tally.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span:
                    record = spans[index]
                    spans[index] = (record[0], start, end, record[3], record[4])
            if observe is not None:
                observe(args, result, parent)
            return result

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def leaf_span(self, name: str, start_ns: int, end_ns: int, session_id: str) -> None:
        """A span timed by the caller (around an ``await``, so never a parent)."""
        self.spans.append((name, start_ns, end_ns, -1, session_id))
        tally = self.tally(name)
        tally.calls += 1
        tally.total_ns += end_ns - start_ns
        tally.self_ns += end_ns - start_ns

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.gc_pauses_ns.append(time.perf_counter_ns() - self._gc_start)
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, session_id in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "session": session_id},
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


# ----------------------------------------------------------------------
# Work counted at the boundaries.


def _user_messages(rec: Recorder) -> Callable[..., None]:
    def observe(args: Tuple[Any, ...], result: Any, parent: Optional[str]) -> None:
        if parent in ROUND_LOOPS:
            out = result[1]
            rec.count("messages", (out.to_server != SILENCE) + (out.to_world != SILENCE))
    return observe


def _server_messages(rec: Recorder) -> Callable[..., None]:
    def observe(args: Tuple[Any, ...], result: Any, parent: Optional[str]) -> None:
        if parent in ROUND_LOOPS:
            out = result[1]
            rec.count("messages", (out.to_user != SILENCE) + (out.to_world != SILENCE))
    return observe


def _world_messages(rec: Recorder) -> Callable[..., None]:
    def observe(args: Tuple[Any, ...], result: Any, parent: Optional[str]) -> None:
        if parent in ROUND_LOOPS:
            out = result[1]
            rec.count("messages", (out.to_user != SILENCE) + (out.to_server != SILENCE))
    return observe


def _channel_drops(rec: Recorder) -> Callable[..., None]:
    # The fleets' channel only drops, so a fault is a payload that went in
    # and came out silent.
    def observe(args: Tuple[Any, ...], result: Any, parent: Optional[str]) -> None:
        sent = (args[2] != SILENCE, args[3] != SILENCE)
        lost = (sent[0] and result[0] == SILENCE, sent[1] and result[1] == SILENCE)
        rec.count("channel.messages", sent[0] + sent[1])
        rec.count("faults", lost[0] + lost[1])
    return observe


def _session_id(args: Tuple[Any, ...]) -> str:
    return str(args[0].session_id)


def _run_id(rec: Recorder) -> Callable[[Tuple[Any, ...]], str]:
    def name(args: Tuple[Any, ...]) -> str:
        rec.count("runs")
        return f"run{rec.counts['runs']:06d}"
    return name


@contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Install every layer's wrappers (and the GC hook) for one block."""
    from repro.analysis import runner
    from repro.comm import codecs
    from repro.core.goals import CompactGoal, FiniteGoal
    from repro.faults.channel import FaultyChannelRun
    from repro.machines.tabular import TabularServer, TabularUser, TabularWorld
    from repro.obs import certify, ledger
    from repro.obs.tracer import Tracer
    from repro.serve.session import Session
    from repro.servers.wrappers import EncodedServer
    from repro.universal.compact import CompactUniversalUser
    from repro.users.control_users import AdvisorFollowingUser
    from repro.worlds.control import ControlWorld

    patches: List[Tuple[Any, str, Any, Callable[..., Any]]] = []

    def method(owner: Any, attr: str, name: str, **options: Any) -> None:
        original = owner.__dict__[attr]
        patches.append((owner, attr, original, rec.wrap(name, original, **options)))

    method(runner, "run_execution", "core.execution", span=True, session=_run_id(rec))
    method(Session, "step", "serve.session.step", span=True, session=_session_id)
    method(Session, "close", "serve.session.close", span=True, session=_session_id)
    method(CompactGoal, "evaluate", "core.goals")
    method(FiniteGoal, "evaluate", "core.goals")
    method(CompactUniversalUser, "step", "universal", observe=_user_messages(rec))
    for user_class in (AdvisorFollowingUser, TabularUser):
        method(user_class, "step", "users", observe=_user_messages(rec))
    for server_class in (EncodedServer, TabularServer):
        method(server_class, "step", "servers", observe=_server_messages(rec))
    for world_class in (ControlWorld, TabularWorld):
        method(world_class, "step", "worlds", observe=_world_messages(rec))
    for value in vars(codecs).values():
        if isinstance(value, type) and issubclass(value, codecs.Codec):
            for attr in ("encode", "decode"):
                if attr in value.__dict__ and value is not codecs.Codec:
                    method(value, attr, "comm.codecs")
    # Certification replays fault schedules through its own tracer; that
    # work is certification's, not the channel's or the session tracer's.
    method(FaultyChannelRun, "apply", "faults.channel", observe=_channel_drops(rec),
           unless_inside="obs.certify")
    method(Tracer, "emit", "obs.tracer", unless_inside="obs.certify")
    method(ledger, "write_manifest", "obs.ledger", span=True)
    method(ledger, "file_sha256", "obs.ledger", span=True)
    method(certify, "certify_run", "obs.certify", span=True)

    for owner, attr, _original, wrapper in patches:
        setattr(owner, attr, wrapper)
    gc.callbacks.append(rec._on_gc)
    try:
        yield rec
    finally:
        gc.callbacks.remove(rec._on_gc)
        for owner, attr, original, _wrapper in reversed(patches):
            setattr(owner, attr, original)
