"""Tracers: the single object threaded through an instrumented run.

A tracer bundles a sink (the event stream) and a :class:`CounterSet`
(running totals derived from the events).  Instrumented code holds
exactly one reference and calls ``emit``.

The contract that keeps the engine fast: every tracer exposes a class-level
``enabled`` flag, and instrumented hot loops hoist ``tracer is not None and
tracer.enabled`` into a local before the loop.  With ``tracer=None`` or a
:class:`NoopTracer`, the loop body therefore allocates *nothing* — no event
objects, no string joins, not even a method call — so tracing-off costs one
branch per round (benchmarked in ``benchmarks/bench_engine.py``).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.counters import CounterSet
from repro.obs.events import (
    Event,
    FaultInjected,
    FaultRecovered,
    GraceSuppressed,
    MessageSent,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    TrialStarted,
)
from repro.obs.sinks import NullSink, Sink


class NoopTracer:
    """A tracer that records nothing.

    Exists so call sites can take a tracer unconditionally; instrumented
    code that honours the ``enabled`` contract never even calls
    :meth:`emit`.  (The method is still a correct no-op for code that
    doesn't bother checking.)
    """

    __slots__ = ()
    enabled = False

    def emit(self, event: Event) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """An enabled tracer: events to the sink, totals to the counters.

    Parameters
    ----------
    sink:
        Event destination; defaults to :class:`~repro.obs.sinks.NullSink`,
        i.e. a counters-only tracer — the cheapest *on* configuration,
        which is what sweeps use for per-cell telemetry.
    counters:
        Injectable so several runs can share one accumulator (a sweep cell
        aggregates across seeds this way).
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[Sink] = None,
        counters: Optional[CounterSet] = None,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.counters = counters if counters is not None else CounterSet()

    def emit(self, event: Event) -> None:
        """Record one event: update counters, then forward to the sink."""
        counters = self.counters
        if type(event) is RoundExecuted:
            counters.inc("rounds")
        elif type(event) is MessageSent:
            counters.inc("messages")
            counters.inc("message_bytes", len(event.payload))
        elif type(event) is SensingIndication:
            counters.inc(
                "sensing_positive" if event.positive else "sensing_negative"
            )
        elif type(event) is StrategySwitch:
            counters.inc("switches")
            if event.wrapped:
                counters.inc("wraps")
        elif type(event) is TrialStarted:
            counters.inc("trials")
        elif type(event) is GraceSuppressed:
            counters.inc("grace_suppressed")
        elif type(event) is FaultInjected:
            counters.inc("faults_injected")
        elif type(event) is FaultRecovered:
            counters.inc("faults_recovered")
        self.sink.emit(event)

    def close(self) -> None:
        """Close the sink (the counters remain readable)."""
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: What instrumented code accepts: off (None), explicitly off, or on.
TracerLike = Union[None, NoopTracer, Tracer]


def is_tracing(tracer: TracerLike) -> bool:
    """The hoisted hot-loop check, as a named helper for call sites."""
    return tracer is not None and tracer.enabled
