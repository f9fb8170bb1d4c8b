"""Structured tracing and metrics for the execution engine.

The paper's universal user is a *dynamic* — enumerate, sense, switch — and
this package makes that dynamic inspectable: typed events
(:mod:`.events`), monotonic counters and histograms (:mod:`.counters`),
pluggable sinks including a deterministic JSONL writer (:mod:`.sinks`),
and the :class:`~.tracer.Tracer` that ties them together (:mod:`.tracer`).

Instrumented call sites: ``run_execution(..., tracer=)`` (round and
message events), the universal users (sensing, switch, and trial events),
:class:`~repro.core.sensing.GraceSensing` (grace-suppression events), and
``analysis.runner.sweep(..., telemetry=True)`` (per-cell counters).

Tracing is strictly opt-in and the off path is allocation-free; see
``docs/OBSERVABILITY.md`` for the taxonomy and usage patterns.

The read/analysis half of the stack — the run ledger (:mod:`.ledger`),
overhead accounting (:mod:`.overhead`), the certificate checker
(:mod:`.certify`), the live-telemetry plane (:mod:`.live`), and the
``python -m repro.obs`` trace CLI (:mod:`.analyze`) — is re-exported
*lazily* (PEP 562): the engine's ``from repro.obs.events import ...``
runs this ``__init__``, and the tracing-off path must not pay for (or
even load) analysis-side code.  The flight recorder (:mod:`.flight`) is
emit-side and eager: a bounded ring plus :func:`dump_flight` for the
last-events-before-death black box.
"""

from repro.obs.counters import Counter, CounterSet, Histogram
from repro.obs.events import (
    Event,
    ExecutionFinished,
    ExecutionStarted,
    FaultInjected,
    FaultRecovered,
    GoalVerdict,
    GraceSuppressed,
    MessageSent,
    ProofFinished,
    ProofRoundChecked,
    ProofStarted,
    RoundExecuted,
    SensingIndication,
    SessionAbandoned,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
    event_from_dict,
    event_kinds,
)
from repro.obs.flight import FlightBuffer, TeeSink, dump_flight
from repro.obs.sinks import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_MINOR,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    TraceSchemaError,
    iter_trace,
    iter_trace_numbered,
    read_jsonl,
    read_trace,
)
from repro.obs.tracer import NoopTracer, Tracer, TracerLike, is_tracing

#: Analysis-side names resolved on first attribute access (PEP 562), so
#: importing the emit-side modules never loads ledger/overhead code.
_LAZY_EXPORTS = {
    "RunManifest": "repro.obs.ledger",
    "SweepManifest": "repro.obs.ledger",
    "record_run": "repro.obs.ledger",
    "OverheadReport": "repro.obs.overhead",
    "StrategyAttribution": "repro.obs.overhead",
    "compute_overhead": "repro.obs.overhead",
    "DiffReport": "repro.obs.analyze",
    "TraceSummary": "repro.obs.analyze",
    "compute_diff": "repro.obs.analyze",
    "render_timeline": "repro.obs.analyze",
    "summarize_trace": "repro.obs.analyze",
    "CertificateReport": "repro.obs.certify",
    "CertificationError": "repro.obs.certify",
    "CertifyIssue": "repro.obs.certify",
    "certify_events": "repro.obs.certify",
    "certify_run": "repro.obs.certify",
    "certify_sweep": "repro.obs.certify",
    "certify_trace": "repro.obs.certify",
    "METRICS_SCHEMA": "repro.obs.live",
    "AdminServer": "repro.obs.live",
    "MetricsSampler": "repro.obs.live",
    "MetricsSchemaError": "repro.obs.live",
    "cumulative_counters": "repro.obs.live",
    "parse_prometheus": "repro.obs.live",
    "read_metrics": "repro.obs.live",
    "render_prometheus": "repro.obs.live",
    "scrape_admin": "repro.obs.live",
    "write_metrics": "repro.obs.live",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "Counter",
    "CounterSet",
    "Histogram",
    "Event",
    "ExecutionStarted",
    "ExecutionFinished",
    "RoundExecuted",
    "MessageSent",
    "SensingIndication",
    "StrategySwitch",
    "TrialStarted",
    "TrialFinished",
    "GraceSuppressed",
    "FaultInjected",
    "FaultRecovered",
    "GoalVerdict",
    "ProofStarted",
    "ProofRoundChecked",
    "ProofFinished",
    "SessionAbandoned",
    "event_from_dict",
    "event_kinds",
    "FlightBuffer",
    "TeeSink",
    "dump_flight",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_MINOR",
    "TraceSchemaError",
    "iter_trace",
    "iter_trace_numbered",
    "read_jsonl",
    "read_trace",
    "CertificateReport",
    "CertificationError",
    "CertifyIssue",
    "certify_events",
    "certify_run",
    "certify_sweep",
    "certify_trace",
    "METRICS_SCHEMA",
    "AdminServer",
    "MetricsSampler",
    "MetricsSchemaError",
    "cumulative_counters",
    "parse_prometheus",
    "read_metrics",
    "render_prometheus",
    "scrape_admin",
    "write_metrics",
    "RunManifest",
    "SweepManifest",
    "record_run",
    "OverheadReport",
    "StrategyAttribution",
    "compute_overhead",
    "DiffReport",
    "TraceSummary",
    "compute_diff",
    "render_timeline",
    "summarize_trace",
    "NoopTracer",
    "Tracer",
    "TracerLike",
    "is_tracing",
]
