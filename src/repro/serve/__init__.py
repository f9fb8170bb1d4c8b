"""A session service for goal-oriented communication.

The paper's setting — a user pursuing a goal against an unknown server
over an unreliable channel — is intrinsically a *long-running session*,
and the batch entry points (:func:`repro.core.execution.run_execution`,
:func:`repro.analysis.runner.sweep`) run each one to completion before
touching the next.  This package is the service form of the same model:

* :mod:`repro.serve.session` — one cast with create/step/close semantics,
  stepped cooperatively via :class:`repro.core.execution.ExecutionStepper`,
  with the same provenance trail as :func:`repro.obs.ledger.record_run`
  (certifiable trace + manifest per session);
* :mod:`repro.serve.engine` — an asyncio :class:`~repro.serve.engine.ServeEngine`
  multiplexing thousands of sessions in one process, with bounded
  admission, reject/park backpressure, fair round-robin scheduling,
  graceful drain, and :class:`~repro.obs.counters.CounterSet` telemetry;
* :mod:`repro.serve.loadgen` — open-loop traffic over a grid of session
  specs, reporting throughput and latency percentiles
  (``python -m repro.serve`` is its CLI, writing ``BENCH_serve.json``).

Parity contract: a session stepped through the engine produces a
bitwise-identical :class:`~repro.core.execution.ExecutionResult` to
``run_execution`` on the same cast/seed — serving changes *where* rounds
run, never what they compute.  ``tests/serve`` and the ``serve-smoke``
CI job pin this.

Imports here are emit-side only (stdlib + core); ledger/certify modules
load lazily inside the tracing and manifest paths, mirroring
``repro.obs``'s split, so a metrics-only engine stays light.
"""

from repro.serve.engine import EngineClosed, ServeEngine, SessionHandle, SessionRejected
from repro.serve.session import (
    Session,
    SessionOutcome,
    SessionSpec,
    derive_session_seeds,
)

__all__ = [
    "EngineClosed",
    "ServeEngine",
    "Session",
    "SessionHandle",
    "SessionOutcome",
    "SessionRejected",
    "SessionSpec",
    "derive_session_seeds",
]
