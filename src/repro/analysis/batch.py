"""Batched sweep backend: thousands of cells per process, in lockstep.

:class:`BatchExecutor` is the ``executor=`` backend built on
:mod:`repro.core.batch`.  It partitions a sweep's cells into two tiers:

* cells whose whole cast compiles to finite-state tables over a shared
  alphabet (see :func:`repro.core.batch.compile_tabular_cast`) run on the
  **vectorized** kernel — one numpy gather per party per round across all
  slots of a chunk, which is where the 100×+ ``cells_per_s`` lives;
* everything else runs on the **scalar lockstep** scheduler
  (:func:`repro.core.execution.run_steppers`), which interleaves
  arbitrary strategies round by round through the serial engine's own
  round body.

Either way the determinism contract of :mod:`repro.analysis.parallel`
holds: same seeds in, equal :class:`~repro.analysis.runner.SweepCell` out
— metrics, verdicts, telemetry totals, and cell order all match the
serial sweep (``tests/analysis/test_parallel_pool.py`` and
``tests/core/test_batch.py`` pin this cell by cell).

Two deliberate semantic notes:

* The vectorized tier exploits that compiled casts are RNG-free (the
  :class:`~repro.core.batch.TabularStrategy` contract): every seed of a
  cell produces the identical run, so the kernel executes one slot per
  cell and replicates the per-seed metrics.  The parity tests confirm
  this equals running every seed.
* Telemetry in batch mode is **counters-only** — totals equal the serial
  sweep's, but there is no ordered event stream, so traces/certificates
  are unavailable (see "Batched execution" in ``docs/PERFORMANCE.md``).

Cell timing (``wall_time_s``/``cpu_time_s``) is attributed per chunk and
split evenly across the chunk's cells — lockstep cells do not have
individually measurable times.  Timing is excluded from cell equality.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.analysis.runner import CellTask, CellTelemetry, SweepCell
from repro.core.batch import (
    TabularCast,
    TabularOutcome,
    compile_tabular_cast,
    run_tabular_batch,
)
from repro.core.execution import METRICS_RECORDING, ExecutionStepper, run_steppers
from repro.obs.tracer import Tracer

#: Default lockstep width: big enough to amortise per-round numpy/Python
#: overhead, small enough to keep per-chunk arrays cache-resident.
DEFAULT_BATCH_WIDTH = 1024


class BatchExecutor:
    """Lockstep sweep execution — satisfies ``SweepExecutorLike``.

    Parameters
    ----------
    width:
        Maximum number of cells advanced together in one lockstep chunk
        (both tiers).  Width changes scheduling only, never results.
    """

    #: Ledger identity (see :class:`repro.obs.ledger.SweepManifest`).
    backend_name = "batch"

    def __init__(self, width: int = DEFAULT_BATCH_WIDTH) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1: {width}")
        self._width = width

    @property
    def batch_width(self) -> int:
        return self._width

    def map_cells(self, tasks: Sequence[CellTask]) -> List[SweepCell]:
        results: List[Optional[SweepCell]] = [None] * len(tasks)
        # Vector chunks must share (alphabet, horizon, telemetry); the
        # grouping is deterministic (dict preserves first-seen order).
        vector: Dict[
            Tuple[Tuple[str, ...], int, bool],
            List[Tuple[int, CellTask, TabularCast]],
        ] = {}
        scalar: List[Tuple[int, CellTask]] = []
        # Sweeps tile a handful of strategy objects across many cells
        # (the tasks hold references, so ids stay stable for the cache's
        # lifetime); compiling each distinct cast once turns the compile
        # cost from O(cells) into O(distinct casts).
        compiled: Dict[
            Tuple[int, int, int, int], Optional[TabularCast]
        ] = {}
        for pos, task in enumerate(tasks):
            cache_key = (
                id(task.user), id(task.server), id(task.goal), id(task.channel)
            )
            if cache_key in compiled:
                cast = compiled[cache_key]
            else:
                cast = compile_tabular_cast(
                    task.user, task.server, task.goal.world, task.goal,
                    channel=task.channel,
                )
                compiled[cache_key] = cast
            if cast is None:
                scalar.append((pos, task))
            else:
                key = (cast.alphabet, task.max_rounds, task.telemetry)
                vector.setdefault(key, []).append((pos, task, cast))
        for (_, max_rounds, telemetry), entries in vector.items():
            for start in range(0, len(entries), self._width):
                _run_vector_chunk(
                    entries[start : start + self._width],
                    max_rounds, telemetry, results,
                )
        for start in range(0, len(scalar), self._width):
            _run_scalar_chunk(scalar[start : start + self._width], results)
        return [cell for cell in results if cell is not None]


def _vector_metrics(outcome: TabularOutcome) -> RunMetrics:
    """Exactly what ``collect_metrics`` extracts from a tabular cast's run.

    Compiled casts never halt, produce no output, and carry no
    universal-user state, so the optional fields are all ``None`` — the
    parity suite checks this equals the scalar path field by field.
    """
    return RunMetrics(
        achieved=outcome.achieved,
        halted=False,
        rounds=outcome.rounds,
        bad_prefixes=outcome.bad_prefixes,
        last_bad_round=outcome.last_bad_round,
    )


def _vector_telemetry(outcome: TabularOutcome, n_seeds: int) -> CellTelemetry:
    """Reconstruct the serial tracer's counter tuple for one cell.

    Counter *order* follows creation order in a serial run: the tracer
    creates ``messages``/``message_bytes`` before ``rounds`` iff the first
    round of the first seed emitted a message (MessageSent events precede
    that round's RoundExecuted); compiled casts are deterministic, so all
    seeds replay the first.
    """
    rounds = ("rounds", outcome.rounds * n_seeds)
    if outcome.messages == 0:
        return CellTelemetry(counters=(rounds,))
    sent = (
        ("messages", outcome.messages * n_seeds),
        ("message_bytes", outcome.message_bytes * n_seeds),
    )
    if outcome.first_round_messages:
        return CellTelemetry(counters=(*sent, rounds))
    return CellTelemetry(counters=(rounds, *sent))


def _run_vector_chunk(
    entries: Sequence[Tuple[int, CellTask, TabularCast]],
    max_rounds: int,
    telemetry: bool,
    results: List[Optional[SweepCell]],
) -> None:
    """One vectorized lockstep chunk: one kernel slot per cell."""
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    outcomes = run_tabular_batch(
        [cast for _, _, cast in entries],
        max_rounds=max_rounds,
        count_messages=telemetry,
    )
    wall = round((time.perf_counter() - wall_start) / len(entries), 6)
    cpu = round((time.process_time() - cpu_start) / len(entries), 6)
    for (pos, task, _), outcome in zip(entries, outcomes):
        metrics = _vector_metrics(outcome)
        results[pos] = SweepCell(
            user_name=task.user.name,
            server_name=task.server.name,
            runs=tuple(metrics for _ in task.seeds),
            telemetry=(
                _vector_telemetry(outcome, len(task.seeds)) if telemetry else None
            ),
            channel_name=None,
            wall_time_s=wall,
            cpu_time_s=cpu,
        )


def _run_scalar_chunk(
    entries: Sequence[Tuple[int, CellTask]],
    results: List[Optional[SweepCell]],
) -> None:
    """One scalar lockstep chunk: every (cell, seed) pair is one slot.

    Cells needing per-cell telemetry get a *copied* user so each copy can
    carry its own borrowed ``tracer`` while slots interleave (serial
    sweeps borrow-and-restore sequentially; lockstep cannot).  A user
    that refuses to ``deepcopy`` falls back to running its cell serially
    — a semantics-preserving escape hatch, like the scalar fallback of
    the vector tier.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    steppers: List[ExecutionStepper] = []
    spans: List[Tuple[int, CellTask, Optional[Tracer], int]] = []
    for pos, task in entries:
        tracer = Tracer() if task.telemetry else None
        user = task.user
        if task.telemetry and hasattr(user, "tracer"):
            try:
                user = copy.deepcopy(task.user)
            except Exception:
                results[pos] = task.run()
                continue
            user.tracer = tracer
        spans.append((pos, task, tracer, len(steppers)))
        for seed in task.seeds:
            steppers.append(
                ExecutionStepper(
                    user,
                    task.server,
                    task.goal.world,
                    max_rounds=task.max_rounds,
                    seed=seed,
                    tracer=tracer,
                    recording=METRICS_RECORDING,
                    channel=task.channel,
                )
            )
    executions = run_steppers(steppers)
    wall = round((time.perf_counter() - wall_start) / len(entries), 6)
    cpu = round((time.process_time() - cpu_start) / len(entries), 6)
    for pos, task, tracer, first in spans:
        runs = tuple(
            collect_metrics(execution, task.goal)
            for execution in executions[first : first + len(task.seeds)]
        )
        results[pos] = SweepCell(
            user_name=task.user.name,
            server_name=task.server.name,
            runs=runs,
            telemetry=(
                CellTelemetry.from_tracer(tracer) if tracer is not None else None
            ),
            channel_name=(
                None
                if task.channel is None
                else getattr(task.channel, "name", "channel")
            ),
            wall_time_s=wall,
            cpu_time_s=cpu,
        )


__all__ = ["DEFAULT_BATCH_WIDTH", "BatchExecutor"]
