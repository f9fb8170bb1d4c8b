"""Sweep-level performance: executor backends.

Two questions, answered with tables and a JSON baseline
(``BENCH_sweep.json``, repo root):

1. Does the process-pool executor pay for itself?  A 4-worker sweep over
   8 independent cells must return the *same* :class:`SweepResult` as the
   serial reference — asserted unconditionally — and complete at least 2×
   faster when the machine actually has 4 cores (asserted only then:
   on a shared single-core runner the pool can only add overhead, which
   the table still reports honestly).  The executor is created once and
   reused across the timed repeats, so the number reflects the persistent
   pool, not per-call process spawning.
2. What do the cells cost per second, for capacity planning.

Run with ``pytest benchmarks/bench_sweep.py -s``, or directly with
``python benchmarks/bench_sweep.py [--record BENCH_history.jsonl]`` to
refresh the baseline and stamp the figures into the bench history.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit

from repro.analysis.parallel import ProcessExecutor
from repro.analysis.runner import merge_telemetry, sweep
from repro.analysis.tables import format_table
from repro.comm.codecs import codec_family
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(8)
LAW = random_law(random.Random(1))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)  # 8 independent cells
HORIZON = 2000
SEEDS = (0, 1)
WORKERS = 4
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def universal():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS), label="followers"),
        control_sensing(),
    )


def run_sweep(executor=None, telemetry=False):
    return sweep(
        universal(), SERVERS, GOAL,
        seeds=SEEDS, max_rounds=HORIZON,
        telemetry=telemetry, executor=executor,
    )


def timed(fn, repeats=2):
    """(best wall-clock seconds, last result) — min is the noise-robust
    estimator for "how fast can this go"."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _update_baseline(fields):
    """Merge ``fields`` into BENCH_sweep.json (bench tests compose it)."""
    payload = {}
    if BASELINE_PATH.exists():
        payload = json.loads(BASELINE_PATH.read_text())
    payload.update(fields)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_sweep_backends():
    cores = os.cpu_count() or 1
    cells = len(SERVERS)

    serial_s, serial = timed(lambda: run_sweep())
    # One executor across the repeats: the second call reuses the warm
    # pool, and min() picks it — the steady-state persistent-pool figure.
    executor = ProcessExecutor(max_workers=WORKERS)
    try:
        parallel_s, parallel = timed(lambda: run_sweep(executor=executor))
    finally:
        executor.close()

    # Correctness before speed: every backend agrees exactly.
    assert parallel == serial, "process pool changed sweep results"
    assert serial.universal_success

    speedup = serial_s / parallel_s
    rows = [
        ["serial", f"{serial_s:.3f}", f"{cells / serial_s:.1f}", "1.00"],
        [
            f"process×{WORKERS}",
            f"{parallel_s:.3f}",
            f"{cells / parallel_s:.1f}",
            f"{speedup:.2f}",
        ],
    ]
    emit(
        format_table(
            ["backend", "seconds", "cells/s", "speedup"],
            rows,
            title=f"sweep throughput ({cells} cells, horizon={HORIZON}, "
                  f"{cores} cores)",
        )
    )

    _update_baseline(
        {
            "cells": cells,
            "horizon": HORIZON,
            "seeds": len(SEEDS),
            "cores": cores,
            "workers": WORKERS,
            "serial_s": round(serial_s, 4),
            "cells_per_s": round(cells / serial_s, 3),
            "parallel_s": round(parallel_s, 4),
            "parallel_speedup": round(speedup, 3),
        }
    )

    # The scaling gate only means something when the cores exist.
    if cores >= WORKERS:
        assert speedup >= 2.0, (
            f"{WORKERS}-worker speedup {speedup:.2f}x < 2x on {cores} cores"
        )


def test_parallel_telemetry_totals_match_serial():
    """Telemetry merged across workers equals the serial totals."""
    serial = run_sweep(telemetry=True)
    executor = ProcessExecutor(max_workers=WORKERS)
    try:
        parallel = run_sweep(telemetry=True, executor=executor)
    finally:
        executor.close()
    serial_totals = merge_telemetry([c.telemetry for c in serial.cells])
    parallel_totals = merge_telemetry([c.telemetry for c in parallel.cells])
    assert parallel_totals == serial_totals
    assert serial_totals.get("rounds") > 0


def main(argv=None):
    """Refresh BENCH_sweep.json outside pytest; optionally record history."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        type=Path,
        metavar="FILE",
        help="append the fresh figures to this bench-history JSONL file",
    )
    args = parser.parse_args(argv)
    test_sweep_backends()
    if args.record is not None:
        from check_bench_regression import record_history

        record_history(
            args.record, json.loads(BASELINE_PATH.read_text()), BASELINE_PATH
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
