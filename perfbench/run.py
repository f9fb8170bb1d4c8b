"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-e1 --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice on the same inputs, untraced and
then with every layer's public calls timed (see ``layers.py``), and
prints the per-layer metrics.  Both modes check every output against
``expected.json`` and print, as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it stamps the host, the inputs and the exact counts.
See ``README.md`` for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads
from layers import Recorder, Tally, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORK = HERE / "_work"
SPANS = HERE / "spans"

#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 5

#: Arrival rates (sessions/s), about half of each workload's capacity on
#: the 2-core host the benchmark was tuned on (see README.md).
RATES = {"serve-bare": 300.0, "serve-certified": 40.0}

WORKLOADS = ("sweep-e1", "serve-bare", "serve-certified")

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_session", "ms"),
    ("peak_rss_mb", "MB"),
]

#: The latency tail is reported from the traced run's untraced pass and
#: has no regression bound: on a shared 2-core host its run-to-run spread
#: (0.2-0.6 of its median over ten runs) is wider than any bound allowed.
PER_LAYER: List[Tuple[str, str]] = [
    ("latency_p99_ms", "ms"),
    ("serve.engine.queue_wait_ms_p50", "ms"),
    ("serve.engine.queue_wait_ms_p99", "ms"),
    ("serve.engine.sched_wait_ms_per_session", "ms"),
    ("serve.engine.slices_per_session", "count"),
    ("serve.engine.loop_lag_ms_p99", "ms"),
    ("serve.engine.open_high_water", "count"),
    ("serve.engine.parked", "count"),
    ("serve.session.admit_us", "us"),
    ("serve.session.service_ms", "ms"),
    ("serve.session.settle_ms", "ms"),
    ("core.stepper.us_per_round", "us"),
    ("core.execution.us_per_round", "us"),
    ("core.self_us_per_round", "us"),
    ("core.rounds", "count"),
    ("core.goals.evaluate_us", "us"),
    ("universal.step_us", "us"),
    ("universal.switches_per_run", "count"),
    ("users.step_us", "us"),
    ("servers.step_us", "us"),
    ("worlds.step_us", "us"),
    ("comm.codecs.us_per_round", "us"),
    ("faults.channel.us_per_round", "us"),
    ("faults.channel.faults_per_1k_messages", "count"),
    ("obs.tracer.events_per_round", "count"),
    ("obs.tracer.emit_us_per_round", "us"),
    ("obs.sinks.trace_bytes_per_round", "B"),
    ("obs.ledger.write_ms_per_session", "ms"),
    ("obs.certify.ms_per_session", "ms"),
    ("obs.certify.rounds_per_s", "1/s"),
    ("analysis.runner.overhead_ms", "ms"),
    ("gc.pause_ms_total", "ms"),
    ("gc.pause_ms_max", "ms"),
    ("gc.gen2_collections", "count"),
    ("trace.overhead_pct", "%"),
]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up probe (see measure_setup).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up


def setup(workload: str, variant: int, workdir: Path) -> Any:
    """Imports, inputs and warm-up: everything before the first timed call."""
    if workload == "sweep-e1":
        return workloads.sweep_setup(variant)
    return workloads.serve_setup(
        variant, workdir, certified=workload == "serve-certified"
    )


def setup_probe(workload: str, variant: int, workdir: Path) -> None:
    """Child side: set up, start the engine, say ready, then tear down."""
    plan = setup(workload, variant, workdir)
    if workload == "sweep-e1":
        print("ready", flush=True)
        return

    async def start_then_close() -> None:
        engine = await workloads.start_engine(plan, workdir / "ledger")
        print("ready", flush=True)
        await engine.close()

    asyncio.run(start_then_close())


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from process spawn to ready, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            assert child.stdout is not None
            line = child.stdout.readline().strip()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(ready - start)
    return workloads.median(times)


# ----------------------------------------------------------------------
# One pass


def timed_pass(
    workload: str, plan: Any, seconds: float, workdir: Path, name: str, rec: Any
) -> Any:
    if workload == "sweep-e1":
        return workloads.sweep_pass(plan, seconds, rec)
    rate = RATES[workload]
    unit = len(plan.specs)
    arrivals = unit * max(1, round(rate * seconds / unit))
    return workloads.serve_pass(plan, rate, arrivals, workdir / name, rec)


def latency_ms(result: Any, q: float) -> float:
    return workloads.windowed_percentile(result.latencies_ms, q, result.latency_window)


def end_to_end(workload: str, result: Any, setup_s: float) -> Dict[str, float]:
    if workload == "sweep-e1":
        per_sweep = [unit.runs / wall for unit, wall in zip(result.units, result.unit_walls)]
        runs_per_s = workloads.median(per_sweep)
    else:
        runs_per_s = (result.attempted - result.failed) / result.wall_s
    return {
        "setup_s": setup_s,
        "runs_per_s": runs_per_s,
        "latency_p50_ms": latency_ms(result, 50.0),
        "cpu_ms_per_session": result.cpu_s * 1000.0 / result.runs,
        "peak_rss_mb": result.peak_rss_mb,
    }


def per_layer(
    workload: str, rec: Any, traced: Any, untraced: Any
) -> Dict[str, float]:
    """The per-layer table from the traced pass (see README.md)."""
    rounds = traced.rounds
    runs = traced.runs

    def tally(name: str) -> Tally:
        return rec.tallies.get(name) or Tally()

    def per_call_us(name: str) -> float:
        found = tally(name)
        return found.self_ns / 1000.0 / found.calls if found.calls else 0.0

    def per_round_us(ns: int) -> float:
        return ns / 1000.0 / rounds

    def per_session_ms(ns: int) -> float:
        return ns / 1e6 / runs

    serve = workload != "sweep-e1"
    first_step: Dict[str, int] = {}
    slices = 0
    for name, start, _end, _parent, session_id in rec.spans:
        if name == "serve.session.step":
            slices += 1
            first_step.setdefault(session_id, start)
    times = traced.times
    arrivals = range(len(times["due"])) if serve else range(0)
    queue_wait = [
        (first_step[f"a{i:06d}"] / 1e9 - times["admitted"][i]) * 1000.0
        for i in arrivals if f"a{i:06d}" in first_step
    ]
    # Time a session was open but not inside its own calls: admission to
    # settling, minus the session's own create/step/close time.
    sched_wait = [
        (times["done"][i] - times["admitted"][i] - times["inside"][i]) * 1000.0
        for i in arrivals if times["done"][i]
    ]
    lag = [(times["submitted"][i] - times["due"][i]) * 1000.0 for i in arrivals]
    submit = tally("serve.engine.submit")
    sweeps = tally("analysis.runner")
    certify = tally("obs.certify")
    trace_bytes = sum(unit.trace_bytes for unit in traced.units)
    channel = rec.counts.get("channel.messages", 0)
    if serve:
        overhead = (traced.cpu_s / traced.runs) / (untraced.cpu_s / untraced.runs)
    else:
        overhead = workloads.median(traced.unit_walls) / workloads.median(untraced.unit_walls)
    pauses = rec.gc_pauses_ns

    def pct(values: List[float], q: float) -> float:
        return workloads.percentile(values, q) if values else 0.0

    return {
        "latency_p99_ms": latency_ms(untraced, 99.0),
        "serve.engine.queue_wait_ms_p50": pct(queue_wait, 50.0),
        "serve.engine.queue_wait_ms_p99": pct(queue_wait, 99.0),
        "serve.engine.sched_wait_ms_per_session":
            sum(sched_wait) / len(sched_wait) if sched_wait else 0.0,
        "serve.engine.slices_per_session": slices / runs if serve else 0.0,
        "serve.engine.loop_lag_ms_p99": pct(lag, 99.0),
        "serve.engine.open_high_water": traced.engine_counters.get("open_high_water", 0.0),
        "serve.engine.parked": traced.engine_counters.get("parked", 0.0),
        "serve.session.admit_us": submit.total_ns / 1000.0 / submit.calls if submit.calls else 0.0,
        "serve.session.service_ms": per_session_ms(tally("serve.session.step").total_ns),
        "serve.session.settle_ms": per_session_ms(tally("serve.session.close").total_ns),
        "core.stepper.us_per_round": per_round_us(tally("serve.session.step").total_ns),
        "core.execution.us_per_round": per_round_us(tally("core.execution").total_ns),
        "core.self_us_per_round": per_round_us(
            tally("core.execution").self_ns + tally("serve.session.step").self_ns
        ),
        "core.rounds": float(rounds),
        "core.goals.evaluate_us": per_call_us("core.goals"),
        "universal.step_us": per_call_us("universal"),
        "universal.switches_per_run":
            sum(unit.switches for unit in traced.units) / traced.universal_runs
            if traced.universal_runs else 0.0,
        "users.step_us": per_call_us("users"),
        "servers.step_us": per_call_us("servers"),
        "worlds.step_us": per_call_us("worlds"),
        "comm.codecs.us_per_round": per_round_us(tally("comm.codecs").self_ns),
        "faults.channel.us_per_round": per_round_us(tally("faults.channel").total_ns),
        "faults.channel.faults_per_1k_messages":
            1000.0 * rec.counts.get("faults", 0) / channel if channel else 0.0,
        "obs.tracer.events_per_round": tally("obs.tracer").calls / rounds,
        "obs.tracer.emit_us_per_round": per_round_us(tally("obs.tracer").total_ns),
        "obs.sinks.trace_bytes_per_round": trace_bytes / rounds,
        "obs.ledger.write_ms_per_session": per_session_ms(tally("obs.ledger").total_ns),
        "obs.certify.ms_per_session": per_session_ms(certify.total_ns),
        "obs.certify.rounds_per_s": rounds / (certify.total_ns / 1e9) if certify.calls else 0.0,
        "analysis.runner.overhead_ms":
            (sweeps.total_ns - tally("core.execution").total_ns) / 1e6 / sweeps.calls
            if sweeps.calls else 0.0,
        "gc.pause_ms_total": sum(pauses) / 1e6,
        "gc.pause_ms_max": max(pauses) / 1e6 if pauses else 0.0,
        "gc.gen2_collections": float(rec.gc_gen2),
        "trace.overhead_pct": (overhead - 1.0) * 100.0,
    }


def exact_counts(result: Any, rec: Any) -> Dict[str, int]:
    """The run's exact counts; a traced run adds what only the wrappers see."""
    counts = {
        "runs": result.runs,
        "rounds": result.rounds,
        "switches": sum(unit.switches for unit in result.units),
        "bad_prefixes": sum(unit.bad_prefixes for unit in result.units),
        "events": sum(unit.events for unit in result.units),
        "trace_bytes": sum(unit.trace_bytes for unit in result.units),
    }
    if rec is not None:
        tracer = rec.tallies.get("obs.tracer")
        counts["messages"] = rec.counts.get("messages", 0)
        counts["faults"] = rec.counts.get("faults", 0)
        counts["emitted"] = tracer.calls if tracer is not None else 0
    return counts


def check_counts(counts: Dict[str, int], unit: Dict[str, Any], units: int) -> List[str]:
    """Traced counts against the recorded unit counts times the units run.

    The other counts are sums of per-unit figures already checked unit by
    unit.  Every event the session tracers emit must reach a trace.
    """
    wanted = {"messages": unit["messages"], "faults": unit["faults"],
              "emitted": unit["events"]}
    return [
        f"{name}: got {counts[name]}, recorded {per_unit * units}"
        for name, per_unit in wanted.items()
        if name in counts and counts[name] != per_unit * units
    ]


# ----------------------------------------------------------------------
# Host stamp


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may have no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp(workload: str, seed: int, variant: int) -> Dict[str, Any]:
    from repro.obs.ledger import git_sha

    return {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    variant = workloads.variant_of(args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup_probe(args.workload, variant, workdir)
            return 0
        return run(args, variant, workdir)
    finally:
        workloads.remove_tree(workdir)


def run(args: argparse.Namespace, variant: int, workdir: Path) -> int:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if expected["variants"] != workloads.VARIANTS:
        raise RuntimeError("expected.json was recorded for another variant count")
    unit_expected = expected[args.workload][str(variant)]
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    plan = setup(args.workload, variant, workdir)

    untraced = timed_pass(args.workload, plan, args.seconds, workdir, "untraced", None)
    workloads.settle_checks(plan, untraced, workdir / "untraced")
    workloads.remove_tree(workdir / "untraced")
    untraced.check(unit_expected)
    passes = [untraced]
    problems = list(untraced.problems)
    rec = None
    if args.trace:
        rec = Recorder()
        with instrument(rec):
            traced = timed_pass(args.workload, plan, args.seconds, workdir, "traced", rec)
        workloads.settle_checks(plan, traced, workdir / "traced")
        workloads.remove_tree(workdir / "traced")
        traced.check(unit_expected)
        passes.append(traced)
        problems += traced.problems
        if len(traced.units) == len(untraced.units) and traced.digest() != untraced.digest():
            problems.append("traced pass changed the output digest")
    final = passes[-1]
    counts = exact_counts(final, rec)
    problems += check_counts(counts, unit_expected, len(final.units))
    # Each mismatch found past the per-unit checks is one more failed check.
    extra_failures = len(problems) - sum(len(p.problems) for p in passes)

    if args.trace:
        assert rec is not None
        metrics = per_layer(args.workload, rec, final, untraced)
        rec.write_spans(SPANS / f"{args.workload}-seed{args.seed}.jsonl")
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(args.workload, final, setup_s)
        units = dict(END_TO_END)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + extra_failures
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    stamp = host_stamp(args.workload, args.seed, variant)
    print(json.dumps({"host": stamp, "counts": counts}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
