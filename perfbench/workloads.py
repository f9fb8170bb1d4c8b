"""The three workloads: inputs from a seed, one timed pass, output checks.

Every workload repeats one *unit* of work whose outputs are recorded in
``expected.json``: a serial E1 ``sweep()`` call for ``sweep-e1``, and a
fleet of sessions that the arrival stream cycles through for the serve
workloads.  The unit's inputs come from the workload seed modulo
:data:`VARIANTS`, so any seed maps to a recorded variant and every unit
is checked exactly against it.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import random
import resource
import shutil
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import Recorder

#: Seeds map onto this many recorded input variants.
VARIANTS = 16

# sweep-e1: the E1 grid of bench_e1_compact_universal.py at horizon 2000.
E1_CODECS = 8
E1_HORIZON = 2000

# Serve fleets: demo_specs("mixed", ...) behind a 10% Bernoulli drop, at
# the 60-round horizon of the serve capacity runs quoted in ROADMAP.md.
FLEET_FAMILY = "mixed"
FLEET_DROP = 0.1
FLEET_HORIZON = 60
FLEET_UNIT = 200
SERVE_WORKERS = 2


#: Serve latency samples per window: enough for ten beyond the p99.
#: A sweep-e1 run has too few runs for that; its window is one sweep.
LATENCY_WINDOW = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: a value that actually occurred."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_percentile(values: Sequence[float], q: float, window: int) -> float:
    """Median over consecutive windows of ``window`` samples of each
    window's nearest-rank ``q`` percentile.

    A stall (a collector pause, a neighbour on the host) delays a burst of
    consecutive arrivals; taken over the whole run, the p99 then depends
    on how many stalls happened to fall in it.  Per window, a stall moves
    that window's figure and the median window shows the typical one.
    Samples left over after the last full window join it.
    """
    count = max(1, len(values) // window)
    bounds = [k * window for k in range(count)] + [len(values)]
    return median([
        percentile(values[bounds[k]:bounds[k + 1]], q) for k in range(count)
    ])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass
class UnitTally:
    """What one unit of work produced, in the shape ``expected.json`` keeps."""

    runs: int = 0
    achieved: int = 0
    rounds: int = 0
    switches: int = 0
    #: Unacceptable prefixes the compact referees counted.
    bad_prefixes: int = 0
    digest: str = ""
    events: int = 0
    trace_bytes: int = 0
    #: Runs of the unit that raised or failed to certify (not recorded).
    bad: int = 0

    CHECKED = (
        "runs", "achieved", "rounds", "switches", "bad_prefixes", "digest", "events",
        "trace_bytes",
    )

    def mismatches(self, expected: Dict[str, Any]) -> List[str]:
        return [
            f"{name}: got {getattr(self, name)!r}, recorded {expected[name]!r}"
            for name in self.CHECKED
            if getattr(self, name) != expected[name]
        ]


def unit_tally(rows: Sequence[Tuple[str, bool, int, int, int]]) -> UnitTally:
    """Totals and digest of per-run ``(label, achieved, rounds, switches,
    bad_prefixes)``; the digest covers ``(label, achieved, rounds)``."""
    digest = hashlib.sha256()
    tally = UnitTally(runs=len(rows))
    for label, achieved, rounds, switches, bad_prefixes in rows:
        digest.update(f"{label}|{int(achieved)}|{rounds}\n".encode("utf-8"))
        tally.achieved += int(achieved)
        tally.rounds += rounds
        tally.switches += switches
        tally.bad_prefixes += bad_prefixes
    tally.digest = digest.hexdigest()
    return tally


@dataclass
class PassResult:
    """One timed pass: measurements, per-unit tallies and failures."""

    units: List[UnitTally] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    unit_walls: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    latency_window: int = LATENCY_WINDOW
    universal_runs: int = 0
    # Serve only, for the per-layer table.
    engine_counters: Dict[str, float] = field(default_factory=dict)
    times: Dict[str, "array[float]"] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return sum(unit.runs for unit in self.units)

    @property
    def rounds(self) -> int:
        return sum(unit.rounds for unit in self.units)

    def digest(self) -> str:
        joined = "\n".join(unit.digest for unit in self.units)
        return hashlib.sha256(joined.encode("ascii")).hexdigest()

    def check(self, expected: Dict[str, Any]) -> None:
        """Compare every unit with the recorded one; count failed runs."""
        for index, unit in enumerate(self.units):
            wrong = unit.mismatches(expected)
            self.failed += expected["runs"] if wrong else unit.bad
            if wrong:
                self.problems.append(f"unit {index}: " + "; ".join(wrong))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# sweep-e1


@dataclass
class SweepPlan:
    user: Any
    servers: List[Any]
    goal: Any
    seeds: Tuple[int, ...]


def sweep_setup(seed: int) -> SweepPlan:
    """The E1 cast and run seed of input variant ``seed``."""
    import repro.analysis.runner  # noqa: F401  (imported by every sweep)
    from repro.comm.codecs import codec_family
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    entropy = random.Random(seed)
    law = random_law(random.Random(entropy.getrandbits(64)))
    codecs = codec_family(E1_CODECS)
    return SweepPlan(
        user=CompactUniversalUser(
            ListEnumeration(follower_user_class(codecs), label="followers"),
            control_sensing(),
        ),
        servers=advisor_server_class(law, codecs),
        goal=control_goal(law),
        seeds=(entropy.getrandbits(32),),
    )


def sweep_pass(
    plan: SweepPlan, seconds: float, rec: Optional[Recorder], *, units: int = 0
) -> PassResult:
    """Serial sweeps of the grid until ``seconds`` pass (or ``units`` sweeps)."""
    from repro.analysis import runner

    call = runner.sweep
    if rec is not None:
        call = rec.wrap("analysis.runner", runner.sweep, span=True)
    result = PassResult(latency_window=len(plan.servers) * len(plan.seeds))
    gc.collect()
    start = time.perf_counter()
    cpu_start = time.process_time()
    deadline = start + seconds
    while True:
        began = time.perf_counter()
        swept = call(
            plan.user, plan.servers, plan.goal,
            seeds=plan.seeds, max_rounds=E1_HORIZON,
        )
        ended = time.perf_counter()
        rows = []
        for cell in swept.cells:
            for metrics in cell.runs:
                rows.append(
                    (cell.server_name, metrics.achieved, metrics.rounds,
                     metrics.switches or 0, metrics.bad_prefixes or 0)
                )
            result.latencies_ms.append(cell.wall_time_s / len(cell.runs) * 1000.0)
        result.units.append(unit_tally(rows))
        result.unit_walls.append(ended - began)
        result.universal_runs += len(rows)
        if (units and len(result.units) >= units) or (not units and ended >= deadline):
            break
    result.wall_s = time.perf_counter() - start
    result.cpu_s = time.process_time() - cpu_start
    result.peak_rss_mb = peak_rss_mb()
    result.attempted = result.runs
    return result


# ----------------------------------------------------------------------
# serve-bare / serve-certified


@dataclass
class ServePlan:
    specs: List[Any]
    certified: bool


def serve_setup(seed: int, workdir: Path, *, certified: bool) -> ServePlan:
    """The fleet of input variant ``seed``, warmed up."""
    from repro.serve.loadgen import demo_specs

    plan = ServePlan(
        specs=demo_specs(
            FLEET_FAMILY, FLEET_UNIT, seed=seed, max_rounds=FLEET_HORIZON,
            drop=FLEET_DROP,
        ),
        certified=certified,
    )
    # Warm-up: one session of each family through a throwaway engine, so
    # lazy imports and first-call caches are paid here, not by the first
    # timed sessions.
    asyncio.run(_run_arrivals(plan, plan.specs[:3], None, workdir / "warmup", None))
    return plan


async def start_engine(plan: ServePlan, ledger_dir: Path) -> Any:
    from repro.serve.engine import ServeEngine

    engine = ServeEngine(
        workers=SERVE_WORKERS,
        ledger_dir=ledger_dir if plan.certified else None,
        trace=plan.certified,
        certify=plan.certified,
    )
    # The first start with a ledger runs `git rev-parse` once; that is
    # engine start-up, which set-up time includes.
    engine.start()  # reprolint: disable=RL101
    return engine


class OpenLoop:
    """Submits arrivals at fixed due times and tallies them as they settle.

    Latency runs from an arrival's due time to its future settling, so a
    late generator or a parked submit counts against the session.  The
    outcomes are not kept: per-arrival results go into flat arrays, which
    the garbage collector does not track, so the collector's work (and its
    pauses) stay the program's own.
    """

    def __init__(
        self, specs: Sequence[Any], arrivals: int, rate: Optional[float],
        rec: Optional[Recorder],
    ) -> None:
        self.specs = specs
        self.arrivals = arrivals
        self.rate = rate
        self.rec = rec
        self.settled = array("b", bytes(arrivals))
        self.achieved = array("b", bytes(arrivals))
        self.rounds = array("q", bytes(8 * arrivals))
        self.switches = array("q", bytes(8 * arrivals))
        self.bad_prefixes = array("q", bytes(8 * arrivals))
        self.latency_ms = array("d", bytes(8 * arrivals))
        self.universal = 0
        #: Traced passes only: per-arrival clock readings, in seconds.
        self.times: Dict[str, "array[float]"] = {}
        if rec is not None:
            self.times = {
                name: array("d", bytes(8 * arrivals))
                for name in ("due", "submitted", "admitted", "done", "inside")
            }
        self._left = arrivals
        self._done: Optional[asyncio.Event] = None

    def _settled(self, index: int, due: float, future: "asyncio.Future[Any]") -> None:
        from repro.universal.compact import CompactUniversalState

        now = time.perf_counter()
        self.latency_ms[index] = (now - due) * 1000.0
        if not future.cancelled() and future.exception() is None:
            outcome = future.result()
            state = outcome.execution.final_user_state
            if isinstance(state, CompactUniversalState):
                self.switches[index] = state.switches
                self.universal += 1
            verdict = outcome.outcome.compact_verdict
            if verdict is not None:
                self.bad_prefixes[index] = verdict.bad_prefixes
            self.settled[index] = 1
            self.achieved[index] = int(outcome.outcome.achieved)
            self.rounds[index] = outcome.execution.rounds_executed
            if self.times:
                self.times["done"][index] = now
                self.times["inside"][index] = outcome.wall_time_s
        self._left -= 1
        if self._left == 0:
            assert self._done is not None
            self._done.set()

    async def drive(self, engine: Any) -> None:
        self._done = asyncio.Event()
        clock = time.perf_counter
        start = clock()
        for index in range(self.arrivals):
            due = start if self.rate is None else start + index / self.rate
            delay = due - clock()
            if delay > 0.0:
                await asyncio.sleep(delay)
            spec = self.specs[index % len(self.specs)]
            if self.rec is None:
                handle = await engine.submit(spec, session_id=f"a{index:06d}")
            else:
                submitted = clock()
                handle = await engine.submit(spec, session_id=f"a{index:06d}")
                admitted = clock()
                self.times["due"][index] = due
                self.times["submitted"][index] = submitted
                self.times["admitted"][index] = admitted
                self.rec.leaf_span(
                    "serve.engine.submit", int(submitted * 1e9), int(admitted * 1e9),
                    handle.session_id,
                )
            handle.future.add_done_callback(
                lambda future, i=index, d=due: self._settled(i, d, future)
            )
        await self._done.wait()

    def unit_tallies(self) -> List[UnitTally]:
        """One tally per pass through the fleet, in arrival order."""
        unit = len(self.specs)
        tallies = []
        for first in range(0, self.arrivals, unit):
            rows = [
                (self.specs[i - first].label, bool(self.achieved[i]), self.rounds[i],
                 self.switches[i], self.bad_prefixes[i])
                for i in range(first, first + unit) if self.settled[i]
            ]
            tally = unit_tally(rows)
            tally.bad = unit - len(rows)
            tallies.append(tally)
        return tallies


async def _run_arrivals(
    plan: ServePlan, specs: Sequence[Any], rate: Optional[float], ledger_dir: Path,
    rec: Optional[Recorder], *, arrivals: Optional[int] = None,
) -> Tuple[OpenLoop, Dict[str, float], float, float]:
    engine = await start_engine(plan, ledger_dir)
    loop = OpenLoop(specs, len(specs) if arrivals is None else arrivals, rate, rec)
    gc.collect()
    start = time.perf_counter()
    cpu_start = time.process_time()
    await loop.drive(engine)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    await engine.close()
    opened = engine.counters.histogram("serve.open_sessions")
    counters = {
        "open_high_water": float(opened.maximum) if opened.count else 0.0,
        "parked": float(engine.counters.get("serve.sessions_parked")),
    }
    return loop, counters, wall, cpu


def serve_pass(
    plan: ServePlan, rate: Optional[float], arrivals: int, ledger_dir: Path,
    rec: Optional[Recorder],
) -> PassResult:
    """``arrivals`` sessions cycling through the fleet, due at ``rate``/s."""
    loop, counters, wall, cpu = asyncio.run(
        _run_arrivals(plan, plan.specs, rate, ledger_dir, rec, arrivals=arrivals)
    )
    return PassResult(
        units=loop.unit_tallies(), attempted=arrivals, wall_s=wall, cpu_s=cpu,
        peak_rss_mb=peak_rss_mb(), latencies_ms=list(loop.latency_ms),
        universal_runs=loop.universal, engine_counters=counters, times=loop.times,
    )


def settle_checks(plan: Any, result: PassResult, ledger_dir: Path) -> None:
    """Checks that read what a pass left on disk; run after timing ends.

    For a certified fleet, every trace/manifest pair is certified again
    here, independently of the engine, and its events and bytes are
    added to the unit's counts.
    """
    from repro.obs.certify import certify_trace

    if not getattr(plan, "certified", False):
        return
    unit = len(plan.specs)
    for number, tally in enumerate(result.units):
        first = number * unit
        for index in range(first, first + unit):
            trace = ledger_dir / f"a{index:06d}.jsonl"
            manifest = ledger_dir / f"a{index:06d}.json"
            if not trace.exists() or not manifest.exists():
                tally.bad += 1
                continue
            report = certify_trace(trace, manifest)
            if not report.ok:
                tally.bad += 1
            tally.events += report.events
            tally.trace_bytes += trace.stat().st_size
    for number, tally in enumerate(result.units):
        if tally.bad:
            result.problems.append(
                f"unit {number}: {tally.bad} sessions raised or failed to certify"
            )


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
