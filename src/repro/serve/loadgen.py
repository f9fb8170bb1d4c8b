"""Open-loop load generation: a sweep grid replayed as arriving traffic.

The batch runner asks "what did every cell conclude?"; the load generator
asks "what does this engine sustain?".  :func:`grid_specs` converts the
same (user, servers, goal, seeds, channels) grid :func:`repro.analysis.runner.sweep`
crosses into one :class:`~repro.serve.session.SessionSpec` per cell×seed,
and :func:`generate_load` submits them to a :class:`~repro.serve.engine.ServeEngine`
at a target arrival rate (``rate=0`` = burst: all at once, the maximum-
concurrency stress mode).  Open loop means arrivals do not wait for
completions; what happens when the engine is full is the admission
policy's choice — ``"park"`` flow-controls the generator,
``"reject"`` sheds load and counts the drops.

:class:`LoadReport` carries the capacity-planning figures —
``sessions_per_s``, ``rounds_per_s``, the open-session high-water mark,
and settle-latency percentiles (due time → settled, so parked time
counts, as it should for an arriving customer; exact nearest-rank over
every session) — and serialises into the plain-data payload that
``python -m repro.serve --format json`` prints.

:func:`demo_specs` builds the self-contained demo fleets (relay machines,
control followers, universal users, or a mix) used by the CLI, the bench,
and the CI smoke — cheap casts with known verdicts, optionally behind a
Bernoulli-drop channel.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.execution import METRICS_RECORDING, RecordingPolicy
from repro.core.goals import Goal
from repro.core.interfaces import ChannelLike
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.errors import ServeError
from repro.serve.engine import ServeEngine, SessionHandle, SessionRejected
from repro.serve.session import SessionOutcome, SessionSpec, derive_session_seeds

#: Admission policies understood by :func:`generate_load`.
ADMISSION_MODES = ("park", "reject")

#: Goal families :func:`demo_specs` can build.
FAMILIES = ("relay", "control", "universal", "mixed")


def grid_specs(
    user: UserStrategy,
    servers: Sequence[ServerStrategy],
    goal: Goal,
    *,
    seeds: Sequence[int],
    max_rounds: int,
    recording: RecordingPolicy = METRICS_RECORDING,
    channels: Sequence[Optional[ChannelLike]] = (None,),
) -> List[SessionSpec]:
    """The sweep grid as session specs: one per server × channel × seed.

    Same crossing order as :func:`repro.analysis.runner.sweep`
    (server-major, then channel, then seed), so spec ``i`` here is cell
    ``i``'s run there — load tests and batch sweeps stay comparable
    row by row.
    """
    specs: List[SessionSpec] = []
    for server in servers:
        for channel in channels:
            channel_name = (
                "-" if channel is None else getattr(channel, "name", "channel")
            )
            for seed in seeds:
                specs.append(
                    SessionSpec(
                        user=user,
                        server=server,
                        goal=goal,
                        seed=seed,
                        max_rounds=max_rounds,
                        recording=recording,
                        channel=channel,
                        label=f"{server.name}|{channel_name}|{seed}",
                    )
                )
    return specs


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a sample (``q`` in [0, 100]).

    ``nan`` on an empty sample.  Nearest-rank (no interpolation) so the
    reported figure is always a latency that actually occurred.
    """
    if not 0.0 <= q <= 100.0:
        raise ServeError(f"percentile q must be in [0, 100]: {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LoadReport:
    """One load run's capacity figures."""

    sessions: int
    settled: int
    achieved: int
    failed: int
    rejected: int
    rounds: int
    wall_s: float
    sessions_per_s: float
    rounds_per_s: float
    open_high_water: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float

    def to_payload(self) -> Dict[str, Any]:
        """Plain-data form (the CLI's ``--format json`` payload)."""
        payload: Dict[str, Any] = {
            "sessions": self.sessions,
            "settled": self.settled,
            "achieved": self.achieved,
            "failed": self.failed,
            "rejected": self.rejected,
            "rounds": self.rounds,
            "wall_s": round(self.wall_s, 4),
            "sessions_per_s": round(self.sessions_per_s, 3),
            "rounds_per_s": round(self.rounds_per_s, 1),
            "open_high_water": self.open_high_water,
        }
        for name, value in (
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_p95_ms", self.latency_p95_ms),
            ("latency_p99_ms", self.latency_p99_ms),
        ):
            payload[name] = None if math.isnan(value) else round(value, 3)
        return payload


async def generate_load(
    engine: ServeEngine,
    specs: Sequence[SessionSpec],
    *,
    rate: float = 0.0,
    admission: str = "park",
) -> LoadReport:
    """Submit ``specs`` as open-loop traffic and wait for every settle.

    ``rate`` is the target arrival rate in sessions/second (``0`` =
    burst); the generator sleeps to hold each arrival at its scheduled
    time, never ahead of it.  The report reads the engine's counters, so
    pass a *fresh* engine (or accept that earlier traffic folds into the
    figures).  Throughput (``sessions_per_s``) counts settles over the
    whole run wall-clock.  Latency runs from each session's due time
    (``start + index / rate``, or ``start`` for a burst) to its settle,
    so time parked in admission counts; the percentiles are exact
    nearest-rank figures over every session (:func:`percentile`).
    """
    if admission not in ADMISSION_MODES:
        raise ServeError(
            f"unknown admission mode {admission!r} (expected one of "
            f"{ADMISSION_MODES})"
        )
    latencies_ms: List[float] = []

    def _stamp(future: "asyncio.Future[SessionOutcome]", due: float) -> None:
        future.add_done_callback(
            lambda _: latencies_ms.append((time.perf_counter() - due) * 1000.0)
        )

    start = time.perf_counter()
    handles: List[SessionHandle] = []
    rejected = 0
    for index, spec in enumerate(specs):
        due = start
        if rate > 0.0:
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0.0:
                await asyncio.sleep(delay)
        try:
            # Admission opens the session ledger inline (see
            # ServeEngine._admit): deliberate single-threaded write path.
            if admission == "reject":
                handle = engine.try_submit(spec)  # reprolint: disable=RL101
            else:
                handle = await engine.submit(spec)
        except SessionRejected:
            rejected += 1
            continue
        _stamp(handle.future, due)
        handles.append(handle)

    results = await asyncio.gather(
        *(h.future for h in handles), return_exceptions=True
    )
    wall = time.perf_counter() - start

    settled = sum(1 for r in results if isinstance(r, SessionOutcome))
    achieved = sum(
        1 for r in results if isinstance(r, SessionOutcome) and r.outcome.achieved
    )
    failed = len(results) - settled
    rounds = engine.counters.get("serve.rounds")
    open_histogram = engine.counters.histogram("serve.open_sessions")
    open_high_water = int(open_histogram.maximum) if open_histogram.count else 0
    return LoadReport(
        sessions=len(specs),
        settled=settled,
        achieved=achieved,
        failed=failed,
        rejected=rejected,
        rounds=rounds,
        wall_s=wall,
        sessions_per_s=settled / wall if wall > 0 else 0.0,
        rounds_per_s=rounds / wall if wall > 0 else 0.0,
        open_high_water=open_high_water,
        latency_p50_ms=percentile(latencies_ms, 50.0),
        latency_p95_ms=percentile(latencies_ms, 95.0),
        latency_p99_ms=percentile(latencies_ms, 99.0),
    )


def run_load(
    specs: Sequence[SessionSpec],
    *,
    rate: float = 0.0,
    admission: str = "park",
    max_open: int = 2048,
    workers: int = 2,
    slice_rounds: int = 32,
    ledger_dir: Optional[str] = None,
    trace: bool = False,
    certify: bool = False,
    metrics_path: Optional[str] = None,
    metrics_interval_s: float = 1.0,
    admin: Optional[str] = None,
    flight: int = 0,
) -> LoadReport:
    """Synchronous wrapper: fresh engine, one load run, graceful close."""

    async def _run() -> LoadReport:
        engine = ServeEngine(
            max_open=max_open,
            workers=workers,
            slice_rounds=slice_rounds,
            ledger_dir=ledger_dir,
            trace=trace,
            certify=certify,
            metrics_path=metrics_path,
            metrics_interval_s=metrics_interval_s,
            admin=admin,
            flight=flight,
        )
        async with engine:
            return await generate_load(
                engine, specs, rate=rate, admission=admission
            )

    return asyncio.run(_run())


def demo_specs(
    family: str,
    sessions: int,
    *,
    seed: int = 0,
    max_rounds: int = 200,
    drop: float = 0.0,
    recording: RecordingPolicy = METRICS_RECORDING,
) -> List[SessionSpec]:
    """``sessions`` self-contained specs from one of the demo families.

    ``relay`` — tabular relay decoders against the cyclic coded-server
    class (the cheapest cast, scalar machine steps); ``control`` — advisor
    followers matched to their advisor (scripted, always achieves on a
    clean channel); ``universal`` — the compact universal user enumerating
    the follower class (the paper's Theorem 1 dynamics, ~10× dearer);
    ``mixed`` — round-robin across all three.  ``drop`` > 0 puts every
    session behind an independent Bernoulli-drop channel (per-session
    faults; the channel object is shared, its fault stream derives from
    each session's seed).  Session seeds fan out from ``seed`` via
    :func:`~repro.serve.session.derive_session_seeds`.
    """
    if family not in FAMILIES:
        raise ServeError(
            f"unknown family {family!r} (expected one of {FAMILIES})"
        )
    if sessions < 0:
        raise ServeError(f"sessions must be non-negative: {sessions}")
    from repro.comm.codecs import codec_family
    from repro.faults.channel import drop_channel
    from repro.machines.tabular import (
        coded_server_class,
        relay_decoder_class,
        relay_goal,
    )
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    channel = drop_channel(drop) if drop > 0.0 else None

    symbols = tuple("abcdefgh")
    r_goal = relay_goal(symbols)
    r_users = relay_decoder_class(symbols)
    r_servers = coded_server_class(symbols)

    codecs = codec_family(4)
    # Fan all of this function's entropy out of ONE root stream: the law
    # and the session seeds used to share `random.Random(seed)` directly,
    # which made the control law a deterministic function of the session
    # seeds' own stream prefix (correlated draws; reprolint RL203).
    entropy = random.Random(seed)
    law_seed = entropy.getrandbits(64)
    session_root = entropy.getrandbits(64)
    law = random_law(random.Random(law_seed))
    c_goal = control_goal(law)
    c_servers = advisor_server_class(law, codecs)
    c_users = follower_user_class(codecs)

    def relay_spec(index: int, session_seed: int) -> SessionSpec:
        server = r_servers[index % len(r_servers)]
        return SessionSpec(
            user=r_users[0], server=server, goal=r_goal, seed=session_seed,
            max_rounds=max_rounds, recording=recording, channel=channel,
            label=f"relay|{server.name}|{session_seed}",
        )

    def control_spec(index: int, session_seed: int) -> SessionSpec:
        pick = index % len(c_servers)
        return SessionSpec(
            user=c_users[pick], server=c_servers[pick], goal=c_goal,
            seed=session_seed, max_rounds=max_rounds, recording=recording,
            channel=channel,
            label=f"control|{c_servers[pick].name}|{session_seed}",
        )

    # One shared universal user: its enumeration state is per-execution
    # (threaded through the engine), so sharing is safe under interleaving
    # — exactly the property the seed-isolation tests pin.
    u_user = CompactUniversalUser(
        ListEnumeration(c_users, label="followers"), control_sensing()
    )

    def universal_spec(index: int, session_seed: int) -> SessionSpec:
        server = c_servers[index % len(c_servers)]
        return SessionSpec(
            user=u_user, server=server, goal=c_goal, seed=session_seed,
            max_rounds=max_rounds, recording=recording, channel=channel,
            label=f"universal|{server.name}|{session_seed}",
        )

    builders = {
        "relay": (relay_spec,),
        "control": (control_spec,),
        "universal": (universal_spec,),
        "mixed": (relay_spec, control_spec, universal_spec),
    }[family]
    seeds = derive_session_seeds(session_root, sessions)
    return [
        builders[i % len(builders)](i // len(builders), seeds[i])
        for i in range(sessions)
    ]


__all__ = [
    "ADMISSION_MODES",
    "FAMILIES",
    "LoadReport",
    "demo_specs",
    "generate_load",
    "grid_specs",
    "percentile",
    "run_load",
]
