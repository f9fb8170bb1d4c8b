"""Batched lockstep execution: many runs per process, one round at a time.

The sweeps that reproduce the paper's experiments are embarrassingly
parallel across cells *and* across seeds — and process pools alone cannot
make them fast, because every worker still steps one execution at a time
through the interpreted engine.  This module adds the other axis: a
**batched backend** that holds N concurrent executions and advances all of
them in lockstep inside one process.

Two tiers, one contract:

* :func:`repro.core.execution.run_steppers` — the **scalar lockstep**
  scheduler.  Works for *arbitrary* strategies: each slot is an
  :class:`~repro.core.execution.ExecutionStepper`, the same round body
  :func:`~repro.core.execution.run_execution` drives, so every slot's
  result is bitwise-identical to the serial engine's.  The win here is
  structural — thousands of sessions share one process, one warm cache,
  and one pass of per-round bookkeeping — not asymptotic.
* :func:`run_tabular_batch` — the **vectorized lockstep** kernel.  When
  every party of every slot compiles to a finite-state table over a shared
  finite message alphabet (see :class:`TabularParty` and
  :func:`compile_tabular_cast`), a whole round of the three-party protocol
  is a handful of numpy gathers across all N slots.  This is where the
  100×+ throughput lives (``docs/PERFORMANCE.md`` has the measured table).

numpy is **optional**: this module imports it lazily and everything except
:func:`run_tabular_batch` works without it (:data:`HAVE_NUMPY` reports the
outcome; :func:`compile_tabular_cast` simply returns ``None`` so callers
fall back to the scalar lockstep tier).

Determinism contract: a batched backend may change *where and how* runs
execute, never what they compute.  ``tests/core/test_batch.py`` asserts
scalar-lockstep results equal serial results field by field (including RNG
streams, fault schedules, and recording policies), and vectorized metrics
equal scalar metrics over the tabular casts.

Tracing in batch mode is **counters-only**: per-slot tracers receive the
same events (and therefore the same counter totals) a serial run would
emit, but slots interleave in the stream, so ordered sinks (JSONL traces,
certificates) are not supported — see the "Batched execution" section of
``docs/PERFORMANCE.md`` for exactly what is and is not recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.comm.messages import SILENCE
from repro.core.goals import CompactGoal, Goal
from repro.core.interfaces import ChannelLike
from repro.core.referees import LastStateCompactReferee
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy
from repro.errors import ExecutionError

__all__ = [
    "HAVE_NUMPY",
    "TabularCast",
    "TabularOutcome",
    "TabularParty",
    "TabularStrategy",
    "compile_tabular_cast",
    "run_tabular_batch",
]

try:  # pragma: no cover - exercised via the HAVE_NUMPY branches in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: True when numpy imported and the vectorized tier is available.
HAVE_NUMPY: bool = _np is not None


# ---------------------------------------------------------------------------
# The tabular (vectorizable) tier.
# ---------------------------------------------------------------------------

#: Ceiling on the interned alphabet; a cast whose symbol closure exceeds it
#: is not vectorized (the scalar lockstep tier handles it instead).
MAX_TABULAR_SYMBOLS = 64


@dataclass(frozen=True)
class TabularParty:
    """A finite-state party over a shared, interned message alphabet.

    ``next_state[s][a][b]`` is the state after reading symbol index ``a``
    on the party's first incoming channel and ``b`` on its second;
    ``out_a``/``out_b`` give the emitted symbol indices for the party's
    two outgoing channels.  Channel order follows the role conventions of
    :func:`run_tabular_batch`:

    * user — in: (from_server, from_world); out: (to_server, to_world)
    * server — in: (from_user, from_world); out: (to_user, to_world)
    * world — in: (from_user, from_server); out: (to_user, to_server)

    All indices refer to one global ``alphabet`` (index 0 is
    :data:`~repro.comm.messages.SILENCE`); incoming messages outside the
    alphabet never occur inside a compiled batch, because every party's
    outputs are drawn from the same closure.
    """

    n_symbols: int
    initial_state: int
    next_state: Tuple[Tuple[Tuple[int, ...], ...], ...]
    out_a: Tuple[Tuple[Tuple[int, ...], ...], ...]
    out_b: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        n = self.n_states
        if n == 0:
            raise ValueError("tabular party needs at least one state")
        if not 0 <= self.initial_state < n:
            raise ValueError(f"initial state out of range: {self.initial_state}")
        for name, table in (
            ("next_state", self.next_state),
            ("out_a", self.out_a),
            ("out_b", self.out_b),
        ):
            if len(table) != n:
                raise ValueError(f"{name} row count != next_state row count")
            bound = n if name == "next_state" else self.n_symbols
            for plane in table:
                if len(plane) != self.n_symbols:
                    raise ValueError(f"{name} plane width != alphabet size")
                for row in plane:
                    if len(row) != self.n_symbols:
                        raise ValueError(f"{name} row width != alphabet size")
                    if any(not 0 <= v < bound for v in row):
                        raise ValueError(f"{name} entry out of range")

    @property
    def n_states(self) -> int:
        return len(self.next_state)


@runtime_checkable
class TabularStrategy(Protocol):
    """Strategies that can compile themselves to :class:`TabularParty` tables.

    ``tabular_symbols(inputs)`` reports every message the strategy may emit
    when its incoming messages range over ``inputs`` (the compiler iterates
    this to a closed alphabet); ``tabular_party(alphabet)`` then builds the
    tables over the final interned alphabet.  Implementations must be
    deterministic and RNG-free — the vectorized kernel threads no
    randomness — and may raise ``ValueError`` from ``tabular_party`` when a
    configuration (custom adapters, foreign symbols) is not table-able.
    """

    def tabular_symbols(self, inputs: FrozenSet[str]) -> FrozenSet[str]:
        """Symbols the strategy may emit given incoming symbols ``inputs``."""
        ...

    def tabular_party(self, alphabet: Tuple[str, ...]) -> TabularParty:
        """Compile to tables over the (closed) global ``alphabet``."""
        ...


@dataclass(frozen=True)
class TabularCast:
    """A compiled (user, server, world, referee) cell, ready to vectorize.

    ``acceptable`` maps each world state id to the referee's verdict on it
    (:class:`~repro.core.referees.LastStateCompactReferee` locality is what
    makes compact-goal evaluation a table lookup); ``settle_fraction`` is
    copied from the goal so achievement arithmetic can be replayed exactly.
    """

    alphabet: Tuple[str, ...]
    user: TabularParty
    server: TabularParty
    world: TabularParty
    acceptable: Tuple[bool, ...]
    settle_fraction: float


def _close_alphabet(
    parties: Sequence[TabularStrategy],
) -> Optional[Tuple[str, ...]]:
    """Iterate the parties' emissions to a closed symbol set, or ``None``.

    Starts from :data:`~repro.comm.messages.SILENCE` (always index 0) and
    keeps asking every party what it can emit over the known symbols until
    nothing new appears.  Bails out (→ scalar fallback) past
    :data:`MAX_TABULAR_SYMBOLS`.
    """
    known: FrozenSet[str] = frozenset({SILENCE})
    while True:
        grown = known
        for party in parties:
            grown = grown | party.tabular_symbols(grown)
        if len(grown) > MAX_TABULAR_SYMBOLS:
            return None
        if grown == known:
            break
        known = grown
    # SILENCE first, then deterministic order for the rest.
    return (SILENCE, *sorted(known - {SILENCE}))


def compile_tabular_cast(
    user: UserStrategy,
    server: ServerStrategy,
    world: WorldStrategy,
    goal: Goal,
    *,
    channel: Optional[ChannelLike] = None,
) -> Optional[TabularCast]:
    """Compile a cell to its vectorizable form, or ``None`` to fall back.

    Vectorization requires *all* of: numpy importable, a perfect link
    (``channel is None`` — fault clauses rewrite payloads outside the
    alphabet), a :class:`~repro.core.goals.CompactGoal` judged by a
    :class:`~repro.core.referees.LastStateCompactReferee` (locality — the
    verdict is a function of the current world state id), and all three
    parties implementing :class:`TabularStrategy`.  Every ``None`` return
    is a silent, semantics-preserving fallback to the scalar lockstep
    tier, never an error.
    """
    if _np is None or channel is not None:
        return None
    if not isinstance(goal, CompactGoal):
        return None
    if not isinstance(goal.referee, LastStateCompactReferee):
        return None
    if not (
        isinstance(user, TabularStrategy)
        and isinstance(server, TabularStrategy)
        and isinstance(world, TabularStrategy)
    ):
        return None
    parties: Tuple[TabularStrategy, ...] = (user, server, world)
    try:
        alphabet = _close_alphabet(parties)
        if alphabet is None:
            return None
        user_t = user.tabular_party(alphabet)
        server_t = server.tabular_party(alphabet)
        world_t = world.tabular_party(alphabet)
    except ValueError:
        # A party carries custom, non-table-able wiring: scalar fallback.
        return None
    acceptable = tuple(
        bool(goal.referee.state_acceptable(state))
        for state in range(world_t.n_states)
    )
    return TabularCast(
        alphabet=alphabet,
        user=user_t,
        server=server_t,
        world=world_t,
        acceptable=acceptable,
        settle_fraction=goal.settle_fraction,
    )


@dataclass(frozen=True)
class TabularOutcome:
    """Per-slot results of a vectorized batch (metrics-level fidelity).

    The vectorized tier never materialises :class:`ExecutionResult`
    objects — that is the point — so it reports exactly the figures
    :func:`repro.analysis.metrics.collect_metrics` would extract: the
    compact-goal achievement verdict, prefix accounting, and (when
    telemetry was requested) the per-slot message counters.
    """

    achieved: bool
    rounds: int
    bad_prefixes: int
    last_bad_round: Optional[int]
    messages: int = 0
    message_bytes: int = 0
    #: Whether round 1 emitted any message — callers reconstructing serial
    #: counter streams need it because the serial tracer creates the
    #: ``messages`` counters *before* ``rounds`` exactly when the first
    #: round sent something (MessageSent events precede RoundExecuted).
    first_round_messages: bool = False


def run_tabular_batch(
    casts: Sequence[TabularCast],
    *,
    max_rounds: int,
    count_messages: bool = False,
) -> List[TabularOutcome]:
    """Vectorized lockstep over compiled slots (one cast per slot).

    All slots advance together: each round is a fixed number of numpy
    gathers over arrays of length ``len(casts)``, so the per-round Python
    cost is O(1) in the batch width.  Slots sharing identical machines are
    deduplicated into shared tables automatically (the common case — a
    sweep varies the server, not the whole cast).

    ``count_messages=True`` additionally accumulates per-slot message and
    byte counters matching the serial engine's telemetry (a non-silent
    payload on any of the six directed channels is one message).

    Raises :class:`~repro.errors.ExecutionError` when numpy is missing —
    callers are expected to have compiled their casts via
    :func:`compile_tabular_cast`, which already gates on numpy.
    """
    if _np is None:
        raise ExecutionError(
            "run_tabular_batch requires numpy; use run_steppers instead"
        )
    if max_rounds <= 0:
        raise ExecutionError(f"max_rounds must be positive: {max_rounds}")
    if not casts:
        return []
    n_symbols = len(casts[0].alphabet)
    for cast in casts:
        if cast.alphabet != casts[0].alphabet:
            raise ExecutionError(
                "all casts in a vectorized batch must share one alphabet"
            )

    n = len(casts)
    u_tab, u_tables = _dedupe([c.user for c in casts])
    s_tab, s_tables = _dedupe([c.server for c in casts])
    # Worlds dedupe on (tables, referee mask): two slots may share world
    # dynamics yet answer to different referees.
    w_keyed = _dedupe_keyed([(c.world, c.acceptable) for c in casts])
    w_tab, w_pairs = w_keyed
    w_tables = [party for party, _ in w_pairs]
    u_next, u_oa, u_ob = _stack(u_tables, n_symbols)
    s_next, s_oa, s_ob = _stack(s_tables, n_symbols)
    w_next, w_oa, w_ob = _stack(w_tables, n_symbols)

    # Pack each party's (next_state, out_a, out_b) into one composite
    # entry and flatten: a round then costs one flat ``take`` plus two
    # ``divmod`` decodes per party, instead of three 4-array fancy-index
    # gathers — flat takes are the fast path through numpy's indexing.
    A = n_symbols
    u_flat = ((u_next * A + u_oa) * A + u_ob).reshape(-1)
    s_flat = ((s_next * A + s_oa) * A + s_ob).reshape(-1)
    w_flat = ((w_next * A + w_oa) * A + w_ob).reshape(-1)

    # The referee verdict is a per-(world-table, state) lookup; pad ragged
    # state counts with True (unreachable states judge as acceptable).
    max_w_states = max(t.n_states for t in w_tables)
    accept = _np.ones((len(w_tables), max_w_states), dtype=bool)
    for index, (_party, acceptable) in enumerate(w_pairs):
        accept[index, : len(acceptable)] = _np.asarray(acceptable, dtype=bool)

    u_tab_arr = _np.asarray(u_tab, dtype=_np.int64)
    s_tab_arr = _np.asarray(s_tab, dtype=_np.int64)
    w_tab_arr = _np.asarray(w_tab, dtype=_np.int64)
    u_state = _np.asarray([c.user.initial_state for c in casts], dtype=_np.int64)
    s_state = _np.asarray([c.server.initial_state for c in casts], dtype=_np.int64)
    w_state = _np.asarray([c.world.initial_state for c in casts], dtype=_np.int64)

    # Per-slot flat-index bases are loop constants: slot i's entry for
    # (state, in_a, in_b) lives at base[i] + state*A*A + in_a*A + in_b.
    AA = A * A
    u_base = u_tab_arr * (u_next.shape[1] * AA)
    s_base = s_tab_arr * (s_next.shape[1] * AA)
    w_base = w_tab_arr * (w_next.shape[1] * AA)
    accept_flat = accept.reshape(-1)
    w_acc_base = w_tab_arr * max_w_states

    zeros = _np.zeros(n, dtype=_np.int64)
    u2s = zeros.copy(); u2w = zeros.copy()
    s2u = zeros.copy(); s2w = zeros.copy()
    w2u = zeros.copy(); w2s = zeros.copy()

    bad_count = _np.zeros(n, dtype=_np.int64)
    last_bad = _np.zeros(n, dtype=_np.int64)  # 0 = never bad (1-based rounds)

    # Prefix t=1: the initial world state, judged before any round runs.
    bad0 = ~accept_flat.take(w_acc_base + w_state)
    bad_count += bad0
    last_bad[bad0] = 1

    messages = _np.zeros(n, dtype=_np.int64) if count_messages else None
    message_bytes = _np.zeros(n, dtype=_np.int64) if count_messages else None
    first_msgs = _np.zeros(n, dtype=bool) if count_messages else None
    sym_len = _np.asarray([len(s) for s in casts[0].alphabet], dtype=_np.int64)

    for round_index in range(max_rounds):
        pu = u_flat.take(u_base + u_state * AA + s2u * A + w2u)
        ps = s_flat.take(s_base + s_state * AA + u2s * A + w2s)
        pw = w_flat.take(w_base + w_state * AA + u2w * A + s2w)
        pu, ub = _np.divmod(pu, A)
        nu, ua = _np.divmod(pu, A)
        ps, sb = _np.divmod(ps, A)
        ns, sa = _np.divmod(ps, A)
        pw, wb = _np.divmod(pw, A)
        nw, wa = _np.divmod(pw, A)

        if count_messages:
            assert messages is not None and message_bytes is not None
            assert first_msgs is not None
            for emitted in (ua, ub, sa, sb, wa, wb):
                sent = emitted != 0
                messages += sent
                message_bytes += sym_len[emitted]
                if round_index == 0:
                    first_msgs |= sent

        u2s, u2w = ua, ub
        s2u, s2w = sa, sb
        w2u, w2s = wa, wb
        u_state, s_state, w_state = nu, ns, nw

        bad = ~accept_flat.take(w_acc_base + w_state)
        bad_count += bad
        # Prefix index: initial state is t=1; the state after round r is
        # t = r + 2 (matching CompactReferee.judge's 1-based accounting).
        last_bad[bad] = round_index + 2

    total_prefixes = max_rounds + 1
    outcomes: List[TabularOutcome] = []
    for slot, cast in enumerate(casts):
        settle_round = int(total_prefixes * (1.0 - cast.settle_fraction))
        slot_last_bad = int(last_bad[slot])
        outcomes.append(
            TabularOutcome(
                achieved=slot_last_bad == 0 or slot_last_bad <= settle_round,
                rounds=max_rounds,
                bad_prefixes=int(bad_count[slot]),
                last_bad_round=slot_last_bad or None,
                messages=int(messages[slot]) if count_messages else 0,
                message_bytes=(
                    int(message_bytes[slot]) if count_messages else 0
                ),
                first_round_messages=(
                    bool(first_msgs[slot]) if count_messages else False
                ),
            )
        )
    return outcomes


def _dedupe(
    parties: Sequence[TabularParty],
) -> Tuple[List[int], List[TabularParty]]:
    """Map each slot to an index into the list of distinct tables."""
    indices: List[int] = []
    uniques: List[TabularParty] = []
    seen: Dict[TabularParty, int] = {}
    for party in parties:
        index = seen.get(party)
        if index is None:
            index = len(uniques)
            seen[party] = index
            uniques.append(party)
        indices.append(index)
    return indices, uniques


def _dedupe_keyed(
    pairs: Sequence[Tuple[TabularParty, Tuple[bool, ...]]],
) -> Tuple[List[int], List[Tuple[TabularParty, Tuple[bool, ...]]]]:
    """Dedupe (world tables, referee mask) pairs — both parts are hashable."""
    indices: List[int] = []
    uniques: List[Tuple[TabularParty, Tuple[bool, ...]]] = []
    seen: Dict[Tuple[TabularParty, Tuple[bool, ...]], int] = {}
    for pair in pairs:
        index = seen.get(pair)
        if index is None:
            index = len(uniques)
            seen[pair] = index
            uniques.append(pair)
        indices.append(index)
    return indices, uniques


def _stack(tables: Sequence[TabularParty], n_symbols: int) -> Tuple[Any, Any, Any]:
    """Stack distinct party tables into padded [table, S, A, A] arrays."""
    assert _np is not None
    max_states = max(t.n_states for t in tables)
    shape = (len(tables), max_states, n_symbols, n_symbols)
    next_state = _np.zeros(shape, dtype=_np.int64)
    out_a = _np.zeros(shape, dtype=_np.int64)
    out_b = _np.zeros(shape, dtype=_np.int64)
    for index, table in enumerate(tables):
        next_state[index, : table.n_states] = _np.asarray(
            table.next_state, dtype=_np.int64
        )
        out_a[index, : table.n_states] = _np.asarray(table.out_a, dtype=_np.int64)
        out_b[index, : table.n_states] = _np.asarray(table.out_b, dtype=_np.int64)
    return next_state, out_a, out_b
