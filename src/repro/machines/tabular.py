"""Tabular strategies: finite-state parties defined by lookup tables.

* :class:`TabularParty` — a finite-state party as dense transition and
  output tables over an interned message alphabet.
* :class:`TabularUser` / :class:`TabularServer` / :class:`TabularWorld` —
  strategy adapters that step such a table through the ordinary engine.
* Cast builders for the **relay goal** — a table-defined analogue of the
  control experiments' language-mismatch setting: the world cycles through
  challenge symbols, the user relays each challenge to the server, the
  server answers in *its* vocabulary (a permutation codec), and the user's
  fixed decoder must invert it for the world to score the echo correct.
  A (decoder, server-class) sweep over these casts has exactly one
  achieving cell per matching codec — the same shape as the password and
  advisor grids.  The serve ``relay`` family (:mod:`repro.serve.loadgen`)
  is built from these casts.

Every adapter here is deterministic and RNG-free (states are plain ints,
``initial_state`` ignores its rng), and usable in any sweep, fault grid,
or trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.comm.messages import (
    SILENCE,
    ServerInbox,
    ServerOutbox,
    UserInbox,
    UserOutbox,
    WorldInbox,
    WorldOutbox,
)
from repro.core.goals import CompactGoal
from repro.core.referees import LastStateCompactReferee
from repro.core.strategy import ServerStrategy, UserStrategy, WorldStrategy

Table = Tuple[Tuple[Tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class TabularParty:
    """A finite-state party over an interned message alphabet.

    ``next_state[s][a][b]`` is the state after reading symbol index ``a``
    on the party's first incoming channel and ``b`` on its second;
    ``out_a``/``out_b`` give the emitted symbol indices for the party's
    two outgoing channels.  Channel order follows the role:

    * user — in: (from_server, from_world); out: (to_server, to_world)
    * server — in: (from_user, from_world); out: (to_user, to_world)
    * world — in: (from_user, from_server); out: (to_user, to_server)

    Index 0 is :data:`~repro.comm.messages.SILENCE`.
    """

    n_symbols: int
    initial_state: int
    next_state: Table
    out_a: Table
    out_b: Table

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


class _TabularBase:
    """Shared mechanics: an alphabet plus a party table over it.

    ``alphabet[0]`` must be :data:`~repro.comm.messages.SILENCE`; incoming
    messages outside the alphabet read as index 0, mirroring
    :meth:`repro.machines.transducer.Transducer.symbol_index` totality.
    """

    def __init__(
        self, party: TabularParty, alphabet: Tuple[str, ...], label: str
    ) -> None:
        if not alphabet or alphabet[0] != SILENCE:
            raise ValueError("tabular alphabet must start with SILENCE")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("tabular alphabet has duplicate symbols")
        if party.n_symbols != len(alphabet):
            raise ValueError("party table width != alphabet size")
        self._party = party
        self._alphabet = alphabet
        self._index: Dict[str, int] = {s: i for i, s in enumerate(alphabet)}
        self._label = label

    @property
    def name(self) -> str:
        return self._label

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return self._alphabet

    def initial_state(self, rng: random.Random) -> int:
        return self._party.initial_state

    def _in(self, message: str) -> int:
        return self._index.get(message, 0)

    def _step_indices(self, state: int, in_a: str, in_b: str) -> Tuple[int, str, str]:
        a, b = self._in(in_a), self._in(in_b)
        party = self._party
        return (
            party.next_state[state][a][b],
            self._alphabet[party.out_a[state][a][b]],
            self._alphabet[party.out_b[state][a][b]],
        )


class TabularUser(_TabularBase, UserStrategy):
    """A user strategy defined by a table: in (from_server, from_world),
    out (to_server, to_world).  Never halts (compact goals)."""

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        nxt, to_server, to_world = self._step_indices(
            state, inbox.from_server, inbox.from_world
        )
        return nxt, UserOutbox(to_server=to_server, to_world=to_world)


class TabularServer(_TabularBase, ServerStrategy):
    """A server strategy defined by a table: in (from_user, from_world),
    out (to_user, to_world)."""

    def step(
        self, state: int, inbox: ServerInbox, rng: random.Random
    ) -> Tuple[int, ServerOutbox]:
        nxt, to_user, to_world = self._step_indices(
            state, inbox.from_user, inbox.from_world
        )
        return nxt, ServerOutbox(to_user=to_user, to_world=to_world)


class TabularWorld(_TabularBase, WorldStrategy):
    """A world strategy defined by a table: in (from_user, from_server),
    out (to_user, to_server).  States are ints, so local referees
    (:class:`~repro.core.referees.LastStateCompactReferee`) reduce to a
    per-state flag lookup."""

    def step(
        self, state: int, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[int, WorldOutbox]:
        nxt, to_user, to_server = self._step_indices(
            state, inbox.from_user, inbox.from_server
        )
        return nxt, WorldOutbox(to_user=to_user, to_server=to_server)


# ---------------------------------------------------------------------------
# Table construction helpers.
# ---------------------------------------------------------------------------

#: ``rule(state, in_a, in_b) -> (next_state, out_a_symbol, out_b_symbol)``.
TransitionRule = Callable[[int, str, str], Tuple[int, str, str]]


def _build_party(
    alphabet: Tuple[str, ...],
    n_states: int,
    initial_state: int,
    rule: "TransitionRule",
) -> TabularParty:
    """Materialise a transition rule into dense S×A×A tables."""
    index = {s: i for i, s in enumerate(alphabet)}
    next_rows: List[Tuple[Tuple[int, ...], ...]] = []
    out_a_rows: List[Tuple[Tuple[int, ...], ...]] = []
    out_b_rows: List[Tuple[Tuple[int, ...], ...]] = []
    for state in range(n_states):
        next_plane: List[Tuple[int, ...]] = []
        out_a_plane: List[Tuple[int, ...]] = []
        out_b_plane: List[Tuple[int, ...]] = []
        for a_sym in alphabet:
            next_row: List[int] = []
            out_a_row: List[int] = []
            out_b_row: List[int] = []
            for b_sym in alphabet:
                nxt, out_a, out_b = rule(state, a_sym, b_sym)
                next_row.append(nxt)
                out_a_row.append(index[out_a])
                out_b_row.append(index[out_b])
            next_plane.append(tuple(next_row))
            out_a_plane.append(tuple(out_a_row))
            out_b_plane.append(tuple(out_b_row))
        next_rows.append(tuple(next_plane))
        out_a_rows.append(tuple(out_a_plane))
        out_b_rows.append(tuple(out_b_plane))
    return TabularParty(
        n_symbols=len(alphabet),
        initial_state=initial_state,
        next_state=tuple(next_rows),
        out_a=tuple(out_a_rows),
        out_b=tuple(out_b_rows),
    )


# ---------------------------------------------------------------------------
# The relay goal: a table-defined language-mismatch cast.
# ---------------------------------------------------------------------------

#: Rounds from a world emission to the relayed, decoded reply's return:
#: world→user (1) + user→server (1) + server→user (1) + user→world (1).
RELAY_LATENCY = 4


def relay_user(
    symbols: Sequence[str],
    decode: Optional[Mapping[str, str]] = None,
    *,
    label: str = "relay",
) -> TabularUser:
    """The relay user: forwards challenges, decodes answers.

    Each round it sends the world's last message to the server verbatim
    and the server's last message — run through ``decode`` (default: the
    identity) — to the world.  Memoryless (one state): the whole strategy
    is its decoder, which is exactly the degree of freedom the relay goal
    quantifies over.
    """
    decode = dict(decode) if decode is not None else {s: s for s in symbols}
    unknown = set(decode) - set(symbols)
    if unknown:
        raise ValueError(f"decoder maps symbols outside the alphabet: {unknown}")
    alphabet = (SILENCE, *symbols)

    def rule(state: int, from_server: str, from_world: str) -> Tuple[int, str, str]:
        to_server = from_world if from_world in decode else SILENCE
        decoded = decode.get(from_server, SILENCE)
        return 0, to_server, decoded

    return TabularUser(_build_party(alphabet, 1, 0, rule), alphabet, label)


def coded_server(
    symbols: Sequence[str],
    code: Mapping[str, str],
    *,
    label: Optional[str] = None,
) -> TabularServer:
    """A server that answers each relayed challenge in its own vocabulary.

    ``code`` maps challenge symbols to answer symbols (a permutation for
    the classic language-mismatch class); anything else reads as silence.
    Stateless — its helpfulness is entirely in how it is decoded.
    """
    if set(code) != set(symbols) or set(code.values()) != set(symbols):
        raise ValueError("code must be a bijection over the symbol alphabet")
    alphabet = (SILENCE, *symbols)

    def rule(state: int, from_user: str, from_world: str) -> Tuple[int, str, str]:
        return 0, code.get(from_user, SILENCE), SILENCE

    name = label if label is not None else "coded[" + "".join(
        code[s][:1] for s in symbols
    ) + "]"
    return TabularServer(_build_party(alphabet, 1, 0, rule), alphabet, name)


def coded_server_class(
    symbols: Sequence[str], count: Optional[int] = None
) -> List[TabularServer]:
    """The cyclic-shift family of coded servers (deterministic order).

    Server *k* answers challenge ``symbols[i]`` with ``symbols[(i+k) % n]``;
    server 0 speaks the user's language.  ``count`` defaults to one server
    per shift.
    """
    ordered = list(symbols)
    n = len(ordered)
    members = count if count is not None else n
    servers = []
    for k in range(members):
        code = {ordered[i]: ordered[(i + k) % n] for i in range(n)}
        servers.append(coded_server(ordered, code, label=f"coded-shift{k % n}"))
    return servers


def relay_decoder_class(symbols: Sequence[str]) -> List[TabularUser]:
    """The matching decoder family: decoder *k* inverts coded server *k*."""
    ordered = list(symbols)
    n = len(ordered)
    users = []
    for k in range(n):
        decode = {ordered[(i + k) % n]: ordered[i] for i in range(n)}
        users.append(relay_user(ordered, decode, label=f"relay-shift{k}"))
    return users


def cycle_world(
    symbols: Sequence[str],
    *,
    latency: int = RELAY_LATENCY,
    label: str = "cycle-world",
) -> Tuple[TabularWorld, Tuple[bool, ...]]:
    """The relay world plus its per-state acceptability flags.

    Emits challenge ``symbols[r % n]`` to the user each round *r* and
    checks the user's incoming message against the challenge issued
    ``latency`` rounds earlier (the pipeline depth of
    world→user→server→user→world).  States encode ``(phase, warmup,
    last-check-ok)``; a state is acceptable iff its last check passed —
    warmup rounds (nothing due back yet) always pass.
    """
    ordered = tuple(symbols)
    n = len(ordered)
    if n == 0:
        raise ValueError("cycle world needs a non-empty symbol alphabet")
    if latency < 1:
        raise ValueError(f"latency must be >= 1: {latency}")
    alphabet = (SILENCE, *ordered)

    # State id encodes (phase in [0, n), warm in [0, latency], ok flag).
    def encode(phase: int, warm: int, ok: bool) -> int:
        return (phase * (latency + 1) + warm) * 2 + (1 if ok else 0)

    n_states = n * (latency + 1) * 2

    def rule(state: int, from_user: str, from_server: str) -> Tuple[int, str, str]:
        ok_bit = state % 2
        rest = state // 2
        warm = rest % (latency + 1)
        phase = rest // (latency + 1)
        del ok_bit  # the flag records the *previous* check; recomputed below
        if warm < latency:
            checked_ok = True  # nothing due back yet
        else:
            expected = ordered[(phase - latency) % n]
            checked_ok = from_user == expected
        next_state = encode(
            (phase + 1) % n, min(warm + 1, latency), checked_ok
        )
        return next_state, ordered[phase], SILENCE

    world = TabularWorld(
        _build_party(alphabet, n_states, encode(0, 0, True), rule),
        alphabet,
        f"{label}[{n}]",
    )
    flags = tuple(state % 2 == 1 for state in range(n_states))
    return world, flags


class StateFlagPredicate:
    """A picklable per-state-id acceptability predicate (no lambdas)."""

    def __init__(self, flags: Tuple[bool, ...]) -> None:
        self.flags = flags

    def __call__(self, state: int) -> bool:
        return bool(self.flags[state])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StateFlagPredicate) and self.flags == other.flags

    def __hash__(self) -> int:
        return hash(self.flags)


def relay_goal(
    symbols: Sequence[str],
    *,
    latency: int = RELAY_LATENCY,
    settle_fraction: float = 0.5,
) -> CompactGoal:
    """The relay echo goal: a compact goal judged by a per-state flag table.

    Forgiving in the paper's sense: the world re-challenges forever, so any
    finite prefix of mistakes can be followed by an all-correct tail (the
    matching decoder achieves exactly that from any point).
    """
    world, flags = cycle_world(symbols, latency=latency)
    return CompactGoal(
        name=f"relay-echo[{len(tuple(symbols))}]",
        world=world,
        referee=LastStateCompactReferee(
            state_acceptable=StateFlagPredicate(flags), label="relay-echo"
        ),
        settle_fraction=settle_fraction,
    )
