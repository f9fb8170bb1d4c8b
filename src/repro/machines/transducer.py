"""Finite-state (Mealy) transducers as an enumerable strategy space.

The paper's universal users enumerate "all relevant user strategies".  The
classical way to make that concrete without full Turing machines is to
enumerate finite-state transducers: machines that, in each round, consume
one input symbol and emit one output symbol while moving between finitely
many states.  Every table of a given size is a strategy, the tables of all
sizes are recursively enumerable, and small tables already express the
protocol skeletons our toy goals need — so transducer enumerations exercise
the universal users on a *generic* class, complementing the hand-built
protocol classes used by the headline experiments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.strategy import UserStrategy


@dataclass(frozen=True)
class Transducer:
    """A deterministic Mealy machine over symbol alphabets.

    ``transitions[state][input_index]`` is the next state;
    ``outputs[state][input_index]`` is the index of the emitted symbol.
    Symbols outside the input alphabet are read as index 0 (a total machine
    never crashes on foreign input — essential when the counterpart speaks
    an unknown language).
    """

    input_alphabet: Tuple[str, ...]
    output_alphabet: Tuple[str, ...]
    transitions: Tuple[Tuple[int, ...], ...]
    outputs: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n_states
        if n == 0:
            raise ValueError("transducer needs at least one state")
        if len(self.outputs) != n:
            raise ValueError("transitions/outputs row count mismatch")
        width = len(self.input_alphabet)
        for row in self.transitions:
            if len(row) != width:
                raise ValueError("transition row width != input alphabet size")
            if any(not 0 <= s < n for s in row):
                raise ValueError("transition target out of range")
        for row in self.outputs:
            if len(row) != width:
                raise ValueError("output row width != input alphabet size")
            if any(not 0 <= o < len(self.output_alphabet) for o in row):
                raise ValueError("output index out of range")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def symbol_index(self, symbol: str) -> int:
        """Index of ``symbol`` in the input alphabet (0 for foreign symbols)."""
        try:
            return self.input_alphabet.index(symbol)
        except ValueError:
            return 0

    def step(self, state: int, symbol: str) -> Tuple[int, str]:
        """Consume one symbol: return (next state, emitted symbol)."""
        j = self.symbol_index(symbol)
        return self.transitions[state][j], self.output_alphabet[self.outputs[state][j]]


def enumerate_transducers(
    n_states: int,
    input_alphabet: Tuple[str, ...],
    output_alphabet: Tuple[str, ...],
) -> Iterator[Transducer]:
    """Lazily yield every transducer with exactly ``n_states`` states.

    The count is ``(n_states * |output|) ** (n_states * |input|)``; callers
    should keep the parameters tiny (the point is the enumeration dynamics,
    not scale).  The order is deterministic: lexicographic over the flat
    (next-state, output) table.
    """
    if n_states <= 0:
        raise ValueError(f"n_states must be positive: {n_states}")
    cells = n_states * len(input_alphabet)
    choices = list(itertools.product(range(n_states), range(len(output_alphabet))))
    for table in itertools.product(choices, repeat=cells):
        transitions = tuple(
            tuple(table[s * len(input_alphabet) + j][0] for j in range(len(input_alphabet)))
            for s in range(n_states)
        )
        outputs = tuple(
            tuple(table[s * len(input_alphabet) + j][1] for j in range(len(input_alphabet)))
            for s in range(n_states)
        )
        yield Transducer(input_alphabet, output_alphabet, transitions, outputs)


def enumerate_all_transducers(
    input_alphabet: Tuple[str, ...],
    output_alphabet: Tuple[str, ...],
    max_states: Optional[int] = None,
) -> Iterator[Transducer]:
    """Dovetail transducer enumeration across state counts 1, 2, ...

    With ``max_states=None`` this is an infinite enumeration covering every
    finite-state strategy over the given alphabets — the closest bounded
    analogue of the paper's "all user strategies".
    """
    n = 1
    while max_states is None or n <= max_states:
        yield from enumerate_transducers(n, input_alphabet, output_alphabet)
        n += 1


class TransducerUser(UserStrategy):
    """Adapts a :class:`Transducer` into a user strategy.

    ``observe`` extracts the round's input symbol from the inbox (default:
    the server's message); ``emit`` turns the machine's output symbol into
    an outbox (default: send it to the server).  The adapters carry the
    role-plumbing so the transducer itself stays a pure table.
    """

    def __init__(
        self,
        transducer: Transducer,
        *,
        observe: Optional[Callable[[UserInbox], str]] = None,
        emit: Optional[Callable[[str], UserOutbox]] = None,
        label: str = "transducer",
    ) -> None:
        self._transducer = transducer
        self._observe = observe or (lambda inbox: inbox.from_server)
        self._emit = emit or (lambda symbol: UserOutbox(to_server=symbol))
        self._label = label

    @property
    def name(self) -> str:
        return f"{self._label}[{self._transducer.n_states}]"

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        symbol = self._observe(inbox)
        new_state, out_symbol = self._transducer.step(state, symbol)
        return new_state, self._emit(out_symbol)
