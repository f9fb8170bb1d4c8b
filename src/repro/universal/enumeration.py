"""Enumerable classes of user strategies.

Theorem 1's universal users work by enumerating a class of candidate user
strategies.  The paper enumerates "all relevant user strategies"; our
experiments use bounded, explicitly constructed classes (see the
substitution table in DESIGN.md), so an enumeration here is any object that
can lazily yield candidate strategies in a fixed order and serve random
access into the materialised prefix.

:class:`StrategyEnumeration` is the interface; :class:`ListEnumeration`
wraps a concrete list; :class:`GeneratorEnumeration` wraps a generator
factory (supporting genuinely infinite classes such as "all transducers" or
"all GVM programs", dovetailed); :func:`materialize` gives the indexed
cursor the universal users consume.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence

from repro.core.strategy import UserStrategy
from repro.errors import EnumerationExhaustedError


class StrategyEnumeration:
    """An ordered (possibly infinite) class of user strategies."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def __iter__(self) -> Iterator[UserStrategy]:
        raise NotImplementedError

    def size_hint(self) -> Optional[int]:
        """The exact class size if known and finite, else ``None``."""
        return None


class ListEnumeration(StrategyEnumeration):
    """A finite enumeration backed by an explicit list.

    The list order *is* the enumeration order — experiment E4 exploits this
    by planting the adequate strategy at a chosen index.
    """

    def __init__(self, strategies: Sequence[UserStrategy], label: str = "list") -> None:
        if not strategies:
            raise ValueError("ListEnumeration requires at least one strategy")
        self._strategies = list(strategies)
        self._label = label

    @property
    def name(self) -> str:
        return f"{self._label}[{len(self._strategies)}]"

    def __iter__(self) -> Iterator[UserStrategy]:
        return iter(self._strategies)

    def size_hint(self) -> Optional[int]:
        return len(self._strategies)

    def __len__(self) -> int:
        return len(self._strategies)


class GeneratorEnumeration(StrategyEnumeration):
    """A lazy (possibly infinite) enumeration from a generator factory.

    ``factory`` must return a *fresh* iterator each call, yielding the same
    strategies in the same order (the universal users re-iterate when their
    materialised prefix runs short).
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[UserStrategy]],
        label: str = "generated",
        size: Optional[int] = None,
    ) -> None:
        self._factory = factory
        self._label = label
        self._size = size

    @property
    def name(self) -> str:
        return self._label

    def __iter__(self) -> Iterator[UserStrategy]:
        return self._factory()

    def size_hint(self) -> Optional[int]:
        return self._size


class EnumerationCursor:
    """Random access into an enumeration with prefix caching.

    ``get(i)`` materialises candidates up to index ``i`` on demand and
    raises :class:`EnumerationExhaustedError` past the end of a finite
    class.  One cursor is owned by each universal-user *state*, so two
    concurrent executions of the same universal user never share iteration
    state.
    """

    def __init__(self, enumeration: StrategyEnumeration) -> None:
        self._enumeration = enumeration
        self._cache: List[UserStrategy] = []
        self._iterator: Optional[Iterator[UserStrategy]] = None
        self._exhausted = False

    def get(self, index: int) -> UserStrategy:
        """The ``index``-th strategy of the class (0-based)."""
        if index < 0:
            raise IndexError(f"negative enumeration index: {index}")
        while len(self._cache) <= index and not self._exhausted:
            if self._iterator is None:
                self._iterator = iter(self._enumeration)
            try:
                self._cache.append(next(self._iterator))
            except StopIteration:
                self._exhausted = True
        if index < len(self._cache):
            return self._cache[index]
        raise EnumerationExhaustedError(
            f"enumeration {self._enumeration.name} has only "
            f"{len(self._cache)} strategies; asked for index {index}"
        )

    def known_size(self) -> Optional[int]:
        """Class size when fully materialised or hinted; else ``None``."""
        if self._exhausted:
            return len(self._cache)
        return self._enumeration.size_hint()

    @property
    def materialized(self) -> int:
        """How many candidates have been produced so far."""
        return len(self._cache)

    def __eq__(self, other: object) -> bool:
        """Cursors compare by the class they enumerate.

        The prefix cache and iterator position are performance artifacts
        — invisible to every sensing/switch decision, which go through
        :meth:`get` — so two cursors over the same class are equal however
        much each has materialised.  Universal-user states embed their
        cursor, and the serve/stepper parity suites compare those states
        structurally; without this, state equality would degenerate to
        cursor identity.
        """
        if not isinstance(other, EnumerationCursor):
            return NotImplemented
        return (
            self._enumeration is other._enumeration
            or self._enumeration == other._enumeration
        )

    __hash__ = None  # type: ignore[assignment]  # mutable cache


def materialize(enumeration: StrategyEnumeration) -> EnumerationCursor:
    """Create a fresh cursor over ``enumeration``."""
    return EnumerationCursor(enumeration)
