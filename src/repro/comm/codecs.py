"""Bijective string codecs modelling *language mismatch*.

The central obstacle studied by the paper is that user and server share no
prior agreement on protocol or language.  We model a server's "foreign
language" by wrapping a base server in a :class:`Codec`: incoming user
messages are decoded, outgoing server messages are encoded (see
:class:`repro.servers.wrappers.EncodedServer`).  A user strategy that works
against the base server then works against the wrapped server *iff* it
speaks through the same codec — so a class of codec-wrapped servers is
exactly a class of servers "speaking different languages", and enumerating
codecs is enumerating hypotheses about the server's language.

Every codec is a bijection on its domain, so wrapping never destroys
information: the wrapped server is as *helpful* as the base one (a user
knowing the codec achieves whatever the base user achieved).  This is what
keeps the experiments aligned with the paper's setting, where the issue is
purely one of compatibility, never of capability.

Codecs are value objects: equality and hashing are structural, so they can
key enumeration tables and be compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.errors import CodecError

#: Characters the rotation/permutation codecs operate on: printable ASCII.
_PRINTABLE_LO = 32
_PRINTABLE_HI = 126
_PRINTABLE_RANGE = _PRINTABLE_HI - _PRINTABLE_LO + 1


# Translate tables for ``str.translate``, built on first use and cached by
# the value that determines them — never stored on the codec, so equality,
# hashing, ``repr`` and pickles see only the codec's own fields.  A string
# table indexed by code point leaves characters past its end untouched
# (``str.translate`` passes a character through on ``LookupError``).


@lru_cache(maxsize=None)
def _rotation_table(shift: int) -> str:
    """Code points 0..126 with the printable range rotated by ``shift``."""
    return "".join(
        chr(_PRINTABLE_LO + (code - _PRINTABLE_LO + shift) % _PRINTABLE_RANGE)
        if code >= _PRINTABLE_LO
        else chr(code)
        for code in range(_PRINTABLE_HI + 1)
    )


@lru_cache(maxsize=None)
def _xor_table(mask: int) -> str:
    """Code points 0..255, each XORed with ``mask``."""
    return "".join(chr(code ^ mask) for code in range(256))


class Codec:
    """A bijective transformation on message strings.

    Subclasses implement :meth:`encode` and :meth:`decode` such that
    ``decode(encode(s)) == s`` for every string ``s`` in the domain.
    ``decode`` raises :class:`~repro.errors.CodecError` when its input is not
    in the image of ``encode`` (strategies treat that as an unintelligible
    message, not a crash).
    """

    @property
    def name(self) -> str:
        """Short human-readable identifier used in experiment tables."""
        raise NotImplementedError

    def encode(self, message: str) -> str:
        """Map a plaintext message to its wire form."""
        raise NotImplementedError

    def decode(self, message: str) -> str:
        """Invert :meth:`encode`; raise :class:`CodecError` on non-image input."""
        raise NotImplementedError

    def then(self, other: "Codec") -> "ComposedCodec":
        """Return the codec applying ``self`` first, then ``other``."""
        return ComposedCodec((self, other))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True)
class IdentityCodec(Codec):
    """The trivial codec: wire form equals plaintext."""

    @property
    def name(self) -> str:
        return "id"

    def encode(self, message: str) -> str:
        return message

    def decode(self, message: str) -> str:
        return message


@dataclass(frozen=True)
class ReverseCodec(Codec):
    """Reverses the message; its own inverse."""

    @property
    def name(self) -> str:
        return "reverse"

    def encode(self, message: str) -> str:
        return message[::-1]

    def decode(self, message: str) -> str:
        return message[::-1]


@dataclass(frozen=True)
class CaesarCodec(Codec):
    """Rotates printable-ASCII characters by a fixed shift.

    Characters outside the printable range pass through unchanged, which
    preserves bijectivity because the rotation maps the printable range onto
    itself.
    """

    shift: int = 1

    @property
    def name(self) -> str:
        return f"caesar{self.shift % _PRINTABLE_RANGE}"

    def encode(self, message: str) -> str:
        return message.translate(_rotation_table(self.shift % _PRINTABLE_RANGE))

    def decode(self, message: str) -> str:
        return message.translate(_rotation_table(-self.shift % _PRINTABLE_RANGE))


@dataclass(frozen=True)
class XorMaskCodec(Codec):
    """XORs each character code with a mask below 256; its own inverse.

    Only defined on strings of characters with code points below 256 (the
    Latin-1 plane, a superset of everything our protocols emit); other
    inputs raise :class:`CodecError`.
    """

    mask: int = 0x55

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 256:
            raise ValueError(f"mask must be in [0, 256): {self.mask}")

    @property
    def name(self) -> str:
        return f"xor{self.mask:02x}"

    def _apply(self, message: str) -> str:
        if not message.isascii():
            for ch in message:
                if ord(ch) >= 256:
                    raise CodecError(f"XorMaskCodec domain is Latin-1; got {ch!r}")
        return message.translate(_xor_table(self.mask))

    def encode(self, message: str) -> str:
        return self._apply(message)

    def decode(self, message: str) -> str:
        return self._apply(message)


@dataclass(frozen=True)
class AlphabetPermutationCodec(Codec):
    """Applies a permutation of a fixed alphabet character-wise.

    ``mapping`` must be a bijection from the alphabet onto itself; characters
    outside the alphabet pass through unchanged.
    """

    mapping: Tuple[Tuple[str, str], ...]
    label: str = "perm"

    def __post_init__(self) -> None:
        sources = [src for src, _ in self.mapping]
        targets = [dst for _, dst in self.mapping]
        if sorted(sources) != sorted(targets):
            raise ValueError("mapping must permute the alphabet onto itself")
        if len(set(sources)) != len(sources):
            raise ValueError("mapping has duplicate source characters")

    @property
    def name(self) -> str:
        return self.label

    def _forward(self) -> Dict[str, str]:
        return dict(self.mapping)

    def _backward(self) -> Dict[str, str]:
        return {dst: src for src, dst in self.mapping}

    def encode(self, message: str) -> str:
        table = self._forward()
        return "".join(table.get(ch, ch) for ch in message)

    def decode(self, message: str) -> str:
        table = self._backward()
        return "".join(table.get(ch, ch) for ch in message)


@dataclass(frozen=True)
class TokenMapCodec(Codec):
    """Renames whole tokens (split on a separator) via a bijection.

    This models *vocabulary* mismatch — e.g. an advisor that says ``norte``
    where we say ``north`` — as opposed to the character-level codecs above.
    ``mapping`` must be injective and its image disjoint from unmapped
    tokens, which the constructor checks to the extent possible (injectivity)
    and the family builders guarantee by using permutations of a token set.
    """

    mapping: Tuple[Tuple[str, str], ...]
    separator: str = " "
    label: str = "tokens"

    def __post_init__(self) -> None:
        targets = [dst for _, dst in self.mapping]
        if len(set(targets)) != len(targets):
            raise ValueError("token mapping must be injective")
        sources = [src for src, _ in self.mapping]
        if len(set(sources)) != len(sources):
            raise ValueError("token mapping has duplicate sources")

    @property
    def name(self) -> str:
        return self.label

    def encode(self, message: str) -> str:
        table = dict(self.mapping)
        return self.separator.join(
            table.get(tok, tok) for tok in message.split(self.separator)
        )

    def decode(self, message: str) -> str:
        table = {dst: src for src, dst in self.mapping}
        return self.separator.join(
            table.get(tok, tok) for tok in message.split(self.separator)
        )


@dataclass(frozen=True)
class PrefixCodec(Codec):
    """Prepends a fixed sigil; decoding strips it and rejects its absence.

    Unlike the other codecs this one has a *proper* image (strings starting
    with the sigil), so decoding garbage fails loudly — useful in tests of
    how strategies cope with unintelligible peers.
    """

    sigil: str = "~"

    @property
    def name(self) -> str:
        return f"prefix{self.sigil!r}"

    def encode(self, message: str) -> str:
        return self.sigil + message

    def decode(self, message: str) -> str:
        if not message.startswith(self.sigil):
            raise CodecError(f"missing sigil {self.sigil!r}: {message!r}")
        return message[len(self.sigil):]


@dataclass(frozen=True)
class ComposedCodec(Codec):
    """Function composition of codecs (first element applied first)."""

    parts: Tuple[Codec, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("ComposedCodec needs at least one part")

    @property
    def name(self) -> str:
        return "+".join(part.name for part in self.parts)

    def encode(self, message: str) -> str:
        for part in self.parts:
            message = part.encode(message)
        return message

    def decode(self, message: str) -> str:
        for part in reversed(self.parts):
            message = part.decode(message)
        return message


def codec_family(size: int) -> List[Codec]:
    """Return a deterministic family of ``size`` distinct codecs.

    The family starts with the identity and grows through reversal, Caesar
    rotations, XOR masks and their compositions.  Determinism matters: the
    experiments place "the right language" at a *known index* of the family
    to measure how the universal user's overhead scales with enumeration
    position (experiment E4).
    """
    if size < 1:
        raise ValueError(f"size must be positive: {size}")
    base: List[Codec] = [IdentityCodec(), ReverseCodec()]
    shift = 1
    while len(base) < size and shift < _PRINTABLE_RANGE:
        base.append(CaesarCodec(shift=shift))
        shift += 2
    mask = 1
    while len(base) < size and mask < 256:
        base.append(XorMaskCodec(mask=mask))
        mask += 2
    # Compositions give an unbounded supply of further distinct codecs.
    level = 1
    while len(base) < size:
        base.append(ComposedCodec((ReverseCodec(), CaesarCodec(shift=level))))
        level += 1
        if len(base) < size:
            base.append(ComposedCodec((CaesarCodec(shift=level), XorMaskCodec(mask=level % 256))))
            level += 1
    return base[:size]
