"""Tests for the codec substrate — mostly the bijection laws, via hypothesis."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.codecs import (
    AlphabetPermutationCodec,
    CaesarCodec,
    Codec,
    ComposedCodec,
    IdentityCodec,
    PrefixCodec,
    ReverseCodec,
    TokenMapCodec,
    XorMaskCodec,
    codec_family,
)
from repro.errors import CodecError

# Strings over the printable-ASCII range, the domain all protocols use.
printable_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60
)

ALL_CODECS = [
    IdentityCodec(),
    ReverseCodec(),
    CaesarCodec(shift=5),
    CaesarCodec(shift=94),
    XorMaskCodec(mask=0x2A),
    AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "c"), ("c", "a"))),
    TokenMapCodec(mapping=(("north", "sud"), ("sud", "north"))),
    PrefixCodec(sigil="~~"),
    ComposedCodec((ReverseCodec(), CaesarCodec(shift=3))),
]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@given(message=printable_text)
@settings(max_examples=40, deadline=None)
def test_decode_inverts_encode(codec: Codec, message: str):
    assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@given(a=printable_text, b=printable_text)
@settings(max_examples=25, deadline=None)
def test_encode_is_injective(codec: Codec, a: str, b: str):
    if a != b:
        assert codec.encode(a) != codec.encode(b)


class TestIdentity:
    def test_identity_is_noop(self):
        assert IdentityCodec().encode("abc") == "abc"


class TestCaesar:
    def test_known_shift(self):
        assert CaesarCodec(shift=1).encode("ABC") == "BCD"

    def test_wraps_printable_range(self):
        # '~' (126) shifted by 1 wraps to ' ' (32).
        assert CaesarCodec(shift=1).encode("~") == " "

    def test_nonprintable_passes_through(self):
        assert CaesarCodec(shift=7).encode("\n") == "\n"


class TestXorMask:
    def test_self_inverse(self):
        codec = XorMaskCodec(mask=0x13)
        assert codec.encode(codec.encode("hello")) == "hello"

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError):
            XorMaskCodec(mask=256)

    def test_rejects_non_latin1_input(self):
        with pytest.raises(CodecError):
            XorMaskCodec(mask=1).encode("☃")  # snowman


class TestAlphabetPermutation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "b")))

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            AlphabetPermutationCodec(mapping=(("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")))

    def test_characters_outside_alphabet_pass_through(self):
        codec = AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "a")))
        assert codec.encode("abz") == "baz"


class TestTokenMap:
    def test_whole_tokens_only(self):
        codec = TokenMapCodec(mapping=(("north", "sud"), ("sud", "north")))
        assert codec.encode("go north now") == "go sud now"
        assert codec.encode("northern") == "northern"

    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            TokenMapCodec(mapping=(("a", "x"), ("b", "x")))


class TestPrefix:
    def test_decode_rejects_missing_sigil(self):
        with pytest.raises(CodecError):
            PrefixCodec(sigil="~").decode("no sigil")


class TestComposition:
    def test_then_builds_composition(self):
        codec = ReverseCodec().then(CaesarCodec(shift=2))
        assert codec.decode(codec.encode("xyz")) == "xyz"

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            ComposedCodec(())

    def test_composition_order_matters(self):
        a = ComposedCodec((ReverseCodec(), PrefixCodec("~")))
        b = ComposedCodec((PrefixCodec("~"), ReverseCodec()))
        assert a.encode("ab") == "~ba"
        assert b.encode("ab") == "ba~"


class TestFamily:
    def test_family_members_distinct_behaviour(self):
        family = codec_family(16)
        probe = "The Quick Brown Fox ~ 123!"
        encodings = [codec.encode(probe) for codec in family]
        assert len(set(encodings)) == len(family)

    def test_family_starts_with_identity(self):
        assert isinstance(codec_family(1)[0], IdentityCodec)

    def test_family_deterministic(self):
        names_a = [c.name for c in codec_family(12)]
        names_b = [c.name for c in codec_family(12)]
        assert names_a == names_b

    def test_family_size_validated(self):
        with pytest.raises(ValueError):
            codec_family(0)

    @pytest.mark.parametrize("size", [1, 2, 5, 30, 80])
    def test_family_has_requested_size(self, size: int):
        assert len(codec_family(size)) == size

    @given(message=printable_text)
    @settings(max_examples=20, deadline=None)
    def test_large_family_all_bijective(self, message: str):
        for codec in codec_family(40):
            assert codec.decode(codec.encode(message)) == message


# ----------------------------------------------------------------------
# Differential check: the translate-table codecs against the original
# per-character loops, kept here verbatim as the reference implementation.

_LO, _HI = 32, 126
_RANGE = _HI - _LO + 1


def _reference_rotate(message: str, shift: int) -> str:
    out = []
    for ch in message:
        code = ord(ch)
        if _LO <= code <= _HI:
            code = _LO + (code - _LO + shift) % _RANGE
        out.append(chr(code))
    return "".join(out)


def _reference_xor(message: str, mask: int) -> str:
    out = []
    for ch in message:
        code = ord(ch)
        if code >= 256:
            raise CodecError(f"XorMaskCodec domain is Latin-1; got {ch!r}")
        out.append(chr(code ^ mask))
    return "".join(out)


def _reference_chars(message: str, table) -> str:
    return "".join(table.get(ch, ch) for ch in message)


def _reference_tokens(message: str, table, separator: str) -> str:
    return separator.join(table.get(tok, tok) for tok in message.split(separator))


def _reference_prefix_decode(message: str, sigil: str) -> str:
    if not message.startswith(sigil):
        raise CodecError(f"missing sigil {sigil!r}: {message!r}")
    return message[len(sigil):]


def reference(codec: Codec, message: str, *, decode: bool) -> str:
    """The pre-table behaviour of ``codec.encode`` / ``codec.decode``."""
    if isinstance(codec, IdentityCodec):
        return message
    if isinstance(codec, ReverseCodec):
        return message[::-1]
    if isinstance(codec, CaesarCodec):
        return _reference_rotate(message, -codec.shift if decode else codec.shift)
    if isinstance(codec, XorMaskCodec):
        return _reference_xor(message, codec.mask)
    if isinstance(codec, AlphabetPermutationCodec):
        pairs = [(dst, src) if decode else (src, dst) for src, dst in codec.mapping]
        return _reference_chars(message, dict(pairs))
    if isinstance(codec, TokenMapCodec):
        pairs = [(dst, src) if decode else (src, dst) for src, dst in codec.mapping]
        return _reference_tokens(message, dict(pairs), codec.separator)
    if isinstance(codec, PrefixCodec):
        if decode:
            return _reference_prefix_decode(message, codec.sigil)
        return codec.sigil + message
    if isinstance(codec, ComposedCodec):
        for part in reversed(codec.parts) if decode else codec.parts:
            message = reference(part, message, decode=decode)
        return message
    raise AssertionError(f"no reference for {codec!r}")


def outcome(call, message: str):
    """A call's result, or the type and message of what it raised."""
    try:
        return ("ok", call(message))
    except Exception as exc:  # the exception is the outcome under test
        return ("raised", type(exc), str(exc))


TOKENS = ["north", "sud", "go", "~", "é"]

# Printable ASCII, Latin-1 and code points >= 256, sometimes as the tokens
# the token codecs rename.
wide_text = st.lists(
    st.one_of(
        st.sampled_from(TOKENS),
        st.text(
            alphabet=st.one_of(
                st.characters(min_codepoint=32, max_codepoint=126),
                st.characters(
                    min_codepoint=0, max_codepoint=0x3FF,
                    blacklist_categories=("Cs",),
                ),
            ),
            max_size=8,
        ),
    ),
    max_size=6,
).map(" ".join)

DIFFERENTIAL_CODECS = [
    *codec_family(64),
    AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "c"), ("c", "a"))),
    AlphabetPermutationCodec(
        mapping=(("a", "é"), ("é", "☃"), ("☃", "a")), label="wide-perm"
    ),
    TokenMapCodec(mapping=(("north", "sud"), ("sud", "north"))),
    TokenMapCodec(mapping=(("go", "é"), ("é", "go")), separator="~", label="tilde"),
    PrefixCodec(sigil="~"),
    ComposedCodec((CaesarCodec(shift=-3), XorMaskCodec(mask=0x7F))),
    ComposedCodec(
        (
            TokenMapCodec(mapping=(("north", "sud"), ("sud", "north"))),
            AlphabetPermutationCodec(mapping=(("o", "u"), ("u", "o"))),
            PrefixCodec(sigil="#"),
        )
    ),
]


def _differential_id(codec: Codec) -> str:
    return f"{type(codec).__name__}-{codec.name}"


@pytest.mark.parametrize("codec", DIFFERENTIAL_CODECS, ids=_differential_id)
@given(message=wide_text)
@settings(max_examples=30, deadline=None)
def test_codec_matches_per_character_reference(codec: Codec, message: str):
    assert outcome(codec.encode, message) == outcome(
        lambda m: reference(codec, m, decode=False), message
    )
    assert outcome(codec.decode, message) == outcome(
        lambda m: reference(codec, m, decode=True), message
    )


@pytest.mark.parametrize("codec", DIFFERENTIAL_CODECS, ids=_differential_id)
def test_tables_stay_off_the_codec(codec: Codec):
    """Pickles, ``==`` and ``hash`` see the codec's fields and nothing else."""
    fresh = copy.deepcopy(codec)
    codec.decode(codec.encode("warm the tables: north ~ é"))
    assert pickle.dumps(codec) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(codec)) == codec
    assert codec == fresh and hash(codec) == hash(fresh)
    assert repr(codec) == repr(fresh)
    fields = dataclasses.fields(codec)
    assert set(vars(codec)) == {f.name for f in fields}
    # The dataclass-generated hash: the tuple of the fields, nothing more.
    assert hash(codec) == hash(tuple(getattr(codec, f.name) for f in fields))


def test_no_table_is_built_at_import():
    """Module state is process-global, so the probe runs in a fresh interpreter."""
    probe = (
        "from repro.comm import codecs\n"
        "tables = (codecs._rotation_table, codecs._xor_table)\n"
        "print(sum(t.cache_info().currsize for t in tables))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"
