"""Braid words over the twisted/flat/virtual generator alphabets.

A word is a strand count ``n`` plus a finite sequence of generators read
left to right, which is top to bottom on the braid.  Everything here is an
immutable value; operations return new words.  The one-byte letter codec
the searches run on lives here too.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache


class WordError(ValueError):
    """Base class for word construction and parsing failures."""


class UnknownToken(WordError):
    pass


class IndexOutOfRange(WordError):
    pass


class CategoryViolation(WordError):
    pass


class StrandMismatch(WordError):
    pass


class CategoryMismatch(WordError):
    pass


class IdentityEnum(enum.Enum):
    """Base of every twbraid enum.  Members are singletons compared by
    identity, so they hash by identity too: a dict or set lookup then skips
    ``Enum.__hash__``, a Python-level call, and costs a quarter as much."""

    __hash__ = object.__hash__


class Kind(IdentityEnum):
    """Generator kinds: classical crossing and its inverse, virtual crossing,
    bar, flat crossing."""

    SIGMA = "s"
    SIGMA_INV = "S"
    V = "v"
    B = "b"
    C = "c"


class Category(IdentityEnum):
    TWISTED = "twisted"
    FLAT_TWISTED = "flat_twisted"
    VIRTUAL = "virtual"
    FLAT_VIRTUAL = "flat_virtual"
    CLASSICAL = "classical"


ALLOWED_KINDS: dict[Category, frozenset[Kind]] = {
    Category.TWISTED: frozenset({Kind.SIGMA, Kind.SIGMA_INV, Kind.V, Kind.B}),
    Category.FLAT_TWISTED: frozenset({Kind.C, Kind.V, Kind.B}),
    Category.VIRTUAL: frozenset({Kind.SIGMA, Kind.SIGMA_INV, Kind.V}),
    Category.FLAT_VIRTUAL: frozenset({Kind.C, Kind.V}),
    Category.CLASSICAL: frozenset({Kind.SIGMA, Kind.SIGMA_INV}),
}

#: A word's category once v letters are written into it (braiding, expansion).
WITH_VIRTUALS = {Category.CLASSICAL: Category.VIRTUAL}

_INVERSE_KIND = {
    Kind.SIGMA: Kind.SIGMA_INV,
    Kind.SIGMA_INV: Kind.SIGMA,
    Kind.V: Kind.V,
    Kind.B: Kind.B,
    Kind.C: Kind.C,
}

_KIND_BY_LETTER = {k.value: k for k in Kind}


def max_index(kind: Kind, n: int) -> int:
    """Largest legal index for a generator kind on n strands.

    Bars sit on strands (1..n); every other kind sits between adjacent
    strands (1..n-1).
    """
    return n if kind is Kind.B else n - 1


@dataclass(frozen=True, slots=True)
class Generator:
    kind: Kind
    index: int

    def token(self) -> str:
        return f"{self.kind.value}{self.index}"

    def inverse(self) -> Generator:
        return Generator(_INVERSE_KIND[self.kind], self.index)

    def __repr__(self) -> str:
        return f"Generator({self.token()!r})"


@dataclass(frozen=True, slots=True)
class BraidWord:
    n: int
    letters: tuple[Generator, ...]
    category: Category

    def __post_init__(self) -> None:
        if self.n < 1:
            raise WordError(f"strand count must be >= 1, got {self.n}")
        allowed, n, bar = ALLOWED_KINDS[self.category], self.n, Kind.B
        for g in self.letters:
            kind = g.kind
            if kind not in allowed:
                raise CategoryViolation(
                    f"{g.token()} is not allowed in category {self.category.value}"
                )
            if not 1 <= g.index <= (n if kind is bar else n - 1):
                raise IndexOutOfRange(
                    f"{g.token()} out of range for n={n} "
                    f"(max index {max_index(kind, n)})"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(g.token() for g in self.letters)

    def __repr__(self) -> str:
        return f"BraidWord(n={self.n}, {str(self) or 'empty'!r}, {self.category.value})"

    def with_letters(self, letters: tuple[Generator, ...]) -> BraidWord:
        """Same strand count and category, different letter sequence."""
        return BraidWord(self.n, letters, self.category)


_TOKEN_RE = re.compile(r"([sSvbc])([0-9]+)\Z")


def parse_word(text: str, n: int, category: Category | str = Category.TWISTED) -> BraidWord:
    """Parse a whitespace-separated token string (``s2 S1 v1 b3 c1`` style).

    Raises UnknownToken for malformed tokens; index and category checks are
    enforced by the BraidWord constructor.
    """
    cat = Category(category) if isinstance(category, str) else category
    return BraidWord(n, tuple(map(_token_generator, text.split())), cat)


#: Generators are frozen, so equal letters can be one shared object: parsed
#: and braided words take theirs from this bounded cache and hold pointers,
#: not copies.
generator = lru_cache(maxsize=4096)(Generator)


@lru_cache(maxsize=4096)
def _token_generator(tok: str) -> Generator:
    """The shared generator a token names."""
    m = _TOKEN_RE.match(tok)
    if m is None:
        raise UnknownToken(f"cannot read token {tok!r}")
    return generator(_KIND_BY_LETTER[m.group(1)], int(m.group(2)))


def invert(w: BraidWord) -> BraidWord:
    """Group inverse: reverse the letters and invert each one."""
    return w.with_letters(tuple(g.inverse() for g in reversed(w.letters)))


def concat(w1: BraidWord, w2: BraidWord) -> BraidWord:
    if w1.n != w2.n:
        raise StrandMismatch(f"cannot concatenate words on {w1.n} and {w2.n} strands")
    if w1.category != w2.category:
        raise CategoryMismatch(
            f"cannot concatenate {w1.category.value} with {w2.category.value}"
        )
    return w1.with_letters(w1.letters + w2.letters)


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent cancelling pairs (ss'/s's, vv, bb, cc on one index)
    until none remain.

    The rules are length-reducing and overlap-free, so the normal form is
    unique; a single stack pass computes it.
    """
    out: list[Generator] = []
    for g in w.letters:
        if out and out[-1].index == g.index and g.kind is _INVERSE_KIND[out[-1].kind]:
            out.pop()
        else:
            out.append(g)
    return w.with_letters(tuple(out))


# ---------------------------------------------------------------------------
# letter codec: one byte per letter, so subword scans ride on bytes.find.
# This is the only code that knows the byte layout.


class UnsupportedN(ValueError):
    """A strand count or letter index the letter codec cannot hold."""


_KIND_CODE = {Kind.SIGMA: 0, Kind.SIGMA_INV: 1, Kind.V: 2, Kind.B: 3, Kind.C: 4}
_INDEX_SPAN = 48  # letter indices 0..47: words on up to 47 strands


def code(kind: Kind, i: int) -> int:
    """The byte of the letter ``kind`` ``i``, or UnsupportedN past the span."""
    if not 0 <= i < _INDEX_SPAN:
        raise UnsupportedN(
            f"{kind.value}{i} is past the letter codec's indices 0..{_INDEX_SPAN - 1}"
        )
    return _KIND_CODE[kind] * _INDEX_SPAN + i


# one shared Generator per code, so decoding allocates no letters
_CODE_GENERATOR = {
    code(kind, i): generator(kind, i) for kind in _KIND_CODE for i in range(_INDEX_SPAN)
}


def letter(c: int) -> Generator:
    """The letter a byte codes (the reverse of ``code``)."""
    return _CODE_GENERATOR[c]


def check_strands(n: int) -> None:
    """Raise UnsupportedN unless every letter of an ``n``-strand word has a
    code (bars reach index n)."""
    if n >= _INDEX_SPAN:
        raise UnsupportedN(
            f"the letter codec holds at most {_INDEX_SPAN - 1} strands, got {n}"
        )


def encode_letters(letters: tuple[Generator, ...]) -> bytes:
    return bytes(code(g.kind, g.index) for g in letters)


def decode_letters(data: bytes) -> tuple[Generator, ...]:
    return tuple(map(_CODE_GENERATOR.__getitem__, data))


def encode_word(w: BraidWord) -> bytes:
    check_strands(w.n)
    return encode_letters(w.letters)


def decode_word(data: bytes, n: int, category: Category) -> BraidWord:
    return BraidWord(n, decode_letters(data), category)


def _code_tables() -> tuple[bytes, bytes, bytes]:
    partner, order, reach = bytearray([255]) * 256, bytearray(256), bytearray(256)
    for rank, kind in enumerate(sorted(Kind, key=lambda k: k.value)):
        for i in range(1, _INDEX_SPAN):
            c = code(kind, i)
            partner[c] = code(_INVERSE_KIND[kind], i)
            order[c] = rank * _INDEX_SPAN + i
            # bars sit on strand i, crossings join strands i and i + 1
            reach[c] = i if kind is Kind.B else i + 1
    return bytes(partner), bytes(order), bytes(reach)


#: ``CODE_PARTNER[c]`` cancels ``c`` (255, which codes no letter, where ``c``
#: codes none); ``data.translate(CODE_ORDER)`` sorts as the letters'
#: ``(kind.value, index)`` do; ``CODE_REACH[c]`` is the top strand ``c`` touches.
CODE_PARTNER, CODE_ORDER, CODE_REACH = _code_tables()


def reduce_codes(data: bytes) -> bytes:
    """Delete adjacent cancelling pairs until none remain, in one stack pass
    (the codec form of ``free_reduce``)."""
    out = bytearray()
    for c in data:
        if out and out[-1] == CODE_PARTNER[c]:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


# ---------------------------------------------------------------------------
# word files: a header line `n=<int> category=<name>` and one token line

_HEADER_RE = re.compile(r"n=([0-9]+)\s+category=([a-z_]+)\Z")


def format_word_file(w: BraidWord) -> str:
    return f"n={w.n} category={w.category.value}\n{w}\n"


def parse_word_file(text: str) -> BraidWord:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise WordError("empty word file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise WordError(f"bad word-file header: {lines[0]!r}")
    n = int(m.group(1))
    try:
        cat = Category(m.group(2))
    except ValueError:
        raise WordError(f"unknown category {m.group(2)!r}") from None
    return parse_word(" ".join(lines[1:]), n, cat)


def read_word_file(path) -> BraidWord:
    with open(path, encoding="utf-8") as fh:
        return parse_word_file(fh.read())


def write_word_file(path, w: BraidWord) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_word_file(w))
