"""Finite quotient invariants of braid words.

Four cheap images — the signed-permutation (hyperoctahedral) image, the
closure permutation (its image in S_n), the classical exponent sum, and
per-component bar parities — give fast soundness checks for the rewriting
machinery and certificates that two words are *not* equivalent.  None of
them is complete.  ``hyperoctahedral_image`` is the one walk of a word's
strands; the closure permutation and the bar parities read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, Kind


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the wreath product of sign flips with the symmetric group.

    ``mapping[i-1]`` is where the strand entering at top position ``i`` exits;
    ``signs[i-1]`` is the sign that strand accumulates on the way down.  Signs
    ride on strands, not on positions, which is exactly what makes the
    bar-slide relation hold on the nose in this quotient.
    """

    mapping: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.mapping}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be n values in {{+1,-1}}: {self.signs}")

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls(tuple(range(1, n + 1)), (1,) * n)

    def compose(self, other: SignedPermutation) -> SignedPermutation:
        """self followed by other (stack other below self)."""
        n = len(self.mapping)
        if len(other.mapping) != n:
            raise ValueError("size mismatch")
        mapping = tuple(other.mapping[self.mapping[i] - 1] for i in range(n))
        signs = tuple(self.signs[i] * other.signs[self.mapping[i] - 1] for i in range(n))
        return SignedPermutation(mapping, signs)

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        return self.compose(other)


def hyperoctahedral_image(w: BraidWord) -> SignedPermutation:
    """Fold the word top to bottom: crossings swap positions, bars flip the
    sign of the strand currently at their position."""
    n = w.n
    where = list(range(n))  # where[p] = strand currently at position p
    signs = [1] * n  # indexed by strand
    for g in w.letters:
        i = g.index - 1
        if g.kind is Kind.B:
            signs[where[i]] = -signs[where[i]]
        else:
            where[i], where[i + 1] = where[i + 1], where[i]
    mapping = [0] * n
    for pos, strand in enumerate(where):
        mapping[strand] = pos + 1
    return SignedPermutation(tuple(mapping), tuple(signs))


def sigma_exponent_sum(w: BraidWord) -> int:
    """Number of positive classical letters minus number of inverse ones."""
    total = 0
    for g in w.letters:
        if g.kind is Kind.SIGMA:
            total += 1
        elif g.kind is Kind.SIGMA_INV:
            total -= 1
    return total


@dataclass(frozen=True)
class ClosurePermutation:
    """Strand permutation of a word plus its cycle partition.

    ``mapping[i-1]`` is the bottom position reached by the strand entering at
    top position ``i``.  Cycles are the closure's link components: each cycle
    starts at its smallest element and cycles are sorted by those minima.
    """

    mapping: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.cycles)


def _cycles_of(mapping: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(mapping)
    cycles = []
    for start in range(1, len(mapping) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            cyc.append(x)
            x = mapping[x - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def closure_permutation(w: BraidWord) -> ClosurePermutation:
    """The hyperoctahedral image with its signs forgotten: every crossing
    kind acts as the transposition of the two positions it touches, bars as
    the identity.  Cycle count equals the number of link components of the
    word's closure."""
    mapping = hyperoctahedral_image(w).mapping
    return ClosurePermutation(mapping, _cycles_of(mapping))


def bar_parity_per_component(w: BraidWord) -> dict[tuple[int, ...], int]:
    """Parity of the bar count on each closure component.

    Keys are the closure permutation's canonical cycles; a bar contributes to
    the strand sitting at its position when it occurs, which is the sign that
    strand carries in the hyperoctahedral image.
    """
    image = hyperoctahedral_image(w)
    return {
        cycle: sum(image.signs[strand - 1] < 0 for strand in cycle) % 2
        for cycle in _cycles_of(image.mapping)
    }
