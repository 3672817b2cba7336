"""Finite quotient invariants of braid words.

Three cheap homomorphic images — the signed-permutation (hyperoctahedral)
image, the classical exponent sum, and per-component bar parities — give fast
soundness checks for the rewriting machinery and certificates that two words
are *not* equivalent.  None of them is complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, Kind, closure_permutation


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


def bar_parity_per_component(w: BraidWord) -> dict[tuple[int, ...], int]:
    """Parity of the bar count on each closure component.

    Keys are the closure permutation's canonical cycles; a bar contributes to
    the strand sitting at its position when it occurs, which is the sign that
    strand carries in the hyperoctahedral image.
    """
    signs = hyperoctahedral_image(w).signs
    return {
        cycle: sum(signs[strand - 1] < 0 for strand in cycle) % 2
        for cycle in closure_permutation(w).cycles
    }
