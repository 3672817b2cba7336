import pytest
from hypothesis import given

from twbraid.quotients import (
    SignedPermutation,
    bar_parity_per_component,
    closure_permutation,
    hyperoctahedral_image,
    sigma_exponent_sum,
)
from twbraid.words import BraidWord, Category, Generator, Kind, concat, parse_word
from wordgen import words


def tw(text, n):
    return parse_word(text, n, Category.TWISTED)


def test_identity_image():
    assert hyperoctahedral_image(tw("", 3)) == SignedPermutation.identity(3)


def test_bar_then_crossing():
    img = hyperoctahedral_image(tw("b1 v1", 2))
    assert img.mapping == (2, 1)
    assert img.signs == (-1, 1)  # the sign rides on the strand from top position 1
    assert img == hyperoctahedral_image(tw("v1 b2", 2))


def test_bar_sandwich_equals_virtual_sandwich():
    assert hyperoctahedral_image(tw("b1 b2 s1 b2 b1", 2)) == hyperoctahedral_image(
        tw("v1 s1 v1", 2)
    )
    img = hyperoctahedral_image(tw("b1 b2 s1 b2 b1", 2))
    assert img.mapping == (2, 1)
    assert img.signs == (1, 1)


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1), (1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 2), (1, 0))


def test_compose_identity_laws():
    g = hyperoctahedral_image(tw("b1 s1 b2", 2))
    e = SignedPermutation.identity(2)
    assert e * g == g
    assert g * e == g


def test_compose_refuses_a_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        SignedPermutation.identity(2).compose(SignedPermutation.identity(3))


@given(words(categories=(Category.TWISTED, Category.FLAT_TWISTED)), words())
def test_image_is_a_homomorphism(w1, w2):
    if w1.n != w2.n or w1.category != w2.category:
        return
    assert hyperoctahedral_image(concat(w1, w2)) == hyperoctahedral_image(
        w1
    ) * hyperoctahedral_image(w2)


@pytest.mark.parametrize(
    "text,total", [("", 0), ("s1 s2 S1", 1), ("S1 S1", -2), ("v1 b2", 0)]
)
def test_sigma_exponent_sum(text, total):
    assert sigma_exponent_sum(tw(text, 3)) == total


class TestClosurePermutation:
    def test_empty_word(self):
        cp = closure_permutation(tw("", 3))
        assert cp.mapping == (1, 2, 3)
        assert cp.cycles == ((1,), (2,), (3,))
        assert cp.component_count == 3

    def test_v1_s2(self):
        cp = closure_permutation(tw("v1 s2", 3))
        assert cp.mapping == (3, 1, 2)
        assert cp.component_count == 1
        assert set(cp.cycles[0]) == {1, 2, 3}

    def test_bars_do_not_permute(self):
        cp = closure_permutation(tw("b1 b2", 2))
        assert cp.mapping == (1, 2)
        assert cp.component_count == 2


class TestBarParity:
    def test_single_strand_single_bar(self):
        assert bar_parity_per_component(tw("b1", 1)) == {(1,): 1}

    def test_two_strands_two_bars(self):
        assert bar_parity_per_component(tw("b1 b2", 2)) == {(1,): 1, (2,): 1}

    def test_bars_follow_strands(self):
        # both bars land on the strand entering at top position 1:
        # it sits at position 1 for the first bar and position 2 for the second
        assert bar_parity_per_component(tw("b1 v1 b2 v1", 2)) == {(1,): 0, (2,): 0}

    def test_merged_component(self):
        assert bar_parity_per_component(tw("b1 s1", 2)) == {(1, 2): 1}


@given(words(categories=(Category.TWISTED,), max_len=10))
def test_total_parity_matches_bar_count(word):
    parities = bar_parity_per_component(word)
    bars = sum(1 for g in word.letters if g.kind.value == "b")
    assert sum(parities.values()) % 2 == bars % 2


@given(words(max_len=8), words(max_len=8))
def test_closure_permutation_is_a_homomorphism(w1, w2):
    if w1.n != w2.n or w1.category != w2.category:
        return
    combined = closure_permutation(concat(w1, w2)).mapping
    p1 = closure_permutation(w1).mapping
    p2 = closure_permutation(w2).mapping
    assert combined == tuple(p2[p1[i] - 1] for i in range(w1.n))


@given(words(categories=(Category.TWISTED, Category.FLAT_TWISTED)))
def test_bar_insertion_never_changes_permutation(word):
    base = closure_permutation(word).mapping
    for pos in range(len(word) + 1):
        letters = word.letters[:pos] + (Generator(Kind.B, 1),) + word.letters[pos:]
        spiked = BraidWord(word.n, letters, word.category)
        assert closure_permutation(spiked).mapping == base


def _bars_per_component(word):
    """Follow each closure component strand by strand and count its bars: a
    strand at position p meets the bars at p and moves with every crossing
    at p or p - 1, and at the bottom it enters the top again where it left.
    Components start at their least top position, in increasing order."""
    counts, seen = {}, set()
    for start in range(1, word.n + 1):
        component, bars, p = [], 0, start
        while p not in seen:
            seen.add(p)
            component.append(p)
            for g in word.letters:
                if g.kind is Kind.B:
                    bars += g.index == p
                elif g.index == p:
                    p += 1
                elif g.index == p - 1:
                    p -= 1
        if component:
            counts[tuple(component)] = bars
    return counts


@given(words(max_len=16))
def test_bar_parity_counts_the_bars_of_each_component(word):
    expected = {c: bars % 2 for c, bars in _bars_per_component(word).items()}
    assert bar_parity_per_component(word) == expected
