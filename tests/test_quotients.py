import pytest
from hypothesis import given

from twbraid.quotients import (
    SignedPermutation,
    bar_parity_per_component,
    hyperoctahedral_image,
    sigma_exponent_sum,
)
from twbraid.words import Category, concat, parse_word
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
