import pytest
from hypothesis import given

from twbraid.words import (
    BraidWord,
    Category,
    CategoryMismatch,
    CategoryViolation,
    Generator,
    IndexOutOfRange,
    Kind,
    StrandMismatch,
    UnknownToken,
    UnsupportedN,
    WordError,
    code,
    concat,
    encode_letters,
    encode_word,
    free_reduce,
    invert,
    parse_word,
    parse_word_file,
    format_word_file,
    letter,
    read_word_file,
    write_word_file,
)
from wordgen import words


def w(text, n=3, category=Category.TWISTED):
    return parse_word(text, n, category)


class TestParsing:
    def test_empty_word_is_identity(self):
        word = w("", n=3)
        assert len(word) == 0
        assert word.n == 3

    def test_five_letter_word(self):
        word = w("v1 v2 s1 v2 v1", n=3)
        assert len(word) == 5
        assert str(word) == "v1 v2 s1 v2 v1"

    def test_all_kinds_round_trip(self):
        assert str(w("s1 S2 v1 b3", n=3)) == "s1 S2 v1 b3"
        assert str(w("c1 v2 b3", n=3, category=Category.FLAT_TWISTED)) == "c1 v2 b3"

    def test_bar_index_may_equal_n(self):
        assert w("b3", n=3).letters[0] == Generator(Kind.B, 3)

    def test_generator_repr_is_its_token(self):
        assert repr(Generator(Kind.SIGMA_INV, 2)) == "Generator('S2')"

    @pytest.mark.parametrize("bad", ["x1", "s", "1", "s1v2", "v-1", "σ1"])
    def test_unknown_tokens(self, bad):
        with pytest.raises(UnknownToken):
            parse_word(bad, 3)

    @pytest.mark.parametrize("text", ["b4", "s3", "v0", "v3"])
    def test_index_out_of_range(self, text):
        with pytest.raises(IndexOutOfRange):
            parse_word(text, 3)

    def test_category_violations(self):
        with pytest.raises(CategoryViolation):
            parse_word("c1", 3, Category.TWISTED)
        with pytest.raises(CategoryViolation):
            parse_word("s1", 3, Category.FLAT_TWISTED)
        with pytest.raises(CategoryViolation):
            parse_word("b1", 3, Category.VIRTUAL)
        with pytest.raises(CategoryViolation):
            parse_word("v1", 3, Category.CLASSICAL)


class TestAlgebra:
    def test_invert_empty(self):
        assert invert(w("")) == w("")

    def test_invert_reverses_and_swaps_sigma(self):
        assert str(invert(w("s1 v2"))) == "v2 S1"

    def test_inverse_cancels(self):
        word = w("b1 s2 v1")
        assert len(free_reduce(concat(word, invert(word)))) == 0

    def test_concat_identity_law(self):
        word = w("s1 b2")
        assert concat(w(""), word) == word
        assert concat(word, w("")) == word

    def test_concat_does_not_reduce(self):
        assert str(concat(w("s1"), w("S1"))) == "s1 S1"
        assert str(concat(w("v1"), w("v1"))) == "v1 v1"

    def test_concat_mismatches(self):
        with pytest.raises(StrandMismatch):
            concat(w("s1", n=2), w("s1", n=3))
        with pytest.raises(CategoryMismatch):
            concat(w("v1", n=2), w("v1", n=2, category=Category.VIRTUAL))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("v1 v1", ""),
            ("b1 v2 v2 b1", ""),
            ("v1 v2 v1", "v1 v2 v1"),  # braid relation is not free reduction
            ("s1 S1 s2", "s2"),
            ("S1 s1", ""),
            ("b1 b1 b1", "b1"),
        ],
    )
    def test_free_reduce(self, text, expected):
        assert str(free_reduce(w(text))) == expected


class TestWordFiles:
    def test_round_trip(self, tmp_path):
        word = w("s1 v2 b3 S1", n=3)
        path = tmp_path / "word.word"
        write_word_file(path, word)
        assert read_word_file(path) == word

    def test_empty_word_file(self):
        text = format_word_file(w("", n=4))
        assert parse_word_file(text) == w("", n=4)

    def test_header_line(self):
        assert format_word_file(w("b1", n=2)).splitlines()[0] == "n=2 category=twisted"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_word_file("strands=2\nv1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty word file"),
        ("\n  \n", "empty word file"),
        ("n=2 category=weird\nv1\n", "unknown category 'weird'"),
    ])
    def test_malformed_file_raises_word_error(self, text, message):
        with pytest.raises(WordError) as err:
            parse_word_file(text)
        assert type(err.value) is WordError
        assert str(err.value) == message

    def test_zero_strands_raise_word_error(self):
        with pytest.raises(WordError) as err:
            BraidWord(0, (), Category.TWISTED)
        assert type(err.value) is WordError
        assert str(err.value) == "strand count must be >= 1, got 0"


class TestLetterCodec:
    def test_every_letter_in_span_round_trips(self):
        for kind in Kind:
            for i in range(1, 48):
                assert letter(code(kind, i)) == Generator(kind, i)

    @pytest.mark.parametrize("token", ["v48", "b48", "s48", "c60", "b-1"])
    def test_letters_past_the_span_are_refused(self, token):
        # past the span a letter would alias another: v48 has b0's byte
        kind, index = Kind(token[0]), int(token[1:])
        with pytest.raises(UnsupportedN, match=token):
            encode_letters((Generator(kind, index),))

    def test_strand_counts_past_the_span_are_refused(self):
        assert encode_word(BraidWord(47, (Generator(Kind.B, 47),), Category.TWISTED))
        with pytest.raises(UnsupportedN):
            encode_word(BraidWord(48, (), Category.TWISTED))


@given(words())
def test_free_reduce_idempotent(word):
    once = free_reduce(word)
    assert free_reduce(once) == once
    assert len(once) <= len(word)
    assert once.n == word.n and once.category == word.category


@given(words())
def test_invert_is_involution_up_to_reduction(word):
    assert free_reduce(invert(invert(word))) == free_reduce(word)
