import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from twbraid import markov, presentations
from twbraid.presentations import (
    FAMILY_CATEGORY,
    Family,
    Mismatch,
    Presentation,
    Relation,
    RewriteStep,
    SearchOutcome,
    UnsupportedN,
    _bidirectional,
    _neighbor_results,
    _rule_index,
    _step_into,
    apply_step,
    equivalent_bounded,
    full_presentation,
    pair_rules,
    reduced_presentation,
    replay_path,
    rewrite_neighbors,
    rule_table,
)
from twbraid.markov import (
    MarkovMove,
    MoveKind,
    markov_equivalent_bounded,
    markov_neighbors,
    replay_markov_path,
)
from twbraid.quotients import hyperoctahedral_image, sigma_exponent_sum
from twbraid.reduced_map import full_relations_for
from twbraid.words import (
    ALLOWED_KINDS,
    BraidWord,
    Category,
    Generator,
    Kind,
    WordError,
    concat,
    encode_word,
    free_reduce,
    invert,
    parse_word,
)
import reference_engine
from wordgen import words

TWISTED_CATEGORIES = (Category.TWISTED, Category.FLAT_TWISTED)


def tb(text, n):
    return parse_word(text, n, Category.TWISTED)


def _full(category, n):
    family = Family.TB_FULL if category is Category.TWISTED else Family.FT_FULL
    return full_presentation(family, n)


def _reference_steps(data, table, max_length, insertions):
    """Every (step, result) one substitution away, read naively: every rule
    in table order, forward then backward, at every slice position in
    order.  A direction whose (src, dst) an earlier one already has is left
    out, as _rule_index documents.  _step_into returns the first of these
    whose result is in its targets."""
    out, sides = [], set()
    for name, (lhs, rhs) in table.items():
        for forward, src, dst in ((True, lhs, rhs), (False, rhs, lhs)):
            if (src, dst) in sides:
                continue
            sides.add((src, dst))
            if not (src or insertions):
                continue
            if len(data) - len(src) + len(dst) > max_length:
                continue
            for pos in range(len(data) - len(src) + 1):
                if data[pos : pos + len(src)] == src:
                    result = data[:pos] + dst + data[pos + len(src) :]
                    out.append((RewriteStep(name, forward, pos), result))
    return out


def _stage_rules(p, insertions):
    """The rule index of a rewrite search stage: p's whole index, or for
    the stage without insertions its pair-free view."""
    return p._rules if insertions else p._pair_free_rules


def _check_first_steps(data, p, max_length, insertions):
    """_step_into on _stage_rules(p, insertions) against _reference_steps:
    for every result r, the step into {r} is the first reference step to r,
    and it replays, forward and, as a backward step of the search is used,
    inverted; into every result, the first step of all.  Targets out of
    reach (results of insertions or of two more letters of room) give
    None.  Returns the reference steps."""
    rules, table = _stage_rules(p, insertions), rule_table(p)
    expected = _reference_steps(data, table, max_length, insertions)
    first = {}
    for step, result in expected:
        first.setdefault(result, step)
    for result, step in first.items():
        assert _step_into(data, rules, max_length, {result}) == (step, result)
        assert apply_step(data, step, table) == result
        assert apply_step(result, step.inverse(), table) == data
    assert _step_into(data, rules, max_length, first) == (
        expected[0] if expected else None)
    wider = {r for _, r in _reference_steps(data, table, max_length + 2, True)}
    assert _step_into(data, rules, max_length, wider - set(first)) is None
    return expected


class TestFullPresentations:
    def test_tb_full_two_strands_exact(self):
        p = full_presentation(Family.TB_FULL, 2)
        rendered = {str(r) for r in p.relations}
        assert rendered == {
            "braid.cancel[1]: s1 S1 = 1",
            "virtual.involution[1]: v1 v1 = 1",
            "twisted.involution[1]: b1 b1 = 1",
            "twisted.involution[2]: b2 b2 = 1",
            "twisted.commute[1,2]: b1 b2 = b2 b1",
            "mixed.bar-slide[1]: b1 v1 = v1 b2",
            "mixed.bar-slide-var[1]: v1 b1 = b2 v1",
            "mixed.bar-sandwich[1]: b1 b2 s1 b2 b1 = v1 s1 v1",
            "mixed.bar-sandwich-var[1]: b2 b1 s1 b1 b2 = v1 s1 v1",
        }

    def test_unknown_relation_name_raises_key_error(self):
        p = full_presentation(Family.TB_FULL, 2)
        with pytest.raises(KeyError):
            p.relation("virtual.braid[1]")

    def test_tb_full_three_strands_spot_checks(self):
        p = full_presentation(Family.TB_FULL, 3)
        assert str(p.relation("virtual.braid[1]")) == (
            "virtual.braid[1]: v1 v2 v1 = v2 v1 v2"
        )
        assert str(p.relation("mixed.v-sigma-v[1]")) == (
            "mixed.v-sigma-v[1]: v1 s2 v1 = v2 s1 v2"
        )
        assert str(p.relation("braid.braid[1]")) == (
            "braid.braid[1]: s1 s2 s1 = s2 s1 s2"
        )

    def test_ft_full_has_flat_braid_and_no_sigmas(self):
        p = full_presentation(Family.FT_FULL, 3)
        assert str(p.relation("flat.braid[1]")) == (
            "flat.braid[1]: c1 c2 c1 = c2 c1 c2"
        )
        for r in p.relations:
            for g in r.lhs + r.rhs:
                assert g.token()[0] not in ("s", "S")

    def test_reduced_families_rejected(self):
        with pytest.raises(ValueError):
            full_presentation(Family.TB_REDUCED, 3)

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedN):
            full_presentation(Family.TB_FULL, 1)

    @pytest.mark.parametrize("family", [Family.TB_FULL, Family.FT_FULL])
    @pytest.mark.parametrize("n", [49, 100000])
    def test_n_past_the_codec_rejected_before_building(self, family, n):
        # v(n-1) has no code, so the builder stops before its first relation
        t0 = time.perf_counter()
        with pytest.raises(UnsupportedN, match=f"v{n - 1}"):
            full_presentation(family, n)
        assert time.perf_counter() - t0 < 1.0

    def test_relations_at_48_strands_are_built(self):
        # b48 has no code, but twb verify-presentation tb 48 reads these
        # relations and expands their letters
        assert len(full_relations_for(Family.TB_REDUCED, 48)) == len(
            full_presentation(Family.TB_FULL, 48).relations)

    @pytest.mark.parametrize(
        "family,n,count",
        [
            (Family.TB_FULL, 2, 9),
            (Family.TB_FULL, 3, 25),
            (Family.TB_FULL, 4, 50),
            (Family.TB_FULL, 5, 84),
            (Family.TB_FULL, 6, 127),
            (Family.FT_FULL, 2, 9),
            (Family.FT_FULL, 3, 25),
            (Family.FT_FULL, 4, 50),
            (Family.FT_FULL, 5, 84),
            (Family.FT_FULL, 6, 127),
        ],
    )
    def test_census(self, family, n, count):
        # frozen once from the instantiation rules; guards index-range drift
        assert len(full_presentation(family, n).relations) == count


class TestReducedPresentations:
    def test_tb_reduced_two_strands_exact(self):
        p = reduced_presentation(Family.TB_REDUCED, 2)
        assert {str(r) for r in p.relations} == {
            "red.v-involution[1]: v1 v1 = 1",
            "red.bar-involution: b1 b1 = 1",
            "red.bar-commute: b1 v1 b1 v1 = v1 b1 v1 b1",
            "red.bar-sandwich: v1 b1 v1 b1 s1 b1 v1 b1 v1 = v1 s1 v1",
        }

    def test_tb_reduced_five_strands_long_relations(self):
        p = reduced_presentation(Family.TB_REDUCED, 5)
        assert str(p.relation("red.sigma-commute")) == (
            "red.sigma-commute: s1 v2 v3 v1 v2 s1 v2 v1 v3 v2"
            " = v2 v3 v1 v2 s1 v2 v1 v3 v2 s1"
        )
        assert str(p.relation("red.sigma-braid")) == (
            "red.sigma-braid: v1 s1 v1 v2 s1 v2 v1 s1 v1"
            " = v2 s1 v2 v1 s1 v1 v2 s1 v2"
        )
        assert str(p.relation("red.sigma-bar-commute")) == (
            "red.sigma-bar-commute: s1 v2 v1 b1 v1 v2 = v2 v1 b1 v1 v2 s1"
        )

    def test_ft_reduced_mirrors_with_flat_crossing(self):
        p = reduced_presentation(Family.FT_REDUCED, 4)
        assert str(p.relation("red.flat-involution")) == (
            "red.flat-involution: c1 c1 = 1"
        )
        assert str(p.relation("red.flat-bar-commute")) == (
            "red.flat-bar-commute: c1 v2 v1 b1 v1 v2 = v2 v1 b1 v1 v2 c1"
        )

    def test_virtual_families_have_no_bars(self):
        for family in (Family.VB_REDUCED, Family.FV_REDUCED):
            p = reduced_presentation(family, 4)
            for r in p.relations:
                assert all(g.token()[0] != "b" for g in r.lhs + r.rhs)

    @pytest.mark.parametrize(
        "family,n,count",
        [
            (Family.TB_REDUCED, 2, 4),
            (Family.TB_REDUCED, 3, 9),
            (Family.TB_REDUCED, 4, 15),
            (Family.TB_REDUCED, 5, 21),
            (Family.TB_REDUCED, 6, 28),
            (Family.FT_REDUCED, 2, 5),
            (Family.FT_REDUCED, 3, 10),
            (Family.FT_REDUCED, 4, 16),
            (Family.FT_REDUCED, 5, 22),
            (Family.FT_REDUCED, 6, 29),
            (Family.VB_REDUCED, 2, 1),
            (Family.VB_REDUCED, 4, 9),
            (Family.VB_REDUCED, 6, 20),
            (Family.FV_REDUCED, 2, 2),
            (Family.FV_REDUCED, 4, 10),
            (Family.FV_REDUCED, 6, 21),
        ],
    )
    def test_census(self, family, n, count):
        assert len(reduced_presentation(family, n).relations) == count

    def test_full_families_rejected(self):
        with pytest.raises(ValueError):
            reduced_presentation(Family.TB_FULL, 3)


FULL_FAMILIES = (Family.TB_FULL, Family.FT_FULL)


def _presentation(family, n):
    build = full_presentation if family in FULL_FAMILIES else reduced_presentation
    return build(family, n)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_alphabet_is_every_letter_or_the_reduced_generators(family):
    """A full alphabet is every one-letter word of the category, trying
    indices 0..n+1 of every kind; a reduced one is the v letters plus index
    1 of each other kind the category allows."""
    category = FAMILY_CATEGORY[family]
    for n in range(2, 7):
        if family in FULL_FAMILIES:
            expected = set()
            for kind in Kind:
                for i in range(n + 2):
                    try:
                        BraidWord(n, (Generator(kind, i),), category)
                    except WordError:
                        continue
                    expected.add(Generator(kind, i))
        else:
            expected = {Generator(Kind.V, i) for i in range(1, n)} | {
                Generator(k, 1) for k in ALLOWED_KINDS[category] if k is not Kind.V}
        assert _presentation(family, n).alphabet == expected


def test_relations_and_rule_tables_are_pinned():
    """Every relation in order and every rule-table item, of all six
    families at n = 2..8.  Each presentation is built once and owns its
    table, which is rule_table(p) built once; rule_table itself builds a
    fresh dict, so writing to one leaves the presentation's alone."""
    digest = hashlib.sha256()
    for family in Family:
        for n in range(2, 9):
            p = _presentation(family, n)
            assert _presentation(family, n) is p
            assert p.table is p.table
            fresh = rule_table(p)
            assert fresh == p.table and fresh is not p.table
            fresh["pair.v1"] = (b"", b"")
            assert p.table == rule_table(p)
            lines = [str(r) for r in p.relations] + [
                f"{name}|{lhs.hex()}|{rhs.hex()}"
                for name, (lhs, rhs) in rule_table(p).items()]
            for line in lines:
                digest.update(f"{family.value}|{n}|{line}\n".encode())
    assert digest.hexdigest() == (
        "0adee17b7e77232d4121a7db32e0c1de2de377fadb7a01d91deb497d8e7d3ae1")


class TestRewriteNeighbors:
    def test_bar_slide_then_pair_removal_reaches_b2(self):
        p = full_presentation(Family.TB_FULL, 2)
        start = tb("v1 b1 v1", 2)
        step_one = rewrite_neighbors(start, p)
        assert tb("b2 v1 v1", 2) in step_one
        assert tb("b2", 2) in rewrite_neighbors(tb("b2 v1 v1", 2), p)
        # "b2" itself is two steps away, not one
        assert tb("b2", 2) not in step_one

    def test_empty_word_neighbors_are_pair_insertions(self):
        p = full_presentation(Family.TB_FULL, 2)
        got = rewrite_neighbors(BraidWord(2, (), Category.TWISTED), p)
        assert got == {
            tb("s1 S1", 2),
            tb("S1 s1", 2),
            tb("v1 v1", 2),
            tb("b1 b1", 2),
            tb("b2 b2", 2),
        }

    def test_virtual_braid_substitution(self):
        p = full_presentation(Family.TB_FULL, 3)
        assert tb("v2 v1 v2", 3) in rewrite_neighbors(tb("v1 v2 v1", 3), p)

    def test_strand_mismatch_rejected(self):
        p = full_presentation(Family.TB_FULL, 3)
        with pytest.raises(Mismatch):
            rewrite_neighbors(tb("v1", 2), p)

    def test_category_mismatch_rejected(self):
        p = full_presentation(Family.FT_FULL, 3)
        with pytest.raises(Mismatch):
            rewrite_neighbors(tb("v1", 3), p)


def _tb3_words():
    tokens = st.sampled_from(
        ["s1", "s2", "S1", "S2", "v1", "v2", "b1", "b2", "b3"]
    )
    return st.lists(tokens, max_size=7).map(
        lambda ts: parse_word(" ".join(ts), 3, Category.TWISTED)
    )


class TestNeighborProperties:
    @settings(max_examples=25, deadline=None)
    @given(_tb3_words())
    def test_one_step_relation_is_symmetric(self, w):
        p = full_presentation(Family.TB_FULL, 3)
        for other in rewrite_neighbors(w, p):
            assert w in rewrite_neighbors(other, p)

    @settings(max_examples=40, deadline=None)
    @given(_tb3_words())
    def test_neighbors_preserve_hyperoctahedral_image(self, w):
        p = full_presentation(Family.TB_FULL, 3)
        image = hyperoctahedral_image(w)
        for other in rewrite_neighbors(w, p):
            assert hyperoctahedral_image(other) == image


class TestNeighborKernel:
    @given(
        words(min_n=2, max_n=4, max_len=8, categories=TWISTED_CATEGORIES),
        st.booleans(),
        st.integers(-4, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_into_is_the_first_reference_step(self, w, insertions, room):
        data = encode_word(w)
        _check_first_steps(data, _full(w.category, w.n), len(data) + room, insertions)


class _ToyGraph:
    """An undirected toy graph on string nodes, from edges "u v".  step_into
    tries a node's neighbours in the order the edges were given, each step
    a RewriteStep named by the edge's two ends; neighbors lists them in
    reverse, given have (a set of nodes, the profile set() writes) only
    those in it, and records every node it is asked about."""

    def __init__(self, *pairs):
        self.adjacent, self.asked = {}, []
        for pair in pairs:
            u, v = pair.split()
            self.adjacent.setdefault(u, []).append(v)
            self.adjacent.setdefault(v, []).append(u)
        self.search = (self.neighbors, self.step_into)

    def neighbors(self, node, _forward, have):
        self.asked.append(node)
        return [r for r in self.adjacent.get(node, [])[::-1]
                if have is None or r in have]

    def step_into(self, node, _forward, targets):
        return next(((RewriteStep(node + r, True, 0), r)
                     for r in self.adjacent.get(node, []) if r in targets), None)

    @staticmethod
    def path(*names):
        """Steps named by their edges; a leading - inverts a step."""
        return tuple(RewriteStep(name.lstrip("-"), not name.startswith("-"), 0)
                     for name in names)


def _one_letter_presentation():
    """A hand-made presentation with one-letter sides, which no table of
    full_presentation or reduced_presentation has, and _rule_index
    refuses."""
    n, cat = 2, Category.TWISTED

    def rel(name, lhs, rhs):
        return Relation(name, parse_word(lhs, n, cat).letters,
                        parse_word(rhs, n, cat).letters)

    relations = (
        rel("x.slide", "b1", "v1 b2 v1"),
        rel("x.flip", "b2", "b1"),
        rel("x.fold", "s1 v1 s1", "v1"),
    )
    alphabet = full_presentation(Family.TB_FULL, n).alphabet
    return Presentation(Family.TB_FULL, n, relations, alphabet)


KERNEL_PRESENTATIONS = (
    [_full(c, n) for c in TWISTED_CATEGORIES for n in (2, 3, 4)]
    + [reduced_presentation(f, n) for f in Family if f.value.endswith("_reduced")
       for n in (2, 3, 4, 5)]
)


class TestNeighborResults:
    @given(
        st.sampled_from(KERNEL_PRESENTATIONS),
        st.data(),
        st.booleans(),
        st.integers(-4, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_results_are_the_results_of_the_steps(self, p, data, insertions, room):
        letters = sorted(p.alphabet, key=lambda g: (g.kind.value, g.index))
        drawn = data.draw(st.lists(st.sampled_from(letters), max_size=9))
        w = BraidWord(p.n, tuple(drawn), p.category)
        word = encode_word(w)
        steps = _check_first_steps(word, p, len(word) + room, insertions)
        results = _neighbor_results(
            word, _stage_rules(p, insertions), len(word) + room, None)
        assert Counter(results) == Counter(result for _, result in steps)

    def test_one_letter_sides_are_refused(self):
        # a two-letter key never finds a one-letter side, so the index
        # refuses the rule rather than lose its substitutions
        p = _one_letter_presentation()
        with pytest.raises(ValueError, match="'x.slide' has a one-letter side"):
            p._rules
        for name in ("x.flip", "x.fold"):
            with pytest.raises(ValueError, match=f"'{name}' has a one-letter side"):
                _rule_index({name: p.table[name]})

    def test_insertions_of_other_than_a_pair_are_refused(self):
        # the kernels add every insertion after one test of the pair length
        table = rule_table(full_presentation(Family.TB_FULL, 2))
        quad = table["twisted.involution[1]"][0] * 2
        for sides in ((quad, b""), (b"", quad)):
            with pytest.raises(ValueError, match="'x.quad' inserts 4 letters"):
                _rule_index({"x.quad": sides})


class TestLazySteps:
    """The search stores parents only, and builds a step only for each step
    of the path it returns (and its inverse on the backward chain):
    step_into runs once per path step, where the searches meet included."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class Counted(RewriteStep):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(presentations, "RewriteStep", Counted)
        return built

    def test_unknown_search_builds_no_step(self, built):
        p = full_presentation(Family.TB_FULL, 4)
        w1 = parse_word("b1 b2 b3 b4 v1 v3 s1 s3", 4, Category.TWISTED)
        w2 = parse_word("b1 b2 b3 b4 v1 v3 s1 S3", 4, Category.TWISTED)
        got = equivalent_bounded(w1, w2, p, max_nodes=400)
        assert (got.equal, got.explored) == (False, 400)
        assert built == []

    def test_equal_search_builds_only_its_path(self, built):
        p = full_presentation(Family.TB_FULL, 3)
        w1, w2 = tb("s1 s2 S1", 3), tb("S2 s1 s2", 3)
        got = equivalent_bounded(w1, w2, p, max_nodes=4000)
        assert got.equal and got.path
        assert len(built) <= 2 * len(got.path)
        assert replay_path(w1, got.path, rule_table(p)) == w2

    @staticmethod
    def _counted(monkeypatch, module):
        calls = []
        step_into = module._step_into
        monkeypatch.setattr(module, "_step_into",
                            lambda *args: calls.append(args) or step_into(*args))
        return calls

    def test_rewrite_search_calls_step_into_once_per_step(self, monkeypatch):
        calls = self._counted(monkeypatch, presentations)
        p = full_presentation(Family.TB_FULL, 3)
        got = equivalent_bounded(tb("s1 s2 S1", 3), tb("S2 s1 s2", 3), p, max_nodes=4000)
        assert got.equal and len(calls) == len(got.path) == 3

    @pytest.mark.parametrize("left, n1, right, n2", [
        ("s1 b2 v1", 2, "v1 s1 b2 v2", 3),
        ("s1 b3 b1 s1", 3, "b1 s1 s1 b3", 3),  # meets on the backward side
    ])
    def test_markov_search_calls_step_into_once_per_step(self, monkeypatch, left,
                                                          n1, right, n2):
        calls = self._counted(monkeypatch, markov)
        w1, w2 = tb(left, n1), tb(right, n2)
        got = markov_equivalent_bounded(w1, w2)
        assert (got.equal, len(got.path), len(calls)) == (True, 2, 2)
        assert replay_markov_path(w1, got.path) == w2


class TestEquivalentBounded:
    def test_identical_words_equal_with_empty_path(self):
        p = full_presentation(Family.TB_FULL, 2)
        got = equivalent_bounded(tb("b1 v1", 2), tb("b1 v1", 2), p)
        assert got.equal and got.path == ()

    def test_an_outcome_is_true_exactly_when_equal(self):
        assert bool(SearchOutcome(True)) is True
        assert bool(SearchOutcome(False, (), 7)) is False
        assert SearchOutcome(False).label == "Unknown"
        assert SearchOutcome(True).proved and not SearchOutcome(False).proved

    def test_bar_slide_cycle(self):
        p = full_presentation(Family.TB_FULL, 2)
        w1, w2 = tb("b1 v1 b1 v1", 2), tb("v1 b1 v1 b1", 2)
        got = equivalent_bounded(w1, w2, p, max_length=8, max_nodes=10**5)
        assert got.label == "Equal"
        assert replay_path(w1, got.path, rule_table(p)) == w2

    def test_path_replays_when_backward_frontier_meets(self):
        # deep enough that the meeting word is produced while expanding the
        # goal side; the certificate must still run start-to-goal
        p = reduced_presentation(Family.VB_REDUCED, 4)
        w1 = parse_word("v3 v2 v1 v2 v3", 4, Category.VIRTUAL)
        w2 = parse_word("v1 v2 v3 v2 v1", 4, Category.VIRTUAL)
        got = equivalent_bounded(w1, w2, p, max_nodes=10**5)
        assert got.equal
        assert replay_path(w1, got.path, rule_table(p)) == w2

    def test_sigma_is_not_shown_equal_to_v(self):
        p = full_presentation(Family.TB_FULL, 2)
        w1, w2 = tb("s1", 2), tb("v1", 2)
        got = equivalent_bounded(w1, w2, p, max_length=6, max_nodes=2000)
        assert got.label == "Unknown"
        # and indeed they differ in the abelianized crossing count
        assert sigma_exponent_sum(w1) != sigma_exponent_sum(w2)

    def test_unknown_counts_only_expanded_nodes(self):
        # both stages spend their whole budget; the sigma exponent sums
        # differ, so no path exists
        p = full_presentation(Family.TB_FULL, 3)
        w1, w2 = tb("b1 v1 b2 v2 b3 v1", 3), tb("v2 b1 v1 b2 s1 b3", 3)
        got = equivalent_bounded(w1, w2, p, max_nodes=100)
        assert not got.equal
        assert got.explored == 100

    def test_engine_stops_at_the_budget(self):
        # evens and odds never meet, and every expansion adds one node
        path, explored = _bidirectional(
            0, 1, lambda k, _forward, _have: [k + 2],
            lambda k, _forward, targets: (None, k + 2) if k + 2 in targets else None,
            5, profile=set,
        )
        assert path is None
        assert explored == 5

    def test_budget_that_ends_with_a_level(self):
        # s's level, g's level, then a1 a2 a3, the last of which meets x4:
        # a budget of 5 ends exactly with that level and still meets there
        graph = _ToyGraph("s a1", "s a2", "s a3", "g x1", "g x2", "g x3",
                          "g x4", "a3 x4")
        for budget in range(8):
            got = _bidirectional("s", "g", *graph.search, budget, profile=set)
            assert got == reference_engine.bidirectional(
                "s", "g", *graph.search, budget, profile=set)
            if budget >= 5:
                assert got == (graph.path("sa3", "a3x4", "-gx4"), 5)
            else:
                assert got == (None, budget)
        dry = _ToyGraph("s a1", "s a2", "s a3", "g x1", "g x2", "g x3", "g x4")
        assert _bidirectional("s", "g", *dry.search, 5, profile=set) == (None, 5)

    def test_backward_meeting_in_the_final_level_takes_the_first_edge(self):
        # y, the whole final level, has a and b on the forward side;
        # neighbors lists b first, step_into tries a first
        graph = _ToyGraph("s a", "s b", "g y", "y a", "y b")
        got = _bidirectional("s", "g", *graph.search, 3, profile=set)
        assert got == (graph.path("sa", "-ya", "-gy"), 3)
        assert graph.asked == ["s", "g", "y"]
        assert graph.neighbors("y", False, None)[0] == "b"
        for budget in (3, 4):
            assert reference_engine.bidirectional(
                "s", "g", *graph.search, budget, profile=set) == got

    def test_final_level_asks_neighbors_with_the_profile(self):
        graph = _ToyGraph("s a1", "s a2", "s a3", "g x1", "g x2", "g x3", "g x4")
        calls, profiled = [], []

        def neighbors(node, forward, have):
            calls.append((node, forward, have))
            return graph.neighbors(node, forward, have)

        def profile(nodes):
            profiled.append(set(nodes))
            return frozenset(nodes)

        got = _bidirectional("s", "g", neighbors, graph.step_into, 4, profile=profile)
        assert got == (None, 4)
        other = frozenset({"g", "x1", "x2", "x3", "x4"})
        assert profiled == [other]
        assert calls == [("s", True, None), ("g", False, None),
                         ("a1", True, other), ("a2", True, other)]

    def test_budgets_of_zero_and_one(self):
        near, far = _ToyGraph("s g"), _ToyGraph("s a", "g b")
        assert _bidirectional("s", "g", *near.search, 0, profile=set) == (None, 0)
        assert _bidirectional("s", "s", *near.search, 0, profile=set) == ((), 0)
        assert near.asked == []
        assert _bidirectional("s", "g", *near.search, 1, profile=set) == (
            near.path("sg"), 1)
        assert _bidirectional("s", "g", *far.search, 1, profile=set) == (None, 1)
        assert near.asked == far.asked == ["s"]

    def test_search_is_deterministic(self):
        p = full_presentation(Family.TB_FULL, 2)
        w1, w2 = tb("b1 v1 b1 v1", 2), tb("v1 b1 v1 b1", 2)
        first = equivalent_bounded(w1, w2, p, max_length=8, max_nodes=10**4)
        second = equivalent_bounded(w1, w2, p, max_length=8, max_nodes=10**4)
        assert first.path == second.path

    @pytest.mark.parametrize(
        "category,n,left,right,max_length,max_nodes,pinned",
        [
            (Category.TWISTED, 2, "b1 v1 b1 v1", "v1 b1 v1 b1", 8, 10**4,
             (True, 3, 3, "adb196df2daa4be2fb4e369f37a5f98503ee976b528cb2eae7e69a85c36099af")),
            (Category.FLAT_TWISTED, 3, "c1 c2 c1 v1 b1", "c2 c1 c2 b2 v1", None, 10**4,
             (True, 2, 2, "2661058776de08e5d9fb74a0d00336f938b743dbd8776cf1d26c99d8234a2d38")),
            (Category.TWISTED, 3, "s1 s2 S1", "S2 s1 s2", None, 4000,
             (True, 31, 3, "14e664bef3328bf41fa697ac0b4ce1bb0f2bf86b6466406f489728aa0d1089a4")),
            (Category.FLAT_TWISTED, 4, "c1 c3 v2 b4 c2", "c3 c1 b4 v2 c2", None, 2000,
             (True, 2, 2, "73ade183329cc7671f0289e73cec0176c9169588134eee54217403a60a75020d")),
            # Unknown after the whole budget
            (Category.TWISTED, 3, "b1 v1 b2 v2 b3 v1", "v2 b1 v1 b2 s1 b3", None, 100,
             (False, 100, 0, hashlib.sha256().hexdigest())),
            (Category.TWISTED, 4, "b1 b2 b3 b4 v1 v3 s1 s3", "b1 b2 b3 b4 v1 v3 s1 S3",
             None, 400, (False, 400, 0, hashlib.sha256().hexdigest())),
            (Category.FLAT_TWISTED, 3, "b1 b2 b3 v1 v2 c1 c2", "b1 b2 b3 v1 v2 c1 b1",
             None, 300, (False, 300, 0, hashlib.sha256().hexdigest())),
            # Unknown after stage B's whole budget; stage A ran dry at 1 node
            (Category.FLAT_TWISTED, 2, "c1 b1 c1", "b2", None, 300,
             (False, 226, 0, hashlib.sha256().hexdigest())),
        ],
    )
    def test_search_is_pinned(self, category, n, left, right, max_length,
                              max_nodes, pinned):
        p = _full(category, n)
        w1, w2 = parse_word(left, n, category), parse_word(right, n, category)
        first = equivalent_bounded(w1, w2, p, max_length, max_nodes)
        assert first == equivalent_bounded(w1, w2, p, max_length, max_nodes)
        steps = "".join(f"{s.rule}|{s.forward}|{s.pos}\n" for s in first.path)
        digest = hashlib.sha256(steps.encode()).hexdigest()
        assert (first.equal, first.explored, len(first.path), digest) == pinned
        if first.equal:
            assert replay_path(w1, first.path, rule_table(p)) == w2

    def test_flat_twisted_slide(self):
        p = full_presentation(Family.FT_FULL, 2)
        w1 = parse_word("b1 v1", 2, Category.FLAT_TWISTED)
        w2 = parse_word("v1 b2", 2, Category.FLAT_TWISTED)
        got = equivalent_bounded(w1, w2, p, max_nodes=10**4)
        assert got.equal
        assert replay_path(w1, got.path, rule_table(p)) == w2

    def test_mismatched_inputs_rejected(self):
        p = full_presentation(Family.TB_FULL, 2)
        with pytest.raises(Mismatch):
            equivalent_bounded(tb("v1", 2), tb("v1", 3), p)

    def test_mismatched_categories_rejected(self):
        p = full_presentation(Family.TB_FULL, 2)
        flat = parse_word("v1", 2, Category.FLAT_TWISTED)
        with pytest.raises(Mismatch) as err:
            equivalent_bounded(tb("v1", 2), flat, p)
        assert type(err.value) is Mismatch
        assert str(err.value) == "categories differ"

    def test_a_start_over_max_length_still_shrinks(self):
        # the start has three letters and max_length is 1: the room left
        # is negative, and the cancellation that shrinks it still fits
        p = full_presentation(Family.TB_FULL, 3)
        got = equivalent_bounded(tb("s1 S1 s2", 3), tb("s2", 3), p, max_length=1)
        assert got.equal
        assert got.path == (RewriteStep("braid.cancel[1]", True, 0),)

    @pytest.mark.parametrize("name, value, least", [
        ("max_nodes", -5, 1), ("max_nodes", 0, 1), ("max_length", -3, 0),
    ])
    def test_bounds_that_leave_no_search_are_refused(self, name, value, least):
        # no node to expand, or no word short enough: twb refuses them too
        p = full_presentation(Family.TB_FULL, 3)
        w1, w2 = tb("s1 s2 s1", 3), tb("s2 s1 s2", 3)
        message = f"{name} must be at least {least}, got {value}"
        with pytest.raises(ValueError, match=message):
            equivalent_bounded(w1, w2, p, **{name: value})
        with pytest.raises(ValueError, match=message):
            markov_equivalent_bounded(w1, w2, **{name: value})


PINNED_SEARCHES = next(
    mark.args[1] for mark in TestEquivalentBounded.test_search_is_pinned.pytestmark
    if mark.name == "parametrize"
)


class TestNeighborOrder:
    """The engine's outcome does not depend on the order in which
    neighbors returns a node's neighbours: frontiers are sorted, and a
    meeting is resolved in the canonical step order."""

    @pytest.fixture(params=["reversed", 1, 2, 3])
    def meetings(self, request, monkeypatch):
        """Run both searches on reordered neighbour lists, reversed or
        shuffled with a seeded generator; returns the direction of each
        search's first step_into call, the one that resolves its meeting."""
        engine, seed = presentations._bidirectional, request.param
        rng = random.Random(seed)
        if seed == "reversed":
            reorder = lambda out: out[::-1]
        else:
            reorder = lambda out: rng.sample(out, len(out))
        meetings = []

        def reordered(start, goal, neighbors, step_into, *args, **kwargs):
            calls = []

            def logged(node, forward, targets):
                calls.append(forward)
                return step_into(node, forward, targets)

            got = engine(start, goal, lambda node, forward, have: reorder(
                neighbors(node, forward, have)), logged, *args, **kwargs)
            meetings.append(calls[0] if calls else None)
            return got

        monkeypatch.setattr(presentations, "_bidirectional", reordered)
        monkeypatch.setattr(markov, "_bidirectional", reordered)
        return meetings

    @pytest.mark.parametrize(
        "category,n,left,right,max_length,max_nodes,pinned", PINNED_SEARCHES
    )
    def test_pinned_rewrite_searches(self, meetings, category, n, left, right,
                                     max_length, max_nodes, pinned):
        p = _full(category, n)
        w1, w2 = parse_word(left, n, category), parse_word(right, n, category)
        with pytest.MonkeyPatch.context() as plain:
            plain.setattr(presentations, "_bidirectional", _bidirectional)
            expected = equivalent_bounded(w1, w2, p, max_length, max_nodes)
        assert equivalent_bounded(w1, w2, p, max_length, max_nodes) == expected

    def test_markov_meeting_on_the_backward_side(self, meetings):
        w1, w2 = tb("s1 b3 b1 s1", 3), tb("b1 s1 s1 b3", 3)
        with pytest.MonkeyPatch.context() as plain:
            plain.setattr(markov, "_bidirectional", _bidirectional)
            expected = markov_equivalent_bounded(w1, w2)
        got = markov_equivalent_bounded(w1, w2)
        assert got == expected
        assert meetings == [False]
        assert (got.equal, got.explored, len(got.path)) == (True, 2, 2)

    @pytest.mark.parametrize("category, n, left, right", [
        (Category.TWISTED, 2, "b1", "b2"),
        (Category.FLAT_TWISTED, 3, "c2", "v1"),
    ])
    def test_markov_meeting_in_the_final_level(self, meetings, category, n,
                                               left, right):
        # 10 nodes run out in the level where these searches meet
        w1, w2 = parse_word(left, n, category), parse_word(right, n, category)
        with pytest.MonkeyPatch.context() as plain:
            plain.setattr(markov, "_bidirectional", _bidirectional)
            expected = markov_equivalent_bounded(w1, w2, max_nodes=10)
        assert markov_equivalent_bounded(w1, w2, max_nodes=10) == expected
        assert expected.equal


def _search_callbacks(search, *args, **kwargs):
    """(neighbors, profile) of every _bidirectional call that search makes
    on these arguments, each call stopped before it expands a node."""
    calls = []

    def capture(start, goal, neighbors, step_into, max_nodes, *, profile, key=None):
        calls.append((neighbors, profile))
        return None, 0

    module = presentations if search is equivalent_bounded else markov
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(module, "_bidirectional", capture)
        search(*args, **kwargs)
    return calls


def _check_filter(neighbors, profile, node, forward, side):
    """neighbors given profile(side) keeps every neighbour of node that is
    in side, and so does it given the profile of each neighbour alone."""
    results = set(neighbors(node, forward, None))
    assert set(neighbors(node, forward, profile(side))) & side == results & side
    for result in results:
        assert result in neighbors(node, forward, profile({result}))


class TestFinalLevelFilter:
    """The final level asks neighbors(node, forward, profile(other)), and
    looks for a result among other: that finds a node of other exactly
    when neighbors(node, forward, None) does, for each search's callbacks
    and any side S."""

    @given(words(min_n=2, max_n=4, max_len=8, categories=TWISTED_CATEGORIES),
           st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rewrite_search(self, w, room, forward, data):
        p = _full(w.category, w.n)
        stages = _search_callbacks(equivalent_bounded, w, w, p, len(w) + room)
        assert len(stages) == 2  # without and with insertions
        node = encode_word(w)
        for neighbors, profile in stages:
            results = sorted(set(neighbors(node, forward, None)))
            side = set(data.draw(st.lists(st.sampled_from(results), max_size=3))
                       if results else ())
            side |= {encode_word(x) for x in data.draw(st.lists(words(
                min_n=w.n, max_n=w.n, max_len=10, categories=(w.category,)),
                max_size=2))}
            _check_filter(neighbors, profile, node, forward, side)

    @given(words(min_n=1, max_n=3, max_len=8, categories=TWISTED_CATEGORIES),
           st.integers(0, 2), st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_markov_search(self, w, more, room, forward, data):
        # half the nodes are conjugates g' w g, which a conjugation shortens
        g = data.draw(words(min_n=w.n, max_n=w.n, max_len=data.draw(st.integers(0, 1)),
                            categories=(w.category,)))
        w = free_reduce(concat(concat(invert(g), w), g))
        (neighbors, profile), = _search_callbacks(
            markov_equivalent_bounded, w, w, w.n + more, len(w) + room)
        node = (w.n, encode_word(w))
        results = sorted(set(neighbors(node, forward, None)))
        side = set(data.draw(st.lists(st.sampled_from(results), max_size=3))
                   if results else ())
        for x in data.draw(st.lists(words(min_n=max(1, w.n - 1), max_n=w.n + 1,
                                          max_len=10, categories=(w.category,)),
                                    max_size=2)):
            x = free_reduce(x)
            side.add((x.n, encode_word(x)))
        _check_filter(neighbors, profile, node, forward, side)


class TestReferenceEngine:
    """Both searches give the same outcomes, node counts and paths as the
    engine that expands its final level like any other
    (tests/reference_engine.py)."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_outcomes_match_the_reference_engine(self, data):
        w2_from = data.draw(st.sampled_from(["random", "rewrites", "moves"]))
        w1 = data.draw(words(min_n=2, max_n=4 if w2_from == "moves" else 3,
                             max_len=8, categories=TWISTED_CATEGORIES))
        p = _full(w1.category, w1.n)
        w2 = data.draw(words(min_n=w1.n, max_n=w1.n, max_len=8,
                             categories=(w1.category,)))
        if w2_from == "rewrites":  # a few rewrite steps from w1
            w2 = w1
            for _ in range(data.draw(st.integers(1, 3))):
                w2 = data.draw(st.sampled_from(
                    sorted(rewrite_neighbors(w2, p), key=str)))
        elif w2_from == "moves":  # a few Markov moves, onto n - 1 or n + 1 too
            w2 = w1
            for _ in range(data.draw(st.integers(1, 3))):
                w2 = data.draw(st.sampled_from(sorted(
                    (r for _, r in markov_neighbors(w2)),
                    key=lambda r: (r.n, str(r)))))
        budget = data.draw(st.integers(1, 300))

        def outcomes():  # the rewrite search needs one strand count
            rewrite = w2.n == w1.n and equivalent_bounded(
                w1, w2, p, max_nodes=budget)
            return rewrite, markov_equivalent_bounded(w1, w2, max_nodes=budget)

        got = outcomes()
        with pytest.MonkeyPatch.context() as old:
            old.setattr(presentations, "_bidirectional",
                        reference_engine.bidirectional)
            old.setattr(markov, "_bidirectional", reference_engine.bidirectional)
            assert got == outcomes()


class TestReplay:
    def test_corrupted_path_raises(self):
        p = full_presentation(Family.TB_FULL, 2)
        w1, w2 = tb("b1 v1 b1 v1", 2), tb("v1 b1 v1 b1", 2)
        got = equivalent_bounded(w1, w2, p, max_nodes=10**5)
        assert got.equal and len(got.path) >= 1
        bad = (RewriteStep("twisted.involution[1]", False, 0),) + got.path
        # inserting b1 b1 up front shifts everything: the replay must either
        # stop fitting or at least fail to land on w2
        try:
            result = replay_path(w1, bad, rule_table(p))
        except Mismatch:
            return
        assert result != w2

    def test_unknown_rule_rejected(self):
        p = full_presentation(Family.TB_FULL, 2)
        with pytest.raises(Mismatch):
            replay_path(
                tb("v1", 2), (RewriteStep("no.such[9]", True, 0),), rule_table(p)
            )

    @pytest.mark.parametrize(
        "step",
        [
            RewriteStep("pair.b1", False, -1),  # negative position
            RewriteStep("pair.b1", False, 3),  # past the end
            RewriteStep("no.such[9]", True, 0),  # unknown rule
            RewriteStep("braid.cancel[1]", True, 0),  # side does not match
            # pair.v1 inserts v1 v1 at 0, unless a field has the wrong type
            RewriteStep("pair.v1", 0, 0),  # forward is not a bool
            RewriteStep("pair.v1", False, False),  # pos is not an int
            RewriteStep("pair.v1", False, 0.0),
            RewriteStep(None, False, 0),  # rule is not a str
        ],
    )
    @pytest.mark.parametrize("replayer", ["rewrite", "markov"])
    def test_malformed_step_rejected(self, step, replayer):
        w = tb("s1 v1", 2)
        with pytest.raises(Mismatch):
            if replayer == "rewrite":
                table = rule_table(full_presentation(Family.TB_FULL, 2))
                replay_path(w, (step,), table)
            else:
                move = MarkovMove(MoveKind.BRAID_RELATION, step.forward, step=step)
                replay_markov_path(w, (move,))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_paths_raise_only_replay_errors(self, data):
        w = data.draw(
            words(max_n=4, max_len=8,
                  categories=(Category.TWISTED, Category.FLAT_TWISTED))
        )
        family = (
            Family.TB_FULL if w.category is Category.TWISTED else Family.FT_FULL
        )
        table = rule_table(full_presentation(family, max(w.n, 2)))
        names = sorted(table) + ["no.such[9]", "pair.v9"]
        step = st.builds(
            RewriteStep,
            st.sampled_from(names),
            st.booleans(),
            st.integers(-2, len(w) + 2),
        )
        move = st.builds(
            MarkovMove,
            st.sampled_from(list(MoveKind)),
            st.booleans(),
            st.integers(-2, w.n + 3),
            st.integers(-2, 2),
            st.none() | step,
        )
        steps = tuple(data.draw(st.lists(step, max_size=4)))
        moves = tuple(data.draw(st.lists(move, max_size=4)))
        for replay in (
            lambda: replay_path(w, steps, table),
            lambda: replay_markov_path(w, moves),
        ):
            try:
                replay()
            except (Mismatch, UnsupportedN, WordError):
                pass

    def test_pair_rules_cover_alphabet(self):
        p = reduced_presentation(Family.TB_REDUCED, 3)
        names = set(pair_rules(p.alphabet))
        assert names == {"pair.s1", "pair.S1", "pair.b1", "pair.v1", "pair.v2"}
