"""Expansion maps and the reduced-presentation verification engine."""

import hashlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twbraid.presentations import (
    Family,
    Mismatch,
    Presentation,
    Relation,
    RewriteStep,
    apply_step,
    full_presentation,
    reduced_presentation,
    replay_path,
    rule_table,
)
from twbraid.quotients import hyperoctahedral_image, sigma_exponent_sum
from twbraid.reduced_map import (
    _bank_at,
    _expansion,
    _expansion_code,
    _Prover,
    _RuleBank,
    check_zigzag_identity,
    expand_word,
    full_relations_for,
    render_path,
    verify_derived_relation,
    verify_reduction,
)
from twbraid.words import (
    CODE_PARTNER,
    BraidWord,
    Category,
    CategoryViolation,
    IndexOutOfRange,
    Kind,
    code,
    concat,
    encode_word,
    free_reduce,
    invert,
    parse_word,
    reduce_codes,
)

from wordgen import words


def tw(text, n):
    return parse_word(text, n, Category.TWISTED)


def ex(text, n, category=Category.TWISTED):
    return expand_word(parse_word(text, n, category))


class TestExpansions:
    def test_sigma_two_strands_apart(self):
        assert str(ex("s2", 3)) == "v1 v2 s1 v2 v1"
        assert str(ex("s3", 4)) == "v2 v1 v3 v2 s1 v2 v3 v1 v2"

    def test_sigma_inverse_swaps_core_only(self):
        w = ex("S2", 3)
        assert str(w) == "v1 v2 S1 v2 v1"
        assert w == free_reduce(invert(ex("s2", 3)))

    def test_bar(self):
        assert str(ex("b2", 2)) == "v1 b1 v1"
        assert str(ex("b3", 3)) == "v2 v1 b1 v1 v2"

    def test_flat(self):
        assert str(ex("c2", 3, Category.FLAT_TWISTED)) == "v1 v2 c1 v2 v1"
        assert str(ex("c3", 4, Category.FLAT_TWISTED)) == "v2 v1 v3 v2 c1 v2 v3 v1 v2"
        assert ex("c2", 3, Category.FLAT_TWISTED).category is Category.FLAT_TWISTED

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ex("s2", 2)
        with pytest.raises(IndexOutOfRange):
            ex("b4", 3)
        with pytest.raises(IndexOutOfRange):
            ex("c2", 2, Category.FLAT_TWISTED)

    def test_single_core_letter(self):
        for i in range(2, 6):
            sw = ex(f"s{i}", 6)
            assert sum(g.kind is Kind.SIGMA for g in sw.letters) == 1
        for i in range(2, 7):
            bw = ex(f"b{i}", 6)
            assert sum(g.kind is Kind.B for g in bw.letters) == 1

    def test_inductive_shapes(self):
        # b_(i+1) = v_i b_i v_i and the matching nesting for crossings
        for i in range(1, 5):
            inner = ex(f"b{i}", 6).letters
            outer = ex(f"b{i + 1}", 6).letters
            vi = outer[0]
            assert vi.kind is Kind.V and vi.index == i
            assert outer == (vi,) + inner + (vi,)

    def test_expand_word_examples(self):
        assert str(expand_word(tw("s2", 3))) == "v1 v2 s1 v2 v1"
        assert str(expand_word(tw("b1", 3))) == "b1"
        assert str(expand_word(tw("S2", 3))) == "v1 v2 S1 v2 v1"

    def test_expand_word_freely_reduces(self):
        # v1 b2 has a cancelling boundary after expansion
        assert str(expand_word(tw("v1 b2", 2))) == "b1 v1"

    @pytest.mark.parametrize("family", [
        Family.TB_REDUCED, Family.FT_REDUCED, Family.VB_REDUCED, Family.FV_REDUCED,
    ])
    def test_each_reduced_generator_expands_to_itself(self, family):
        # item "Converse": true by construction, pinned at n = 2..8
        for n in range(2, 9):
            reduced = reduced_presentation(family, n)
            for g in reduced.alphabet:
                assert _expansion(g) == (g,), (n, g)
                w = BraidWord(n, (g,), reduced.category)
                assert expand_word(w) == w, (n, g)


class TestExpansionProperties:
    _EXPANDABLE = (
        Category.TWISTED,
        Category.FLAT_TWISTED,
        Category.VIRTUAL,
        Category.FLAT_VIRTUAL,
    )

    @settings(max_examples=60)
    @given(words(max_n=5, max_len=8, categories=_EXPANDABLE))
    def test_quotient_compatible(self, w):
        assert hyperoctahedral_image(expand_word(w)) == hyperoctahedral_image(w)

    @settings(max_examples=60)
    @given(words(max_n=5, max_len=8, categories=(Category.TWISTED, Category.VIRTUAL)))
    def test_exponent_sum_preserved(self, w):
        assert sigma_exponent_sum(expand_word(w)) == sigma_exponent_sum(w)

    @settings(max_examples=40)
    @given(
        words(min_n=3, max_n=3, max_len=6, categories=(Category.TWISTED,)),
        words(min_n=3, max_n=3, max_len=6, categories=(Category.TWISTED,)),
    )
    def test_monoid_map(self, w1, w2):
        lhs = expand_word(concat(w1, w2))
        rhs = free_reduce(concat(expand_word(w1), expand_word(w2)))
        assert lhs == rhs


class TestZigzag:
    @pytest.mark.parametrize("i, n", [(0, 3), (3, 3), (1, 1)])
    def test_index_out_of_range(self, i, n):
        with pytest.raises(Mismatch, match="out of range"):
            check_zigzag_identity(i, n)

    def test_trivial_instance(self):
        out = check_zigzag_identity(1, 2)
        assert out.equal and out.path == ()

    def test_single_braid_move(self):
        out = check_zigzag_identity(2, 3)
        assert out.equal
        assert len(out.path) >= 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_all_instances(self, n):
        for i in range(1, n):
            assert check_zigzag_identity(i, n).equal

    def test_path_replays_over_virtual_rules(self):
        out = check_zigzag_identity(3, 4)
        valley = parse_word("v3 v2 v1 v2 v3", 4, Category.VIRTUAL)
        mountain = parse_word("v1 v2 v3 v2 v1", 4, Category.VIRTUAL)
        table = rule_table(reduced_presentation(Family.VB_REDUCED, 4))
        assert replay_path(valley, out.path, table) == mountain
        assert all(step.rule.startswith(("red.v-", "pair.v")) for step in out.path)


def _expanded_sides(r, reduced):
    lhs = expand_word(BraidWord(reduced.n, r.lhs, reduced.category))
    rhs = expand_word(BraidWord(reduced.n, r.rhs, reduced.category))
    return lhs, rhs


class TestVerifyExamples:
    def test_bar_involution_collapses(self):
        red = reduced_presentation(Family.TB_REDUCED, 3)
        r = full_presentation(Family.TB_FULL, 3).relation("twisted.involution[2]")
        verdict = verify_derived_relation(r, red)
        assert verdict.equal and verdict.label == "Equal"
        assert verdict.path == ()

    def test_bar_slide_collapses(self):
        red = reduced_presentation(Family.TB_REDUCED, 2)
        r = full_presentation(Family.TB_FULL, 2).relation("mixed.bar-slide[1]")
        verdict = verify_derived_relation(r, red)
        assert verdict.equal and verdict.path == ()
        lhs, rhs = _expanded_sides(r, red)
        assert str(lhs) == "b1 v1" and lhs == rhs

    def test_sandwich_variant_is_the_reduced_relation(self):
        red = reduced_presentation(Family.TB_REDUCED, 2)
        r = full_presentation(Family.TB_FULL, 2).relation("mixed.bar-sandwich-var[1]")
        verdict = verify_derived_relation(r, red)
        assert verdict.equal
        assert [s.rule for s in verdict.path] == ["red.bar-sandwich"]

    def test_a_renamed_relation_is_proved_by_its_sides(self):
        red = reduced_presentation(Family.TB_REDUCED, 3)
        r = full_presentation(Family.TB_FULL, 3).relation("twisted.commute[1,2]")
        verdict = verify_derived_relation(Relation("renamed", r.lhs, r.rhs), red)
        assert verdict.equal and verdict.path
        assert verdict.path == verify_derived_relation(r, red).path

    @pytest.mark.parametrize("name, lhs, rhs", [
        ("braid.braid[1]", "s1 s2", "s2 s1"),
        ("mixed.v-sigma-v[1]", "s1", "v1"),
        ("twisted.commute[1,2]", "b1 b2 b1", "b2 b1 b2"),
    ])
    def test_a_false_relation_under_a_known_name_is_unknown(self, name, lhs, rhs):
        # the name of a full relation does not choose the rule that proves it
        r = Relation(name, tw(lhs, 3).letters, tw(rhs, 3).letters)
        verdict = verify_derived_relation(r, reduced_presentation(Family.TB_REDUCED, 3))
        assert verdict.label == "Unknown" and verdict.path == ()


class TestVerifyAllFamilies:
    @pytest.mark.parametrize(
        "family",
        [Family.TB_REDUCED, Family.FT_REDUCED, Family.VB_REDUCED, Family.FV_REDUCED],
    )
    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_relation_proved_and_replays(self, family, n):
        reduced = reduced_presentation(family, n)
        table = rule_table(reduced)
        primitive_names = set(table)
        results = verify_reduction(reduced)
        assert results, "expected at least one relation to check"
        for r, verdict in results:
            assert verdict.equal, f"{r.name} not proved"
            assert all(step.rule in primitive_names for step in verdict.path), r.name
            lhs, rhs = _expanded_sides(r, reduced)
            assert replay_path(lhs, verdict.path, table) == rhs, r.name

    def test_every_reduced_relation_is_proved_by_its_own_rule(self):
        # each reduced relation is a rule of the bank's table, found by its
        # sides: an involution collapses, any other is that one rule
        empty = single = 0
        for family in REDUCED_FAMILIES:
            for n in range(2, 7):
                reduced = reduced_presentation(family, n)
                table = rule_table(reduced)
                for r, verdict in verify_reduction(reduced, reduced.relations):
                    assert verdict.equal, r.name
                    lhs, rhs = _expanded_sides(r, reduced)
                    assert replay_path(lhs, verdict.path, table) == rhs, r.name
                    empty += verdict.path == ()
                    single += verdict.path == (RewriteStep(r.name, True, 0),)
        assert (empty, single) == (80, 180)

    def test_virtual_families_get_bar_free_subset(self):
        rels = full_relations_for(Family.VB_REDUCED, 4)
        assert rels
        assert all(
            g.kind is not Kind.B for r in rels for g in r.lhs + r.rhs
        )
        tb = full_relations_for(Family.TB_REDUCED, 4)
        assert len(rels) < len(tb)


class TestRenderPath:
    def test_line_format(self):
        red = reduced_presentation(Family.TB_REDUCED, 3)
        r = full_presentation(Family.TB_FULL, 3).relation("mixed.bar-sandwich[1]")
        verdict = verify_derived_relation(r, red)
        text = render_path(r, red, verdict.path)
        lines = text.splitlines()
        assert len(lines) == len(verdict.path)
        for line in lines:
            assert re.fullmatch(r"\S+ @ \d+ : .+", line)
        lhs, rhs = _expanded_sides(r, red)
        assert lines[-1].endswith(str(rhs))

    @pytest.mark.parametrize("step", [
        RewriteStep("pair.v1", 0, False),  # forward is not a bool
        RewriteStep("pair.v1", False, False),  # pos is not an int
        RewriteStep("pair.v1", False, 0.0),
        RewriteStep(None, False, 0),  # rule is not a str
        RewriteStep("pair.v1", False, 99),  # past the end
    ])
    def test_malformed_step_refused(self, step):
        # pair.v1 inserts v1 v1 at 0, unless a field has the wrong type; the
        # render refuses what replay_path refuses
        red = reduced_presentation(Family.TB_REDUCED, 3)
        r = full_presentation(Family.TB_FULL, 3).relation("mixed.bar-sandwich[1]")
        good = RewriteStep("pair.v1", False, 0)
        assert render_path(r, red, (good,)).startswith("pair.v1 @ 0 : v1 v1 ")
        lhs, _ = _expanded_sides(r, red)
        with pytest.raises(Mismatch):
            replay_path(lhs, (step,), rule_table(red))
        with pytest.raises(Mismatch):
            render_path(r, red, (step,))

    def test_bank_lemma_refused(self):
        # d.braid[1] fits the expanded lhs, but a certificate is checked
        # against the reduced relations and pairs only
        red = reduced_presentation(Family.TB_REDUCED, 3)
        r = full_presentation(Family.TB_FULL, 3).relation("braid.braid[1]")
        step = RewriteStep("d.braid[1]", True, 0)
        lhs, _ = _expanded_sides(r, red)
        with pytest.raises(Mismatch, match="unknown rule"):
            replay_path(lhs, (step,), rule_table(red))
        with pytest.raises(Mismatch, match="unknown rule"):
            render_path(r, red, (step,))


class TestTransportRaises:
    """The bank's two transports refuse a letter they have no rule for."""

    @pytest.mark.parametrize(
        "text, pos, d",
        [
            ("v1 S1", 0, 1),  # a v letter meets an inverse crossing
            ("S1 v1", 1, -1),
            ("b1 s1", 0, 1),  # neither letter is a v letter
            ("v2 v1 s1 b2", 2, 1),
        ],
    )
    def test_pass(self, text, pos, d):
        bank = _RuleBank(reduced_presentation(Family.TB_REDUCED, 3))
        pr = _Prover(encode_word(tw(text, 3)), bank)
        with pytest.raises(Mismatch, match="transport blocked"):
            bank._pass(pr, pos, 2, d)

    @pytest.mark.parametrize(
        "bar, after",
        [(False, "b1"), (False, "s1"), (True, "S1"), (True, "b1")],
    )
    def test_chunk(self, bar, after):
        bank = _RuleBank(reduced_presentation(Family.TB_REDUCED, 3))
        chunk = bank.Eb[2] if bar else bank.Es[2]
        pr = _Prover(chunk + encode_word(tw(after, 3)), bank)
        with pytest.raises(Mismatch, match="no transport rule"):
            bank._chunk(pr, 0, 1, 1, 2, bar)
        assert pr.steps == []


_TB4_CODES = sorted(
    code(g.kind, g.index) for g in reduced_presentation(Family.TB_REDUCED, 4).alphabet
)
reduced_codes = st.lists(st.sampled_from(_TB4_CODES), max_size=12).map(
    lambda cs: reduce_codes(bytes(cs)))


class TestProverOperations:
    """`_Prover.reduce` and `_Prover.insert` on freely reduced TB n=4 words:
    inserting a block and its inverse and reducing again is the identity,
    and the reduction undoes the insertion step by step."""

    @staticmethod
    def _inserted(word, block, pos):
        pr = _Prover(word, _bank_at(Family.TB_REDUCED, 4))
        pr.insert(block, pos)
        inverse = bytes(CODE_PARTNER[c] for c in reversed(block))
        assert pr.data == word[:pos] + block + inverse + word[pos:]
        return pr

    @settings(max_examples=200, deadline=None)
    @given(reduced_codes, reduced_codes, st.data())
    def test_insert_then_reduce_restores_the_word(self, word, block, data):
        pos = data.draw(st.integers(0, len(word)))
        pr = self._inserted(word, block, pos)
        pr.reduce()
        assert pr.data == word

    @settings(max_examples=200, deadline=None)
    @given(reduced_codes, reduced_codes, st.data())
    def test_reduce_inverts_insert_step_by_step(self, word, block, data):
        # the block's first letter must not cancel the letter before it, or
        # the reduction would start there instead of inside the insertion
        pos = data.draw(st.integers(0, len(word)))
        assume(block and (pos == 0 or word[pos - 1] != CODE_PARTNER[block[0]]))
        pr = self._inserted(word, block, pos)
        inserted = list(pr.steps)
        pr.reduce()
        removed = pr.steps[len(inserted):]
        assert removed == [s.inverse() for s in reversed(inserted)]

    @settings(max_examples=100, deadline=None)
    @given(reduced_codes)
    def test_reduce_on_a_reduced_word_adds_no_step(self, word):
        pr = _Prover(word, _bank_at(Family.TB_REDUCED, 4))
        pr.reduce()
        assert (pr.data, pr.steps) == (word, [])

    def test_shift_applies_each_rule_past_the_last_one_written(self):
        bank = _bank_at(Family.TB_REDUCED, 4)
        rules = ("d.ind.s[2]", "d.ind.s[3]", "d.ind.s[2]")
        word = bank.Es[2] + bank.Es[3] + bank.Es[2]
        pr = _Prover(word, bank)
        pr.shift(rules)
        e1, e2 = len(bank.Es[1]), len(bank.Es[2])
        assert [s.pos for s in pr.steps] == [0, e1 + 4, e1 + e2 + 8]
        pr.shift(rules, forward=False)
        assert pr.data == word


class TestOnlyTheReducedPresentation:
    """The verifiers read only the family and n of the presentation they are
    given, so they refuse any other than reduced_presentation(family, n)."""

    def test_a_stripped_presentation_is_refused(self):
        red = reduced_presentation(Family.TB_REDUCED, 3)
        stripped = Presentation(red.family, red.n, (), red.alphabet)
        r = full_presentation(Family.TB_FULL, 3).relation("braid.braid[1]")
        path = verify_derived_relation(r, red).path
        lhs, _ = _expanded_sides(r, red)
        with pytest.raises(Mismatch, match="unknown rule"):
            replay_path(lhs, path, rule_table(stripped))
        for call in (
            lambda: verify_derived_relation(r, stripped),
            lambda: verify_reduction(stripped),
            lambda: render_path(r, stripped, path),
        ):
            with pytest.raises(Mismatch, match="not reduced_presentation"):
                call()

    def test_an_equal_copy_is_accepted(self):
        red = reduced_presentation(Family.TB_REDUCED, 3)
        copy = Presentation(red.family, red.n, red.relations, red.alphabet)
        assert copy is not red
        assert verify_reduction(copy) == verify_reduction(red)

    def test_a_full_family_is_not_a_reduced_one(self):
        with pytest.raises(ValueError, match="is not a reduced presentation family"):
            full_relations_for(Family.TB_FULL, 3)
        with pytest.raises(ValueError, match="is not a reduced presentation family"):
            verify_reduction(full_presentation(Family.TB_FULL, 3))


REDUCED_FAMILIES = (
    Family.TB_REDUCED,
    Family.FT_REDUCED,
    Family.VB_REDUCED,
    Family.FV_REDUCED,
)


class TestSharedSteps:
    def test_certificates_are_pinned(self):
        """One SHA-256 over (family, n, relation, rule, forward, pos) of every
        certificate step at n=2..6, recorded before the bank shared steps."""
        digest = hashlib.sha256()
        steps = 0
        for family in REDUCED_FAMILIES:
            for n in range(2, 7):
                for r, verdict in verify_reduction(reduced_presentation(family, n)):
                    for s in verdict.path:
                        line = f"{family.value}|{n}|{r.name}|{s.rule}|{s.forward}|{s.pos}\n"
                        digest.update(line.encode())
                        steps += 1
        assert steps == 13362
        assert (
            digest.hexdigest()
            == "beda47484dc1428bc90c95731c65a02c18d6fd2e3699f09877235f98204bc382"
        )

    @pytest.mark.parametrize("family", REDUCED_FAMILIES)
    def test_one_object_per_step(self, family):
        for n in range(2, 7):
            results = verify_reduction(reduced_presentation(family, n))
            steps = [s for _, verdict in results for s in verdict.path]
            keys = {(s.rule, s.forward, s.pos) for s in steps}
            assert len({id(s) for s in steps}) == len(keys), n

    @pytest.mark.parametrize("family", [Family.TB_REDUCED, Family.FT_REDUCED])
    def test_both_directions_of_every_derived_rule(self, family):
        reduced = reduced_presentation(family, 4)
        bank = _bank_at(family, 4)
        table = rule_table(reduced)
        assert bank.derived
        for name in bank.derived:
            forward = bank._flat_proof(name, True)
            backward = bank._flat_proof(name, False)
            assert backward == tuple(s.inverse() for s in reversed(forward)), name
            lhs, rhs = bank.table[name]
            for start, path, end in ((lhs, forward, rhs), (rhs, backward, lhs)):
                data = start
                for step in path:
                    data = apply_step(data, step, table)
                assert data == end, name

    def test_an_evicted_bank_rebuilds_the_same_certificates(self):
        reduced = reduced_presentation(Family.TB_REDUCED, 4)
        bank = _bank_at(Family.TB_REDUCED, 4)
        before = verify_reduction(reduced)
        for n in (5, 6):  # two newer banks push this one out of the cache
            _bank_at(Family.TB_REDUCED, n)
        assert _bank_at(Family.TB_REDUCED, 4) is not bank
        after = verify_reduction(reduced)
        assert after == before
        assert all(verdict.equal for _, verdict in after)
        assert sum(len(verdict.path) for _, verdict in after) > 100


class TestProofChecks:
    """The two checks every certificate rests on: `_register` checks where a
    lemma's run began and ended, and `relation_path` replays a relation's
    rule-level path, so a side index that files a relation under the wrong
    rule is caught."""

    def test_register_stores_the_run_in_either_direction(self):
        bank = _RuleBank(reduced_presentation(Family.TB_REDUCED, 3))
        lhs, rhs = bytes([code(Kind.V, 1)] * 2), b""
        pr = _Prover(lhs, bank)
        pr.apply("pair.v1", 0, forward=True)
        bank._register("d.test.fwd", pr, lhs, rhs)
        assert bank.derived["d.test.fwd"] == tuple(pr.steps)
        bank._register("d.test.bwd", pr, rhs, lhs)
        assert bank.derived["d.test.bwd"] == bank._inverted(pr.steps)
        assert bank.table["d.test.bwd"] == (rhs, lhs)

    def test_register_refuses_a_run_that_ended_elsewhere(self):
        bank = _RuleBank(reduced_presentation(Family.TB_REDUCED, 3))
        lhs = bytes([code(Kind.V, 1)] * 2)
        pr = _Prover(lhs, bank)
        pr.apply("pair.v1", 0, forward=True)
        with pytest.raises(Mismatch, match=r"d\.test\[1\]"):
            bank._register("d.test[1]", pr, lhs, lhs)
        with pytest.raises(Mismatch, match=r"d\.test\[1\]"):
            bank._register("d.test[1]", pr, bank.Es[2], b"")
        assert "d.test[1]" not in bank.derived

    @staticmethod
    def _misfile(monkeypatch, name, rule):
        """File the joined expansions of TB n=4's relation `name` under `rule`
        in the cached bank's side index, until the test ends."""
        r = full_presentation(Family.TB_FULL, 4).relation(name)
        sides = tuple(b"".join(map(_expansion_code, side)) for side in (r.lhs, r.rhs))
        monkeypatch.setitem(_bank_at(Family.TB_REDUCED, 4).by_sides, sides, rule)
        return r

    def test_a_rule_step_that_does_not_apply_is_refused(self, monkeypatch):
        r = self._misfile(monkeypatch, "braid.braid[2]", "d.braid[1]")
        with pytest.raises(Mismatch, match="does not match at position 0"):
            verify_derived_relation(r, reduced_presentation(Family.TB_REDUCED, 4))

    def test_a_rule_level_path_that_ends_elsewhere_is_refused(self, monkeypatch):
        # the lhs begins with v2 v2, so the pair removal applies, but misses the rhs
        r = self._misfile(monkeypatch, "mixed.v-sigma-v[2]", "pair.v2")
        with pytest.raises(Mismatch, match=r"mixed\.v-sigma-v\[2\]"):
            verify_derived_relation(r, reduced_presentation(Family.TB_REDUCED, 4))


class TestSidesOutsideTheReducedGroup:
    """A relation's sides are checked as words of the reduced group before
    the bank sees them, as render_path checks them."""

    @pytest.mark.parametrize(
        "family, name",
        [
            (Family.VB_REDUCED, "twisted.involution[1]"),
            (Family.VB_REDUCED, "mixed.bar-slide[1]"),
            (Family.FV_REDUCED, "twisted.involution[1]"),
            (Family.FV_REDUCED, "mixed.bar-slide[1]"),
            (Family.FV_REDUCED, "braid.cancel[1]"),
        ],
    )
    def test_collapsing_relations_of_another_category(self, family, name):
        # both sides expand to the same reduced word, so a shortcut on equal
        # expansions once called these Proved with an empty path
        r = full_presentation(Family.TB_FULL, 4).relation(name)
        with pytest.raises(CategoryViolation):
            verify_derived_relation(r, reduced_presentation(family, 4))

    def test_indices_past_the_strand_count(self):
        r = full_presentation(Family.TB_FULL, 6).relation("braid.braid[4]")
        red = reduced_presentation(Family.TB_REDUCED, 4)
        with pytest.raises(IndexOutOfRange):
            verify_derived_relation(r, red)
        with pytest.raises(IndexOutOfRange):
            render_path(r, red, ())

    def test_relations_of_the_other_full_family(self):
        r = full_presentation(Family.FT_FULL, 4).relation("flat.braid[1]")
        red = reduced_presentation(Family.TB_REDUCED, 4)
        with pytest.raises(CategoryViolation):
            verify_derived_relation(r, red)
        with pytest.raises(CategoryViolation):
            render_path(r, red, ())
