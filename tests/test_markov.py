import dataclasses
import hashlib
import itertools
import importlib.util
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twbraid import markov
from twbraid.braiding import braid
from twbraid.diagram import (
    BAR_MARK,
    CrossingVisit,
    Role,
    TwistedGaussCode,
    gauss_equivalent,
    shipped_diagram,
)
from twbraid.markov import (
    _WRAP,
    MarkovMove,
    MoveKind,
    _kernel,
    _relation_steps,
    _run,
    _search_results,
    _search_rules,
    _step_into,
    apply_markov_move,
    closure_code,
    closure_code_equivalent,
    markov_equivalent_bounded,
    markov_neighbors,
    normalize_code,
    render_markov_path,
    replay_markov_path,
)
from twbraid.presentations import (
    FULL_FAMILY,
    Mismatch,
    RewriteStep,
    _substitutions,
    full_presentation,
)
from twbraid.quotients import (
    bar_parity_per_component,
    closure_permutation,
    sigma_exponent_sum,
)
from twbraid.words import (
    _INDEX_SPAN,
    CODE_PARTNER,
    BraidWord,
    Category,
    CategoryViolation,
    Kind,
    UnsupportedN,
    WordError,
    decode_word,
    encode_word,
    free_reduce,
    invert,
    parse_word,
    reduce_codes,
)
from wordgen import words

MARKOV_CATEGORIES = (Category.TWISTED, Category.FLAT_TWISTED)


def tw(text, n):
    return parse_word(text, n=n, category=Category.TWISTED)


def ft(text, n):
    return parse_word(text, n=n, category=Category.FLAT_TWISTED)


EMPTY1 = BraidWord(1, (), Category.TWISTED)


def _reference_replays(category, res, move, node):
    """Whether the move's inverse takes the neighbour back to the node,
    through the public path: decode, apply the inverse, encode."""
    try:
        back = apply_markov_move(decode_word(res[1], res[0], category), move.inverse())
    except Mismatch:
        return False
    return (back.n, encode_word(back)) == node


def _padded(draw, w):
    """``w`` with one or two cancelling words ``u u^-1`` spliced in."""
    letters = list(w.letters)
    for _ in range(draw(st.integers(1, 2))):
        u = draw(words(min_n=w.n, max_n=w.n, max_len=2, categories=(w.category,)))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = u.letters + invert(u).letters
    return w.with_letters(tuple(letters))


@st.composite
def seam_nodes(draw):
    """(category, node, max_strands, max_length): a freely reduced word on
    at most 3 strands, which may start with a conjugation's right letter or
    end with its left one, so that the conjugation cancels at that seam,
    and bounds that cut some of its edges."""
    w = free_reduce(draw(words(max_n=3, max_len=6, categories=MARKOV_CATEGORIES)))
    wraps = [op for _, op in _kernel(w.category, w.n) if op[0] == _WRAP]
    _, _, left, right = draw(st.sampled_from(wraps))
    head = right if draw(st.booleans()) else b""
    tail = left if draw(st.booleans()) else b""
    data = reduce_codes(head + encode_word(w) + tail)
    max_strands = w.n + draw(st.integers(0, 1))
    return w.category, (w.n, data), max_strands, len(data) + draw(st.integers(0, 4))


def _reference_relation_steps(data, rules, forward, max_length, least):
    """``_relation_steps`` with every splice freely reduced in full, and
    every backward edge kept only when its inverse step, reduced in full
    too, takes the result back to data."""
    out = []
    for i, pos, src, dst in _substitutions(data, rules, max_length + 4 - len(data)):
        if len(data) - len(src) + len(dst) >= least:
            res = reduce_codes(data[:pos] + dst + data[pos + len(src):])
            end = pos + len(dst)
            if len(res) <= max_length and (forward or res[pos:end] == dst and
                    reduce_codes(res[:pos] + src + res[end:]) == data):
                out.append(((i, pos), res))
    return out


def _reference_edges(category, node, forward, max_strands, max_length):
    """Every (move, neighbour) of a search node, in the search's canonical
    order: the ``_kernel`` moves whose ``_run`` output fits the bounds, in
    kernel order, then the relation moves of ``_relation_steps`` by
    (entry, pos).  ``_step_into`` returns the first of these whose
    neighbour is in its targets."""
    n, data = node
    edges = []
    for move, op in _kernel(category, n):
        res = _run(op, data)
        if res is not None and op[1] <= max_strands and len(res) <= max_length:
            edges.append((move, (op[1], res)))
    rules = _search_rules(category, n)
    for (i, pos), res in sorted(_relation_steps(data, rules, forward, max_length, 0)):
        name, fwd, _, _ = rules[0][i]
        step = RewriteStep(name, fwd, pos)
        edges.append((MarkovMove(MoveKind.BRAID_RELATION, fwd, step=step), (n, res)))
    return edges


def _relation(edge):
    return edge[0].kind is MoveKind.BRAID_RELATION


@st.composite
def splice_nodes(draw):
    """(category, n, data): freely reduced codes on 2..4 strands, half the
    time built around a relation side with parts of the inverse of the
    other side at either end, so that the splice cancels at one seam, at
    both, or eats the other side whole."""
    w = draw(words(min_n=2, max_n=4, max_len=8, categories=MARKOV_CATEGORIES))
    data = encode_word(w)
    if draw(st.booleans()):
        _, _, src, dst = draw(st.sampled_from(_search_rules(w.category, w.n)[0]))
        undo = dst[::-1].translate(CODE_PARTNER)
        left = draw(st.integers(0, len(dst)))
        right = draw(st.integers(0, len(dst)))
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + undo[len(undo) - left:] + src + undo[:right] + data[cut:]
    return w.category, w.n, reduce_codes(data)


class _Recording(bytes):
    """Codes that log each operation that building a neighbour runs on them."""

    def __new__(cls, data, log):
        self = super().__new__(cls, data)
        self.log = log
        return self

    def __add__(self, other):
        self.log.append("+")
        return bytes(self) + other

    def __radd__(self, other):
        self.log.append("+")
        return other + bytes(self)

    def __getitem__(self, key):
        self.log.append("[]")
        return bytes(self)[key]

    def endswith(self, *args):
        self.log.append("endswith")
        return bytes(self).endswith(*args)

    def startswith(self, *args):
        self.log.append("startswith")
        return bytes(self).startswith(*args)

    def translate(self, *args):
        self.log.append("translate")
        return bytes(self).translate(*args)


def _reference_neighbors(w):
    """markov_neighbors as a letter-level reading of the move definitions:
    wrap, append or strip tokens, then free_reduce."""
    n, cat, tokens = w.n, w.category, str(w).split()
    twisted = cat is Category.TWISTED

    def word(m, toks):
        return free_reduce(parse_word(" ".join(toks), m, cat))

    out = set()
    conj = [(MarkovMove(MoveKind.VIRTUAL_CONJ, index=i), f"v{i}", f"v{i}")
            for i in range(1, n)]
    for i in range(1, n):
        if twisted:
            conj.append((MarkovMove(MoveKind.REAL_CONJ, True, i), f"S{i}", f"s{i}"))
            conj.append((MarkovMove(MoveKind.REAL_CONJ, False, i), f"s{i}", f"S{i}"))
        else:
            conj.append((MarkovMove(MoveKind.FLAT_CONJ, index=i), f"c{i}", f"c{i}"))
    conj += [(MarkovMove(MoveKind.TWISTED_CONJ, index=i), f"b{i}", f"b{i}")
             for i in range(1, n + 1)]
    for move, left, right in conj:
        out.add((move, word(n, [left] + tokens + [right])))

    # suffix of each stabilization, t the fresh top index and u = t - 1
    stabs = [(MoveKind.RIGHT_VIRTUAL_STAB, 0, "v{t}")]
    if twisted:
        stabs += [
            (MoveKind.RIGHT_REAL_STAB, 1, "s{t}"),
            (MoveKind.RIGHT_REAL_STAB, -1, "S{t}"),
            (MoveKind.RIGHT_UNDER_THREAD, 0, "S{t} v{u} s{t}"),
            (MoveKind.LEFT_UNDER_THREAD, 0, "v{t} v{u} s{u} v{t} S{u} v{u} v{t}"),
        ]
    else:
        stabs += [
            (MoveKind.RIGHT_FLAT_STAB, 0, "c{t}"),
            (MoveKind.RIGHT_FLAT_THREAD, 0, "c{t} v{u} c{t}"),
            (MoveKind.LEFT_FLAT_THREAD, 0, "v{t} v{u} c{u} v{t} c{u} v{u} v{t}"),
        ]
    for kind, sign, pattern in stabs:
        thread = "{u}" in pattern
        if n >= 1 + thread:
            suffix = pattern.format(t=n, u=n - 1).split()
            out.add((MarkovMove(kind, True, n, sign), word(n + 1, tokens + suffix)))
        if n >= 2 + thread:
            suffix = pattern.format(t=n - 1, u=n - 2).split()
            if len(tokens) >= len(suffix) and tokens[-len(suffix):] == suffix:
                try:
                    smaller = word(n - 1, tokens[: len(tokens) - len(suffix)])
                except WordError:  # the prefix still uses the top strand
                    continue
                out.add((MarkovMove(kind, False, n - 1, sign), smaller))
    return out


class TestNeighbors:
    def test_empty_single_strand_word(self):
        by_kind = {}
        for m, res in markov_neighbors(EMPTY1):
            by_kind.setdefault(m.kind, set()).add((str(res), res.n))
        # bar conjugation is a fixed point; both stabilizations grow a strand
        assert by_kind[MoveKind.TWISTED_CONJ] == {("", 1)}
        assert ("s1", 2) in by_kind[MoveKind.RIGHT_REAL_STAB]
        assert ("S1", 2) in by_kind[MoveKind.RIGHT_REAL_STAB]
        assert by_kind[MoveKind.RIGHT_VIRTUAL_STAB] == {("v1", 2)}
        assert MoveKind.REAL_CONJ not in by_kind
        assert MoveKind.VIRTUAL_CONJ not in by_kind

    def test_real_conjugation_fixed_point(self):
        w = tw("s1", 2)
        results = {str(res) for m, res in markov_neighbors(w)
                   if m.kind is MoveKind.REAL_CONJ}
        assert results == {"s1"}

    def test_twisted_conjugation(self):
        w = tw("s1", 2)
        results = {str(res) for m, res in markov_neighbors(w)
                   if m.kind is MoveKind.TWISTED_CONJ}
        assert results == {"b1 s1 b1", "b2 s1 b2"}

    def test_under_thread_adds_an_opposite_sign_pair(self):
        w = tw("s1 b2 v1", 2)
        for m, res in markov_neighbors(w):
            if m.kind in (MoveKind.RIGHT_UNDER_THREAD, MoveKind.LEFT_UNDER_THREAD):
                if not m.forward:
                    continue
                extra = [g for g in res.letters[len(w.letters):]]
                kinds = [g.kind for g in extra]
                assert kinds.count(Kind.SIGMA) == 1
                assert kinds.count(Kind.SIGMA_INV) == 1
                assert sigma_exponent_sum(res) == sigma_exponent_sum(w)

    def test_strand_count_bookkeeping(self):
        w = tw("s1 b1", 2)
        for m, res in markov_neighbors(w):
            if m.kind in (MoveKind.VIRTUAL_CONJ, MoveKind.REAL_CONJ,
                          MoveKind.TWISTED_CONJ):
                assert res.n == w.n
            elif m.forward:
                assert res.n == w.n + 1
            else:
                assert res.n == w.n - 1

    def test_destabilization_needs_a_clean_top_strand(self):
        # ends with v1 but the prefix still uses strand 2
        w = tw("s1 v1", 2)
        destabs = [m for m, _ in markov_neighbors(w)
                   if m.kind is MoveKind.RIGHT_VIRTUAL_STAB and not m.forward]
        assert destabs == []
        with pytest.raises(Mismatch):
            apply_markov_move(
                w, MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, False, 1)
            )

    def test_destabilization_needs_the_literal_suffix(self):
        with pytest.raises(Mismatch):
            apply_markov_move(
                tw("b1", 2), MarkovMove(MoveKind.RIGHT_REAL_STAB, False, 1, 1)
            )

    def test_destabilization_acts_on_the_free_reduction(self):
        # S1 S1 s1 is S1 in the group, so it destabilizes by S1, not by s1
        w = tw("S1 S1 s1", 2)
        minus = MarkovMove(MoveKind.RIGHT_REAL_STAB, False, 1, -1)
        assert apply_markov_move(w, minus) == EMPTY1
        with pytest.raises(Mismatch):
            apply_markov_move(w, MarkovMove(MoveKind.RIGHT_REAL_STAB, False, 1, 1))
        assert (minus, EMPTY1) in markov_neighbors(w)

    def test_flat_words_get_flat_moves(self):
        w = ft("c1 b1", 2)
        kinds = {m.kind for m, _ in markov_neighbors(w)}
        assert MoveKind.FLAT_CONJ in kinds
        assert MoveKind.RIGHT_FLAT_STAB in kinds
        assert MoveKind.RIGHT_FLAT_THREAD in kinds
        assert MoveKind.LEFT_FLAT_THREAD in kinds
        assert MoveKind.REAL_CONJ not in kinds
        assert MoveKind.RIGHT_REAL_STAB not in kinds

    def test_real_moves_refuse_flat_words(self):
        with pytest.raises(Mismatch):
            apply_markov_move(ft("c1", 2), MarkovMove(MoveKind.REAL_CONJ, True, 1))

    def test_category_gate(self):
        w = parse_word("v1", n=2, category=Category.VIRTUAL)
        with pytest.raises(CategoryViolation):
            markov_neighbors(w)

    @given(words(max_n=3, max_len=6, categories=MARKOV_CATEGORIES))
    @settings(max_examples=60, deadline=None)
    def test_every_move_inverts_exactly_on_reduced_words(self, w):
        w = free_reduce(w)
        for m, res in markov_neighbors(w):
            assert apply_markov_move(res, m.inverse()) == w, m.describe()


    @given(words(max_n=3, max_len=6, categories=MARKOV_CATEGORIES))
    @settings(max_examples=100, deadline=None)
    def test_byte_kernel_matches_apply_and_reference(self, w):
        reduced = free_reduce(w)
        assert markov_neighbors(w) == _reference_neighbors(reduced)
        # a raw word moves as its free reduction does
        for move, _ in _kernel(w.category, w.n):
            outs = []
            for word in (w, reduced):
                try:
                    outs.append(apply_markov_move(word, move))
                except Mismatch:
                    outs.append(None)
            assert outs[0] == outs[1], move.describe()
        # every search edge, relation edges too, is its move on the raw word
        node = (w.n, encode_word(reduced))
        kernel = set()
        for edge in _reference_edges(w.category, node, True, _INDEX_SPAN - 1, 99):
            move, (m, res) = edge
            out = decode_word(res, m, w.category)
            assert apply_markov_move(w, move) == out, move.describe()
            if not _relation(edge):
                kernel.add((move, out))
        assert kernel == markov_neighbors(w)

    @given(seam_nodes())
    @settings(max_examples=200, deadline=None)
    def test_search_edges_invert_exactly(self, case):
        category, node, max_strands, max_length = case
        n, data = node
        w = decode_word(data, n, category)
        expected = []
        for move, _ in _kernel(category, n):
            try:
                out = apply_markov_move(w, move)
            except Mismatch:
                continue
            if out.n <= max_strands and len(out) <= max_length:
                expected.append((move, (out.n, encode_word(out))))
        ahead = _reference_edges(category, node, True, max_strands, max_length)
        back = _reference_edges(category, node, False, max_strands, max_length)
        # kernel edges are the same both ways, and each is undone exactly
        assert [e for e in ahead if not _relation(e)] == expected
        assert [e for e in back if not _relation(e)] == expected
        for move, res in expected:
            assert _reference_replays(category, res, move, node), move.describe()
        # backward relation edges are the forward ones whose inverse replays
        assert [e for e in back if _relation(e)] == [
            (move, res) for move, res in filter(_relation, ahead)
            if _reference_replays(category, res, move, node)
        ]

    @given(st.one_of(seam_nodes(), splice_nodes().map(
        lambda case: (case[0], case[1:], case[1] + 1, len(case[2]) + 2))),
        st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_step_into_is_the_first_reference_edge(self, case, forward):
        """For every neighbour r, ``_step_into`` into {r} is the first
        reference edge to r; into every neighbour, the first edge of all.
        Targets out of reach (past the bounds, or backward the relation
        steps that do not invert) give None."""
        category, node, max_strands, max_length = case
        step_into = partial(_step_into, category, max_strands, max_length)
        edges = _reference_edges(category, node, forward, max_strands, max_length)
        first = {}
        for move, res in edges:
            first.setdefault(res, move)
        for res, move in first.items():
            assert step_into(node, forward, {res}) == (move, res)
        assert step_into(node, forward, first) == (edges[0] if edges else None)
        wider = {res for _, res in _reference_edges(
            category, node, True, max_strands + 1, max_length + 2)}
        assert step_into(node, forward, wider - set(first)) is None

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_search_results_are_the_edges_results(self, data):
        """_search_results gives the neighbours of the reference edges;
        given have, it keeps every one whose (n, length) is in have, and
        with an empty have it runs no move at all."""
        w = free_reduce(data.draw(words(min_n=2, max_n=4, max_len=10,
                                        categories=MARKOV_CATEGORIES)))
        max_strands = w.n + data.draw(st.integers(0, 2))
        max_length = data.draw(st.integers(max(0, len(w) - 2), len(w) + 6))
        node, forward = (w.n, encode_word(w)), data.draw(st.booleans())
        args = (w.category, max_strands, max_length, node, forward)
        edges = {res for _, res in _reference_edges(
            w.category, node, forward, max_strands, max_length)}
        assert set(_search_results(*args, None)) == edges
        have = data.draw(st.dictionaries(
            st.integers(w.n - 1, w.n + 1),
            st.sets(st.integers(0, max_length), max_size=4)))
        got = set(_search_results(*args, have))
        assert got <= edges
        assert {(m, res) for m, res in edges if len(res) in have.get(m, ())} <= got
        # no move touches the codes with an empty have; without one, every
        # node gets at least its conjugations built
        log = []
        probe = (*args[:3], (w.n, _Recording(node[1], log)), forward)
        assert _search_results(*probe, {}) == []
        assert log == []
        assert set(_search_results(*probe, None)) == edges
        assert log

    def test_a_relation_move_need_not_invert(self):
        # free reduction eats into the substituted side, so the inverse step
        # no longer fits, and the search refuses the edge backward
        w = ft("c2 b2 b1 b2", 3)
        step = RewriteStep("twisted.commute[1,2]", True, 2)
        move = MarkovMove(MoveKind.BRAID_RELATION, True, step=step)
        out = apply_markov_move(w, move)
        assert out == ft("c2 b1", 3)
        with pytest.raises(Mismatch):
            apply_markov_move(out, move.inverse())
        node, res = (3, encode_word(w)), (3, encode_word(out))
        assert (move, res) in _reference_edges(Category.FLAT_TWISTED, node, True, 3, 10)
        assert (move, res) not in _reference_edges(
            Category.FLAT_TWISTED, node, False, 3, 10)
        assert _step_into(Category.FLAT_TWISTED, 3, 10, node, True, {res}) == (move, res)
        assert _step_into(Category.FLAT_TWISTED, 3, 10, node, False, {res}) is None

    @given(splice_nodes(), st.booleans(), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=400, deadline=None)
    def test_seam_splices_are_exact(self, case, forward, over, under):
        """Reducing a splice at its two seams gives the full free reduction,
        and a backward edge whose seams did not cancel needs no replay."""
        category, n, data = case
        args = (data, _search_rules(category, n), forward,
                max(0, len(data) + over), max(0, len(data) + under))
        assert _relation_steps(*args) == _reference_relation_steps(*args)

    @given(splice_nodes(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_relation_steps_use_reduced_sides_only(self, case, forward):
        """The search reads the full presentation's own index, pair and
        involution rules included, yet every step on a freely reduced word
        comes from an entry with two non-empty, freely reduced sides."""
        category, n, data = case
        rules = _search_rules(category, n)
        assert rules is full_presentation(FULL_FAMILY[category], n)._rules
        assert any(not src or not dst for _, _, src, dst in rules[0])
        for (i, _), _ in _relation_steps(data, rules, forward, len(data) + 4, 0):
            _, _, src, dst = rules[0][i]
            assert src and dst
            assert reduce_codes(src) == src and reduce_codes(dst) == dst

    @pytest.mark.parametrize("word, pos, result", [
        (ft("c2 b2 b1 b2", 3), 2, "c2 b1"),  # the left seam eats into dst
        (ft("v1 b2 b1 b2 b1 v1", 3), 1, ""),  # the right seam runs through
        (ft("v1 b2 b1 b2 b1 v1", 3), 3, ""),  # dst goes whole, then the seams meet
        (tw("S1 S2 s1 s2 s1", 3), 2, "s2"),  # two letters of dst cancel
        (tw("S1 S2 s1 s2 s1 S2", 3), 2, ""),  # both seams, dst whole
    ])
    def test_seam_splices_that_cancel(self, word, pos, result):
        data = encode_word(word)
        rules = _search_rules(word.category, word.n)
        for forward in (True, False):
            got = _relation_steps(data, rules, forward, 20, 0)
            assert got == _reference_relation_steps(data, rules, forward, 20, 0)
        out = encode_word(parse_word(result, word.n, word.category))
        assert (pos, out) in [(p, res) for (_, p), res in
                              _relation_steps(data, rules, True, 20, 0)]

    @given(words(max_n=3, max_len=8, categories=MARKOV_CATEGORIES))
    @settings(max_examples=100, deadline=None)
    def test_codec_free_reduction(self, a):
        x = encode_word(free_reduce(a))
        assert reduce_codes(encode_word(a)) == x
        # x^-1 cancels x entirely
        assert reduce_codes(x + encode_word(invert(free_reduce(a)))) == b""


_COMMUTE = MarkovMove(MoveKind.BRAID_RELATION,
                      step=RewriteStep("twisted.commute[1,2]", True, 0))

# other rule names for a mutated step
_RULES = ("no.such.rule", "pair.v1", "twisted.involution[1]",
          "twisted.commute[1,2]", "virtual.involution[1]")


def _retyped(value):
    """The same value as another type (``True == 1 == 1.0``)."""
    if type(value) is bool:
        return int(value)
    return bool(value) if value in (0, 1) else float(value)


@st.composite
def mutated_paths(draw):
    """(word, move, mutant, retyped): the word reached along a path, the
    path's next move, and that move with one field of it or of its step
    changed, to another value or, when retyped, to the same value as another
    type.  The path is the one the search finds to the end of a walk on
    search edges, or, as few searches end on a relation move, half the time
    the walk itself from a word with a relation side spliced in, taking
    relation edges where it can, and mutated at a relation move."""
    w = free_reduce(draw(words(max_n=3, max_len=5, categories=MARKOV_CATEGORIES)))
    data = encode_word(w)
    relation = w.n > 1 and draw(st.booleans())
    if relation:
        _, _, src, _ = draw(st.sampled_from(_search_rules(w.category, w.n)[0]))
        cut = draw(st.integers(0, len(data)))
        data = reduce_codes(data[:cut] + src + data[cut:])
        w = decode_word(data, w.n, w.category)
    node, walk = (w.n, data), []
    for _ in range(draw(st.integers(1, 2))):
        edges = _reference_edges(w.category, node, True, 4, 20)
        relations = [e for e in edges if _relation(e)]
        move, node = draw(st.sampled_from(relations if relation and relations else edges))
        walk.append(move)
    path = tuple(walk)
    if not relation:
        found = markov_equivalent_bounded(
            w, decode_word(node[1], node[0], w.category), max_nodes=2000)
        path = found.path or path
    at = draw(st.sampled_from([
        i for i, m in enumerate(path)
        if not relation or m.kind is MoveKind.BRAID_RELATION] or [0]))
    move = path[at]
    fields = ["kind", "forward", "index", "sign", "step"]
    if move.step is not None:
        fields += ["rule", "step forward", "pos"]
    field, retyped = draw(st.sampled_from(fields)), draw(st.booleans())
    if field == "kind":
        mutant = dataclasses.replace(
            move, kind=draw(st.sampled_from([k for k in MoveKind if k is not move.kind])))
    elif field == "step":
        mutant = dataclasses.replace(move, step=None if move.step else draw(
            st.sampled_from([RewriteStep(rule, True, 0) for rule in _RULES])))
    elif field in ("forward", "index", "sign"):
        value = getattr(move, field)
        other = not value if field == "forward" else value + draw(st.sampled_from([-1, 1]))
        mutant = dataclasses.replace(move, **{field: _retyped(value) if retyped else other})
    else:
        step = move.step
        if field == "rule":
            step = dataclasses.replace(step, rule=draw(
                st.sampled_from([r for r in _RULES if r != step.rule])))
        elif field == "step forward":
            step = dataclasses.replace(
                step, forward=_retyped(step.forward) if retyped else not step.forward)
        else:
            step = dataclasses.replace(step, pos=_retyped(step.pos) if retyped else
                                       step.pos + draw(st.sampled_from([-1, 1])))
        mutant = dataclasses.replace(move, step=step)
    retyped = retyped and field in ("forward", "index", "sign", "step forward", "pos")
    return replay_markov_path(w, path[:at]), move, mutant, retyped


class TestMalformedMoves:
    @pytest.mark.parametrize(
        "move",
        [
            MarkovMove(MoveKind.RIGHT_REAL_STAB, True, 2, sign=0),
            MarkovMove(MoveKind.RIGHT_REAL_STAB, True, 2, sign=7),
            MarkovMove(MoveKind.RIGHT_REAL_STAB, False, 1, sign=2),
            MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, True, 2, sign=1),
            MarkovMove(MoveKind.RIGHT_UNDER_THREAD, True, 2, sign=-1),
            MarkovMove(MoveKind.VIRTUAL_CONJ, index=1, sign=1),
            MarkovMove(MoveKind.REAL_CONJ, True, 1, sign=-1),
            MarkovMove(MoveKind.BRAID_RELATION),
            MarkovMove(MoveKind.BRAID_RELATION, False, sign=1,
                       step=RewriteStep("braid.cancel[1]", False, 0)),
            MarkovMove(MoveKind.REAL_CONJ, True, 2),  # no crossing 2
            MarkovMove(MoveKind.TWISTED_CONJ, index=3),  # no strand 3
            MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, True, 3),  # index is n
            MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, False, 1),  # no v1 suffix
            MarkovMove(MoveKind.RIGHT_REAL_STAB, False, 1, -1),  # s1, not S1
            MarkovMove(MoveKind.FLAT_CONJ, index=1),  # flat move, twisted word
        ],
        ids=lambda m: f"{m.kind.value}-{m.forward}-{m.index}-{m.sign}-{m.step}",
    )
    def test_malformed_move_rejected(self, move):
        with pytest.raises(Mismatch):
            replay_markov_path(tw("s1", 2), (move,))

    @pytest.mark.parametrize("word, n, move, message", [
        ("", 1, MarkovMove(MoveKind.BRAID_RELATION,
                           step=RewriteStep("pair.b1", True, 0)),
         "no relations on a single strand"),
        ("b1", 1, MarkovMove(MoveKind.RIGHT_UNDER_THREAD, True, 1),
         "threading needs at least two strands"),
        ("b1", 1, MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, False, 0),
         "no strand to remove"),
        ("s1", 2, MarkovMove(MoveKind.RIGHT_UNDER_THREAD, False, 1),
         "no strand to remove"),
    ])
    def test_too_few_strands_refused(self, word, n, move, message):
        with pytest.raises(Mismatch) as err:
            apply_markov_move(tw(word, n), move)
        assert type(err.value) is Mismatch
        assert str(err.value) == message

    # each bad move differs from the good one in one field, which a replay,
    # a render or a single application must not ignore or read as the good
    # value
    @pytest.mark.parametrize("word, good, bad", [
        (tw("s1 v1", 2), MarkovMove(MoveKind.VIRTUAL_CONJ, index=1),
         MarkovMove(MoveKind.VIRTUAL_CONJ, index=1,
                    step=RewriteStep("no.such.rule", True, 99))),
        (tw("s1", 2), MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, True, 2),
         MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, True, 2,
                    step=RewriteStep("pair.v1", True, 0))),
        (tw("s1", 2), MarkovMove(MoveKind.TWISTED_CONJ, index=1),
         MarkovMove(MoveKind.TWISTED_CONJ, False, 1)),
        (tw("b1 b2", 2), _COMMUTE, dataclasses.replace(_COMMUTE, forward=False)),
        (tw("b1 b2", 2), _COMMUTE, dataclasses.replace(_COMMUTE, index=7)),
        (tw("s1", 2), MarkovMove(MoveKind.REAL_CONJ, True, 1),
         MarkovMove(MoveKind.REAL_CONJ, 1, 1)),
        (tw("s1", 2), MarkovMove(MoveKind.REAL_CONJ, True, 1),
         MarkovMove(MoveKind.REAL_CONJ, True, True)),
        (tw("s1 v1", 2), MarkovMove(MoveKind.REAL_CONJ, True, 1),
         MarkovMove(MoveKind.REAL_CONJ, 1, True)),
        (tw("s1 v1", 2), MarkovMove(MoveKind.REAL_CONJ, True, 1),
         MarkovMove("RealConj", True, 1)),
        (tw("s1", 2), MarkovMove(MoveKind.RIGHT_REAL_STAB, True, 2, 1),
         MarkovMove(MoveKind.RIGHT_REAL_STAB, True, 2, 1.0)),
        (tw("b1 b2", 2), _COMMUTE, dataclasses.replace(
            _COMMUTE, step=RewriteStep("twisted.commute[1,2]", True, False))),
        (tw("b1 b2", 2), _COMMUTE, dataclasses.replace(
            _COMMUTE, step=RewriteStep("twisted.commute[1,2]", 1, 0))),
    ])
    def test_one_bad_field_is_refused(self, word, good, bad):
        replay_markov_path(word, (good,))
        render_markov_path(word, (good,))
        apply_markov_move(word, good)
        with pytest.raises(Mismatch):
            replay_markov_path(word, (bad,))
        with pytest.raises(Mismatch):
            render_markov_path(word, (bad,))
        with pytest.raises(Mismatch):
            apply_markov_move(word, bad)

    @given(mutated_paths())
    @settings(max_examples=300, deadline=None)
    def test_a_mutated_move_is_refused_or_describes_differently(self, case):
        """No certificate prints one move and replays as another: changing
        one field of a found path's move, or of its step, makes the move
        fail to replay or print differently, and a field of the wrong type
        (which ``_compile``'s cache would take for the right one) fails."""
        before, move, mutant, retyped = case
        try:
            replay_markov_path(before, (mutant,))
        except Mismatch:
            return
        assert not retyped and mutant.describe() != move.describe()

    def test_well_formed_stabilizations_still_apply(self):
        plus = MarkovMove(MoveKind.RIGHT_REAL_STAB, True, 2, sign=1)
        minus = MarkovMove(MoveKind.RIGHT_REAL_STAB, True, 2, sign=-1)
        assert replay_markov_path(tw("s1", 2), (plus,)) == tw("s1 s2", 3)
        assert replay_markov_path(tw("s1", 2), (minus,)) == tw("s1 S2", 3)


def _compile_outcome(category, n, move):
    """The op ``_compile`` makes of a move, or the exact refusal."""
    try:
        return repr(markov._compile(category, n, move))
    except Mismatch as err:
        return f"{type(err).__name__}: {err}"


def test_kernel_and_refusals_are_pinned():
    """The kernel's (move, op) pairs in order, and ``_compile``'s outcome,
    the op or the exact refusal, on every kind x direction x index -1..n+1
    x sign -2..2 x step or none, for both categories at n = 1..6."""
    digest = hashlib.sha256()
    steps = (None, RewriteStep("pair.v1", True, 0))
    for category in MARKOV_CATEGORIES:
        for n in range(1, 7):
            for move, op in _kernel(category, n):
                digest.update(f"{move.describe()}|{op!r}\n".encode())
            for kind, forward, index, sign, step in itertools.product(
                    MoveKind, (True, False), range(-1, n + 2), range(-2, 3), steps):
                move = MarkovMove(kind, forward, index, sign, step)
                outcome = _compile_outcome(category, n, move)
                digest.update(f"{category.value}|{n}|{move}|{outcome}\n".encode())
    assert digest.hexdigest() == (
        "db41d29fed333305960e57cb00a1da345685a63184bb9384802c64858171d925")


class TestMoveSoundness:
    @given(words(max_n=3, max_len=6, categories=MARKOV_CATEGORIES))
    @settings(max_examples=60, deadline=None)
    def test_closure_invariants_survive_every_move(self, w):
        base_code = closure_code(w)
        base_components = closure_permutation(w).component_count
        base_sigma = sigma_exponent_sum(w)
        base_parities = sorted(bar_parity_per_component(w).values())
        for m, res in markov_neighbors(w):
            assert gauss_equivalent(base_code, closure_code(res)), m.describe()
            assert closure_permutation(res).component_count == base_components
            assert sorted(bar_parity_per_component(res).values()) == base_parities
            if m.kind is MoveKind.RIGHT_REAL_STAB:
                assert abs(sigma_exponent_sum(res) - base_sigma) == 1
            else:
                assert sigma_exponent_sum(res) == base_sigma

    @given(words(max_n=3, max_len=6, categories=MARKOV_CATEGORIES))
    @settings(max_examples=30, deadline=None)
    def test_closure_code_equivalent_accepts_every_move(self, w):
        assert closure_code_equivalent(w, w)
        for m, res in markov_neighbors(w):
            assert closure_code_equivalent(w, res), m.describe()

    def test_closure_code_equivalent_misses_a_relation(self):
        # equal in the group by the bar sandwich, which is no Markov move
        assert not closure_code_equivalent(tw("s2 v2 s2 v2 s1 S2 s1", 3),
                                           tw("s2 b2 b3 s2 b3 b2 s1 S2 s1", 3))


class TestNormalizeCode:
    def test_kink_is_removed(self):
        code = closure_code(tw("s1", 2))
        assert code.crossing_count == 0
        assert len(code.components) == 1

    def test_cancelling_pair_is_removed(self):
        code = closure_code(tw("s1 S1", 2))
        assert code.crossing_count == 0
        assert len(code.components) == 2

    def test_bar_pair_is_removed(self):
        code = closure_code(tw("b1 b1", 1))
        assert code.bar_count == 0
        assert len(code.components) == 1

    def test_lone_bar_survives(self):
        code = closure_code(tw("b1", 1))
        assert code.bar_count == 1

    def test_clasp_is_not_a_cancelling_pair(self):
        # same-sign double crossing: no strand passes fully over, keep it
        O, U = Role.OVER, Role.UNDER
        clasp = TwistedGaussCode(
            (
                (CrossingVisit(1, O, 1), CrossingVisit(2, O, 1)),
                (CrossingVisit(1, U, 1), CrossingVisit(2, U, 1)),
            ),
            flat=False,
        )
        assert normalize_code(clasp) == clasp

    def test_flat_double_crossing_cancels(self):
        F, S = Role.FIRST, Role.SECOND
        poke = TwistedGaussCode(
            (
                (CrossingVisit(1, F, None), CrossingVisit(2, F, None)),
                (CrossingVisit(1, S, None), CrossingVisit(2, S, None)),
            ),
            flat=True,
        )
        out = normalize_code(poke)
        assert out.crossing_count == 0
        assert len(out.components) == 2

    def test_kink_with_one_clean_side_is_removed(self):
        # the bar-free side of the crossing is the kink loop; the bar rides
        # the main strand and survives
        O, U = Role.OVER, Role.UNDER
        code = TwistedGaussCode(
            ((CrossingVisit(1, O, 1), BAR_MARK, CrossingVisit(1, U, 1)),),
            flat=False,
        )
        assert normalize_code(code).components == ((BAR_MARK,),)

    def test_bars_on_both_sides_block_kink_removal(self):
        # bars cannot slide past a classical crossing, so a kink with a bar
        # on each side of the crossing is stuck
        O, U = Role.OVER, Role.UNDER
        code = TwistedGaussCode(
            (
                (CrossingVisit(1, O, 1), BAR_MARK,
                 CrossingVisit(1, U, 1), BAR_MARK),
            ),
            flat=False,
        )
        assert normalize_code(code) == code


class TestSearch:
    def test_destabilization_to_the_empty_word(self):
        out = markov_equivalent_bounded(tw("s1", 2), EMPTY1, 3, 10, 10**6)
        assert out.equal
        assert len(out.path) == 1
        assert replay_markov_path(tw("s1", 2), out.path) == EMPTY1

    def test_conjugate_found_in_one_move(self):
        w = tw("s1 b2", 2)
        conj = free_reduce(tw("v1 s1 b2 v1", 2))
        out = markov_equivalent_bounded(w, conj)
        assert out.equal and len(out.path) == 1

    def test_identical_words_equal_immediately(self):
        w = tw("b1 s1", 2)
        out = markov_equivalent_bounded(w, w)
        assert out.equal and out.path == ()

    def test_category_mismatch(self):
        with pytest.raises(Mismatch):
            markov_equivalent_bounded(tw("s1", 2), ft("c1", 2))

    def test_non_markov_category_is_refused(self):
        w = parse_word("s1", n=2, category=Category.VIRTUAL)
        with pytest.raises(CategoryViolation):
            markov_equivalent_bounded(w, w)

    def test_unknown_under_tiny_bounds(self):
        # bar parity differs, so no path exists at all
        out = markov_equivalent_bounded(tw("b1", 1), EMPTY1, 2, 6, 50)
        assert not out.equal
        assert out.label == "Unknown"

    def test_explored_counts_expanded_nodes(self):
        # on one strand b1 has no move that stays inside the bounds, so
        # the search expands b1 once and runs out of frontier
        out = markov_equivalent_bounded(tw("b1", 1), EMPTY1, 1, 2, 40)
        assert not out.equal
        assert out.explored == 1

    # (equal, explored, len(path)) as the Generator-level search gave them
    @pytest.mark.parametrize(
        "left, right, bounds, pinned",
        [
            (tw("s1 b2 v1", 2), tw("v1 s1 b2 v2", 3), (None, None, 300), (True, 2, 2)),
            (tw("b1 v1 s1", 2), tw("s1 v1 b2", 2), (None, None, 300), (True, 2, 2)),
            (ft("c1 b1 v1 c1", 2), ft("b1 v1 c2", 3), (None, None, 300), (True, 2, 2)),
            (tw("s1 s1 s1", 2), tw("s1", 2), (None, None, 100), (False, 100, 0)),
            (tw("b1", 1), EMPTY1, (3, 8, 80), (False, 80, 0)),
        ],
    )
    def test_search_is_deterministic(self, left, right, bounds, pinned):
        first = markov_equivalent_bounded(left, right, *bounds)
        second = markov_equivalent_bounded(left, right, *bounds)
        assert first == second
        assert (first.equal, first.explored, len(first.path)) == pinned
        if first.equal:
            assert replay_markov_path(left, first.path) == free_reduce(right)

    # (equal, explored, SHA-256 of the moves' describe() joined by ";") at
    # 10 nodes.  Both searches meet inside the level where the budget runs
    # out: the first while expanding from left, the second from right.
    @pytest.mark.parametrize(
        "left, right, pinned",
        [
            (tw("b1", 2), tw("b2", 2),
             (True, 6, "318030339d506c5d86bb008d21991b3939d45339c2e5c771c6b711b64c2211aa")),
            (ft("c2", 3), ft("v1", 3),
             (True, 7, "38ba6037c824568c908ea7dd71c52ab8a0ef8e5db4673f9ff9a21b8a5d5f8c5b")),
        ],
    )
    def test_final_level_meeting_is_pinned(self, left, right, pinned):
        out = markov_equivalent_bounded(left, right, max_nodes=10)
        moves = ";".join(m.describe() for m in out.path)
        digest = hashlib.sha256(moves.encode()).hexdigest()
        assert (out.equal, out.explored, digest) == pinned
        assert replay_markov_path(left, out.path) == free_reduce(right)

    def test_strand_bound_must_stay_inside_the_codec(self):
        w = tw("s1", 2)
        assert markov_equivalent_bounded(w, w, max_strands=_INDEX_SPAN - 1).equal
        with pytest.raises(UnsupportedN):
            markov_equivalent_bounded(w, w, max_strands=_INDEX_SPAN)
        wide = BraidWord(_INDEX_SPAN, (), Category.TWISTED)
        with pytest.raises(UnsupportedN):
            markov_equivalent_bounded(wide, wide, max_strands=2)

    def test_strand_bound_below_a_word_is_refused(self):
        a, b = tw("s1 s2", 3), tw("s2 s1", 3)
        assert markov_equivalent_bounded(a, b, max_strands=3).equal
        for bound in (2, 0):
            with pytest.raises(Mismatch):
                markov_equivalent_bounded(a, b, max_strands=bound)

    def test_deeper_digest_is_pinned(self):
        # the Markov pairs of tools/cert_digest.py at 2,000 nodes a pair
        path = Path(__file__).resolve().parent.parent / "tools" / "cert_digest.py"
        spec = importlib.util.spec_from_file_location("cert_digest", path)
        cert_digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cert_digest)
        assert cert_digest.markov_digest(2000) == (
            44, 35, "2ec745b0cfafb58452eb6c807e2770ad421993370e805657dec23d60e0d2ec05",
        )

    @pytest.mark.parametrize("inst", ["t1_a", "t1_b", "t3_a", "t3_b"])
    def test_braided_move_instances_are_equal(self, inst):
        left = braid(shipped_diagram(f"move_{inst}_left"))
        right = braid(shipped_diagram(f"move_{inst}_right"))
        out = markov_equivalent_bounded(left, right)
        assert out.equal
        assert replay_markov_path(left, out.path) == free_reduce(right)

    def test_reversed_path_certifies_the_other_direction(self):
        left = braid(shipped_diagram("move_t3_a_left"))
        right = braid(shipped_diagram("move_t3_a_right"))
        out = markov_equivalent_bounded(left, right)
        back = tuple(m.inverse() for m in reversed(out.path))
        assert replay_markov_path(free_reduce(right), back) == free_reduce(left)

    @pytest.mark.parametrize(
        "left, right, moves",
        [
            (tw("b1 b1 s1 s2 s1", 3), tw("s2 s1 s2", 3), ["rel braid.braid[1] -> @0"]),
            (tw("s1 b1 b1", 2), tw("s1", 2), []),
        ],
    )
    def test_unreduced_first_word_replays(self, left, right, moves):
        out = markov_equivalent_bounded(left, right)
        assert out.equal
        assert [m.describe() for m in out.path] == moves
        assert replay_markov_path(left, out.path) == free_reduce(right)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_certificates_replay_from_any_spelling(self, data):
        w = free_reduce(data.draw(words(max_n=3, max_len=5, categories=MARKOV_CATEGORIES)))
        neighbors = sorted(markov_neighbors(w), key=lambda mr: mr[0].describe())
        _, res = data.draw(st.sampled_from(neighbors))
        w1, w2 = _padded(data.draw, w), _padded(data.draw, res)
        out = markov_equivalent_bounded(w1, w2)
        assert out.equal
        assert replay_markov_path(w1, out.path) == free_reduce(w2)
        lines = render_markov_path(w1, out.path)
        assert lines[0] == f"start ({w.n} strands): {w or 'empty'}"
        assert len(lines) == len(out.path) + 1

    def test_render_path_lines(self):
        w = tw("s1", 2)
        out = markov_equivalent_bounded(w, EMPTY1)
        lines = render_markov_path(w, out.path)
        assert lines[0].startswith("start (2 strands)")
        assert lines[-1].endswith("empty")

    @given(words(max_n=3, max_len=5, categories=MARKOV_CATEGORIES))
    @settings(max_examples=25, deadline=None)
    def test_search_finds_single_moves(self, w):
        w = free_reduce(w)
        neighbors = sorted(
            markov_neighbors(w),
            key=lambda mr: (mr[0].kind.value, mr[0].index, mr[0].forward),
        )
        for m, res in neighbors[:3]:
            out = markov_equivalent_bounded(w, res)
            assert out.equal
            assert replay_markov_path(w, out.path) == res
