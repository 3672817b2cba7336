"""Markov moves and bounded stable-equivalence search for braid words.

Two braid words close to the same twisted link exactly when they are related
by a finite sequence of in-group rewrites and Markov moves: conjugation by a
generator, right stabilization (a new top strand attached by a single
virtual, classical, or flat crossing), and the two under-threading moves
that pass the new top strand underneath its neighbours.  This module emits
those moves on words, searches for move paths between words bidirectionally,
and provides the closure-code normalizer used to check move soundness.

A move acts on the freely reduced word, since braids are group elements.
Stabilizations and threadings attach a fresh strand, so their outputs live
on ``n + 1`` strands and the suffix letters are indexed in the enlarged
group; the inverse moves strip that suffix and are applicable only when
the rest of the word never touches the top strand.

Each move kind is one row of ``_MOVES``: the category it needs and what it
writes.  Moves run on the one-byte letter codec of ``words``: ``_compile``
checks a move once per (category, strand count) and compiles it into a
wrap, an append, a suffix strip or a relation step, and one kernel,
``_run``, applies it to freely reduced codes.  The moves a search tries,
``_kernel``, are the candidates ``_compile`` accepts.  Search nodes are
``(n, bytes)`` pairs.  ``_search_results`` expands them into results only,
at the final level only by the moves that can reach a length the other side
has per strand count (``_length_profile``); it runs
the wraps, appends and strips inline, and reduces a relation splice only at
its two seams, as the node and every rule side are freely reduced.
``_step_into`` builds the moves of the returned path only: it tries the
kernel's moves in order through ``_run``, whose full ``reduce_codes`` stays
the reference that every path replays by, then the relation steps by
(entry, position).  ``apply_markov_move`` refuses a field of the wrong type,
and ``_compile`` every field a move kind does not use, so a move that
replays is the move that ``describe()`` prints.

Every move output is freely reduced, so a conjugation or (de)stabilization
is exactly invertible: each group element has one freely reduced word, and
a stabilization's suffix starts on the fresh strand, so it cancels nothing.
A relation move need not be: flat twisted ``c2 b2 b1 b2`` goes to ``c2 b1``
under ``twisted.commute[1,2]`` at 2, and the inverse step does not fit that.
A backward step enters a path inverted, so the search checks only its
backward relation steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .diagram import (
    BAR_MARK,
    CrossingVisit,
    TwistedGaussCode,
    closure_diagram,
    gauss_code,
    gauss_equivalent,
)
from .presentations import (
    FULL_FAMILY,
    Mismatch,
    RewriteStep,
    SearchOutcome,
    _bidirectional,
    _check_bounds,
    _check_step,
    _rule_index,
    _RuleIndex,
    _substitutions,
    apply_step,
    full_presentation,
)
from .words import (
    CODE_ORDER,
    CODE_PARTNER,
    CODE_REACH,
    BraidWord,
    Category,
    CategoryViolation,
    IdentityEnum,
    Kind,
    check_strands,
    code,
    decode_word,
    encode_letters,
    encode_word,
    free_reduce,
    max_index,
    parse_word,
    reduce_codes,
)

class MoveKind(IdentityEnum):
    VIRTUAL_CONJ = "VirtualConj"
    REAL_CONJ = "RealConj"
    TWISTED_CONJ = "TwistedConj"
    FLAT_CONJ = "FlatConj"
    RIGHT_VIRTUAL_STAB = "RightVirtualStab"
    RIGHT_REAL_STAB = "RightRealStab"
    RIGHT_FLAT_STAB = "RightFlatStab"
    RIGHT_UNDER_THREAD = "RightUnderThread"
    LEFT_UNDER_THREAD = "LeftUnderThread"
    RIGHT_FLAT_THREAD = "RightFlatThread"
    LEFT_FLAT_THREAD = "LeftFlatThread"
    BRAID_RELATION = "BraidRelation"


_SELF_INVERSE = (MoveKind.VIRTUAL_CONJ, MoveKind.TWISTED_CONJ, MoveKind.FLAT_CONJ)


@dataclass(frozen=True, slots=True)
class MarkovMove:
    """One move instance.

    ``index`` is the conjugating generator's index for conjugations and the
    fresh top letter's index for stabilizations/threadings (equal to the
    smaller word's strand count).  ``sign`` distinguishes the two classical
    stabilizations (+1 or -1) and is 0 for every other kind.  ``step``
    carries the rewrite payload when the move is a braid relation applied
    in place; such a move has index 0 and runs in its step's direction.  No
    other kind carries a step, and a self-inverse conjugation runs forward.
    """

    kind: MoveKind
    forward: bool = True
    index: int = 0
    sign: int = 0
    step: RewriteStep | None = None

    def inverse(self) -> MarkovMove:
        if self.kind in _SELF_INVERSE:
            return self
        step = self.step and self.step.inverse()
        return MarkovMove(self.kind, not self.forward, self.index, self.sign, step)

    def describe(self) -> str:
        if self.kind is MoveKind.BRAID_RELATION:
            arrow = "->" if self.step.forward else "<-"
            return f"rel {self.step.rule} {arrow} @{self.step.pos}"
        tags = [f"i={self.index}"]
        if self.kind is MoveKind.RIGHT_REAL_STAB:
            tags.append("+" if self.sign > 0 else "-")
        if self.kind not in _SELF_INVERSE:
            tags.append("forward" if self.forward else "inverse")
        return f"{self.kind.value}({', '.join(tags)})"


def _node_key(node: tuple[int, bytes]):
    """Sort key of a search node: orders nodes as
    ``(n, ((kind.value, index), ...))`` does."""
    return node[0], node[1].translate(CODE_ORDER)


# ---------------------------------------------------------------------------
# the move kernel: compile a move for a (category, n), run it on codes


def _search_rules(category: Category, n: int) -> _RuleIndex:
    """The rule index that the full presentation on n strands owns, or none
    on one strand.  On a freely reduced word, ``_relation_steps`` steps only
    by rules with two non-empty sides: an empty src is an insertion, which
    it never scans, and a src beside an empty dst is a cancelling pair,
    which no freely reduced word contains.  A src found in a freely reduced
    word is freely reduced, as is every non-empty side of a full relation."""
    if n < 2:
        return _rule_index({})
    return full_presentation(FULL_FAMILY[category], n)._rules


# every move kind: the category it needs (None for either) and what it
# writes, a conjugation's letter kind or a (de)stabilization's suffix in
# tokens, with t the fresh top index and u = t - 1 (a suffix that uses u
# is a threading); the kernel lists its moves in this order
_MOVES = {
    MoveKind.VIRTUAL_CONJ: (None, Kind.V),
    MoveKind.REAL_CONJ: (Category.TWISTED, Kind.SIGMA),
    MoveKind.FLAT_CONJ: (Category.FLAT_TWISTED, Kind.C),
    MoveKind.TWISTED_CONJ: (None, Kind.B),
    MoveKind.RIGHT_VIRTUAL_STAB: (None, "v{t}"),
    MoveKind.RIGHT_REAL_STAB: (Category.TWISTED, "s{t}"),
    MoveKind.RIGHT_FLAT_STAB: (Category.FLAT_TWISTED, "c{t}"),
    MoveKind.RIGHT_UNDER_THREAD: (Category.TWISTED, "S{t} v{u} s{t}"),
    MoveKind.LEFT_UNDER_THREAD:
        (Category.TWISTED, "v{t} v{u} s{u} v{t} S{u} v{u} v{t}"),
    MoveKind.RIGHT_FLAT_THREAD: (Category.FLAT_TWISTED, "c{t} v{u} c{t}"),
    MoveKind.LEFT_FLAT_THREAD:
        (Category.FLAT_TWISTED, "v{t} v{u} c{u} v{t} c{u} v{u} v{t}"),
    MoveKind.BRAID_RELATION: (None, None),
}

# compiled move: (op, strand count of the output, a, b) where op is
#   _WRAP      a + word + b
#   _APPEND    word + a
#   _STRIP     word minus its suffix a, the rest must fit on the output's
#              strands
#   _RELATION  apply_step(word, a, b): a is the step, b the rule table
_WRAP, _APPEND, _STRIP, _RELATION = range(4)


@lru_cache(maxsize=1 << 14)
def _compile(category: Category, n: int, move: MarkovMove) -> tuple:
    """Check everything about a move on ``n``-strand words of a category
    that does not depend on the letters, and compile it for ``_run``.
    Raises Mismatch when the move cannot apply to any such word."""
    kind = move.kind
    needs, writes = _MOVES[kind]
    if needs not in (None, category):
        raise Mismatch(f"{kind.value} needs a {needs.value.replace('_', ' ')} word")
    if kind is MoveKind.RIGHT_REAL_STAB:
        if move.sign not in (1, -1):
            raise Mismatch(f"{kind.value} has sign +1 or -1, not {move.sign}")
    elif move.sign != 0:
        raise Mismatch(f"{kind.value} has no sign, got {move.sign}")

    if kind is MoveKind.BRAID_RELATION:
        if move.step is None:
            raise Mismatch("a relation move needs a rewrite step")
        if move.index != 0:
            raise Mismatch(f"{kind.value} has no index, got {move.index}")
        if move.forward != move.step.forward:
            raise Mismatch(f"{kind.value} runs in its step's direction")
        if n < 2:
            raise Mismatch("no relations on a single strand")
        return _RELATION, n, move.step, full_presentation(FULL_FAMILY[category], n).table
    if move.step is not None:
        raise Mismatch(f"{kind.value} carries no rewrite step")
    if kind in _SELF_INVERSE and not move.forward:
        raise Mismatch(f"{kind.value} is its own inverse and runs forward only")

    if isinstance(writes, Kind):
        if not 1 <= move.index <= max_index(writes, n):
            raise Mismatch(f"index {move.index} out of range on {n} strands")
        g = code(writes, move.index)
        # w -> g^-1 w g forward; _run needs b to be a's partner
        a, b = (CODE_PARTNER[g], g) if move.forward else (g, CODE_PARTNER[g])
        assert CODE_PARTNER[a] == b
        return _WRAP, n, bytes((a,)), bytes((b,))

    # a (de)stabilization: writes is its suffix pattern, a threading's uses u
    thread = "{u}" in writes
    top = n if move.forward else n - 1  # the index of the fresh top letter
    if move.forward:
        if move.index != n:
            raise Mismatch(
                f"stabilization of a {n}-strand word has index {n}"
            )
        if thread and n < 2:
            raise Mismatch("threading needs at least two strands")
    elif move.index != n - 1:
        raise Mismatch(
            f"destabilization of a {n}-strand word has index {n - 1}"
        )
    elif n < 2 or (thread and n < 3):
        raise Mismatch("no strand to remove")
    text = writes.format(t=top, u=top - 1)
    suffix = encode_letters(parse_word(text, top + 1, category).letters)
    if move.sign < 0:  # the inverse letter
        suffix = suffix.translate(CODE_PARTNER)
    if not move.forward:  # strip the suffix, then drop the top strand
        return _STRIP, top, suffix, None
    assert CODE_REACH[suffix[0]] == n + 1  # so it cancels nothing
    return _APPEND, n + 1, suffix, None


def _run(op: tuple, data: bytes) -> bytes | None:
    """The move's output on freely reduced codes, freely reduced, or None
    when the move does not fit the word.  Only a wrap's one-letter seams and
    a relation step's splice can cancel."""
    action, n_out, a, b = op
    if action == _WRAP:  # b is a's partner
        res = data[1:] if data[:1] == b else a + data
        return res[:-1] if res[-1:] == a else res + b
    if action == _APPEND:
        return data + a
    if action == _STRIP:
        res = data[: len(data) - len(a)]
        if not data.endswith(a) or res and max(res.translate(CODE_REACH)) > n_out:
            return None  # no such suffix, or the prefix still uses the top strand
        return res
    try:
        return reduce_codes(apply_step(data, a, b))
    except Mismatch:
        return None


@lru_cache(maxsize=None)
def _kernel(category: Category, n: int) -> tuple[tuple[MarkovMove, tuple], ...]:
    """(move, compiled move) for every move that fits some ``n``-strand word:
    the candidates that ``_compile`` accepts, in ``_MOVES`` order, each
    conjugation at every index, then every stabilization forward and then
    inverse.  ``_compile`` alone decides which moves fit."""
    conjugations = [
        MarkovMove(kind, forward, i)
        for kind, (_, writes) in _MOVES.items() if isinstance(writes, Kind)
        for i in range(1, n + 1)
        for forward in ((True,) if kind in _SELF_INVERSE else (True, False))
    ]
    stabilizations = [
        MarkovMove(kind, forward, n if forward else n - 1, sign)
        for forward in (True, False)
        for kind, (_, writes) in _MOVES.items() if isinstance(writes, str)
        for sign in (1, -1, 0)
    ]
    out = []
    for move in conjugations + stabilizations:
        try:
            out.append((move, _compile(category, n, move)))
        except Mismatch:
            pass
    return tuple(out)


@lru_cache(maxsize=None)
def _kernel_plan(category: Category, n: int) -> tuple[tuple, tuple, tuple]:
    """``_kernel`` for ``_search_results``, one tuple per kind of compiled
    move: each conjugation's (a, b) wrap codes, and each stabilization's and
    each inverse stabilization's (strand count of the output, suffix)."""
    ops = [op for _, op in _kernel(category, n)]
    return tuple(tuple(op[2:] if action == _WRAP else op[1:3]
                       for op in ops if op[0] == action)
                 for action in (_WRAP, _APPEND, _STRIP))


# ---------------------------------------------------------------------------
# applying moves


def _check_category(category: Category) -> None:
    if category not in FULL_FAMILY:
        raise CategoryViolation(
            f"Markov moves need a twisted or flat twisted word, "
            f"got {category.value}"
        )


def apply_markov_move(w: BraidWord, move: MarkovMove) -> BraidWord:
    """Apply one move to the freely reduced word, freely reducing the result.

    Raises Mismatch when the move does not fit (bad index or sign, a freely
    reduced word without the suffix an inverse stabilization strips, or a
    prefix still touching the top strand).  A relation step's position
    indexes the freely reduced word.  ``apply_markov_move(apply_markov_move(
    w, m), m.inverse()) == free_reduce(w)`` whenever the first application
    fits, unless ``m`` is a relation move (module docstring).

    Also raises Mismatch on a field of the wrong type, which ``_compile``'s
    cache would read as the right one (``True == 1``): a kind that is no
    MoveKind, a forward, index or sign not exactly a bool or an int, or a
    malformed step (``_check_step``).
    """
    _check_category(w.category)
    if (not isinstance(move, MarkovMove) or not isinstance(move.kind, MoveKind)
            or type(move.forward) is not bool or type(move.index) is not int
            or type(move.sign) is not int):
        raise Mismatch(f"malformed move {move!r}")
    if move.step is not None:
        _check_step(move.step)
    op = _compile(w.category, w.n, move)
    out = _run(op, reduce_codes(encode_word(w)))
    if out is None:
        raise Mismatch(f"{move.describe()} does not fit {w.n}-strand word {w}")
    return decode_word(out, op[1], w.category)


def _walk_moves(w: BraidWord, path: tuple[MarkovMove, ...]):
    """Yield free_reduce(w) under no move, then each move and its word."""
    out = free_reduce(w)
    yield None, out
    for move in path:
        out = apply_markov_move(out, move)
        yield move, out


def replay_markov_path(
    w: BraidWord, path: tuple[MarkovMove, ...]
) -> BraidWord:
    """Apply a move path from the freely reduced word; raises Mismatch
    wherever a move is malformed or does not fit (``apply_markov_move``)."""
    *_, (_, out) = _walk_moves(w, path)
    return out


def render_markov_path(
    w: BraidWord, path: tuple[MarkovMove, ...]
) -> list[str]:
    """Human-readable ``replay_markov_path``: one line per word it passes."""
    return [f"{'start' if move is None else move.describe()} ({out.n} strands): "
            f"{out or 'empty'}" for move, out in _walk_moves(w, path)]


def markov_neighbors(w: BraidWord) -> set[tuple[MarkovMove, BraidWord]]:
    """Every single Markov move applicable to ``free_reduce(w)``, with its output.

    Outputs are freely reduced; stabilization outputs live on one strand
    more, destabilizations on one fewer.  Self-inverse conjugations appear
    once, directed moves in both directions.
    """
    _check_category(w.category)
    data = reduce_codes(encode_word(w))
    out = set()
    for move, op in _kernel(w.category, w.n):
        res = _run(op, data)
        if res is not None:
            out.add((move, decode_word(res, op[1], w.category)))
    return out


# ---------------------------------------------------------------------------
# bounded bidirectional search over (n, bytes) nodes


def _relation_steps(data: bytes, rules: _RuleIndex, forward: bool,
                    max_length: int, least: int) -> list:
    """((entry, pos), result) of each relation step on data whose splice is
    no shorter than least and reduces to at most max_length letters, in no
    order (a splice may shrink, so it gets 4 letters of headroom); backward,
    only the steps whose inverse takes the result back to data (module doc).

    data is freely reduced, rules with an empty side give no step, and
    every other side is freely reduced (``_search_rules``), so only
    the splice's two seams can cancel: dst against the prefix, then what is
    left against the suffix, each until the first pair that does not.  When
    neither seam cancels, the inverse step replays exactly."""
    out = []
    for i, pos, src, dst in _substitutions(data, rules, max_length + 4 - len(data)):
        size = len(data) - len(src) + len(dst)
        if size < least:
            continue
        head, tail = data[:pos], data[pos + len(src):]
        k = 0
        while k < pos and k < len(dst) and CODE_PARTNER[head[-1 - k]] == dst[k]:
            k += 1
        head = head[:pos - k] + dst[k:] if k else head + dst
        j = 0
        while j < len(head) and j < len(tail) and CODE_PARTNER[head[-1 - j]] == tail[j]:
            j += 1
        res = head[:len(head) - j] + tail[j:]
        if len(res) <= max_length and (forward or len(res) == size or (
                res[pos:pos + len(dst)] == dst and
                reduce_codes(res[:pos] + src + res[pos + len(dst):]) == data)):
            out.append(((i, pos), res))
    return out


def _length_profile(nodes) -> dict[int, set[int]]:
    """The lengths of the nodes' codes per strand count."""
    have: dict[int, set[int]] = {}
    for n, size in {(n, len(data)) for n, data in nodes}:
        have.setdefault(n, set()).add(size)
    return have


def _search_results(category: Category, max_strands: int, max_length: int,
                    node: tuple[int, bytes], forward: bool, have: dict | None) -> list:
    """The neighbours of a node, with repeats, in no order, and no move
    built: the outputs of the ``_kernel`` moves that fit on max_strands
    strands in max_length letters, its wraps, appends and strips run
    inline, and the results of ``_relation_steps``, whose splices reduce
    only at their seams.  Given ``have``, a ``_length_profile``, only the
    moves whose output can land in it run: a conjugation changes the length
    by -2, 0 or 2, a (de)stabilization by its suffix's length, a relation
    step's free reduction only shortens its splice."""
    n, data = node
    size = len(data)
    wraps, appends, strips = _kernel_plan(category, n)
    lengths = None if have is None else have.get(n, ())
    out = []
    if lengths is None or not {size - 2, size, size + 2}.isdisjoint(lengths):
        for a, b in wraps:  # b is a's partner
            res = data[1:] if data[:1] == b else a + data
            res = res[:-1] if res[-1:] == a else res + b
            if len(res) <= max_length:
                out.append((n, res))
    for m, a in appends:  # the suffix starts on the fresh strand
        if m <= max_strands and size + len(a) <= max_length and (
                have is None or size + len(a) in have.get(m, ())):
            out.append((m, data + a))
    for m, a in strips:  # the prefix must fit on the output's strands
        rest = size - len(a)
        if (rest <= max_length and (have is None or rest in have.get(m, ()))
                and data.endswith(a)):
            res = data[:rest]
            if not res or max(res.translate(CODE_REACH)) <= m:
                out.append((m, res))
    if lengths is None or lengths:
        rules, least = _search_rules(category, n), min(lengths or (0,))
        out += [(n, res) for _, res in
                _relation_steps(data, rules, forward, max_length, least)]
    return out


def _step_into(category: Category, max_strands: int, max_length: int,
               node: tuple[int, bytes], forward: bool, targets):
    """The first (move, neighbour) of ``_search_results(category,
    max_strands, max_length, node, forward, None)`` whose neighbour is in
    targets, or None.  The kernel's moves come first, in ``_kernel`` order
    and through ``_run``, then the relation steps by (entry, position); a
    relation move is built only when it is returned."""
    n, data = node
    for move, op in _kernel(category, n):
        res = _run(op, data)
        if (res is not None and op[1] <= max_strands and len(res) <= max_length
                and (op[1], res) in targets):
            return move, (op[1], res)
    rules = _search_rules(category, n)
    for (i, pos), res in sorted(_relation_steps(data, rules, forward, max_length, 0)):
        if (n, res) in targets:
            name, fwd, _, _ = rules[0][i]
            step = RewriteStep(name, fwd, pos)
            return MarkovMove(MoveKind.BRAID_RELATION, fwd, step=step), (n, res)
    return None


def markov_equivalent_bounded(
    w1: BraidWord,
    w2: BraidWord,
    max_strands: int | None = None,
    max_length: int | None = None,
    max_nodes: int = 300_000,
) -> SearchOutcome:
    """Bounded bidirectional search for a Markov move path from w1 to w2.

    Steps are Markov moves plus single braid-relation rewrites at the
    current strand count; every node is kept freely reduced.  Equal paths
    replay: ``replay_markov_path(w1, path) == free_reduce(w2)``, and the
    reversed path (inverting each move) certifies the opposite direction.
    Unknown means the bounds were exhausted; it asserts nothing.  Raises
    UnsupportedN when a word or ``max_strands`` reaches the codec's index
    span, Mismatch when ``max_strands`` is below a word's strand count, and
    ValueError on a negative ``max_length`` or a ``max_nodes`` below 1.
    """
    if w1.category is not w2.category:
        raise Mismatch(
            f"categories differ: {w1.category.value} vs {w2.category.value}"
        )
    category = w1.category
    _check_category(category)
    if max_strands is None:
        max_strands = max(w1.n, w2.n) + 2
    if max_length is None:
        max_length = max(len(w1), len(w2)) + 10
    _check_bounds(max_length, max_nodes)
    check_strands(max(w1.n, w2.n, max_strands))
    if max_strands < max(w1.n, w2.n):
        raise Mismatch(f"max_strands {max_strands} is below a word's strands")

    # one stage: Markov moves hold no insertions to keep for a later one
    path, explored = _bidirectional(
        (w1.n, reduce_codes(encode_word(w1))),
        (w2.n, reduce_codes(encode_word(w2))),
        partial(_search_results, category, max_strands, max_length),
        partial(_step_into, category, max_strands, max_length),
        max_nodes,
        profile=_length_profile,
        key=_node_key,
    )
    return SearchOutcome(path is not None, path or (), explored)


# ---------------------------------------------------------------------------
# closure-code normalization (the soundness oracle for moves)
#
# A Markov move changes the closure diagram only by kink insertion/removal,
# a cancelling classical pair, a cancelling bar pair, or invisible virtual
# routing.  Normalizing both closure codes by those three local reductions
# therefore makes sound moves comparable with plain code equivalence.


def _cyclic_pairs(component: tuple) -> list[tuple[int, int]]:
    k = len(component)
    if k < 2:
        return []
    return [(p, (p + 1) % k) for p in range(k)]


def _remove(components: list[list], spots: list[tuple[int, int]]) -> None:
    by_comp: dict[int, list[int]] = {}
    for ci, p in spots:
        by_comp.setdefault(ci, []).append(p)
    for ci, positions in by_comp.items():
        for p in sorted(positions, reverse=True):
            del components[ci][p]


def _kink_step(components: list[list]) -> bool:
    """Remove one crossing both of whose visits are cyclically adjacent."""
    for ci, comp in enumerate(components):
        for p, q in _cyclic_pairs(tuple(comp)):
            x, y = comp[p], comp[q]
            if (
                isinstance(x, CrossingVisit)
                and isinstance(y, CrossingVisit)
                and x.label == y.label
            ):
                _remove(components, [(ci, p), (ci, q)])
                return True
    return False


def _bar_pair_step(components: list[list]) -> bool:
    """Remove one adjacent pair of bars (bars on a common arc cancel)."""
    for ci, comp in enumerate(components):
        for p, q in _cyclic_pairs(tuple(comp)):
            if comp[p] is BAR_MARK and comp[q] is BAR_MARK:
                _remove(components, [(ci, p), (ci, q)])
                return True
    return False


def _poke_step(components: list[list], flat: bool) -> bool:
    """Remove one pair of crossings forming a cancelling double crossing:
    the two visits of each crossing are adjacent on both passages, with one
    strand entirely over the other (signs opposite) in the signed case."""
    adjacencies = []
    for ci, comp in enumerate(components):
        for p, q in _cyclic_pairs(tuple(comp)):
            x, y = comp[p], comp[q]
            if (
                isinstance(x, CrossingVisit)
                and isinstance(y, CrossingVisit)
                and x.label != y.label
            ):
                adjacencies.append((ci, p, q, x, y))
    for i, (ci, p1, q1, x1, y1) in enumerate(adjacencies):
        for cj, p2, q2, x2, y2 in adjacencies[i + 1:]:
            if {x1.label, y1.label} != {x2.label, y2.label}:
                continue
            spots = {(ci, p1), (ci, q1), (cj, p2), (cj, q2)}
            if len(spots) < 4:
                continue
            if not flat:
                roles1 = {x1.role.value, y1.role.value}
                roles2 = {x2.role.value, y2.role.value}
                if not (roles1 == {"O"} and roles2 == {"U"}) and not (
                    roles1 == {"U"} and roles2 == {"O"}
                ):
                    continue
                if x1.sign == y1.sign:
                    continue
            _remove(components, sorted(spots, reverse=True))
            return True
    return False


def normalize_code(code: TwistedGaussCode) -> TwistedGaussCode:
    """Reduce a code by kink removal, bar-pair cancellation, and double
    crossing cancellation until none applies.  Empty components survive as
    empty tuples so component counts are preserved."""
    components = [list(c) for c in code.components]
    while (
        _kink_step(components)
        or _bar_pair_step(components)
        or _poke_step(components, code.flat)
    ):
        pass
    return TwistedGaussCode(tuple(tuple(c) for c in components), code.flat)


def closure_code(w: BraidWord) -> TwistedGaussCode:
    """Normalized Gauss code of the word's closure."""
    return normalize_code(gauss_code(closure_diagram(w)))


def closure_code_equivalent(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether the closures have equivalent normalized Gauss codes.

    An oracle for Markov moves only: the normalization undoes what a move
    does to a closure, not what a relation rewrite does.  It answers False
    on the bar-sandwich pair ``s2 v2 s2 v2 s1 S2 s1`` /
    ``s2 b2 b3 s2 b3 b2 s1 S2 s1`` on three strands, whose words are equal
    in the group.
    """
    return gauss_equivalent(closure_code(w1), closure_code(w2))
