"""Markov moves and bounded stable-equivalence search for braid words.

Two braid words close to the same twisted link exactly when they are related
by a finite sequence of in-group rewrites and Markov moves: conjugation by a
generator, right stabilization (a new top strand attached by a single
virtual, classical, or flat crossing), and the two under-threading moves
that pass the new top strand underneath its neighbours.  This module emits
those moves on words, searches for move paths between words bidirectionally,
and provides the closure-code normalizer used to check move soundness.

Stabilizations and threadings attach a fresh strand, so their outputs live
on ``n + 1`` strands and the suffix letters are indexed in the enlarged
group; the inverse moves strip a literal suffix and are applicable only when
the rest of the word never touches the top strand.

All move applications freely reduce their result.  On freely reduced words
every move is exactly invertible, which is what makes Equal certificates
replayable in both directions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .diagram import (
    BAR_MARK,
    CrossingVisit,
    TwistedGaussCode,
    closure_diagram,
    gauss_code,
    gauss_equivalent,
)
from .presentations import (
    Family,
    Mismatch,
    RewriteStep,
    RuleTable,
    SearchOutcome,
    _neighbor_steps,
    _staged_search,
    apply_step,
    decode_word,
    encode_word,
    full_presentation,
    rule_table,
)
from .words import (
    BraidWord,
    Category,
    CategoryViolation,
    Generator,
    Kind,
    WordError,
    free_reduce,
)

_MARKOV_CATEGORIES = (Category.TWISTED, Category.FLAT_TWISTED)
_FAMILY_OF = {
    Category.TWISTED: Family.TB_FULL,
    Category.FLAT_TWISTED: Family.FT_FULL,
}


class MoveKind(enum.Enum):
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


_STAB_KINDS = (
    MoveKind.RIGHT_VIRTUAL_STAB,
    MoveKind.RIGHT_REAL_STAB,
    MoveKind.RIGHT_FLAT_STAB,
    MoveKind.RIGHT_UNDER_THREAD,
    MoveKind.LEFT_UNDER_THREAD,
    MoveKind.RIGHT_FLAT_THREAD,
    MoveKind.LEFT_FLAT_THREAD,
)
_SELF_INVERSE = (MoveKind.VIRTUAL_CONJ, MoveKind.TWISTED_CONJ, MoveKind.FLAT_CONJ)


@dataclass(frozen=True)
class MarkovMove:
    """One move instance.

    ``index`` is the conjugating generator's index for conjugations and the
    fresh top letter's index for stabilizations/threadings (equal to the
    smaller word's strand count).  ``sign`` distinguishes the two classical
    stabilizations.  ``step`` carries the rewrite payload when the move is a
    braid relation applied in place.
    """

    kind: MoveKind
    forward: bool = True
    index: int = 0
    sign: int = 0
    step: RewriteStep | None = None

    def inverse(self) -> MarkovMove:
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind is MoveKind.BRAID_RELATION:
            return MarkovMove(
                self.kind, not self.forward, self.index, self.sign,
                self.step.inverse(),
            )
        return MarkovMove(self.kind, not self.forward, self.index, self.sign)

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


# ---------------------------------------------------------------------------
# applying moves


@lru_cache(maxsize=None)
def _relation_rules(category: Category, n: int) -> RuleTable | None:
    """Rule table for the full presentation at this strand count.

    Words on a single strand have no presentation beyond free reduction, so
    there is no table there.
    """
    if n < 2:
        return None
    return rule_table(full_presentation(_FAMILY_OF[category], n))


def _wrap(w: BraidWord, left: Generator, right: Generator) -> BraidWord:
    return free_reduce(w.with_letters((left,) + w.letters + (right,)))


def _conj_letter(kind: MoveKind, index: int, category: Category) -> Generator:
    if kind is MoveKind.VIRTUAL_CONJ:
        return Generator(Kind.V, index)
    if kind is MoveKind.TWISTED_CONJ:
        return Generator(Kind.B, index)
    if kind is MoveKind.FLAT_CONJ:
        if category is not Category.FLAT_TWISTED:
            raise Mismatch("flat conjugation needs a flat twisted word")
        return Generator(Kind.C, index)
    raise Mismatch(f"not a wrapping conjugation: {kind}")


def _stab_suffix(kind: MoveKind, top: int, sign: int) -> tuple[Generator, ...]:
    """Letters appended by a stabilization/threading whose fresh top letter
    has index ``top`` (valid on ``top + 1`` strands)."""
    s = lambda i: Generator(Kind.SIGMA, i)
    S = lambda i: Generator(Kind.SIGMA_INV, i)
    v = lambda i: Generator(Kind.V, i)
    c = lambda i: Generator(Kind.C, i)
    if kind is MoveKind.RIGHT_VIRTUAL_STAB:
        return (v(top),)
    if kind is MoveKind.RIGHT_REAL_STAB:
        return (s(top) if sign > 0 else S(top),)
    if kind is MoveKind.RIGHT_FLAT_STAB:
        return (c(top),)
    if kind is MoveKind.RIGHT_UNDER_THREAD:
        return (S(top), v(top - 1), s(top))
    if kind is MoveKind.LEFT_UNDER_THREAD:
        return (
            v(top), v(top - 1), s(top - 1), v(top),
            S(top - 1), v(top - 1), v(top),
        )
    if kind is MoveKind.RIGHT_FLAT_THREAD:
        return (c(top), v(top - 1), c(top))
    if kind is MoveKind.LEFT_FLAT_THREAD:
        return (
            v(top), v(top - 1), c(top - 1), v(top),
            c(top - 1), v(top - 1), v(top),
        )
    raise Mismatch(f"not a stabilization: {kind}")


_REAL_ONLY = (
    MoveKind.REAL_CONJ,
    MoveKind.RIGHT_REAL_STAB,
    MoveKind.RIGHT_UNDER_THREAD,
    MoveKind.LEFT_UNDER_THREAD,
)
_FLAT_ONLY = (
    MoveKind.FLAT_CONJ,
    MoveKind.RIGHT_FLAT_STAB,
    MoveKind.RIGHT_FLAT_THREAD,
    MoveKind.LEFT_FLAT_THREAD,
)


def apply_markov_move(w: BraidWord, move: MarkovMove) -> BraidWord:
    """Apply one move to a word, freely reducing the result.

    Raises Mismatch when the move does not fit (bad index, missing literal
    suffix for an inverse stabilization, or a prefix still touching the top
    strand).  On freely reduced words, ``apply_markov_move(apply_markov_move(
    w, m), m.inverse()) == w`` whenever the first application fits.
    """
    if w.category not in _MARKOV_CATEGORIES:
        raise CategoryViolation(
            f"Markov moves need a twisted or flat twisted word, "
            f"got {w.category.value}"
        )
    if move.kind in _REAL_ONLY and w.category is not Category.TWISTED:
        raise Mismatch(f"{move.kind.value} needs a twisted word")
    if move.kind in _FLAT_ONLY and w.category is not Category.FLAT_TWISTED:
        raise Mismatch(f"{move.kind.value} needs a flat twisted word")
    n = w.n

    if move.kind is MoveKind.BRAID_RELATION:
        table = _relation_rules(w.category, n)
        if table is None:
            raise Mismatch("no relations on a single strand")
        data = apply_step(encode_word(w), move.step, table)
        return free_reduce(decode_word(data, n, w.category))

    if move.kind is MoveKind.REAL_CONJ:
        if not 1 <= move.index <= n - 1:
            raise Mismatch(f"no classical crossing {move.index} on {n} strands")
        g = Generator(Kind.SIGMA, move.index)
        if move.forward:  # w  ->  s_i^-1 w s_i
            return _wrap(w, g.inverse(), g)
        return _wrap(w, g, g.inverse())

    if move.kind in _SELF_INVERSE:
        g = _conj_letter(move.kind, move.index, w.category)
        top = n if move.kind is MoveKind.TWISTED_CONJ else n - 1
        if not 1 <= move.index <= top:
            raise Mismatch(f"index {move.index} out of range on {n} strands")
        return _wrap(w, g, g)

    if move.kind in _STAB_KINDS:
        thread = move.kind in (
            MoveKind.RIGHT_UNDER_THREAD,
            MoveKind.LEFT_UNDER_THREAD,
            MoveKind.RIGHT_FLAT_THREAD,
            MoveKind.LEFT_FLAT_THREAD,
        )
        if move.forward:
            if move.index != n:
                raise Mismatch(
                    f"stabilization of a {n}-strand word has index {n}"
                )
            if thread and n < 2:
                raise Mismatch("threading needs at least two strands")
            suffix = _stab_suffix(move.kind, n, move.sign)
            return free_reduce(
                BraidWord(n + 1, w.letters + suffix, w.category)
            )
        # inverse: strip the literal suffix, then drop the top strand
        if move.index != n - 1:
            raise Mismatch(
                f"destabilization of a {n}-strand word has index {n - 1}"
            )
        if n < 2 or (thread and n < 3):
            raise Mismatch("no strand to remove")
        suffix = _stab_suffix(move.kind, n - 1, move.sign)
        if w.letters[len(w.letters) - len(suffix):] != suffix:
            raise Mismatch(f"word does not end with {move.kind.value} suffix")
        prefix = w.letters[: len(w.letters) - len(suffix)]
        try:
            smaller = BraidWord(n - 1, prefix, w.category)
        except WordError:
            raise Mismatch("prefix still uses the top strand") from None
        return free_reduce(smaller)

    raise Mismatch(f"unknown move kind {move.kind}")


def replay_markov_path(
    w: BraidWord, path: tuple[MarkovMove, ...]
) -> BraidWord:
    """Apply a move path; raises Mismatch wherever it does not fit."""
    out = w
    for move in path:
        out = apply_markov_move(out, move)
    return out


def render_markov_path(
    w: BraidWord, path: tuple[MarkovMove, ...]
) -> list[str]:
    """Human-readable replay: one line per move with the word it produces."""
    lines = [f"start ({w.n} strands): {w or 'empty'}"]
    out = w
    for move in path:
        out = apply_markov_move(out, move)
        lines.append(f"{move.describe()} ({out.n} strands): {out or 'empty'}")
    return lines


# ---------------------------------------------------------------------------
# neighbor enumeration


def _applicable_moves(w: BraidWord):
    """Yield (move, output) for every candidate move that fits ``w``."""
    n = w.n
    twisted = w.category is Category.TWISTED
    moves: list[MarkovMove] = []
    for i in range(1, n):
        moves.append(MarkovMove(MoveKind.VIRTUAL_CONJ, index=i))
    if twisted:
        for i in range(1, n):
            moves.append(MarkovMove(MoveKind.REAL_CONJ, True, i))
            moves.append(MarkovMove(MoveKind.REAL_CONJ, False, i))
    else:
        for i in range(1, n):
            moves.append(MarkovMove(MoveKind.FLAT_CONJ, index=i))
    for i in range(1, n + 1):
        moves.append(MarkovMove(MoveKind.TWISTED_CONJ, index=i))

    moves.append(MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, True, n))
    if twisted:
        moves.append(MarkovMove(MoveKind.RIGHT_REAL_STAB, True, n, 1))
        moves.append(MarkovMove(MoveKind.RIGHT_REAL_STAB, True, n, -1))
        threads = (MoveKind.RIGHT_UNDER_THREAD, MoveKind.LEFT_UNDER_THREAD)
    else:
        moves.append(MarkovMove(MoveKind.RIGHT_FLAT_STAB, True, n))
        threads = (MoveKind.RIGHT_FLAT_THREAD, MoveKind.LEFT_FLAT_THREAD)
    if n >= 2:
        for kind in threads:
            moves.append(MarkovMove(kind, True, n))
        moves.append(MarkovMove(MoveKind.RIGHT_VIRTUAL_STAB, False, n - 1))
        if twisted:
            moves.append(MarkovMove(MoveKind.RIGHT_REAL_STAB, False, n - 1, 1))
            moves.append(MarkovMove(MoveKind.RIGHT_REAL_STAB, False, n - 1, -1))
        else:
            moves.append(MarkovMove(MoveKind.RIGHT_FLAT_STAB, False, n - 1))
        for kind in threads:
            moves.append(MarkovMove(kind, False, n - 1))
    for move in moves:
        try:
            res = apply_markov_move(w, move)
        except Mismatch:
            continue
        yield move, res


def markov_neighbors(w: BraidWord) -> set[tuple[MarkovMove, BraidWord]]:
    """Every single Markov move applicable to ``w``, with its output.

    Outputs are freely reduced; stabilization outputs live on one strand
    more, destabilizations on one fewer.  Self-inverse conjugations appear
    once, directed moves in both directions.
    """
    if w.category not in _MARKOV_CATEGORIES:
        raise CategoryViolation(
            f"Markov moves need a twisted or flat twisted word, "
            f"got {w.category.value}"
        )
    return set(_applicable_moves(w))


# ---------------------------------------------------------------------------
# bounded bidirectional search


def _word_key(w: BraidWord):
    return (w.n, tuple((g.kind.value, g.index) for g in w.letters))


def _search_edges(
    w: BraidWord, max_strands: int, max_length: int, allow_insertions: bool
) -> list[tuple[MarkovMove, BraidWord]]:
    edges = [
        (move, res)
        for move, res in _applicable_moves(w)
        if res.n <= max_strands and len(res) <= max_length
    ]
    table = _relation_rules(w.category, w.n)
    if table:
        data = encode_word(w)
        # substitution results may shrink under free reduction, so allow the
        # raw intermediate a little headroom beyond max_length
        for step, raw in _neighbor_steps(
            data, table, max_length + 4, allow_insertions
        ):
            res = free_reduce(decode_word(raw, w.n, w.category))
            if len(res) <= max_length:
                edges.append(
                    (MarkovMove(MoveKind.BRAID_RELATION, step.forward,
                                step=step), res)
                )
    return edges


def markov_equivalent_bounded(
    w1: BraidWord,
    w2: BraidWord,
    max_strands: int | None = None,
    max_length: int | None = None,
    max_nodes: int = 300_000,
) -> SearchOutcome:
    """Bounded bidirectional search for a Markov move path from w1 to w2.

    Edges are Markov moves plus single braid-relation rewrites at the
    current strand count; every node is kept freely reduced.  Equal paths
    replay: ``replay_markov_path(w1, path) == free_reduce(w2)``, and the
    reversed path (inverting each move) certifies the opposite direction.
    Unknown means the bounds were exhausted; it asserts nothing.
    """
    if w1.category is not w2.category:
        raise Mismatch(
            f"categories differ: {w1.category.value} vs {w2.category.value}"
        )
    if w1.category not in _MARKOV_CATEGORIES:
        raise CategoryViolation(
            f"Markov search needs twisted or flat twisted words, "
            f"got {w1.category.value}"
        )
    if max_strands is None:
        max_strands = max(w1.n, w2.n) + 2
    if max_length is None:
        max_length = max(len(w1), len(w2)) + 10
    return _staged_search(
        free_reduce(w1),
        free_reduce(w2),
        lambda w, insertions: _search_edges(w, max_strands, max_length, insertions),
        max_nodes,
        key=_word_key,
        replays=_inverse_replays,
    )


def _inverse_replays(res: BraidWord, move: MarkovMove, node: BraidWord) -> bool:
    """Whether ``move.inverse()`` takes ``res`` back to ``node``: backward
    edges enter the path inverted, and relation steps can be spoiled by
    free reduction."""
    try:
        return apply_markov_move(res, move.inverse()) == node
    except Mismatch:
        return False


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
    """Whether the closures have equivalent normalized Gauss codes."""
    return gauss_equivalent(closure_code(w1), closure_code(w2))
