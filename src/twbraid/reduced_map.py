"""Expansion of full-presentation generators over the reduced generating set,
and machine verification that every full relation follows from the reduced
relations.

Every crossing and bar generator expands into a sandwich of the index-one
generator between virtual-letter blocks.  One function, _expansion, writes
that sandwich for a single letter; expand_word, the bank's expansion tables
and the relation certificates all read it.  verify_derived_relation produces
an explicit rewrite path between the expansions of a relation's two sides,
using reduced relations and cancelling pairs only.

The paths are not searched for blindly: a bank of derived rewriting rules is
built per strand count by deterministic scripts (letter transport, where
_pass moves one letter and _chunk a whole expansion, either way; index-shift
conjugation; and the sandwich manipulations), each rule carrying its proof.
No script places a cancelling pair by hand: its prover reduces, inserts a
block with its inverse, and shifts index by index, chunk by chunk.
A lemma's proof is checked once, when it is registered.  The bank indexes
every rule by its two sides, not by any name: a relation whose sides expand
to a rule's sides, either way round, is proved by that one rule between the
free reductions of its expansions, and only that rule-level path is replayed.
The flattened path needs no replay: every proof it splices in was checked,
a step does not depend on the letters around it, and every step inverts
exactly.  A bank builds each RewriteStep once and flattens each derived
rule once per direction, so certificates share their steps.  A relation
that no rule of the bank joins is reported Unknown.
"""

from __future__ import annotations

import functools

from .presentations import (
    FAMILY_CATEGORY,
    FULL_FAMILY,
    Family,
    Mismatch,
    Presentation,
    Relation,
    RewriteStep,
    RuleTable,
    SearchOutcome,
    _walk_path,
    apply_step,
    equivalent_bounded,
    full_presentation,
    pair_name,
    reduced_presentation,
)
from .words import (
    ALLOWED_KINDS,
    CODE_PARTNER,
    WITH_VIRTUALS,
    BraidWord,
    Category,
    Generator,
    Kind,
    code,
    decode_word,
    encode_letters,
    encode_word,
    free_reduce,
    letter,
)

_V = lambda k: code(Kind.V, k)  # noqa: E731
_B1 = code(Kind.B, 1)


def _is_v(c: int) -> bool:
    return letter(c).kind is Kind.V


# ---------------------------------------------------------------------------
# expansions


def _expansion(g: Generator) -> tuple[Generator, ...]:
    """One generator over the reduced set.  A crossing x_i is x1 between the
    block v(i-1)..v1 v(i)..v2 and its mirror image, a bar b_i is b1 between
    v(i-1)..v1 and its mirror image, and a virtual letter stays as it is.
    The blocks mirror each other, so s_i and S_i differ in the core only."""
    if g.kind is Kind.V:
        return (g,)
    block = [Generator(Kind.V, k) for k in range(g.index - 1, 0, -1)]
    if g.kind is not Kind.B:
        block += [Generator(Kind.V, k) for k in range(g.index, 1, -1)]
    return (*block, Generator(g.kind, 1), *reversed(block))


@functools.cache
def _expansion_code(g: Generator) -> bytes:
    """The encoded expansion, memoized: the bank reads it for every letter of
    every relation it certifies."""
    return encode_letters(_expansion(g))


def expand_word(w: BraidWord, category: Category | None = None) -> BraidWord:
    """Replace every letter by its expansion and freely reduce the result:
    a word of category, by default w's category widened by WITH_VIRTUALS."""
    letters = tuple(x for g in w.letters for x in _expansion(g))
    category = category or WITH_VIRTUALS.get(w.category, w.category)
    return free_reduce(BraidWord(w.n, letters, category))


# ---------------------------------------------------------------------------
# zigzag identity: v_i..v_1..v_i = v_1..v_i..v_1 over virtual relations only


def _virtual_only(n: int) -> Presentation:
    base = reduced_presentation(Family.VB_REDUCED, n)
    rels = tuple(r for r in base.relations if r.name.startswith("red.v-"))
    alphabet = frozenset(Generator(Kind.V, k) for k in range(1, n))
    return Presentation(Family.VB_REDUCED, n, rels, alphabet)


_ZIGZAG_NODES = 400_000


def check_zigzag_identity(i: int, n: int) -> SearchOutcome:
    """Search for a virtual-moves-only path between the valley word
    v_i..v_2 v_1 v_2..v_i and the mountain word v_1..v_i..v_1."""
    if not 1 <= i <= n - 1:
        raise Mismatch(f"index {i} out of range for n={n}")
    valley = [Generator(Kind.V, k) for k in range(i, 0, -1)]
    valley += [Generator(Kind.V, k) for k in range(2, i + 1)]
    mountain = [Generator(Kind.V, k) for k in range(1, i + 1)]
    mountain += [Generator(Kind.V, k) for k in range(i - 1, 0, -1)]
    w1 = BraidWord(n, tuple(valley), Category.VIRTUAL)
    w2 = BraidWord(n, tuple(mountain), Category.VIRTUAL)
    return equivalent_bounded(w1, w2, _virtual_only(n), max_nodes=_ZIGZAG_NODES)


# ---------------------------------------------------------------------------
# the derived-rule bank


class _Prover:
    """Tracks a word rewritten from `start` and collects the steps applied.
    Every apply goes through the real rule engine, so a script with a wrong
    position or direction fails at that step, and `data` is where it led.
    `reduce`, `insert` and `shift` place every cancelling pair and row of
    lemmas; the bank's `_pass` and `_chunk` move letters on the same word."""

    __slots__ = ("bank", "start", "data", "steps")

    def __init__(self, data: bytes, bank: _RuleBank):
        self.bank = bank
        self.start = self.data = data
        self.steps: list[RewriteStep] = []

    def apply(self, rule: str, pos: int, forward: bool = True) -> None:
        step = self.bank._step(rule, forward, pos)
        self.data = apply_step(self.data, step, self.bank.table)
        self.steps.append(step)

    def reduce(self) -> None:
        """Freely reduce the word, one pair-removal step per cancellation."""
        self.data, steps = self.bank._reduction_steps(self.data)
        self.steps += steps

    def insert(self, block: bytes, pos: int) -> None:
        """Write block · block⁻¹ at pos, outermost pair first."""
        for k, c in enumerate(block):
            self.apply(pair_name(letter(c)), pos + k, forward=False)

    def shift(self, rules: tuple[str, ...], forward: bool = True) -> None:
        """Apply `rules` from 0 on, each just past the side the one before wrote."""
        pos = 0
        for rule in rules:
            self.apply(rule, pos, forward)
            pos += len(self.bank.table[rule][forward])


class _RuleBank:
    """All derived rules for one reduced presentation, built by scripts.
    Each rule's sides live in `table`, its proof (a step path from lhs to
    rhs over reduced relations, pairs and earlier derived rules, checked by
    `_register`) in `derived`.  `by_sides` maps a pair of sides to the
    first rule in table order with those sides: the reduced relations and
    pairs, then each lemma as `_register` adds it.  Every step comes from
    `_step`, the bank's own functools.cache of RewriteStep, so there is one
    object per (rule, forward, pos), and `_flat_proof`
    keeps both directions of each flattened proof, so certificates share
    steps, not copies.  Two routines move letters: `_pass` one letter by
    reduced rules, and `_chunk` a whole expansion by the derived rules d.vx,
    d.vb and d.s1b, beside `_Prover`'s `reduce`, `insert` and `shift`."""

    def __init__(self, reduced: Presentation):
        self.n = reduced.n
        cat = reduced.category
        self.flat = Kind.C in ALLOWED_KINDS[cat]
        self.barred = Kind.B in ALLOWED_KINDS[cat]
        self.xname = "flat" if self.flat else "sigma"
        kind = Kind.C if self.flat else Kind.SIGMA
        self.xc = code(kind, 1)
        # the reduced rule x1 v_k = v_k x1 or b1 v_k = v_k b1, less its [k]
        self.v_rule = {self.xc: f"red.{self.xname}-v", _B1: "red.bar-v"}
        self.table: RuleTable = dict(reduced.table)
        self.by_sides: dict[tuple[bytes, bytes], str] = {}
        for name, sides in self.table.items():
            self.by_sides.setdefault(sides, name)
        self.derived: dict[str, tuple[RewriteStep, ...]] = {}
        self._step = functools.cache(RewriteStep)
        self._flat_cache: dict[tuple[str, bool], tuple[RewriteStep, ...]] = {}
        self.Es = {i: _expansion_code(Generator(kind, i)) for i in range(1, self.n)}
        bars = range(1, self.n + 1) if self.barred else ()
        self.Eb = {i: _expansion_code(Generator(Kind.B, i)) for i in bars}
        self._build()

    # -- steps and registration --------------------------------------------

    def _inverted(self, steps) -> tuple[RewriteStep, ...]:
        return tuple(self._step(s.rule, not s.forward, s.pos) for s in reversed(steps))

    def _register(self, name: str, pr: _Prover, lhs: bytes, rhs: bytes) -> None:
        """Make lhs -> rhs a rule proved by `pr`.  Its steps were applied, so
        only its ends are checked: lhs to rhs or, inverted, rhs to lhs."""
        if (pr.start, pr.data) == (lhs, rhs):
            proof = tuple(pr.steps)
        elif (pr.start, pr.data) == (rhs, lhs):
            proof = self._inverted(pr.steps)
        else:
            raise Mismatch(f"derived rule {name} proof does not join its sides")
        self.derived[name] = proof
        sides = self.table[name] = (lhs, rhs)
        self.by_sides.setdefault(sides, name)

    # -- letter transport --------------------------------------------------

    def _pass(self, pr: _Prover, pos: int, count: int, d: int) -> int:
        """Move the letter at pos past `count` letters, rightward for d=1
        and leftward for d=-1, reading every index from the word: a v letter
        passes v letters, x1 and b1, and x1 or b1 passes v letters.  Braid
        bumps change the v letter's index and consume two letters at once."""
        while count > 0:
            c, nxt = pr.data[pos], pr.data[pos + d]
            both_v = _is_v(c) and _is_v(nxt)
            bump = both_v and abs(letter(c).index - letter(nxt).index) < 2
            width = 2 if bump else 1
            at = min(pos, pos + width * d)
            left, right = pr.data[at], pr.data[at + 1]
            if both_v:
                a, b = letter(left).index, letter(right).index
                lo, hi = min(a, b), max(a, b)
                rule = f"red.v-braid[{lo}]" if bump else f"red.v-commute[{lo},{hi}]"
                pr.apply(rule, at, forward=a < b)
            else:
                v, x = (right, left) if _is_v(right) else (left, right)
                if not _is_v(v) or x not in self.v_rule:
                    raise Mismatch("transport blocked by unexpected letter")
                rule = f"{self.v_rule[x]}[{letter(v).index}]"
                pr.apply(rule, at, forward=x == left)
            pos, count = pos + width * d, count - width
        return pos

    def _chunk(self, pr, pos: int, count: int, d: int, i: int, bar: bool) -> int:
        """Move E(x_i), or E(b_i) when `bar`, from pos past `count` letters
        in direction d, by the derived rule d.vx[i,k] or d.vb[i,k] for each
        v letter v_k and d.s1b[i] for x1 past E(b_i)."""
        length = len(self.Eb[i] if bar else self.Es[i])
        for _ in range(count):
            c = pr.data[pos + length if d > 0 else pos - 1]
            if _is_v(c):
                rule = f"d.{'vb' if bar else 'vx'}[{i},{letter(c).index}]"
            elif bar and c == self.xc:
                rule = f"d.s1b[{i}]"
            else:
                raise Mismatch("no transport rule for this letter")
            pr.apply(rule, min(pos, pos + d), forward=d < 0)
            pos += d
        return pos

    def _swap_at_b1(self, pr: _Prover, i: int, j: int, bar: bool) -> None:
        """Turn E(b_i) E(x_j), or E(b_i) E(b_j) when `bar`, into the other
        order: carry the right expansion leftward across E(b_i)'s right block
        to b1, fire d.bx[1,j] or d.bb[1,j] there, and carry it on across the
        left block."""
        pos = self._chunk(pr, len(self.Eb[i]), i - 1, -1, j, bar)
        pr.apply(f"d.{'bb' if bar else 'bx'}[1,{j}]", pos - 1, forward=True)
        self._chunk(pr, pos - 1, i - 1, -1, j, bar)

    # -- build order -------------------------------------------------------

    def _build(self) -> None:
        n = self.n
        for i in range(2, n):
            self._build_ind_s(i)
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    self._build_transport(f"d.vx[{i},{j}]", self.Es[i], j)
        if self.barred:
            for i in range(1, n + 1):
                for j in range(1, n):
                    if j > i or j < i - 1:
                        self._build_transport(f"d.vb[{i},{j}]", self.Eb[i], j)
        for j in range(3, n):
            for i in range(1, j - 1):
                self._build_css(i, j)
        if self.barred:
            for i in range(3, n + 1):
                self._build_s1b(i)
            for i in range(1, n + 1):
                for j in range(1, n):
                    if j > i or j < i - 1:
                        self._build_bx(i, j)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    self._build_bb(i, j)
        for i in range(1, n - 1):
            self._build_braid(i)
        if self.barred:
            for i in range(1, n):
                self._build_sand(i)
                self._build_sand_var(i)

    # -- individual scripts -------------------------------------------------

    def _build_ind_s(self, i: int) -> None:
        """E(x_i) = v(i-1) v(i) E(x_(i-1)) v(i) v(i-1), proved by sliding the
        two v(i) letters into the inner expansion's blocks; then d.vxv[i-1]:
        v(i-1) E(x_i) v(i-1) = v(i) E(x_(i-1)) v(i), by d.ind.s[i] at 1 and
        free reduction."""
        lhs = self.Es[i]
        rhs = bytes([_V(i - 1), _V(i)]) + self.Es[i - 1] + bytes([_V(i), _V(i - 1)])
        pr = _Prover(rhs, self)
        self._pass(pr, 1, i - 2, 1)
        self._pass(pr, len(pr.data) - 2, i - 2, -1)
        self._register(f"d.ind.s[{i}]", pr, lhs, rhs)
        pr = _Prover(bytes([_V(i - 1)]) + lhs + bytes([_V(i - 1)]), self)
        pr.apply(f"d.ind.s[{i}]", 1)
        pr.reduce()
        vxv = bytes([_V(i)]) + self.Es[i - 1] + bytes([_V(i)])
        self._register(f"d.vxv[{i-1}]", pr, pr.start, vxv)

    def _build_transport(self, name: str, chunk: bytes, j: int) -> None:
        """v_j passes the expansion `chunk` from left to right."""
        lhs = bytes([_V(j)]) + chunk
        pr = _Prover(lhs, self)
        self._pass(pr, 0, len(chunk), 1)
        self._register(name, pr, lhs, chunk + bytes([_V(j)]))

    def _build_css(self, i: int, j: int) -> None:
        """E(x_i) and E(x_j) commute for j >= i+2."""
        name = f"d.css[{i},{j}]"
        A, Ej = self.Es[i], self.Es[j]
        lhs, rhs = A + Ej, Ej + A
        pr = _Prover(lhs, self)
        if i == 1 and j == 3:
            # align both middle blocks, fire the long commute, re-align
            pr.apply("red.v-commute[1,3]", 2, forward=True)
            pr.apply("red.v-commute[1,3]", 7, forward=False)
            pr.apply(f"red.{self.xname}-commute", 0, forward=True)
            pr.apply("red.v-commute[1,3]", 1, forward=False)
            pr.apply("red.v-commute[1,3]", 6, forward=True)
        elif i == 1:
            pr.apply(f"d.ind.s[{j}]", 1, forward=True)
            self._pass(pr, 0, 2, 1)
            pr.apply(f"d.css[1,{j-1}]", 2, forward=True)
            self._pass(pr, 2 + len(self.Es[j - 1]), 2, 1)
            pr.apply(f"d.ind.s[{j}]", 0, forward=False)
        else:
            pr.apply(f"d.ind.s[{i}]", 0, forward=True)
            self._chunk(pr, 4 + len(self.Es[i - 1]), 2, -1, j, False)
            pr.apply(f"d.css[{i-1},{j}]", 2, forward=True)
            self._chunk(pr, 2, 2, -1, j, False)
            pr.apply(f"d.ind.s[{i}]", len(Ej), forward=False)
        self._register(name, pr, lhs, rhs)

    def _build_s1b(self, i: int) -> None:
        """The index-one crossing commutes with E(bar_i) for i >= 3."""
        name = f"d.s1b[{i}]"
        chunk = self.Eb[i]
        lhs = bytes([self.xc]) + chunk
        rhs = chunk + bytes([self.xc])
        pr = _Prover(lhs, self)
        pos = self._pass(pr, 0, i - 3, 1)
        pr.apply(f"red.{self.xname}-bar-commute", pos, forward=True)
        self._pass(pr, pos + 5, i - 3, 1)
        self._register(name, pr, lhs, rhs)

    def _build_bx(self, i: int, j: int) -> None:
        """E(bar_i) and E(x_j) commute when their strands are disjoint."""
        name = f"d.bx[{i},{j}]"
        Es, Eb = self.Es[j], self.Eb[i]
        lhs, rhs = Eb + Es, Es + Eb
        pr = _Prover(lhs, self)
        if i == 1:
            # walk b1 in, grow it to E(bar3) against the crossing's core,
            # fire the bar commute there, and unwind on the far side
            pos = self._pass(pr, 0, j - 2, 1)
            pr.insert(bytes([_V(1)]), pos)
            pos = self._chunk(pr, pos + 1, j - 2, 1, 2, True)
            pr.insert(bytes([_V(2)]), pos)
            pr.apply(f"red.{self.xname}-bar-commute", pos + 1, forward=False)
            pr.reduce()
            pos = self._chunk(pr, pos + 3, j - 2, 1, 2, True)
            pr.reduce()
            self._pass(pr, pos + 1, j - 2, 1)
        elif j > i:
            self._swap_at_b1(pr, i, j, False)
        else:
            self._chunk(pr, 0, len(Es), 1, i, True)
        self._register(name, pr, lhs, rhs)

    def _build_bb(self, i: int, j: int) -> None:
        """E(bar_i) and E(bar_j) commute, i < j."""
        name = f"d.bb[{i},{j}]"
        Bi, Bj = self.Eb[i], self.Eb[j]
        lhs, rhs = Bi + Bj, Bj + Bi
        pr = _Prover(lhs, self)
        if i == 1:
            pos = self._pass(pr, 0, j - 2, 1)
            pr.apply("red.bar-commute", pos, forward=True)
            self._pass(pr, pos + 3, j - 2, 1)
        else:
            self._swap_at_b1(pr, i, j, True)
        self._register(name, pr, lhs, rhs)

    def _build_braid(self, i: int) -> None:
        """E(x_i) E(x_(i+1)) E(x_i) = E(x_(i+1)) E(x_i) E(x_(i+1))."""
        name = f"d.braid[{i}]"
        A, B = self.Es[i], self.Es[i + 1]
        lhs, rhs = A + B + A, B + A + B
        pr = _Prover(lhs, self)
        if i == 1:
            pr.insert(bytes([_V(1)]), 0)
            pr.insert(bytes([_V(1)]), len(pr.data))
            pr.apply(f"red.{self.xname}-braid", 1, forward=True)
        else:
            # conjugate each chunk one index down, braid there, shift back up
            zlo, zhi, Zb = self._build_zshift(i)
            pr.shift((zlo, zhi, zlo))
            pr.reduce()
            pr.apply(f"d.braid[{i-1}]", 3, forward=True)
            pr.insert(Zb, 3 + len(A))
            pr.insert(Zb, 9 + len(A) + len(self.Es[i - 1]))
            pr.shift((zhi, zlo, zhi), forward=False)
        self._register(name, pr, lhs, rhs)

    def _build_zshift(self, i: int) -> tuple[str, str, bytes]:
        """Z = v(i-1) v(i) v(i+1) conjugates both crossings down; returns Z⁻¹ too."""
        zlo, zhi = f"d.zshift.s-lo[{i}]", f"d.zshift.s-hi[{i}]"
        Z = bytes([_V(i - 1), _V(i), _V(i + 1)])
        Zb = Z[::-1]

        rhs = Z + self.Es[i - 1] + Zb
        pr = _Prover(rhs, self)
        pr.apply(f"d.vx[{i-1},{i+1}]", 2, forward=True)
        pr.reduce()
        pr.apply(f"d.ind.s[{i}]", 0, forward=False)
        self._register(zlo, pr, self.Es[i], rhs)

        rhs = Z + self.Es[i] + Zb
        pr = _Prover(rhs, self)
        pr.apply(f"d.ind.s[{i+1}]", 1, forward=False)
        pr.apply(f"d.vx[{i+1},{i-1}]", 0, forward=True)
        pr.reduce()
        self._register(zhi, pr, self.Es[i + 1], rhs)
        return zlo, zhi, Zb

    def _build_ushift(self, i: int) -> tuple[str, str, str, bytes]:
        """u = v(i-1) v(i) conjugates the whole bar window down; returns u⁻¹ too."""
        uv = f"d.ushift.v[{i}]"
        ublo, ubhi = f"d.ushift.b-lo[{i}]", f"d.ushift.b-hi[{i}]"
        u = bytes([_V(i - 1), _V(i)])
        ub = u[::-1]

        rhs = u + bytes([_V(i - 1)]) + ub
        pr = _Prover(rhs, self)
        pr.apply(f"red.v-braid[{i-1}]", 0, forward=True)
        pr.reduce()
        self._register(uv, pr, bytes([_V(i)]), rhs)

        rhs = u + self.Eb[i - 1] + ub
        pr = _Prover(rhs, self)
        pr.apply(f"d.vb[{i-1},{i}]", 1, forward=True)
        pr.reduce()
        self._register(ublo, pr, self.Eb[i], rhs)

        rhs = u + self.Eb[i] + ub
        pr = _Prover(rhs, self)
        pr.apply(f"d.vb[{i+1},{i-1}]", 0, forward=True)
        pr.reduce()
        self._register(ubhi, pr, self.Eb[i + 1], rhs)
        return uv, ublo, ubhi, ub

    def _build_sand(self, i: int) -> None:
        """E(b_i b_(i+1) x_i b_(i+1) b_i) = E(v_i x_i v_i)."""
        name = f"d.sand[{i}]"
        Bi, Bi1, Si = self.Eb[i], self.Eb[i + 1], self.Es[i]
        lhs = Bi + Bi1 + Si + Bi1 + Bi
        rhs = bytes([_V(i)]) + Si + bytes([_V(i)])
        pr = _Prover(lhs, self)
        if i == 1:
            pr.apply("red.bar-commute", 0, forward=True)
            pr.apply("red.bar-commute", 5, forward=False)
            pr.apply("red.bar-sandwich", 0, forward=True)
        else:
            # conjugate each chunk one index down, sandwich, shift back up
            uv, ublo, ubhi, ub = self._build_ushift(i)
            ind = f"d.ind.s[{i}]"
            pr.shift((ublo, ubhi, ind, ubhi, ublo))
            pr.reduce()
            pr.apply(f"d.sand[{i-1}]", 2, forward=True)
            pr.insert(ub, 3)
            pr.insert(ub, 7 + len(self.Es[i - 1]))
            pr.shift((uv, ind, uv), forward=False)
        self._register(name, pr, lhs, rhs)

    def _build_sand_var(self, i: int) -> None:
        name = f"d.sand.var[{i}]"
        Bi, Bi1, Si = self.Eb[i], self.Eb[i + 1], self.Es[i]
        lhs = Bi1 + Bi + Si + Bi + Bi1
        rhs = bytes([_V(i)]) + Si + bytes([_V(i)])
        pr = _Prover(lhs, self)
        if i == 1:
            pr.apply("red.bar-sandwich", 0, forward=True)
        else:
            bb = f"d.bb[{i},{i+1}]"
            pr.apply(bb, 0, forward=False)
            pr.apply(bb, len(Bi) + len(Bi1) + len(Si), forward=True)
            pr.apply(f"d.sand[{i}]", 0, forward=True)
        self._register(name, pr, lhs, rhs)

    # -- flattening ----------------------------------------------------------

    def _flat_proof(self, name: str, forward: bool) -> tuple[RewriteStep, ...]:
        key = (name, forward)
        if key not in self._flat_cache:
            self._flat_cache[key] = (
                self._flatten(self.derived[name])
                if forward
                else self._inverted(self._flat_proof(name, True))
            )
        return self._flat_cache[key]

    def _flatten(self, steps) -> tuple[RewriteStep, ...]:
        out: list[RewriteStep] = []
        for step in steps:
            if step.rule not in self.derived:
                out.append(step)
                continue
            sub, off = self._flat_proof(step.rule, step.forward), step.pos
            if off:
                sub = (self._step(s.rule, s.forward, s.pos + off) for s in sub)
            out.extend(sub)
        return tuple(out)

    # -- relation dispatch ---------------------------------------------------

    def _reduction_steps(self, data: bytes) -> tuple[bytes, tuple[RewriteStep, ...]]:
        """Freely reduce in one stack pass, emitting the pair-removal step for
        every cancellation."""
        steps: list[RewriteStep] = []
        out = bytearray()
        for c in data:
            if out and out[-1] == CODE_PARTNER[c]:
                steps.append(self._step(pair_name(letter(out[-1])), True, len(out) - 1))
                out.pop()
            else:
                out.append(c)
        return bytes(out), tuple(steps)

    def relation_path(self, r: Relation) -> tuple[RewriteStep, ...] | None:
        """The primitive path between the reduced expansions of r's sides, or
        None when no rule has the joined expansions of r's sides as its
        sides, either way round.  Only the rule-level path is replayed; the
        lemma proofs its flattening splices in were checked at `_register`."""
        lhs = b"".join(map(_expansion_code, r.lhs))
        rhs = b"".join(map(_expansion_code, r.rhs))
        e_l, red_l = self._reduction_steps(lhs)
        e_r, red_r = self._reduction_steps(rhs)
        if e_l == e_r:
            return ()
        forward = (lhs, rhs) in self.by_sides
        rule = self.by_sides.get((lhs, rhs) if forward else (rhs, lhs))
        if rule is None:
            return None
        path = self._inverted(red_l) + (self._step(rule, forward, 0),) + red_r
        *_, (_, check) = _walk_path(e_l, path, self.table)
        if check != e_r:
            raise Mismatch(f"certificate for {r.name} does not replay")
        return self._flatten(path)


@functools.lru_cache(maxsize=2)
def _bank_at(family: Family, n: int) -> _RuleBank:
    """The bank of one reduced presentation.  Only the last two stay alive:
    a bank holds every certificate step it handed out, and verification
    runs one (family, n) at a time."""
    return _RuleBank(reduced_presentation(family, n))


# ---------------------------------------------------------------------------
# public verification API


#: Each reduced family's full family: the one whose category is flat
#: (has Kind.C) exactly when the reduced family's is.
FULL_OF_REDUCED = {
    family: full
    for family, cat in FAMILY_CATEGORY.items() if family not in FULL_FAMILY.values()
    for full_cat, full in FULL_FAMILY.items()
    if (Kind.C in ALLOWED_KINDS[cat]) == (Kind.C in ALLOWED_KINDS[full_cat])
}


def full_relations_for(reduced_family: Family, n: int) -> tuple[Relation, ...]:
    """The full relations a reduced family is expected to reproduce; a
    family without bars takes the bar-free subset."""
    if reduced_family not in FULL_OF_REDUCED:
        raise ValueError(f"{reduced_family} is not a reduced presentation family")
    full = full_presentation(FULL_OF_REDUCED[reduced_family], n)
    if Kind.B not in ALLOWED_KINDS[FAMILY_CATEGORY[reduced_family]]:
        return tuple(
            r
            for r in full.relations
            if all(g.kind is not Kind.B for g in r.lhs + r.rhs)
        )
    return full.relations


def _require_reduced(reduced: Presentation) -> None:
    """Refuse all but reduced_presentation(family, n): the bank and the renderer
    read only those two fields.  It is memoized, so its own result passes."""
    known = reduced_presentation(reduced.family, reduced.n)
    if reduced is not known and reduced != known:
        raise Mismatch(f"not reduced_presentation({reduced.family}, {reduced.n})")


def verify_derived_relation(r: Relation, reduced: Presentation) -> SearchOutcome:
    """Prove that a full relation holds between the expansions of its sides
    over the reduced generators.

    Both sides must be words of the reduced group: a letter outside its
    strand count or category raises the WordError that BraidWord raises.
    An Equal outcome (printed Proved) carries a certificate: a step path
    from expand_word(lhs) to expand_word(rhs) that replays under the
    reduced relations plus cancelling pairs.  The path comes from the
    derived-rule bank, which checks each lemma once and finds the rule that
    joins the expansions of r's two sides by those sides, whatever r is
    called; a relation that no rule joins is Unknown.  A presentation other
    than reduced_presentation(family, n) raises Mismatch."""
    _require_reduced(reduced)
    BraidWord(reduced.n, r.lhs + r.rhs, reduced.category)
    path = _bank_at(reduced.family, reduced.n).relation_path(r)
    return SearchOutcome(path is not None, path or ())


def verify_reduction(
    reduced: Presentation,
    relations: tuple[Relation, ...] | None = None,
) -> list[tuple[Relation, SearchOutcome]]:
    """Verify every full relation against a reduced presentation."""
    if relations is None:
        relations = full_relations_for(reduced.family, reduced.n)
    return [(r, verify_derived_relation(r, reduced)) for r in relations]


def render_path(
    r: Relation,
    reduced: Presentation,
    path: tuple[RewriteStep, ...],
) -> str:
    """Proof-path export: one step per line,
    `<relation name> @ <position> : <resulting word>`.  Raises Mismatch
    where a step is malformed or does not fit, or names a bank lemma, as
    ``replay_path`` under ``rule_table(reduced)`` does, and on a
    presentation other than reduced_presentation(family, n)."""
    _require_reduced(reduced)
    start = expand_word(BraidWord(reduced.n, r.lhs, reduced.category))
    lines = []
    for step, data in _walk_path(encode_word(start), path, reduced.table):
        word = decode_word(data, reduced.n, reduced.category)
        lines.append(f"{step.rule} @ {step.pos} : {str(word) or '1'}")
    return "\n".join(lines)
