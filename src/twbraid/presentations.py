"""Group presentations as explicit relation instances, plus a bounded
bidirectional rewriting search for word equivalence.  Its search engine,
_bidirectional, also runs the Markov-move search, in a single stage.

Words are rewritten as raw strings of the one-byte letter codes of
``words``: one step is a single subword substitution (either side of a
relation, in either direction) or the insertion/removal of a cancelling
pair.  No implicit free reduction happens between steps.  That keeps the
one-step neighbor relation exactly symmetric and makes every returned
certificate replayable letter by letter.

Relations are materialized per strand count rather than kept schematic, so
the rewrite engine is a pure string matcher over the rules each
presentation owns: one object per (family, n) builds its rule table and
rule index once, with one row of substitutions per room a word has left.
The search expands a node into result words only (``_neighbor_results``)
and keeps each word's parent.  A step is built only on the returned path:
``_step_into`` walks a node's substitutions in a canonical order, entry
then position, and returns the first whose result is in a given set, so
the path does not depend on the order of the results.  As the two seen
maps stay disjoint, the level where the node budget runs out stores
nothing: each node there is asked for the results that can land on the
other side, as ruled by a length profile of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .words import (
    ALLOWED_KINDS,
    BraidWord,
    Category,
    Generator,
    IdentityEnum,
    Kind,
    UnsupportedN,
    code,
    decode_word,
    encode_letters,
    encode_word,
    max_index,
    parse_word,
)


class Mismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# relations and presentations


@dataclass(frozen=True)
class Relation:
    """One bidirectional relation instance, lhs = rhs."""

    name: str
    lhs: tuple[Generator, ...]
    rhs: tuple[Generator, ...]

    def __str__(self) -> str:
        left = " ".join(g.token() for g in self.lhs) or "1"
        right = " ".join(g.token() for g in self.rhs) or "1"
        return f"{self.name}: {left} = {right}"


class Family(IdentityEnum):
    TB_FULL = "TB_full"
    FT_FULL = "FT_full"
    TB_REDUCED = "TB_reduced"
    FT_REDUCED = "FT_reduced"
    VB_REDUCED = "VB_reduced"
    FV_REDUCED = "FV_reduced"


FAMILY_CATEGORY = {
    Family.TB_FULL: Category.TWISTED,
    Family.FT_FULL: Category.FLAT_TWISTED,
    Family.TB_REDUCED: Category.TWISTED,
    Family.FT_REDUCED: Category.FLAT_TWISTED,
    Family.VB_REDUCED: Category.VIRTUAL,
    Family.FV_REDUCED: Category.FLAT_VIRTUAL,
}

#: The full family of each category that has one; the other families are
#: reduced.
FULL_FAMILY = {
    Category.TWISTED: Family.TB_FULL,
    Category.FLAT_TWISTED: Family.FT_FULL,
}

@dataclass(frozen=True)
class Presentation:
    """One object per (family, n), from full_ or reduced_presentation,
    owning its rule table and rule index, each built on first use."""

    family: Family
    n: int
    relations: tuple[Relation, ...]
    alphabet: frozenset[Generator]

    @property
    def category(self) -> Category:
        return FAMILY_CATEGORY[self.family]

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)

    @cached_property
    def table(self) -> RuleTable:
        """rule_table(self), shared: nothing writes to it."""
        return rule_table(self)

    @cached_property
    def _rules(self) -> _RuleIndex:
        return _rule_index(self.table)

    @cached_property
    def _pair_free_rules(self) -> _RuleIndex:
        """_rules without its insertions, for the search's first stage."""
        return self._rules[:3] + ((),)


def _gens(text: str, n: int, category: Category) -> tuple[Generator, ...]:
    return parse_word(text, n, category).letters


def _alphabet(n: int, category: Category, reduced: bool) -> frozenset[Generator]:
    """Every letter of the category on n strands, or for a reduced
    presentation the v letters plus index 1 of each other kind."""
    return frozenset(
        Generator(k, i) for k in ALLOWED_KINDS[category]
        for i in range(1, max_index(k, n) + 1)
        if not reduced or k is Kind.V or i == 1
    )


@cache
def full_presentation(family: Family, n: int) -> Presentation:
    """Every defining relation instance of the full presentation, over all
    index-valid instantiations, including both equivalent variants of the
    bar-slide and bar-sandwich families."""
    if family not in FULL_FAMILY.values():
        raise ValueError(f"{family} is not a full presentation family")
    if n < 2:
        raise UnsupportedN("full presentations need n >= 2")
    code(Kind.V, n - 1)  # refuse a generator past the codec before building
    cat = FAMILY_CATEGORY[family]
    flat = Kind.C in ALLOWED_KINDS[cat]
    # the classical-ish crossing letter, its inverse, its relations' names
    x, y, group = ("c", "c", "flat") if flat else ("s", "S", "braid")
    cancel = "involution" if flat else "cancel"
    rels: list[Relation] = []

    def add(name: str, lhs: str, rhs: str) -> None:
        rels.append(Relation(name, _gens(lhs, n, cat), _gens(rhs, n, cat)))

    for i in range(1, n):
        add(f"{group}.{cancel}[{i}]", f"{x}{i} {y}{i}", "")
    for i in range(1, n - 1):
        a, b = f"{x}{i}", f"{x}{i+1}"
        add(f"{group}.braid[{i}]", f"{a} {b} {a}", f"{b} {a} {b}")
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            add(f"{group}.commute[{i},{j}]", f"{x}{i} {x}{j}", f"{x}{j} {x}{i}")

    for i in range(1, n):
        add(f"virtual.involution[{i}]", f"v{i} v{i}", "")
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            add(f"virtual.commute[{i},{j}]", f"v{i} v{j}", f"v{j} v{i}")
    for i in range(1, n - 1):
        add(f"virtual.braid[{i}]", f"v{i} v{i+1} v{i}", f"v{i+1} v{i} v{i+1}")

    for i in range(1, n + 1):
        add(f"twisted.involution[{i}]", f"b{i} b{i}", "")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(f"twisted.commute[{i},{j}]", f"b{i} b{j}", f"b{j} b{i}")

    mixed = "flat" if flat else "sigma"
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                add(f"mixed.{mixed}-v[{i},{j}]", f"{x}{i} v{j}", f"v{j} {x}{i}")
    for i in range(1, n - 1):
        add(
            f"mixed.v-{mixed}-v[{i}]",
            f"v{i} {x}{i+1} v{i}",
            f"v{i+1} {x}{i} v{i+1}",
        )
    for i in range(1, n):
        add(f"mixed.bar-slide[{i}]", f"b{i} v{i}", f"v{i} b{i+1}")
        add(f"mixed.bar-slide-var[{i}]", f"v{i} b{i}", f"b{i+1} v{i}")
    for i in range(1, n):
        add(
            f"mixed.bar-sandwich[{i}]",
            f"b{i} b{i+1} {x}{i} b{i+1} b{i}",
            f"v{i} {x}{i} v{i}",
        )
        add(
            f"mixed.bar-sandwich-var[{i}]",
            f"b{i+1} b{i} {x}{i} b{i} b{i+1}",
            f"v{i} {x}{i} v{i}",
        )
    for i in range(1, n + 1):
        for j in range(1, n):
            if j > i or j < i - 1:
                add(f"mixed.bar-v[{i},{j}]", f"b{i} v{j}", f"v{j} b{i}")
    for i in range(1, n + 1):
        for j in range(1, n):
            if j > i or j < i - 1:
                add(f"mixed.bar-{mixed}[{i},{j}]", f"b{i} {x}{j}", f"{x}{j} b{i}")

    return Presentation(family, n, tuple(rels), _alphabet(n, cat, False))


@cache
def reduced_presentation(family: Family, n: int) -> Presentation:
    """The reduced presentation on generators {s1 or c1, b1, v1..v(n-1)},
    instantiated over indices that exist at this n."""
    if family not in FAMILY_CATEGORY or family in FULL_FAMILY.values():
        raise ValueError(f"{family} is not a reduced presentation family")
    if n < 2:
        raise UnsupportedN("reduced presentations need n >= 2")
    code(Kind.V, n - 1)  # refuse a generator past the codec before building
    cat = FAMILY_CATEGORY[family]
    flat = Kind.C in ALLOWED_KINDS[cat]
    barred = Kind.B in ALLOWED_KINDS[cat]
    x = "c1" if flat else "s1"
    rels: list[Relation] = []

    def add(name: str, lhs: str, rhs: str) -> None:
        rels.append(Relation(name, _gens(lhs, n, cat), _gens(rhs, n, cat)))

    for i in range(1, n - 1):
        add(f"red.v-braid[{i}]", f"v{i} v{i+1} v{i}", f"v{i+1} v{i} v{i+1}")
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            add(f"red.v-commute[{i},{j}]", f"v{i} v{j}", f"v{j} v{i}")
    for i in range(1, n):
        add(f"red.v-involution[{i}]", f"v{i} v{i}", "")
    for j in range(3, n):
        add(f"red.{'flat' if flat else 'sigma'}-v[{j}]", f"{x} v{j}", f"v{j} {x}")
    if flat:
        add("red.flat-involution", f"{x} {x}", "")
    if barred:
        add("red.bar-involution", "b1 b1", "")
        for j in range(2, n):
            add(f"red.bar-v[{j}]", f"b1 v{j}", f"v{j} b1")
    if n >= 3:
        a, b = f"v1 {x} v1", f"v2 {x} v2"
        add(
            f"red.{'flat' if flat else 'sigma'}-braid",
            f"{a} {b} {a}",
            f"{b} {a} {b}",
        )
    if n >= 4:
        t = f"v2 v3 v1 v2 {x} v2 v1 v3 v2"
        add(f"red.{'flat' if flat else 'sigma'}-commute", f"{x} {t}", f"{t} {x}")
    if barred:
        add("red.bar-commute", "b1 v1 b1 v1", "v1 b1 v1 b1")
        if n >= 3:
            k = "v2 v1 b1 v1 v2"
            add(
                f"red.{'flat' if flat else 'sigma'}-bar-commute",
                f"{x} {k}",
                f"{k} {x}",
            )
        add(
            "red.bar-sandwich",
            f"v1 b1 v1 b1 {x} b1 v1 b1 v1",
            f"v1 {x} v1",
        )

    return Presentation(family, n, tuple(rels), _alphabet(n, cat, True))


# ---------------------------------------------------------------------------
# rewrite rules, steps, replay


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One substitution: replace `rule`'s source side at `pos` by the other
    side.  forward means lhs -> rhs.  Insertions are rl-steps of a rule whose
    rhs is empty."""

    rule: str
    forward: bool
    pos: int

    def inverse(self) -> RewriteStep:
        return RewriteStep(self.rule, not self.forward, self.pos)


RuleTable = dict[str, tuple[bytes, bytes]]


def pair_name(g: Generator) -> str:
    """The name of the cancelling-pair rule ``g g' = 1``."""
    return f"pair.{g.token()}"


def pair_rules(alphabet: frozenset[Generator]) -> RuleTable:
    """Cancelling-pair rules gg' = 1 for every alphabet letter.

    For self-inverse kinds these coincide with the involution relations; for
    classical crossings both orders are materialized, which substitution by
    the cancel relation alone would miss.
    """
    table: RuleTable = {}
    for g in sorted(alphabet, key=lambda g: (g.kind.value, g.index)):
        pair = encode_letters((g, g.inverse()))
        table[pair_name(g)] = (pair, b"")
    return table


def rule_table(p: Presentation) -> RuleTable:
    table: RuleTable = {}
    for r in p.relations:
        table[r.name] = (encode_letters(r.lhs), encode_letters(r.rhs))
    for name, sides in pair_rules(p.alphabet).items():
        table.setdefault(name, sides)
    return table


def apply_step(data: bytes, step: RewriteStep, table: RuleTable) -> bytes:
    if step.rule not in table:
        raise Mismatch(f"unknown rule {step.rule!r}")
    lhs, rhs = table[step.rule]
    src, dst = (lhs, rhs) if step.forward else (rhs, lhs)
    if not 0 <= step.pos <= len(data) or data[step.pos : step.pos + len(src)] != src:
        raise Mismatch(
            f"rule {step.rule!r} does not match at position {step.pos}"
        )
    return data[: step.pos] + dst + data[step.pos + len(src) :]


def _check_step(step: RewriteStep) -> None:
    """Refuse a step whose rule is not a str, forward not a bool or pos not
    an int: ``apply_step`` would read ``1`` as forward and ``True`` as
    position 1."""
    if (not isinstance(step, RewriteStep) or not isinstance(step.rule, str)
            or type(step.forward) is not bool or type(step.pos) is not int):
        raise Mismatch(f"malformed step {step!r}")


def _walk_path(data: bytes, path: tuple[RewriteStep, ...], table: RuleTable):
    """Check, then apply, each step; yield it with the codes it leads to."""
    for step in path:
        _check_step(step)
        data = apply_step(data, step, table)
        yield step, data


def replay_path(
    w: BraidWord, path: tuple[RewriteStep, ...], table: RuleTable
) -> BraidWord:
    """Apply a certificate step by step; raises Mismatch if it does not fit
    or a step is malformed (``_check_step``)."""
    data = encode_word(w)
    for _, data in _walk_path(data, path, table):
        pass
    return decode_word(data, w.n, w.category)


# ---------------------------------------------------------------------------
# neighbor generation and bidirectional search


_RuleIndex = tuple[tuple, dict, int, tuple]


def _rule_index(table: RuleTable) -> _RuleIndex:
    """Both directions of every rule, compiled for the rewrite kernels as
    (entries, rows, largest, insertions).

    Entries are (name, forward, src, dst) in table order, forward first.  An
    entry whose (src, dst) an earlier entry already has is left out: at every
    node it would only repeat the earlier entry's yields, later (the pair
    rules copy the involution and cancel relations).  Row g, for each room g
    from the least to the largest growth len(dst) - len(src), maps src[:2]
    to the substitutions that grow by at most g, as (entry, len(src), dst,
    src if longer than its key else b""); room r reads row min(r, largest).
    Insertions (empty src) are (entry, dst).  A one-letter side, which no
    key finds, or an insertion of other than a pair raises ValueError.
    """
    entries, sides = [], set()
    for name, (lhs, rhs) in table.items():
        if 1 in (len(lhs), len(rhs)):
            raise ValueError(f"rule {name!r} has a one-letter side")
        if not (lhs and rhs) and len(lhs + rhs) != 2:
            raise ValueError(f"rule {name!r} inserts {len(lhs + rhs)} letters")
        for src, dst, fwd in ((lhs, rhs, True), (rhs, lhs, False)):
            if (src, dst) not in sides:
                sides.add((src, dst))
                entries.append((name, fwd, src, dst))
    growths = {len(dst) - len(src) for _, _, src, dst in entries if src} or {0}
    rows: dict[int, dict] = {g: {} for g in range(min(growths), max(growths) + 1)}
    for i, (_, _, src, dst) in enumerate(entries):
        for g, row in rows.items():
            if src and len(dst) - len(src) <= g:
                row.setdefault(src[:2], []).append(
                    (i, len(src), dst, src if len(src) > 2 else b""))
    insertions = [(i, dst) for i, (_, _, src, dst) in enumerate(entries) if not src]
    return tuple(entries), rows, max(growths), tuple(insertions)


def _substitutions(data: bytes, rules: _RuleIndex, room: int) -> list:
    """(entry, pos, src, dst) for every substitution whose result grows by
    at most room letters, in one pass over the positions: the entries under
    the two letters at pos in the row that room reads (_rule_index)."""
    _, rows, largest, _ = rules
    row = rows.get(min(room, largest), {})
    out = []
    for pos in range(len(data) - 1):
        for i, _, dst, src in row.get(data[pos : pos + 2], ()):
            if not src or data.startswith(src, pos):
                out.append((i, pos, src or data[pos : pos + 2], dst))
    return out


def _neighbor_results(
    data: bytes, rules: _RuleIndex, max_length: int, lengths
) -> list[bytes]:
    """The results of every substitution and insertion of rules whose
    result has at most max_length letters, with repeats, in no particular
    order: the substitutions in the row that the room left reads, and each
    insertion joined into every cut of data; nothing else is built per
    result.  Given a set of lengths, the insertions are made only if their
    results have one of them.  Plain loops: a comprehension runs slower."""
    _, rows, largest, insertions = rules
    room = max_length - len(data)
    row = rows.get(min(room, largest), {})
    out = []
    for pos in range(len(data) - 1):
        for _, size, dst, src in row.get(data[pos : pos + 2], ()):
            if not src or data.startswith(src, pos):
                out.append(data[:pos] + dst + data[pos + size :])
    if insertions and room >= 2 and (  # every insertion is a pair
            lengths is None or len(data) + 2 in lengths):
        cuts = [(data[:pos], data[pos:]) for pos in range(len(data) + 1)]
        for _, dst in insertions:
            out += map(dst.join, cuts)
    return out


def _step_into(
    data: bytes, rules: _RuleIndex, max_length: int, targets
) -> tuple[RewriteStep, bytes] | None:
    """The first (step, result) of _neighbor_results(data, rules,
    max_length, None) whose result is in targets, or None.  Steps run in
    entry order, then position order, and only the one returned is built."""
    room = max_length - len(data)
    hits = _substitutions(data, rules, room)
    hits += [(i, pos, b"", dst) for i, dst in rules[3] if room >= 2
             for pos in range(len(data) + 1)]
    hits.sort()
    for i, pos, src, dst in hits:
        result = data[:pos] + dst + data[pos + len(src) :]
        if result in targets:
            name, forward, _, _ = rules[0][i]
            return RewriteStep(name, forward, pos), result
    return None


def rewrite_neighbors(w: BraidWord, p: Presentation) -> set[BraidWord]:
    """All words one substitution away, plus all cancelling-pair insertions.

    Raw one-step semantics: the result of a substitution is *not* freely
    reduced, so the relation is symmetric (w' is a neighbor of w exactly when
    w is a neighbor of w').  Multi-step consequences like collapsing the
    freshly created pairs belong to the search, not to the neighbor set.
    """
    if w.n != p.n:
        raise Mismatch(f"word has n={w.n}, presentation has n={p.n}")
    if w.category != p.category:
        raise Mismatch(
            f"word category {w.category.value} does not match {p.family.value}"
        )
    data = encode_word(w)
    room = max(2, p._rules[2])  # every substitution and insertion fits
    results = _neighbor_results(data, p._rules, len(data) + room, None)
    return {decode_word(result, w.n, w.category) for result in results}


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Equal carries a replayable path of rewrite steps or Markov moves;
    Unknown asserts nothing.  explored counts the nodes expanded."""

    equal: bool
    path: tuple = ()
    explored: int = 0

    @property
    def label(self) -> str:
        return "Equal" if self.equal else "Unknown"

    @property
    def proved(self) -> bool:
        """`equal` under the name perfbench/worker.py reads off the outcomes of
        verify_derived_relation; it goes once the worker reads `equal`."""
        return self.equal

    def __bool__(self) -> bool:
        return self.equal


def _reconstruct(head, step, tail, fwd_seen: dict, bwd_seen: dict, step_into) -> tuple:
    """The path start -> head, step, tail -> goal.  seen maps a node to its
    parent; each other step of the path, and only those, is rebuilt here as
    step_into(parent, forward, (child,)), and inverted on the backward
    chain."""
    chains = []
    for node, seen, forward in ((head, fwd_seen, True), (tail, bwd_seen, False)):
        steps = []
        child, parent = node, seen[node]
        while parent is not None:
            steps.append(step_into(parent, forward, (child,))[0])
            child, parent = parent, seen[parent]
        chains.append(steps)
    return tuple(chains[0][::-1] + [step] + [s.inverse() for s in chains[1]])


def _bidirectional(start, goal, neighbors, step_into, max_nodes: int, *,
                   profile, key=None):
    """Expand the smaller frontier level by level until the two searches
    meet or max_nodes nodes have been expanded; returns (path or None,
    nodes expanded).

    neighbors(node, forward, have) returns the nodes one step away from
    node, in the search from start (forward) or from goal, in any order and
    with repeats; the seen maps store each node's parent only.  With have =
    profile(nodes) instead of None, it may leave out any neighbour that is
    not among nodes.  step_into(node, forward, targets) returns the first
    (step, neighbour) of node, in the search's canonical order, whose
    neighbour is in targets, or None; a step has an inverse(), and a
    backward step enters the path inverted.  It is called only to build
    the path, once per step: where the searches meet, and in _reconstruct.

    The two seen maps stay disjoint: a node entered on one side is looked
    up on the other, and a hit ends the search.  So node meets the other
    side exactly when a neighbour of it is there, and the searches meet at
    step_into(node, forward, other).  The final level, where the budget
    runs out, stores nothing: it asks neighbors(node, forward,
    profile(other)) and looks for one among other's keys.  The order
    neighbors returns does not matter, and frontiers are sorted by key, so
    the final level expands the same nodes.
    """
    if start == goal:
        return (), 0
    fwd_seen: dict = {start: None}
    bwd_seen: dict = {goal: None}
    fwd_frontier, bwd_frontier = [start], [goal]
    explored = 0
    while fwd_frontier and bwd_frontier and explored < max_nodes:
        forward = len(fwd_frontier) <= len(bwd_frontier)
        frontier = fwd_frontier if forward else bwd_frontier
        seen, other = (fwd_seen, bwd_seen) if forward else (bwd_seen, fwd_seen)
        frontier.sort(key=key)
        next_frontier, have = [], None
        final = explored + len(frontier) >= max_nodes
        if final:
            frontier = frontier[: max_nodes - explored]
            have = profile(other.keys())
        for node in frontier:
            explored += 1
            results = neighbors(node, forward, have)
            if final:
                if other.keys().isdisjoint(results):
                    continue
            else:
                for result in results:
                    if result not in seen:
                        seen[result] = node
                        if result in other:
                            break
                        next_frontier.append(result)
                else:
                    continue
            step, meeting = step_into(node, forward, other)
            if not forward:  # the path runs meeting -> node, the step inverted
                node, step, meeting = meeting, step.inverse(), node
            path = _reconstruct(node, step, meeting, fwd_seen, bwd_seen, step_into)
            return path, explored
        if forward:
            fwd_frontier = next_frontier
        else:
            bwd_frontier = next_frontier
    return None, explored


def _check_bounds(max_length: int, max_nodes: int) -> None:
    if max_length < 0:
        raise ValueError(f"max_length must be at least 0, got {max_length}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")


def equivalent_bounded(
    w1: BraidWord,
    w2: BraidWord,
    p: Presentation,
    max_length: int | None = None,
    max_nodes: int = 10**6,
) -> SearchOutcome:
    """Bounded bidirectional search for a rewrite path from w1 to w2.

    Equal outcomes carry a certificate that replays exactly; Unknown means
    the bounds were exhausted and asserts nothing about inequality (use the
    quotient invariants for disequality certificates).

    The search runs in two stages: substitutions and removals only, then,
    if needed, with cancelling-pair insertions as well.  Both stages respect
    max_length; node budgets are split between them.  A negative max_length
    or a max_nodes below 1 raises ValueError.
    """
    if w1.n != w2.n or w1.n != p.n:
        raise Mismatch("strand counts differ")
    if w1.category != w2.category or w1.category != p.category:
        raise Mismatch("categories differ")
    if max_length is None:
        max_length = len(w1) + len(w2) + 8
    _check_bounds(max_length, max_nodes)

    start, goal = encode_word(w1), encode_word(w2)
    budget, total = max_nodes // 4, 0
    # cancelling-pair insertions widen the frontier massively, so the first
    # stage, on a quarter of the budget, leaves them out; the rewrite relation
    # is symmetric, so both directions share each stage's callbacks
    for rules, nodes in ((p._pair_free_rules, budget),
                         (p._rules, max_nodes - budget)):
        path, explored = _bidirectional(
            start, goal,
            lambda data, _forward, lengths: _neighbor_results(
                data, rules, max_length, lengths),
            lambda data, _forward, targets: _step_into(
                data, rules, max_length, targets),
            nodes, profile=lambda other: set(map(len, other)),
        )
        total += explored
        if path is not None:
            return SearchOutcome(True, path, total)
    return SearchOutcome(False, (), total)
