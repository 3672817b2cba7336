"""A certificate renderer refuses exactly the steps its checker refuses.

Each renderer and its checker read one walk per certificate kind
(``presentations._walk_path`` for rewrite paths, ``markov._walk_moves`` for
move paths), so this holds by construction; the test pins it.

Real certificates, with one field of one step changed: the bank's relation
paths (``verify_derived_relation`` at TB and FT, n = 3..5) rendered by
``render_path`` against ``replay_path`` under ``rule_table(reduced)``, and
Equal Markov paths (``markov_equivalent_bounded``) rendered by
``render_markov_path`` against ``replay_markov_path``.
"""

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from twbraid.braiding import braid
from twbraid.diagram import shipped_diagram
from twbraid.markov import (
    MoveKind,
    markov_equivalent_bounded,
    render_markov_path,
    replay_markov_path,
)
from twbraid.presentations import (
    FULL_FAMILY,
    Family,
    Mismatch,
    full_presentation,
    reduced_presentation,
    replay_path,
    rule_table,
)
from twbraid.reduced_map import _bank_at, expand_word, render_path, verify_reduction
from twbraid.words import BraidWord, Category, encode_word, parse_word


@functools.cache
def _rewrite_certificates():
    return tuple(
        (family, n, r, verdict.path)
        for family in (Family.TB_REDUCED, Family.FT_REDUCED)
        for n in (3, 4, 5)
        for r, verdict in verify_reduction(reduced_presentation(family, n))
        if verdict.path
    )


@functools.cache
def _markov_certificates():
    def tw(text, n):
        return parse_word(text, n, Category.TWISTED)

    pairs = [
        (tw("b1 b1 s1 s2 s1", 3), tw("s2 s1 s2", 3)),
        (tw("s1", 2), BraidWord(1, (), Category.TWISTED)),
        (tw("s1 s2 b1", 3), tw("b1 s1 s2", 3)),
        (tw("s1 S2 s1", 3), tw("s1 s1", 2)),
        (parse_word("c1 c2 v1", 3, Category.FLAT_TWISTED),
         parse_word("v1 c1 c2", 3, Category.FLAT_TWISTED)),
    ]
    for inst in ("t1_a", "t1_b", "t3_a", "t3_b"):
        left = braid(shipped_diagram(f"move_{inst}_left"))
        pairs.append((left, braid(shipped_diagram(f"move_{inst}_right"))))
    out = []
    for left, right in pairs:
        found = markov_equivalent_bounded(left, right)
        assert found.equal and found.path, (left, right)
        out.append((left, found.path))
    return tuple(out)


def _changed_rewrite_step(draw, family, n, r, path):
    """The path with one step's rule, position or direction changed.  A new
    rule is a bank lemma, one whose side fits the word there if any does."""
    reduced = reduced_presentation(family, n)
    k = draw(st.integers(0, len(path) - 1))
    step = path[k]
    field = draw(st.sampled_from(("rule", "pos", "forward")))
    if field == "rule":
        start = expand_word(BraidWord(n, r.lhs, reduced.category))
        word = encode_word(replay_path(start, path[:k], rule_table(reduced)))
        table = _bank_at(family, n).table
        lemmas = sorted(name for name in table if name.startswith("d."))
        fits = [
            name for name in lemmas
            if word.startswith(table[name][not step.forward], step.pos)
        ]
        step = dataclasses.replace(step, rule=draw(st.sampled_from(fits or lemmas)))
    elif field == "pos":
        delta = draw(st.integers(-3, 3).filter(bool))
        step = dataclasses.replace(step, pos=step.pos + delta)
    else:
        step = dataclasses.replace(step, forward=not step.forward)
    return path[:k] + (step,) + path[k + 1:]


def _changed_markov_move(draw, w, path):
    """The path with one move's rule (its kind, or its step's rule), its
    position (its index, or its step's position) or its direction changed."""
    k = draw(st.integers(0, len(path) - 1))
    move = path[k]
    field = draw(st.sampled_from(("rule", "pos", "forward")))
    delta = draw(st.integers(-2, 2).filter(bool))
    if field == "forward":
        move = dataclasses.replace(move, forward=not move.forward)
    elif move.step is None and field == "rule":
        move = dataclasses.replace(move, kind=draw(st.sampled_from(list(MoveKind))))
    elif move.step is None:
        move = dataclasses.replace(move, index=move.index + delta)
    elif field == "rule":
        here = replay_markov_path(w, path[:k])
        rules = sorted(full_presentation(FULL_FAMILY[here.category], here.n).table)
        step = dataclasses.replace(move.step, rule=draw(st.sampled_from(rules)))
        move = dataclasses.replace(move, step=step)
    else:
        step = dataclasses.replace(move.step, pos=move.step.pos + delta)
        move = dataclasses.replace(move, step=step)
    return path[:k] + (move,) + path[k + 1:]


def _refused(fn, *args) -> bool:
    try:
        fn(*args)
    except Mismatch:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_renderers_refuse_exactly_what_checkers_refuse(data):
    if data.draw(st.booleans(), label="rewrite"):
        family, n, r, path = data.draw(st.sampled_from(_rewrite_certificates()))
        reduced = reduced_presentation(family, n)
        bad = _changed_rewrite_step(data.draw, family, n, r, path)
        start = expand_word(BraidWord(n, r.lhs, reduced.category))
        assert _refused(render_path, r, reduced, bad) == _refused(
            replay_path, start, bad, rule_table(reduced)
        )
    else:
        w, path = data.draw(st.sampled_from(_markov_certificates()))
        bad = _changed_markov_move(data.draw, w, path)
        assert _refused(render_markov_path, w, bad) == _refused(
            replay_markov_path, w, bad
        )
