"""Every category and family fact has one source, and every reader agrees.

A category's letters (``words.ALLOWED_KINDS``) decide whether it is flat
and barred; ``FAMILY_CATEGORY`` and ``FULL_FAMILY`` decide the families.
The expected facts are written out here as literals, and each reader is
checked against them: diagram refusal and flatness, both builders, the
derived-rule bank's ``flat`` and ``barred``, ``full_relations_for``'s full
family and bar filter, and the Markov search's full family.
"""

import pytest

from twbraid import markov
from twbraid.diagram import Event, EventKind, MorseDiagram, Turn
from twbraid.presentations import (
    FAMILY_CATEGORY,
    FULL_FAMILY,
    Family,
    full_presentation,
    reduced_presentation,
)
from twbraid.reduced_map import _bank_at, full_relations_for
from twbraid.words import BraidWord, Category, CategoryViolation, Kind

#: category: (flat, barred, the diagram events it refuses)
CATEGORY_FACTS = {
    Category.TWISTED: (False, True, set()),
    Category.FLAT_TWISTED: (True, True, {EventKind.CROSS_NEG}),
    Category.VIRTUAL: (False, False, {EventKind.BAR}),
    Category.FLAT_VIRTUAL: (True, False, {EventKind.CROSS_NEG, EventKind.BAR}),
    Category.CLASSICAL: (False, False, {EventKind.BAR}),
}

#: family: (category, full family)
FAMILY_FACTS = {
    Family.TB_FULL: (Category.TWISTED, Family.TB_FULL),
    Family.FT_FULL: (Category.FLAT_TWISTED, Family.FT_FULL),
    Family.TB_REDUCED: (Category.TWISTED, Family.TB_FULL),
    Family.FT_REDUCED: (Category.FLAT_TWISTED, Family.FT_FULL),
    Family.VB_REDUCED: (Category.VIRTUAL, Family.TB_FULL),
    Family.FV_REDUCED: (Category.FLAT_VIRTUAL, Family.FT_FULL),
}

#: the full family of each category that has one
FULL_OF_CATEGORY = {c: f for f, (c, full) in FAMILY_FACTS.items() if f is full}


def test_the_tables_cover_every_member():
    assert set(CATEGORY_FACTS) == set(Category)
    assert set(FAMILY_FACTS) == set(Family)
    assert FAMILY_CATEGORY == {f: c for f, (c, _) in FAMILY_FACTS.items()}
    assert FULL_FAMILY == FULL_OF_CATEGORY


@pytest.mark.parametrize("category", list(Category), ids=lambda c: c.value)
def test_diagrams_refuse_and_flatten_as_the_letters_say(category):
    flat, _, refused = CATEGORY_FACTS[category]
    assert MorseDiagram((), category).flat is flat
    for kind in EventKind:
        turn = Turn.CCW if kind in (EventKind.CUP, EventKind.CAP) else None
        slices = (Event(kind, 1, turn),)
        if kind in refused:
            with pytest.raises(CategoryViolation, match=kind.value):
                MorseDiagram(slices, category)
        else:
            MorseDiagram(slices, category)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_the_builders_read_the_facts(family):
    category, full = FAMILY_FACTS[family]
    flat, barred, _ = CATEGORY_FACTS[category]
    build, other = ((full_presentation, reduced_presentation) if family is full
                    else (reduced_presentation, full_presentation))
    p = build(family, 3)
    with pytest.raises(ValueError, match="is not a .* presentation family"):
        other(family, 3)
    assert p.category is category
    kinds = {g.kind for g in p.alphabet}
    assert (Kind.C in kinds, Kind.B in kinds) == (flat, barred)


@pytest.mark.parametrize(
    "family", [f for f, (_, full) in FAMILY_FACTS.items() if f is not full],
    ids=lambda f: f.value)
def test_the_bank_and_full_relations_for_read_the_facts(family):
    category, full = FAMILY_FACTS[family]
    flat, barred, _ = CATEGORY_FACTS[category]
    bank = _bank_at(family, 3)
    assert (bank.flat, bank.barred) == (flat, barred)
    relations = full_presentation(full, 3).relations
    bar_free = tuple(r for r in relations
                     if all(g.kind is not Kind.B for g in r.lhs + r.rhs))
    assert len(bar_free) < len(relations)
    assert full_relations_for(family, 3) == (relations if barred else bar_free)


@pytest.mark.parametrize("category", list(Category), ids=lambda c: c.value)
def test_the_markov_search_reads_the_full_family(category):
    full = FULL_OF_CATEGORY.get(category)
    if full is None:
        with pytest.raises(CategoryViolation):
            markov.markov_neighbors(BraidWord(3, (), category))
    else:
        assert markov._search_rules(category, 3) is full_presentation(full, 3)._rules
