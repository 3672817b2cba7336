"""Acceptance gate: one test per criterion, each ending in a single
PASS/FAIL line (visible with ``pytest -v`` per test, and printed with -s).
Stated time budgets are asserted alongside the results."""
import random
from time import perf_counter

from twbraid.braiding import braid, find_up_arcs
from twbraid.diagram import (
    closure_diagram,
    gauss_code,
    gauss_equivalent,
    shipped_diagram,
    shipped_diagram_names,
)
from twbraid.markov import closure_code, markov_equivalent_bounded, markov_neighbors
from twbraid.presentations import (
    Family,
    equivalent_bounded,
    full_presentation,
    reduced_presentation,
)
from twbraid.quotients import (
    bar_parity_per_component,
    closure_permutation,
    hyperoctahedral_image,
    sigma_exponent_sum,
)
from twbraid.reduced_map import check_zigzag_identity, verify_reduction
from twbraid.words import (
    BraidWord,
    Category,
    Kind,
    parse_word,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def _random_word(rng: random.Random, n: int, category: Category) -> BraidWord:
    tokens = []
    for _ in range(rng.randint(0, 8)):
        choices = [f"b{rng.randint(1, n)}"]
        if n >= 2:
            i = rng.randint(1, n - 1)
            choices.append(f"v{i}")
            if category is Category.TWISTED:
                choices += [f"s{i}", f"S{i}"]
            else:
                choices.append(f"c{i}")
        tokens.append(rng.choice(choices))
    return parse_word(" ".join(tokens), n, category)


def _verify_family(num: int, family: Family, budget: float) -> None:
    t0 = perf_counter()
    proved = total = 0
    for n in range(2, 6):
        for _relation, verdict in verify_reduction(reduced_presentation(family, n)):
            total += 1
            proved += verdict.equal
    elapsed = perf_counter() - t0
    _report(
        num,
        proved == total and elapsed <= budget,
        f"{proved}/{total} full relations Proved over n=2..5 "
        f"in {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_criterion_1_twisted_reduced_presentation():
    _verify_family(1, Family.TB_REDUCED, 300.0)


def test_criterion_2_flat_reduced_presentation():
    _verify_family(2, Family.FT_REDUCED, 300.0)


def test_criterion_3_quotient_soundness_on_relations():
    t0 = perf_counter()
    checked = 0
    for n in range(2, 7):
        for family in (Family.TB_FULL, Family.FT_FULL):
            p = full_presentation(family, n)
            for r in p.relations:
                lhs = BraidWord(n, r.lhs, p.category)
                rhs = BraidWord(n, r.rhs, p.category)
                assert hyperoctahedral_image(lhs) == hyperoctahedral_image(rhs), r
                assert sigma_exponent_sum(lhs) == sigma_exponent_sum(rhs), r
                assert bar_parity_per_component(lhs) == bar_parity_per_component(
                    rhs
                ), r
                checked += 1
    elapsed = perf_counter() - t0
    _report(
        3,
        elapsed <= 10.0,
        f"{checked} relation instances with identical images, exponent sums, "
        f"and bar parities in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_braiding_round_trip_corpus():
    t0 = perf_counter()
    names = [s for s in shipped_diagram_names() if s.startswith("corpus_")]
    assert len(names) >= 30, f"only {len(names)} corpus diagrams"
    for name in names:
        d = shipped_diagram(name)
        counts = d.counts()
        assert counts["classical"] <= 6 and counts["virtual"] <= 4, name
        assert counts["bars"] <= 6, name
        w = braid(d)
        assert gauss_equivalent(gauss_code(d), gauss_code(closure_diagram(w))), name
        kinds = [g.kind for g in w.letters]
        classical = sum(k in (Kind.SIGMA, Kind.SIGMA_INV) for k in kinds)
        if d.flat:
            classical += kinds.count(Kind.C)
        assert classical == counts["classical"], name
        assert kinds.count(Kind.B) == counts["bars"], name
    elapsed = perf_counter() - t0
    _report(
        4,
        elapsed <= 30.0,
        f"{len(names)} diagrams round-tripped with exact classical/bar "
        f"conservation in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_shipped_example_statistics():
    d = shipped_diagram("showcase")
    counts = d.counts()
    assert (counts["classical"], counts["virtual"], counts["bars"]) == (3, 1, 4)
    decomposition = find_up_arcs(d)
    valid = len(decomposition.valid_crossings)
    free = len(decomposition.free_up_arcs)
    w = braid(d)
    kinds = [g.kind for g in w.letters]
    classical = sum(k in (Kind.SIGMA, Kind.SIGMA_INV) for k in kinds)
    bars = kinds.count(Kind.B)
    _report(
        5,
        (valid, free, classical, bars) == (3, 3, 3, 4),
        f"{valid} valid crossings, {free} free up-arcs, braid word has "
        f"{classical} classical letters and {bars} bars",
    )


def test_criterion_6_markov_move_soundness():
    t0 = perf_counter()
    rng = random.Random(1906)
    per_category = {}
    for category in (Category.TWISTED, Category.FLAT_TWISTED):
        pairs = 0
        while pairs < 210:
            w = _random_word(rng, rng.randint(1, 4), category)
            neighbors = sorted(
                markov_neighbors(w),
                key=lambda pair: (pair[0].describe(), str(pair[1])),
            )
            for move, res in rng.sample(neighbors, min(3, len(neighbors))):
                assert gauss_equivalent(closure_code(w), closure_code(res)), (
                    w,
                    move.describe(),
                )
                assert (
                    closure_permutation(w).component_count
                    == closure_permutation(res).component_count
                ), (w, move.describe())
                assert sorted(bar_parity_per_component(w).values()) == sorted(
                    bar_parity_per_component(res).values()
                ), (w, move.describe())
                delta = sigma_exponent_sum(res) - sigma_exponent_sum(w)
                if move.kind.value == "RightRealStab":
                    assert abs(delta) == 1, (w, move.describe())
                else:
                    assert delta == 0, (w, move.describe())
                pairs += 1
        per_category[category.value] = pairs
    elapsed = perf_counter() - t0
    _report(
        6,
        all(v >= 200 for v in per_category.values()) and elapsed <= 60.0,
        f"{per_category['twisted']} twisted and {per_category['flat_twisted']} "
        f"flat pairs preserved every invariant in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_move_instances_found_equal():
    t0 = perf_counter()
    slugs = ("move_t1_a", "move_t1_b", "move_t3_a", "move_t3_b")
    results = []
    for slug in slugs:
        left = braid(shipped_diagram(f"{slug}_left"))
        right = braid(shipped_diagram(f"{slug}_right"))
        outcome = markov_equivalent_bounded(left, right)
        results.append(outcome.equal)
    elapsed = perf_counter() - t0
    _report(
        7,
        all(results) and elapsed <= 1.0,
        "2 strand-slide and 2 bar-sandwich instances all Equal under "
        f"default search bounds in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_8_zigzag_identity():
    t0 = perf_counter()
    checked = 0
    for n in range(2, 7):
        for i in range(1, n):
            assert check_zigzag_identity(i, n).equal, (i, n)
            checked += 1
    elapsed = perf_counter() - t0
    _report(
        8,
        elapsed <= 1.0,
        f"{checked} valley/mountain instances proved for n<=6 "
        f"in {elapsed:.2f}s (budget 1s)",
    )


def _quotient_fingerprint(w: BraidWord):
    return (
        hyperoctahedral_image(w),
        sigma_exponent_sum(w),
        bar_parity_per_component(w),
    )


def test_criterion_9_disequality_cross_check():
    t0 = perf_counter()
    rng = random.Random(1909)
    presentations = {}
    checked = attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 20_000, "random pairs almost never differ?"
        category = rng.choice((Category.TWISTED, Category.FLAT_TWISTED))
        n = rng.randint(2, 4)
        w1 = _random_word(rng, n, category)
        w2 = _random_word(rng, n, category)
        if _quotient_fingerprint(w1) == _quotient_fingerprint(w2):
            continue
        family = (
            Family.TB_FULL if category is Category.TWISTED else Family.FT_FULL
        )
        if (family, n) not in presentations:
            presentations[family, n] = full_presentation(family, n)
        outcome = equivalent_bounded(
            w1,
            w2,
            presentations[family, n],
            max_length=max(len(w1), len(w2)) + 4,
            max_nodes=400,
        )
        assert not outcome.equal, (w1, w2)
        checked += 1
    elapsed = perf_counter() - t0
    _report(
        9,
        checked >= 500 and elapsed <= 30.0,
        f"{checked} invariant-separated pairs, 0 spurious Equal outcomes "
        f"in {elapsed:.1f}s (budget 30s)",
    )
