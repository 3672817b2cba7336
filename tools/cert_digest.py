"""Digest every reduced-presentation and Markov certificate, to compare two
checkouts.

Covers every relation of TB/FT/VB/FV at n=2..10 and TB at n=16.  Prints the
number of certificate steps, one SHA-256 over the (family, n, relation,
rule, forward, pos) of every step, and a SHA-256 of the output of
`twb verify-presentation <family> 4 -v` for each family.  A change to the
derived-rule bank that keeps every certificate prints the same lines.

The Markov section runs `markov_equivalent_bounded` on a fixed seeded set
of word pairs (random words, and words against a conjugate, a rotation or a
stabilization of themselves) plus the four shipped `move_t*` instances, and
prints the Equal count and one SHA-256 over (pair, equal, explored,
`describe()` of every move).  A change to the Markov search that keeps every
verdict and certificate prints the same line.

The rewrite section runs `equivalent_bounded` at criterion 9's bounds (400
nodes, `max_length = max(len) + 4`) on a fixed seeded set of twisted and
flat twisted word pairs at n=2..4: criterion-9-style random pairs that a
quotient invariant separates, and random words against a scramble of them
by random rewrite steps.  It prints the Equal count and one SHA-256 over
(pair, equal, explored, rule|forward|pos of every step).  A change to the
rewrite search that keeps every verdict, node count and certificate prints
the same line.

The Gauss section compares Gauss codes on a fixed seeded set of pairs:
every shipped diagram against its `braid` round trip, twisted word closures
against the closure with one crossing sign flipped, `closure_code_equivalent`
on words against a conjugate or a stabilization of themselves, and the
barred Hopf pairs at k = 5..8 against the same link with its pairs in
reverse order and with the last bar moved.  It prints the equivalent count
and one SHA-256 over (pair, verdict).  A change to `gauss_equivalent` that
keeps every verdict prints the same line.

The braid section braids every shipped diagram, and the closures of a fixed
seeded set of twisted and flat twisted words together with those closures
with their orientation reversed.  It prints the diagram count, the total
letters of the braid words and one SHA-256 over (diagram, word, trace,
Gauss code of the diagram, Gauss code of the word's closure).  A change to
the sweep, the braiding or the closure that keeps every output prints the
same line.

Run from the repository root; it puts `src` on `sys.path` itself:

    python3 tools/cert_digest.py
"""

import contextlib
import functools
import hashlib
import io
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from twbraid.braiding import braid, braid_with_trace, trace_lines
from twbraid.cli import main
from twbraid.diagram import (
    closure_diagram,
    flip_orientation,
    gauss_code,
    gauss_equivalent,
    shipped_diagram,
    shipped_diagram_names,
)
from twbraid.markov import closure_code_equivalent, markov_equivalent_bounded
from twbraid.presentations import (
    Family,
    equivalent_bounded,
    full_presentation,
    reduced_presentation,
    rewrite_neighbors,
)
from twbraid.quotients import (
    bar_parity_per_component,
    hyperoctahedral_image,
    sigma_exponent_sum,
)
from twbraid.reduced_map import verify_reduction
from twbraid.words import Category, parse_word

FAMILIES = (Family.TB_REDUCED, Family.FT_REDUCED, Family.VB_REDUCED, Family.FV_REDUCED)
CASES = [(f, n) for f in FAMILIES for n in range(2, 11)] + [(Family.TB_REDUCED, 16)]


def certificate_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    steps = 0
    for family, n in CASES:
        for r, verdict in verify_reduction(reduced_presentation(family, n)):
            if not verdict:
                raise SystemExit(f"{family.value} n={n}: {r.name} not proved")
            for s in verdict.path:
                line = f"{family.value}|{n}|{r.name}|{s.rule}|{s.forward}|{s.pos}\n"
                digest.update(line.encode())
                steps += 1
    return steps, digest.hexdigest()


def cli_digest(family: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-presentation", family, "4", "-v"])
    return f"exit {code} sha256 {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


MARKOV_PAIRS = 40
MARKOV_NODES = 100
MOVE_INSTANCES = ("t1_a", "t1_b", "t3_a", "t3_b")


def _random_tokens(rng: random.Random, n: int, flat: bool, length: int) -> list[str]:
    kinds = ["b", "v", "c"] if flat else ["b", "v", "s", "S"]
    out = []
    for _ in range(length):
        kind = rng.choice(kinds)
        out.append(f"{kind}{rng.randint(1, n if kind == 'b' else n - 1)}")
    return out


def markov_pairs() -> list[tuple[str, int, str, int, str]]:
    """(category, n1, word1, n2, word2): a seeded random word against an
    unrelated word, a rotation, a bar conjugate or a stabilization of it."""
    rng = random.Random("cert_digest:markov")
    pairs = []
    for _ in range(MARKOV_PAIRS):
        category = rng.choice((Category.TWISTED, Category.FLAT_TWISTED))
        flat = category is Category.FLAT_TWISTED
        n = rng.randint(2, 3)
        a = _random_tokens(rng, n, flat, rng.randint(2, 6))
        how = rng.choice(("random", "rotate", "bar", "stab"))
        n2, b = n, list(a)
        if how == "random":
            n2 = rng.randint(2, 3)
            b = _random_tokens(rng, n2, flat, rng.randint(2, 6))
        elif how == "rotate":
            k = rng.randrange(len(a))
            b = a[k:] + a[:k]
        elif how == "bar":
            bar = f"b{rng.randint(1, n)}"
            b = [bar] + a + [bar]
        else:
            n2 = n + 1
            b = a + [f"{rng.choice('vc' if flat else 'vsS')}{n}"]
        pairs.append((category.value, n, " ".join(a), n2, " ".join(b)))
    return pairs


def markov_digest(nodes: int = MARKOV_NODES) -> tuple[int, int, str]:
    """The Markov line's (pairs, Equal count, SHA-256), with ``nodes`` the
    node budget of each seeded pair."""
    cases = []
    for cat, n1, t1, n2, t2 in markov_pairs():
        w1, w2 = parse_word(t1, n1, cat), parse_word(t2, n2, cat)
        cases.append((f"{cat}|{n1}|{t1}|{n2}|{t2}", w1, w2, nodes))
    for inst in MOVE_INSTANCES:
        left = braid(shipped_diagram(f"move_{inst}_left"))
        right = braid(shipped_diagram(f"move_{inst}_right"))
        cases.append((f"move_{inst}", left, right, 300_000))
    digest = hashlib.sha256()
    equal = 0
    for label, w1, w2, nodes in cases:
        out = markov_equivalent_bounded(w1, w2, max_nodes=nodes)
        moves = ";".join(m.describe() for m in out.path)
        digest.update(f"{label}|{out.equal}|{out.explored}|{moves}\n".encode())
        equal += out.equal
    return len(cases), equal, digest.hexdigest()


REWRITE_SEPARATED = 40
REWRITE_SCRAMBLED = 20
REWRITE_NODES = 400
SCRAMBLE_STEPS = 8


@functools.lru_cache(maxsize=None)
def _full(category: Category, n: int):
    family = Family.TB_FULL if category is Category.TWISTED else Family.FT_FULL
    return full_presentation(family, n)


def _fingerprint(w):
    return (hyperoctahedral_image(w), sigma_exponent_sum(w),
            bar_parity_per_component(w))


def rewrite_pairs():
    """(category, n, word1, word2): invariant-separated random pairs of 0-8
    letters, then random words of 4-8 letters against SCRAMBLE_STEPS random
    one-step rewrites of them, each at most four letters longer."""
    rng = random.Random("cert_digest:rewrite")
    pairs = []
    while len(pairs) < REWRITE_SEPARATED + REWRITE_SCRAMBLED:
        category = rng.choice((Category.TWISTED, Category.FLAT_TWISTED))
        flat = category is Category.FLAT_TWISTED
        n = rng.randint(2, 4)
        if len(pairs) < REWRITE_SEPARATED:
            w1, w2 = (
                parse_word(" ".join(_random_tokens(rng, n, flat, rng.randint(0, 8))),
                           n, category)
                for _ in range(2)
            )
            if _fingerprint(w1) == _fingerprint(w2):
                continue
        else:
            tokens = _random_tokens(rng, n, flat, rng.randint(4, 8))
            w1 = w2 = parse_word(" ".join(tokens), n, category)
            for _ in range(SCRAMBLE_STEPS):
                near = [w for w in rewrite_neighbors(w2, _full(category, n))
                        if len(w) <= len(w1) + 4]
                w2 = rng.choice(sorted(near, key=str))
        pairs.append((category, n, w1, w2))
    return pairs


def rewrite_digest() -> tuple[int, int, str]:
    digest = hashlib.sha256()
    pairs = rewrite_pairs()
    equal = 0
    for category, n, w1, w2 in pairs:
        out = equivalent_bounded(
            w1, w2, _full(category, n),
            max_length=max(len(w1), len(w2)) + 4, max_nodes=REWRITE_NODES,
        )
        steps = ";".join(f"{s.rule}|{s.forward}|{s.pos}" for s in out.path)
        label = f"{category.value}|{n}|{w1}|{w2}"
        digest.update(f"{label}|{out.equal}|{out.explored}|{steps}\n".encode())
        equal += out.equal
    return len(pairs), equal, digest.hexdigest()


GAUSS_FLIPS = 30
GAUSS_MOVES = 30
HOPF_KS = range(5, 9)


def _hopf_tokens(k: int, moved: bool, reverse: bool) -> list[str]:
    """k unlinked barred Hopf pairs on 2k strands: strand p carries a bar
    (strand 2k instead for the last pair when ``moved``) and is linked to
    strand k + p by a double crossing routed through virtual crossings."""
    n = 2 * k
    tokens = [f"b{n if moved and p == k else p}" for p in range(1, k + 1)]
    for p in (range(k, 0, -1) if reverse else range(1, k + 1)):
        route = [f"v{j}" for j in range(k + p - 1, p, -1)]
        tokens += route + [f"s{p}", f"s{p}"] + route[::-1]
    return tokens


def _closure(tokens: list[str], n: int):
    word = parse_word(" ".join(tokens), n, Category.TWISTED)
    return gauss_code(closure_diagram(word))


def gauss_verdicts() -> list[tuple[str, bool]]:
    """(pair, verdict) over the seeded Gauss pair set described above."""
    out = []
    for name in shipped_diagram_names():
        d = shipped_diagram(name)
        back = gauss_code(closure_diagram(braid(d)))
        out.append((f"roundtrip|{name}", gauss_equivalent(gauss_code(d), back)))
    rng = random.Random("cert_digest:gauss")
    for _ in range(GAUSS_FLIPS):
        n = rng.randint(2, 4)
        a = _random_tokens(rng, n, False, rng.randint(4, 16)) + ["s1"]
        i = rng.choice([i for i, t in enumerate(a) if t[0] in "sS"])
        b = a[:i] + [("S" if a[i][0] == "s" else "s") + a[i][1:]] + a[i + 1:]
        verdict = gauss_equivalent(_closure(a, n), _closure(b, n))
        out.append((f"flip|{n}|{' '.join(a)}|{' '.join(b)}", verdict))
    for _ in range(GAUSS_MOVES):
        category = rng.choice((Category.TWISTED, Category.FLAT_TWISTED))
        flat = category is Category.FLAT_TWISTED
        n = rng.randint(2, 3)
        a = _random_tokens(rng, n, flat, rng.randint(2, 8))
        how = rng.choice(("rotate", "bar", "stab"))
        n2, b = n, list(a)
        if how == "rotate":
            k = rng.randrange(len(a))
            b = a[k:] + a[:k]
        elif how == "bar":
            bar = f"b{rng.randint(1, n)}"
            b = [bar] + a + [bar]
        else:
            n2 = n + 1
            b = a + [f"{rng.choice('vc' if flat else 'vsS')}{n}"]
        w1 = parse_word(" ".join(a), n, category)
        w2 = parse_word(" ".join(b), n2, category)
        label = f"move|{category.value}|{n}|{w1}|{n2}|{w2}"
        out.append((label, closure_code_equivalent(w1, w2)))
    for k in HOPF_KS:
        same = _closure(_hopf_tokens(k, False, False), 2 * k)
        for moved, reverse in ((False, True), (True, False)):
            other = _closure(_hopf_tokens(k, moved, reverse), 2 * k)
            label = f"hopf|{k}|{moved}|{reverse}"
            out.append((label, gauss_equivalent(same, other)))
    return out


def gauss_digest() -> tuple[int, int, str]:
    verdicts = gauss_verdicts()
    digest = hashlib.sha256()
    for label, verdict in verdicts:
        digest.update(f"{label}|{verdict}\n".encode())
    equal = sum(verdict for _, verdict in verdicts)
    return len(verdicts), equal, digest.hexdigest()


BRAID_WORDS = 60


def braid_diagrams():
    """(label, diagram): the shipped diagrams, then the closures of seeded
    twisted and flat twisted words of 0-24 letters at n=2..5, each followed
    by its orientation-reversed copy."""
    out = [(name, shipped_diagram(name)) for name in shipped_diagram_names()]
    rng = random.Random("cert_digest:braid")
    for _ in range(BRAID_WORDS):
        category = rng.choice((Category.TWISTED, Category.FLAT_TWISTED))
        n = rng.randint(2, 5)
        flat = category is Category.FLAT_TWISTED
        tokens = _random_tokens(rng, n, flat, rng.randint(0, 24))
        word = parse_word(" ".join(tokens), n, category)
        closed = closure_diagram(word)
        out.append((f"close|{word!r}", closed))
        out.append((f"flip|{word!r}", flip_orientation(closed)))
    return out


def braid_digest() -> tuple[int, int, str]:
    digest = hashlib.sha256()
    diagrams = braid_diagrams()
    letters = 0
    for label, d in diagrams:
        word, trace = braid_with_trace(d)
        back = gauss_code(closure_diagram(word))
        line = f"{label}|{word!r}|{trace_lines(trace)}|{gauss_code(d)}|{back}\n"
        digest.update(line.encode())
        letters += len(word)
    return len(diagrams), letters, digest.hexdigest()


if __name__ == "__main__":
    steps, sha = certificate_digest()
    print(f"steps {steps} sha256 {sha}")
    for family in ("tb", "ft", "vb", "fv"):
        print(f"verify-presentation {family} 4 -v: {cli_digest(family)}")
    pairs, equal, sha = markov_digest()
    print(f"markov pairs {pairs} equal {equal} sha256 {sha}")
    pairs, equal, sha = rewrite_digest()
    print(f"rewrite pairs {pairs} equal {equal} sha256 {sha}")
    pairs, equal, sha = gauss_digest()
    print(f"gauss pairs {pairs} equal {equal} sha256 {sha}")
    diagrams, letters, sha = braid_digest()
    print(f"braid diagrams {diagrams} letters {letters} sha256 {sha}")
