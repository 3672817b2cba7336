"""Seeded input generation for the benchmark workloads.

Stdlib only, and independent of ``twbraid``: the same seed gives the same
inputs whatever the program under test does, and the answers the benchmark
expects (equal, invariant-separated, sign-flipped, ...) follow from how each
input was built, not from the program.  Words are ``(n, category, tokens)``
with tokens such as ``s2``, ``S1``, ``v1``, ``b3``, ``c1``; diagrams are
lists of Morse event lines.
"""

from __future__ import annotations

import random

TWISTED = "twisted"
FLAT = "flat_twisted"


# ---------------------------------------------------------------------------
# words


def _kind(tok: str) -> str:
    return tok[0]


def _index(tok: str) -> int:
    return int(tok[1:])


def inverse_token(tok: str) -> str:
    k = tok[0]
    return {"s": "S", "S": "s"}.get(k, k) + tok[1:]


def free_reduce(tokens) -> list[str]:
    out: list[str] = []
    for t in tokens:
        if out and out[-1] == inverse_token(t):
            out.pop()
        else:
            out.append(t)
    return out


def random_word(rng: random.Random, n: int, category: str, length: int) -> list[str]:
    """Letters drawn like criterion 9's generator: a bar, or a virtual or
    classical/flat crossing at a random index."""
    tokens = []
    for _ in range(length):
        choices = [f"b{rng.randint(1, n)}"]
        if n >= 2:
            i = rng.randint(1, n - 1)
            choices.append(f"v{i}")
            choices += [f"s{i}", f"S{i}"] if category == TWISTED else [f"c{i}"]
        tokens.append(rng.choice(choices))
    return tokens


def _walk(n: int, tokens):
    """Yield ``(bar, strand)`` for every bar, the strand being the one at
    the bar's position; then ``(None, where)``, the strand at each position
    after the last letter.  Every crossing kind swaps its two strands."""
    where = list(range(n))
    for t in tokens:
        i = _index(t) - 1
        if _kind(t) == "b":
            yield t, where[i]
        else:
            where[i], where[i + 1] = where[i + 1], where[i]
    yield None, where


def _cycles(n: int, where: list[int]) -> list[tuple[int, ...]]:
    mapping = [0] * n
    for pos, strand in enumerate(where):
        mapping[strand] = pos
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = []
        while not seen[s]:
            seen[s] = True
            cyc.append(s)
            s = mapping[s]
        out.append(tuple(cyc))
    return out


def _strand_bars(n: int, tokens) -> tuple[list[int], list[int]]:
    parity = [0] * n
    where: list[int] = []
    for tok, x in _walk(n, tokens):
        if tok is None:
            where = x
        else:
            parity[x] ^= 1
    return parity, where


def group_fingerprint(n: int, tokens) -> tuple:
    """Signed permutation, classical exponent sum and per-component bar
    parity: three images that every relation of the full presentations
    preserves, so words that differ in any of them are not equal."""
    parity, where = _strand_bars(n, tokens)
    expo = sum((_kind(t) == "s") - (_kind(t) == "S") for t in tokens)
    comps = tuple(
        (c, sum(parity[s] for s in c) % 2) for c in _cycles(n, where)
    )
    return tuple(where), tuple(parity), expo, comps


def closure_invariants(n: int, tokens) -> tuple:
    """Component count and the multiset of bar parities per component of
    the closure; every Markov move preserves both (twisted-link bar parity,
    Bourgoin 2008)."""
    parity, where = _strand_bars(n, tokens)
    comps = _cycles(n, where)
    return len(comps), tuple(sorted(sum(parity[s] for s in c) % 2 for c in comps))


# ---------------------------------------------------------------------------
# relation instances of the full presentations (both sides as tokens)


def relations(n: int, category: str) -> list[tuple[list[str], list[str]]]:
    x = "c" if category == FLAT else "s"
    rels: list[tuple[str, str]] = []
    for i in range(1, n - 1):
        rels.append((f"{x}{i} {x}{i+1} {x}{i}", f"{x}{i+1} {x}{i} {x}{i+1}"))
        rels.append((f"v{i} v{i+1} v{i}", f"v{i+1} v{i} v{i+1}"))
        rels.append((f"v{i} {x}{i+1} v{i}", f"v{i+1} {x}{i} v{i+1}"))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((f"{x}{i} {x}{j}", f"{x}{j} {x}{i}"))
            rels.append((f"v{i} v{j}", f"v{j} v{i}"))
        for j in range(1, n):
            if abs(i - j) >= 2:
                rels.append((f"{x}{i} v{j}", f"v{j} {x}{i}"))
        rels.append((f"b{i} v{i}", f"v{i} b{i+1}"))
        rels.append((f"v{i} b{i}", f"b{i+1} v{i}"))
        rels.append((f"b{i} b{i+1} {x}{i} b{i+1} b{i}", f"v{i} {x}{i} v{i}"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append((f"b{i} b{j}", f"b{j} b{i}"))
        for j in range(1, n):
            if j > i or j < i - 1:
                rels.append((f"b{i} v{j}", f"v{j} b{i}"))
                rels.append((f"b{i} {x}{j}", f"{x}{j} b{i}"))
    return [(a.split(), b.split()) for a, b in rels]


def _letters(n: int, category: str) -> list[str]:
    out = [f"b{i}" for i in range(1, n + 1)]
    for i in range(1, n):
        out.append(f"v{i}")
        out += [f"s{i}", f"S{i}"] if category == TWISTED else [f"c{i}"]
    return out


def scramble(rng, n, category, tokens, steps, max_length) -> list[str]:
    """Apply ``steps`` random relation substitutions (either direction) and
    cancelling-pair insertions, never growing past ``max_length``."""
    rels = relations(n, category)
    letters = _letters(n, category)
    w = list(tokens)
    for _ in range(steps):
        moves = []
        for a, b in rels:
            for src, dst in ((a, b), (b, a)):
                if len(w) - len(src) + len(dst) > max_length:
                    continue
                for p in range(len(w) - len(src) + 1):
                    if w[p : p + len(src)] == src:
                        moves.append((p, len(src), dst))
        if len(w) + 2 <= max_length:
            g = rng.choice(letters)
            p = rng.randint(0, len(w))
            moves.append((p, 0, [g, inverse_token(g)]))
        if not moves:
            break
        p, k, dst = rng.choice(moves)
        w = w[:p] + dst + w[p + k :]
    return w


# ---------------------------------------------------------------------------
# Markov moves (Kauffman-Lambropoulou conjugations and right stabilizations)


def markov_step(rng, n, category, tokens, rewrites=True) -> tuple[int, list[str]]:
    """One random move: a conjugation, a right stabilization or
    destabilization, or (with ``rewrites``) a relation substitution; the
    result is freely reduced."""
    kinds = ["conj_v", "conj_b", "conj_x", "stab"] + (["rel"] if rewrites else [])
    if n >= 2 and tokens and tokens[-1][0] in "vsSc" and _index(tokens[-1]) == n - 1:
        if all(_index(t) < n - (t[0] != "b") for t in tokens[:-1]):
            kinds.append("destab")
    kind = rng.choice(kinds)
    if kind == "conj_b" or n < 2:
        g = f"b{rng.randint(1, n)}"
        return n, free_reduce([g] + tokens + [g])
    i = rng.randint(1, n - 1)
    if kind == "conj_v":
        return n, free_reduce([f"v{i}"] + tokens + [f"v{i}"])
    if kind == "conj_x":
        if category == FLAT:
            return n, free_reduce([f"c{i}"] + tokens + [f"c{i}"])
        return n, free_reduce([f"S{i}"] + tokens + [f"s{i}"])
    if kind == "stab":
        letter = rng.choice(["v", "c"] if category == FLAT else ["v", "s", "S"])
        return n + 1, free_reduce(tokens + [f"{letter}{n}"])
    if kind == "destab":
        return n - 1, free_reduce(tokens[:-1])
    w = scramble(rng, n, category, tokens, 1, len(tokens) + 2)
    return n, free_reduce(w)


# ---------------------------------------------------------------------------
# Morse diagrams


def random_diagram(rng, events: int, max_width: int, category: str) -> list[str]:
    """A legal bottom-to-top sweep of ``events`` events, then greedy caps.

    Each step picks uniformly among the legal operations (cup, cap,
    crossing, bar), as the test suite's diagram strategy does.  Live strands
    carry their flow so caps always join a down/up pair.  A cap that would
    close a component with nothing on it gets a kink first: dozens of empty
    components multiply the backtracking of ``gauss_equivalent`` (ROADMAP
    item 4) until a single positive query can outlast a run."""
    crossing = ["x+", "x-", "xv"] if category in (TWISTED, "virtual", "classical") else ["x+", "xv"]
    barred = category in (TWISTED, FLAT)
    lines = []
    live: list[list] = []  # [flows up, component] per strand, left to right
    parent: list[int] = []  # union-find over components
    marks: list[int] = []  # crossing visits and bars per component root

    def root(c: int) -> int:
        while parent[c] != c:
            c = parent[c]
        return c

    def cap(p: int) -> None:
        a, b = root(live[p - 1][1]), root(live[p][1])
        if a == b and marks[a] == 0:
            lines.append(f"x+ {p}")
            marks[a] += 2
            live[p - 1], live[p] = live[p], live[p - 1]
        parent[b] = a
        if a != b:
            marks[a] += marks[b]
        lines.append(f"cap {p} {'cw' if live[p - 1][0] else 'ccw'}")
        del live[p - 1 : p + 1]

    for _ in range(events):
        width = len(live)
        options = []
        if width < max_width:
            options.append("cup")
        if width >= 2:
            if any(live[p - 1][0] != live[p][0] for p in range(1, width)):
                options.append("cap")
            options.append("cross")
        if width >= 1 and barred:
            options.append("bar")
        op = rng.choice(options)
        if op == "cup":
            p = rng.randint(1, width + 1)
            turn = rng.choice(["cw", "ccw"])
            lines.append(f"cup {p} {turn}")
            parent.append(len(parent))
            marks.append(0)
            left_up = turn == "cw"
            live[p - 1 : p - 1] = [[left_up, len(parent) - 1], [not left_up, len(parent) - 1]]
        elif op == "cap":
            cap(rng.choice([p for p in range(1, width) if live[p - 1][0] != live[p][0]]))
        elif op == "cross":
            p = rng.randint(1, width - 1)
            kind = rng.choice(crossing)
            lines.append(f"{kind} {p}")
            if kind != "xv":
                marks[root(live[p - 1][1])] += 1
                marks[root(live[p][1])] += 1
            live[p - 1], live[p] = live[p], live[p - 1]
        else:
            p = rng.randint(1, width)
            lines.append(f"bar {p}")
            marks[root(live[p - 1][1])] += 1
    while live:
        cap(next(p for p in range(1, len(live)) if live[p - 1][0] != live[p][0]))
    return lines


def flip_one_sign(rng, lines: list[str]) -> list[str] | None:
    """Swap one classical crossing between x+ and x-; None without one.
    The multiset of crossing signs changes, so the Gauss codes differ."""
    spots = [i for i, ln in enumerate(lines) if ln.startswith(("x+", "x-"))]
    if not spots:
        return None
    i = rng.choice(spots)
    out = list(lines)
    kind, pos = out[i].split()
    out[i] = f"{'x-' if kind == 'x+' else 'x+'} {pos}"
    return out


_EVENT = {"s": "x+", "S": "x-", "v": "xv", "c": "x+", "b": "bar"}


def closure_lines(n: int, tokens) -> list[str]:
    """The braid closure as Morse events: cups, the letters bottom-up, caps."""
    lines = [f"cup {k} ccw" for k in range(1, n + 1)]
    lines += [f"{_EVENT[t[0]]} {t[1:]}" for t in reversed(tokens)]
    lines += [f"cap {k} ccw" for k in range(n, 0, -1)]
    return lines


def hopf_pairs(k: int, moved: bool) -> tuple[int, list[str]]:
    """k unlinked barred Hopf pairs on 2k strands.  Strands 1..k carry the
    bars and come first in the Gauss code; strand k + p is linked to strand
    p by a classical double crossing routed through virtual crossings.  With
    ``moved`` the last pair's bar sits on its other component, which no
    relabelling undoes, so matching the two codes backtracks over the
    (k - 1)! orders of the first barred components."""
    n = 2 * k
    tokens: list[str] = []
    for p in range(1, k + 1):
        bar = n if (moved and p == k) else p
        tokens.append(f"b{bar}")
    for p in range(1, k + 1):
        route = [f"v{j}" for j in range(k + p - 1, p, -1)]
        tokens += route + [f"s{p}", f"s{p}"] + route[::-1]
    return n, tokens


# ---------------------------------------------------------------------------
# files


def write_word(path: str, n: int, category: str, tokens) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={n} category={category}\n{' '.join(tokens)}\n")


def write_morse(path: str, category: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([f"morse category={category}"] + list(lines)) + "\n")
