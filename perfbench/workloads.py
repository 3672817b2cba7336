"""The four workloads: which queries each seed produces, and why.

Each workload function writes its inputs into ``root`` and returns the
manifest the worker reads.  A query is ``pos`` when its known answer is
positive (equal, equivalent, provable) and ``neg`` when it is known negative
(the pair is invariant-separated, or the Gauss codes differ).  The mixes are
deliberately uneven so that neither class's median sits between two modes.
"""

from __future__ import annotations

import os
import random

import gen

REWRITE_NODES = 400  # criterion 9's budget
MARKOV_NODES = 100  # a few hundred nodes would leave too few negatives per run
VERIFY_NS = range(2, 11)
VERIFY_LARGE = ("tb", 16)


def _pair(root, i, n1, t1, n2, t2, category, sign):
    a, b = f"q{i}a.word", f"q{i}b.word"
    gen.write_word(os.path.join(root, a), n1, category, t1)
    gen.write_word(os.path.join(root, b), n2, category, t2)
    return {"id": i, "sign": sign, "files": [a, b], "category": category,
            "n": n1}


def _blocks(rng: random.Random, count: int, slots: list) -> list:
    """``count`` slots from whole blocks, each block every slot once in a
    seeded order.  Every block has the same mix, so runs of any length
    (and seeds) differ in the letters drawn, not in the proportions."""
    out = []
    while len(out) < count:
        out += _shuffled(rng, slots)
    return out


def _shuffled(rng: random.Random, values: list) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def rewrite_eq(rng: random.Random, root: str, blocks: int) -> dict:
    """Blocks of 30 over twisted/flat x n = 2, 3, 4.  18 are criterion 9's
    invariant-separated random pairs (word lengths 0-8 each, stratified per
    block); they spend most of the 400-node budget.  12 are a word of length
    6-12 against a scramble of it by 20 relation substitutions and pair
    insertions; most end Equal quickly, about a quarter Unknown, so the
    positives' tail sits inside the Unknown mode, not at its edge."""
    combos = [(c, n) for c in (gen.TWISTED, gen.FLAT) for n in (2, 3, 4)]
    slots = [(c, n, sign) for c, n in combos
             for sign in ("neg",) * 3 + ("pos",) * 2]
    queries = []
    for _ in range(blocks):
        la = _shuffled(rng, list(range(9)) * 2)
        lb = _shuffled(rng, list(range(9)) * 2)
        lp = _shuffled(rng, [6, 7, 8, 9, 10, 11, 12, 6, 8, 10, 12, 9])
        for category, n, sign in _blocks(rng, len(slots), slots):
            i = len(queries)
            if sign == "neg":
                x, y = la.pop(), lb.pop()
                for attempt in range(200):
                    if attempt >= 20:  # these lengths rarely separate
                        x, y = rng.randint(0, 8), rng.randint(0, 8)
                    a = gen.random_word(rng, n, category, x)
                    c = gen.random_word(rng, n, category, y)
                    if gen.group_fingerprint(n, a) != gen.group_fingerprint(n, c):
                        break
                else:
                    raise RuntimeError("no invariant-separated pair")
            else:
                a = gen.random_word(rng, n, category, lp.pop())
                c = gen.scramble(rng, n, category, a, 20, len(a) + 4)
            queries.append(_pair(root, i, n, a, n, c, category, sign))
    return {"queries": queries, "max_nodes": REWRITE_NODES, "block": len(slots),
            "presentations": [list(k) for k in combos], "min_queries": len(slots)}


def markov_eq(rng: random.Random, root: str, blocks: int) -> dict:
    """Blocks of 20 over twisted/flat x n = 2, 3: 12 negatives, 8 positives.
    Negatives pair words (2-6 letters, stratified) whose closures differ in
    component count or bar-parity multiset, which every move preserves
    (criterion 6), so they spend the whole node budget.  Positives are a
    word and a seeded walk of three Markov moves and relation substitutions
    from it.  60% negative, so the median of all queries sits inside the
    negatives' mode."""
    combos = [(c, n) for c in (gen.TWISTED, gen.FLAT) for n in (2, 3)]
    slots = [(c, n, sign) for c, n in combos
             for sign in ("neg",) * 3 + ("pos",) * 2]
    queries, cli_left = [], 3
    for _ in range(blocks):
        la = _shuffled(rng, [2, 3, 4, 5, 6] * 2 + [3, 5])
        lb = _shuffled(rng, [2, 3, 4, 5, 6] * 2 + [3, 5])
        lp = _shuffled(rng, [2, 3, 4, 5, 6, 3, 4, 5])
        for category, n, sign in _blocks(rng, len(slots), slots):
            i = len(queries)
            if sign == "neg":
                a = gen.random_word(rng, n, category, la.pop())
                y = lb.pop()
                while True:
                    n2 = rng.randint(2, 3)
                    c = gen.random_word(rng, n2, category, y)
                    if gen.closure_invariants(n, a) != gen.closure_invariants(n2, c):
                        break
            else:
                a = gen.random_word(rng, n, category, lp.pop())
                while True:
                    n2, c = n, a
                    for _ in range(3):
                        n2, c = gen.markov_step(rng, n2, category, c)
                    if n2 <= 4 and (n2, c) != (n, gen.free_reduce(a)):
                        break
            q = _pair(root, i, n, a, n2, c, category, sign)
            if sign == "pos" and cli_left:
                cli_left -= 1
                q["cli"] = [["markov-eq", "{dir}/" + q["files"][0],
                             "{dir}/" + q["files"][1], "--max-nodes",
                             str(MARKOV_NODES)]]
            queries.append(q)
    return {"queries": queries, "max_nodes": MARKOV_NODES, "block": len(slots),
            "min_queries": len(slots)}


def verify_round(rng: random.Random, root: str) -> dict:
    """One sweep: TB/FT/VB/FV at n = 2..10 plus TB at n = 16, in a seeded
    order, every (family, n) once, so the per-process bank cache never
    serves a repeat (as with one `twb verify-presentation` per job).  The
    worker expands each job into its relations; one query is one relation."""
    jobs = [(f, n) for f in ("tb", "ft", "vb", "fv") for n in VERIFY_NS]
    jobs.append(VERIFY_LARGE)
    rng.shuffle(jobs)
    with open(os.path.join(root, "jobs.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{f} {n}\n" for f, n in jobs)
    return {"jobs_file": "jobs.txt", "queries": []}


def braid_roundtrip(rng: random.Random, root: str, blocks: int, corpus: list) -> dict:
    """Diagram X, diagram Y: braid Y, close the word, compare the Gauss code
    of X with the closure's.  Blocks of 50.  Positives (Y = X): 25 random
    sweep diagrams of 150-400 events and width 8-12 (both spread evenly
    over the block), 3 shipped corpus diagrams, and 3 Markov-move oracle
    checks on words.  Negatives: 14 word closures with one crossing sign
    flipped, and 5 of the factorial family of barred Hopf pairs with one
    bar moved, k = 5, 6, 7 once and k = 8 twice: about the slowest 4% of
    queries, so a run's tail (its eleventh largest latency) is the middle
    of the k = 8 times."""
    slots = (["sweep"] * 25 + ["corpus"] * 3 + ["oracle"] * 3 + ["flip"] * 14
             + ["hopf5", "hopf6", "hopf7"] + ["hopf8"] * 2)
    # no flat_virtual sweeps: about one in 600 of them makes gauss_equivalent
    # backtrack for seconds on an equivalent pair, the defect of ROADMAP item
    # 4 that the Hopf family shows; one such query outlasts a run
    categories = (gen.TWISTED, gen.TWISTED, gen.FLAT, "virtual", "classical")
    queries, cli_left = [], 3
    sizes: list = []
    for kind in _blocks(rng, blocks * len(slots), slots):
        i = len(queries)
        x, y = f"q{i}x.morse", f"q{i}y.morse"
        q = {"id": i, "kind": "diagram", "files": [x], "sign": "pos"}
        if kind == "sweep":
            if not sizes:  # 25 (events, width) pairs spread evenly per block
                sizes = list(zip(_shuffled(rng, list(range(150, 401, 10))[:25]),
                                 _shuffled(rng, [8, 9, 10, 11, 12] * 5)))
            events, width = sizes.pop()
            cat = rng.choice(categories)
            lines = gen.random_diagram(rng, events, width, cat)
            gen.write_morse(os.path.join(root, x), cat, lines)
        elif kind == "corpus":
            with open(rng.choice(corpus), encoding="utf-8") as src, \
                    open(os.path.join(root, x), "w", encoding="utf-8") as dst:
                dst.write(src.read())
        elif kind == "oracle":
            category = rng.choice((gen.TWISTED, gen.FLAT))
            n = rng.randint(2, 3)
            a = gen.random_word(rng, n, category, rng.randint(3, 8))
            # Markov moves only: the closure-code normaliser is an oracle
            # for moves, not for relation rewrites such as the bar sandwich
            n2, b = gen.markov_step(rng, n, category, a, rewrites=False)
            q = _pair(root, i, n, a, n2, b, category, "pos")
            q["kind"] = "oracle"
        elif kind == "flip":
            # closures of words, which have few components: on a random
            # sweep diagram with dozens of them, gauss_equivalent backtracks
            # for far longer than a run lasts (ROADMAP item 4)
            cat = rng.choice((gen.TWISTED, "virtual", "classical"))
            n = rng.randint(3, 6)
            tokens = gen.random_word(rng, n, gen.TWISTED, rng.randint(40, 100))
            if cat != gen.TWISTED:
                tokens = [t for t in tokens if t[0] != "b"]
            lines = gen.closure_lines(n, tokens + ["s1"])
            gen.write_morse(os.path.join(root, x), cat, lines)
            gen.write_morse(os.path.join(root, y), cat, gen.flip_one_sign(rng, lines))
            q["files"].append(y)
            q["sign"] = "neg"
        else:
            n, same = gen.hopf_pairs(int(kind[4:]), False)
            _, moved = gen.hopf_pairs(int(kind[4:]), True)
            gen.write_morse(os.path.join(root, x), gen.TWISTED,
                            gen.closure_lines(n, same))
            gen.write_morse(os.path.join(root, y), gen.TWISTED,
                            gen.closure_lines(n, moved))
            q["files"].append(y)
            q["sign"] = "neg"
        if q["kind"] == "diagram" and q["sign"] == "pos" and cli_left:
            cli_left -= 1
            word, closed = f"{{dir}}/cli{i}.word", f"{{dir}}/cli{i}.morse"
            q["cli"] = [
                ["braid", "{dir}/" + q["files"][-1], "-o", word,
                 "--trace", f"{{dir}}/cli{i}.jsonl"],
                ["close", word, "-o", closed],
                ["gauss-eq", "{dir}/" + q["files"][0], closed],
            ]
        queries.append(q)
    return {"queries": queries, "block": len(slots), "min_queries": len(slots)}
