"""Digest the benchmark's search streams, to compare two checkouts.

Builds the first 400 `markov_eq` queries of seeds 1 and 7 and the first 900
`rewrite_eq` queries of seed 7 exactly as `perfbench/run.py` does (its
seeding and its manifests, written into a temporary directory), and runs
each search in this process with the worker's bounds:
`markov_equivalent_bounded` at the manifest's node budget, and
`equivalent_bounded` on the full presentation at that budget and
`max_length = max(len) + 4`.  Prints one line per stream: the query count,
the Equal count and one SHA-256 over (query, equal, explored, every step),
a step written as `describe()` for a Markov move and `rule|forward|pos`
for a rewrite step.  A change to either search that keeps every verdict,
node count and certificate prints the same lines.  Each stream's search
seconds, timed in process around the search calls alone, go to stderr,
so that the stdout lines of two checkouts compare as they are.

Run from the repository root; it takes no arguments, puts `src` and
`perfbench` on `sys.path` itself, writes nothing under either, and took
5.4-8.7 s wall in five runs on a 2-core Intel Xeon with Python 3.11,
3.9-5.8 s of it in the searches:

    python3 tools/search_digest.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402

from twbraid.markov import markov_equivalent_bounded  # noqa: E402
from twbraid.presentations import Family, equivalent_bounded, full_presentation  # noqa: E402
from twbraid.words import read_word_file  # noqa: E402

STREAMS = (("markov_eq", 1, 400), ("markov_eq", 7, 400), ("rewrite_eq", 7, 900))
FULL = {"twisted": Family.TB_FULL, "flat_twisted": Family.FT_FULL}


def _search(workload: str, m: dict, q: dict, w1, w2):
    if workload == "markov_eq":
        out = markov_equivalent_bounded(w1, w2, max_nodes=m["max_nodes"])
        return out, [move.describe() for move in out.path]
    p = full_presentation(FULL[q["category"]], q["n"])
    out = equivalent_bounded(w1, w2, p, max_length=max(len(w1), len(w2)) + 4,
                             max_nodes=m["max_nodes"])
    return out, [f"{s.rule}|{s.forward}|{s.pos}" for s in out.path]


def stream_digest(workload: str, seed: int, count: int) -> tuple[str, float]:
    """The stream's digest line and the seconds its searches took."""
    digest, equal, seconds = hashlib.sha256(), 0, 0.0
    with tempfile.TemporaryDirectory() as root:
        with open(run._manifest(workload, run._rng(workload, seed), root),
                  encoding="utf-8") as fh:
            m = json.load(fh)
        queries = m["queries"][:count]
        for q in queries:
            w1, w2 = (read_word_file(pathlib.Path(root, f)) for f in q["files"])
            start = time.perf_counter()
            out, steps = _search(workload, m, q, w1, w2)
            seconds += time.perf_counter() - start
            equal += out.equal
            digest.update(f"{q['id']}|{out.equal}|{out.explored}|{';'.join(steps)}\n"
                          .encode())
    return (f"{workload} seed {seed}: queries {len(queries)} equal {equal} "
            f"sha256 {digest.hexdigest()}", seconds)


def main() -> None:
    for workload, seed, count in STREAMS:
        line, seconds = stream_digest(workload, seed, count)
        print(line, flush=True)
        print(f"{workload} seed {seed}: search {seconds:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
