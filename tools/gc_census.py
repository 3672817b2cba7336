"""Count the garbage collections each benchmark workload triggers.

Builds each workload's query stream of seed 1 exactly as `perfbench/run.py`
does (its seeding and its manifest, written into a temporary directory),
sets it up with the worker's set-up function and runs the worker's query
function on the first `count` queries, cycling through the stream as the
worker does and keeping every result, as the worker keeps them until its
check pass.  Each workload runs in a fresh interpreter, as under the
benchmark.  Prints one line per workload: the collections of generations 0,
1 and 2 that the queries start, the seconds spent collecting, and the
`twbraid` function (innermost frame under `src/twbraid`) in which each
generation-2 collection started.

Run from the repository root; it puts `src` and `perfbench` on `sys.path`
itself, writes nothing under either, and takes about 80 s at the default
6,000 queries per workload:

    python3 tools/gc_census.py [count] [--workload NAME]
"""

import argparse
import collections
import gc
import json
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "twbraid")
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import worker  # noqa: E402  (imports twbraid, as a worker process does)

SEED = 1


def _started_in() -> str:
    """The innermost `twbraid` function on the stack, as module.function."""
    frame = sys._getframe()
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith(PACKAGE):
            return f"{pathlib.Path(path).stem}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "(outside twbraid)"


def census(workload: str, count: int) -> str:
    setup, query, _check = worker.WORKLOADS[workload]
    rec = worker.Recorder(False)
    collections_by_gen = [0, 0, 0]
    full_in: collections.Counter = collections.Counter()
    spent = [0.0, 0.0]  # total, start of the running collection

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            spent[1] = time.perf_counter()
            collections_by_gen[info["generation"]] += 1
            if info["generation"] == 2:
                full_in[_started_in()] += 1
        else:
            spent[0] += time.perf_counter() - spent[1]

    with tempfile.TemporaryDirectory() as root:
        with open(run._manifest(workload, run._rng(workload, SEED), root),
                  encoding="utf-8") as fh:
            m = json.load(fh)
        state = setup(m, rec)
        queries = m["queries"]
        kept = []
        gc.collect()
        gc.callbacks.append(callback)
        try:
            for i in range(count):
                kept.append(query(state, m, queries[i % len(queries)], rec))
        finally:
            gc.callbacks.remove(callback)
    gen0, gen1, gen2 = collections_by_gen
    where = ", ".join(f"{name} {n}" for name, n in full_in.most_common()) or "-"
    return (f"{workload} seed {SEED}: queries {len(kept)} gen0 {gen0} "
            f"gen1 {gen1} gen2 {gen2} collecting {spent[0]:.3f} s "
            f"gen2 in {where}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("count", nargs="?", type=int, default=6000,
                    help="queries per workload (default 6000)")
    ap.add_argument("--workload", choices=run.ORDER,
                    help="run one workload in this process")
    args = ap.parse_args()
    if args.workload:
        print(census(args.workload, args.count), flush=True)
        return
    for workload in run.ORDER:  # each in a fresh interpreter
        subprocess.run([sys.executable, __file__, str(args.count),
                        "--workload", workload], check=True)


if __name__ == "__main__":
    main()
