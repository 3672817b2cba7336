"""One workload process: set up, run queries in a closed loop, check them.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  It
prints ``ready <set-up> <calibration>`` once the first query could be sent:
the seconds since just before ``import twbraid``, and the kernel time of
``calibrate``.  Then it runs the manifest's queries one after another, each
sent after the previous verdict.  A query's latency is the interval from its
first call into ``twbraid`` to its verdict; the benchmark does no work of its
own inside it.  Certificates are replayed after the loop, outside every
timed interval.  The result is written as JSON to ``--out``.

With ``--trace`` every public call is recorded as a span (name, start, end,
parent, query id) kept in memory, written out at the end, and reduced to the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

perf = time.perf_counter
SETUP_START = perf()  # set-up is timed from here: the package import onwards

from twbraid import cli  # noqa: E402
from twbraid.braiding import braid  # noqa: E402
from twbraid.diagram import (  # noqa: E402
    closure_diagram,
    gauss_code,
    gauss_equivalent,
    read_morse_file,
)
from twbraid.markov import (  # noqa: E402
    closure_code_equivalent,
    markov_equivalent_bounded,
    markov_neighbors,
    render_markov_path,
    replay_markov_path,
)
from twbraid.presentations import (  # noqa: E402
    Family,
    equivalent_bounded,
    full_presentation,
    reduced_presentation,
    replay_path,
    rewrite_neighbors,
    rule_table,
)
from twbraid.quotients import (  # noqa: E402
    bar_parity_per_component,
    hyperoctahedral_image,
    sigma_exponent_sum,
)
from twbraid.reduced_map import (  # noqa: E402
    expand_word,
    full_relations_for,
    verify_reduction,
)
from twbraid.words import BraidWord, free_reduce, read_word_file  # noqa: E402

import gen  # noqa: E402  (the benchmark's own generator, for calibration)

FULL = {"twisted": Family.TB_FULL, "flat_twisted": Family.FT_FULL}
REDUCED = {
    "tb": Family.TB_REDUCED,
    "ft": Family.FT_REDUCED,
    "vb": Family.VB_REDUCED,
    "fv": Family.FV_REDUCED,
}


class Recorder:
    """Calls into the program, timed; spans only when tracing.

    A span is ``(name, start, end, parent, query)``; ``parent`` is the index
    of the enclosing span or -1.  Spans stay in memory until ``dump``."""

    def __init__(self, trace: bool):
        self.spans: list[tuple] | None = [] if trace else None
        self.parent = -1
        self.query = -1

    def call(self, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        t0 = perf()
        out = fn(*args, **kwargs)
        self.spans.append((name, t0, perf(), self.parent, self.query))
        return out

    @contextlib.contextmanager
    def span(self, name: str, query: int = -1):
        if self.spans is None:
            yield
            return
        outer, outer_query = self.parent, self.query
        self.spans.append(None)
        index = len(self.spans) - 1
        self.parent, self.query = index, query
        t0 = perf()
        try:
            yield
        finally:
            self.spans[index] = (name, t0, perf(), outer, query)
            self.parent, self.query = outer, outer_query

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# workloads: setup(manifest, rec) -> state; query(state, q, rec) -> result


def _path(m, name):
    return os.path.join(m["dir"], name)


def setup_rewrite(m, rec):
    t0 = perf()
    pres = {}
    for cat, n in m["presentations"]:
        pres[cat, n] = full_presentation(FULL[cat], n)
    return {"pres": pres, "build_ms": (perf() - t0) * 1e3}


def query_rewrite(st, m, q, rec):
    w1 = rec.call(read_word_file, _path(m, q["files"][0]))
    w2 = rec.call(read_word_file, _path(m, q["files"][1]))
    out = rec.call(
        equivalent_bounded,
        w1,
        w2,
        st["pres"][q["category"], q["n"]],
        max_length=max(len(w1), len(w2)) + 4,
        max_nodes=m["max_nodes"],
    )
    return {"equal": out.equal, "label": out.label, "path": out.path,
            "explored": out.explored, "words": (w1, w2)}


def check_rewrite(st, m, q, r, rec):
    if not r["equal"]:
        return True
    if q["sign"] == "neg":
        return False
    w1, w2 = r["words"]
    tables = st.setdefault("tables", {})
    key = q["category"], q["n"]
    if key not in tables:
        tables[key] = rule_table(st["pres"][key])
    return rec.call(replay_path, w1, r["path"], tables[key]) == w2


def setup_markov(m, rec):
    return {}


def query_markov(st, m, q, rec):
    w1 = rec.call(read_word_file, _path(m, q["files"][0]))
    w2 = rec.call(read_word_file, _path(m, q["files"][1]))
    out = rec.call(markov_equivalent_bounded, w1, w2, max_nodes=m["max_nodes"])
    lines = None
    if out.equal:  # what `twb markov-eq` prints on Equal
        lines = rec.call(render_markov_path, rec.call(free_reduce, w1), out.path)
    return {"equal": out.equal, "label": out.label, "path": out.path,
            "explored": out.explored, "words": (w1, w2), "lines": lines}


def check_markov(st, m, q, r, rec):
    if not r["equal"]:
        return True
    if q["sign"] == "neg":
        return False
    w1, w2 = r["words"]
    end = rec.call(replay_markov_path, free_reduce(w1), r["path"])
    return end == free_reduce(w2) and len(r["lines"]) == len(r["path"]) + 1


def setup_verify(m, rec):
    """Parse the job list as `twb verify-presentation <family> <n>` would,
    and build each job's reduced presentation and relation list."""
    jobs = {}
    with open(_path(m, m["jobs_file"]), encoding="utf-8") as fh:
        for line in fh:
            fam, n = line.split()
            reduced = reduced_presentation(REDUCED[fam], int(n))
            rels = full_relations_for(reduced.family, reduced.n)
            jobs[fam, reduced.n] = (reduced, rels)
            for k in range(len(rels)):
                m["queries"].append({"id": len(m["queries"]), "sign": "pos",
                                     "family": fam, "n": reduced.n, "index": k})
    return {"jobs": jobs}


def query_verify(st, m, q, rec):
    reduced, rels = st["jobs"][q["family"], q["n"]]
    ((relation, verdict),) = rec.call(verify_reduction, reduced, (rels[q["index"]],))
    return {"equal": verdict.proved, "label": verdict.label,
            "path": verdict.path, "relation": relation, "reduced": reduced}


def check_verify(st, m, q, r, rec):
    if not r["equal"]:
        return False  # every relation is provable: Unknown is a wrong verdict
    reduced, rel = r["reduced"], r["relation"]
    tables = st.setdefault("tables", {})
    key = reduced.family, reduced.n
    if key not in tables:
        tables[key] = rule_table(reduced)
    cat = reduced.category
    start = expand_word(BraidWord(reduced.n, rel.lhs, cat), cat)
    goal = expand_word(BraidWord(reduced.n, rel.rhs, cat), cat)
    return rec.call(replay_path, start, r["path"], tables[key]) == goal


def setup_braid(m, rec):
    return {}


def query_braid(st, m, q, rec):
    files = [_path(m, f) for f in q["files"]]
    if q["kind"] == "oracle":
        w1 = rec.call(read_word_file, files[0])
        w2 = rec.call(read_word_file, files[1])
        eq = rec.call(closure_code_equivalent, w1, w2)
        return {"equal": eq, "words": (w1, w2)}
    d = rec.call(read_morse_file, files[0])
    other = rec.call(read_morse_file, files[1]) if len(files) > 1 else d
    word = rec.call(braid, other)
    closed = rec.call(closure_diagram, word)
    code = rec.call(gauss_code, d)
    eq = rec.call(gauss_equivalent, code, rec.call(gauss_code, closed))
    parsed = len(d.slices) + (len(other.slices) if other is not d else 0)
    return {"equal": eq, "letters": len(word), "parsed": parsed,
            "braided": len(other.slices),
            "coded": len(d.slices) + len(closed.slices)}


def check_braid(st, m, q, r, rec):
    return r["equal"] == (q["sign"] == "pos")


WORKLOADS = {
    "rewrite_eq": (setup_rewrite, query_rewrite, check_rewrite),
    "markov_eq": (setup_markov, query_markov, check_markov),
    "verify_presentation": (setup_verify, query_verify, check_verify),
    "braid_roundtrip": (setup_braid, query_braid, check_braid),
}


# ---------------------------------------------------------------------------
# layer probes and CLI overhead (traced runs only, after the query loop)


def probes(name, st, m, done, rec):
    """Extra public calls on the inputs of the queries just run, for layer
    rates the queries themselves do not isolate."""
    counts = {}
    if name == "rewrite_eq":
        yielded = 0
        for q, r in done:
            w1, _ = r["words"]
            with rec.span("probe", q["id"]):
                yielded += len(rec.call(
                    rewrite_neighbors, w1, st["pres"][q["category"], q["n"]]))
        counts["neighbors"] = yielded
    elif name == "markov_eq":
        letters = neighbors = 0
        for q, r in done:
            with rec.span("probe", q["id"]):
                for w in r["words"]:
                    for f in (hyperoctahedral_image, sigma_exponent_sum,
                              bar_parity_per_component):
                        rec.call(f, w)
                    letters += len(w)
                    rec.call(free_reduce, w)
                    outs = rec.call(markov_neighbors, w)
                    neighbors += len(outs)
                    for _move, res in outs:
                        letters += len(res)
                        rec.call(free_reduce, res)
        counts["free_reduce_letters"] = letters
        counts["neighbors"] = neighbors
    elif name == "verify_presentation":
        letters = 0
        for q, r in done:
            reduced, rel = r["reduced"], r["relation"]
            cat = reduced.category
            with rec.span("probe", q["id"]):
                for side in (rel.lhs, rel.rhs):
                    letters += len(rec.call(
                        expand_word, BraidWord(reduced.n, side, cat), cat))
        counts["expand_letters"] = letters
    return counts


def cli_overhead(name, st, m, done):
    """``cli.main`` time minus the time of the library calls the same
    commands make, with stdout captured, on the first few queries that name
    a command line (positive ones, so the CLI prints a path or a word);
    medians of three repetitions each.  The rewrite search has no command, so
    rewrite_eq contributes nothing."""
    if name == "verify_presentation":
        picks = [({"cli": [["verify-presentation", f, "4"]], "family": f,
                   "n": 4}, None) for f in ("tb", "ft", "vb")]
    else:
        picks = [(q, r) for q, r in done if q.get("cli")][:3]
    out = []
    for q, _r in picks:
        if name == "markov_eq":
            def lib():
                w1 = read_word_file(_path(m, q["files"][0]))
                w2 = read_word_file(_path(m, q["files"][1]))
                o = markov_equivalent_bounded(w1, w2, max_nodes=m["max_nodes"])
                if o.equal:
                    render_markov_path(free_reduce(w1), o.path)
        elif name == "verify_presentation":
            def lib():
                verify_reduction(reduced_presentation(REDUCED[q["family"]], q["n"]))
        else:
            def lib():
                query_braid(st, m, q, Recorder(False))
        commands = [[a.replace("{dir}", m["dir"]) for a in argv]
                    for argv in q["cli"]]
        lib_t, cli_t = [], []
        for _ in range(3):
            t0 = perf()
            lib()
            lib_t.append(perf() - t0)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = perf()
                for argv in commands:
                    cli.main(argv)
                cli_t.append(perf() - t0)
        out.append((statistics.median(cli_t) - statistics.median(lib_t)) * 1e3)
    return out


def summarize(spans):
    """Per ``phase/name`` (phase = the enclosing top-level span: query,
    probe or check): call count, total and self time, and each call's
    ``[query, duration]``.  Self time is duration minus the time its child
    spans cover; children never overlap (one thread).  Also the query
    phase's self time per layer, ``bench`` being the query spans' own."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _q in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by, layers = {}, {}
    for i, (name, t0, t1, parent, q) in enumerate(spans):
        if parent < 0:
            continue
        phase = spans[parent][0]
        own = t1 - t0 - child[i]
        row = by.setdefault(f"{phase}/{name}",
                            {"calls": 0, "total": 0.0, "self": 0.0, "durs": []})
        row["calls"] += 1
        row["total"] += t1 - t0
        row["self"] += own
        row["durs"].append([q, t1 - t0])
        if phase == "query":
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
    layers["bench"] = sum(t1 - t0 - child[i]
                          for i, (name, t0, t1, parent, _q) in enumerate(spans)
                          if name == "query")
    return by, layers


# ---------------------------------------------------------------------------
# calibration: the machine's current speed, from the benchmark's own code


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python kernel (seeded diagram
    generation and a relation scramble from ``gen.py``, garbage collector
    off).  The program cannot change it, so its drift is the machine's."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf()
            gen.random_diagram(random.Random(7), 300, 8, gen.TWISTED)
            word = gen.random_word(random.Random(7), 3, gen.TWISTED, 12)
            gen.scramble(random.Random(7), 3, gen.TWISTED, word, 3, 16)
            best = min(best, perf() - t0)
    finally:
        gc.enable()
    return best


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--trace")
    args = ap.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        m = json.load(fh)
    setup, query, check = WORKLOADS[m["workload"]]
    rec = Recorder(args.trace is not None)
    state = setup(m, rec)
    setup_s = perf() - SETUP_START
    sys.stdout.write(f"ready {setup_s!r} {calibrate()!r}\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    queries = m["queries"]
    if m.get("jobs_file") and not args.count:
        args.count = len(queries)  # whole sweeps only
    done, records = [], []
    spent = 0.0
    i = 0
    cal, cal_at = calibrate(), 0.0
    while True:
        if spent - cal_at >= 0.5:  # outside every query's interval
            cal, cal_at = calibrate(), spent
        if args.count:
            if i >= args.count:
                break
        elif (spent >= args.seconds and i >= m.get("min_queries", 1)
              and i % m.get("block", 1) == 0):
            break  # only after whole blocks, so the mix is exact
        q = queries[i % len(queries)]
        error = None
        with rec.span("query", i):
            t0 = perf()
            try:
                r = query(state, m, q, rec)
            except Exception as exc:  # counted as a failed query
                r, error = {"equal": None}, f"{type(exc).__name__}: {exc}"
            dt = perf() - t0
        spent += dt
        done.append((q, r))
        if error is None:
            label = r.get("label") or (
                "equivalent" if r["equal"] else "not equivalent")
        else:
            label = None
        records.append([q["sign"], dt, r["equal"], label, error, cal])
        i += 1

    failures = []
    with rec.span("check"):
        for (q, r), record in zip(done, records):
            ok = record[4] is None
            if ok:
                try:
                    ok = bool(check(state, m, q, r, rec))
                except Exception as exc:
                    ok, record[4] = False, f"check {type(exc).__name__}: {exc}"
            if not ok and len(failures) < 5:
                failures.append({"query": q, "label": record[3],
                                 "error": record[4] or "wrong verdict"})
            record.insert(5, ok)

    # counts from the results themselves, so ratios have exact bases
    result = {
        "records": records,
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "explored": [r.get("explored") for _, r in done],
        "budget": m.get("max_nodes"),
        "path_len": [len(r["path"]) if r.get("path") is not None else None
                     for _, r in done],
        "letters_out": [r.get("letters") for _, r in done],
        "build_ms": state.get("build_ms"),
        "prefix": len(done) if m.get("jobs_file") else m.get("min_queries", 1),
        "first_relation_ids": [i for i, (q, _r) in enumerate(done)
                               if q.get("index") == 0],
        "parsed_letters": sum(len(w) for _q, r in done
                              for w in r.get("words", ())),
        "parsed_events": sum(r.get("parsed", 0) for _q, r in done),
        "coded_events": sum(r.get("coded", 0) for _q, r in done),
        "braided_events": sum(r.get("braided", 0) for _q, r in done),
        "closed_letters": sum(r.get("letters", 0) for _q, r in done),
    }
    if args.trace:
        result["probe_counts"] = probes(m["workload"], state, m, done, rec)
        result["cli_overhead_ms"] = cli_overhead(m["workload"], state, m, done)
        result["spans"], result["self_s"] = summarize(rec.spans)
        rec.dump(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
