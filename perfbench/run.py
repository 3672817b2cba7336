"""twbraid benchmark runner.

    python3 perfbench/run.py --workload rewrite_eq --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; stdlib only.  Inputs come from ``--seed``
(``gen.py``/``workloads.py``, no ``twbraid`` import), are written as
``.word``/``.morse`` files under ``perfbench/work/``, and are read by worker
processes (``worker.py``), each a fresh interpreter with ``PYTHONPATH=src``.
One client, closed loop: each query is sent after the previous verdict.

``--trace 0`` prints the end-to-end metrics of one workload.  ``--trace 1``
runs every workload twice on the same queries, untraced and traced, and
prints the per-layer metrics (each measured on the workload that exercises
its layer) and the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Wrong verdicts,
exceptions and certificates that do not replay count as failed queries, and
any failed query makes the exit code 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

perf = time.perf_counter
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, "work")
SETUP_REPS = 9  # set-up-only processes per run, besides the measuring ones
RUN_LIMIT = 170.0  # seconds; a run must end within 180
#: Time metrics are scaled to the machine speed at which the calibration
#: kernel (worker.calibrate) takes this long: about its time on the 2-core
#: x86-64 machine (Python 3.11.7) the benchmark was written on.
REFERENCE_KERNEL_S = 2.0e-3
ORDER = ("rewrite_eq", "markov_eq", "verify_presentation", "braid_roundtrip")

#: End-to-end metrics defined for the benchmark but not gated in
#: BENCHMARK.json, with the reason; each is still printed in the report line.
NOT_GATED = {
    "pos_p50_ms": "not steady: over seeds 1-10 its quartiles spread 27% and "
    "32% on rewrite_eq and markov_eq, whose decided positives take 1-3 ms",
    "pos_tail_ms": "not steady: over seeds 1-10 its quartiles spread 11-24%",
    "neg_p50_ms": "verify_presentation has no negative queries",
    "neg_tail_ms": "verify_presentation has no negative queries",
    "neg_decided_share": "0 on rewrite_eq and markov_eq, which can only say Unknown",
    "failed_share": "0 by design; gated through correct/failed instead",
}


# ---------------------------------------------------------------------------
# processes

_OUTPUTS = itertools.count()


def _spawn(manifest: str, deadline: float, *extra: str) -> tuple[list, dict]:
    """Start a worker, read its set-up and calibration times from its
    ``ready`` line, wait for its result."""
    out = f"{manifest}.{next(_OUTPUTS)}.out"
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, WORKER, "--manifest", manifest, "--out", out, *extra]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - perf()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    line = stdout.split()
    if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(argv)}")
    setup = [float(line[1]), float(line[2])]
    if "--setup-only" in extra:
        return setup, {}
    with open(out, encoding="utf-8") as fh:
        return setup, json.load(fh)


def _manifest(workload: str, rng: random.Random, root: str) -> str:
    os.makedirs(root, exist_ok=True)
    # streams of about three times what a run uses at the seed commit; a
    # worker that gets through one starts it again (no query result is
    # cached across queries by the program)
    if workload == "rewrite_eq":
        m = workloads.rewrite_eq(rng, root, 40)
    elif workload == "markov_eq":
        m = workloads.markov_eq(rng, root, 20)
    elif workload == "verify_presentation":
        m = workloads.verify_round(rng, root)
    else:
        data = os.path.join("src", "twbraid", "data")
        corpus = sorted(os.path.join(data, f) for f in os.listdir(data)
                        if f.startswith("corpus_") and f.endswith(".morse"))
        m = workloads.braid_roundtrip(rng, root, 40, corpus)
    m["workload"] = workload
    m["dir"] = os.path.abspath(root)
    path = os.path.join(root, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m, fh)
    return path


def _rng(workload: str, seed: int, round_no: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def run_workload(workload, seed, seconds, work, deadline, count=None, trace=None):
    """Closed loop for ``seconds`` of query time (or exactly ``count``
    queries).  verify_presentation runs whole sweeps, one fresh process
    each, until the time is spent.  Returns the set-up times and the
    workers' results."""
    results, setups = [], []
    spent, round_no = 0.0, 0
    while True:
        manifest = _manifest(workload, _rng(workload, seed, round_no),
                             os.path.join(work, f"{workload}-r{round_no}"))
        extra = []
        if count is not None:
            extra += ["--count", str(count)]
        else:
            extra += ["--seconds", str(seconds)]
        if trace is not None:
            extra += ["--trace", trace]
        setup, res = _spawn(manifest, deadline, *extra)
        setups.append(setup)
        results.append(res)
        spent += sum(r[1] for r in res["records"])
        round_no += 1
        if workload != "verify_presentation" or count is not None or spent >= seconds:
            return setups, results, manifest


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest value, at percentile ``100 * (N - 10) / N``.  Up to
    twenty samples that would undercut the median, so the median stands
    in (percentile 50)."""
    xs = sorted(values)
    if len(xs) <= 20:
        return statistics.median(xs), 50.0
    return xs[-11], 100 * (len(xs) - 10) / len(xs)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(seconds: float, kernel_s: float) -> float:
    """A time measured while the calibration kernel took ``kernel_s``,
    scaled to the reference machine speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def _units(lats, block):
    """The latency lists of the units every mix is whole in: each block of
    a stream, or each sweep (worker process) when there are no blocks."""
    if not block:
        return lats
    flat = [x for lat in lats for x in lat]
    return [flat[i : i + block] for i in range(0, len(flat) - block + 1, block)]


def _summary(lats, setups, block):
    units = _units(lats, block)
    tails = [tail(lat) for lat in lats]
    return {
        "setup_s": statistics.median(setups),
        "throughput_qps": statistics.median(len(u) / sum(u) for u in units),
        "p50_ms": statistics.median(x for lat in lats for x in lat) * 1e3,
        "tail_ms": statistics.median(t[0] for t in tails) * 1e3,
    }, len(units), statistics.median(t[1] for t in tails)


def end_to_end(setups, results, block):
    """Throughput is the median over whole blocks (sweeps) of queries per
    second of query time; the tail is the median over worker processes of
    each one's tail, so it always reads the same point of a sweep.  The
    time metrics are scaled to the reference machine speed; the report
    line keeps them as measured."""
    records = [r for res in results for r in res["records"]]
    pos = [r for r in records if r[0] == "pos"]
    neg = [r for r in records if r[0] == "neg"]
    failed = sum(1 for r in records if not r[5])
    raw, units, percentile = _summary(
        [[r[1] for r in res["records"]] for res in results],
        [s for s, _k in setups], block)
    times, _, _ = _summary(
        [[scaled(r[1], r[6]) for r in res["records"]] for res in results],
        [scaled(s, k) for s, k in setups], block)
    metrics = {
        "setup_s": _metric(times["setup_s"], "s"),
        "throughput_qps": _metric(times["throughput_qps"], "1/s"),
        "p50_ms": _metric(times["p50_ms"], "ms"),
        "tail_ms": _metric(times["tail_ms"], "ms"),
        "pos_decided_share": _metric(
            sum(1 for r in pos if r[2] and r[5]) / len(pos), "share"),
        "peak_rss_mb": _metric(statistics.median(res["rss_mb"] for res in results), "MB"),
    }
    pos_lat = [scaled(r[1], r[6]) for r in pos]
    report = {
        "queries": len(records), "pos": len(pos), "neg": len(neg),
        "tail_percentile": percentile,
        "units": units,
        "as_measured": raw,
        "kernel_ms_median": statistics.median(r[6] for r in records) * 1e3,
        "pos_p50_ms": statistics.median(pos_lat) * 1e3,
        "pos_tail_ms": tail(pos_lat)[0] * 1e3,
        "pos_tail_percentile": tail(pos_lat)[1],
        "failed_share": failed / len(records),
        "setup_samples_s": setups,
        "processes": len(results),
    }
    if neg:
        neg_lat = [scaled(r[1], r[6]) for r in neg]
        report["neg_p50_ms"] = statistics.median(neg_lat) * 1e3
        report["neg_tail_ms"], report["neg_tail_percentile"] = tail(neg_lat)
        report["neg_tail_ms"] *= 1e3
        report["neg_decided_share"] = sum(
            1 for r in neg if r[3] in ("Different", "not equivalent") and r[5]
        ) / len(neg)
    explored = [e for res in results for e in res["explored"] if e is not None]
    if explored:
        budget = results[0]["budget"]
        report["explored_mean"] = statistics.fmean(explored)
        report["node_budget"] = budget
        report["explored_at_budget_share"] = sum(e >= budget for e in explored) / len(explored)
    report["failures"] = [f for res in results for f in res["failures"]][:5]
    return metrics, report, len(records), failed


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def _durs(res, phase, name, sign=None):
    rows = res["spans"].get(f"{phase}/{name}", {"durs": []})["durs"]
    if sign is None:
        return [d for _q, d in rows]
    return [d for q, d in rows if res["records"][q][0] == sign]


def _rate(count, durs):
    total = sum(durs)
    return count / total if total > 0 else 0.0


def _med(durs, scale):
    return statistics.median(durs) * scale if durs else 0.0


def per_layer(res_by_workload):
    rw = res_by_workload["rewrite_eq"]
    mk = res_by_workload["markov_eq"]
    vp = res_by_workload["verify_presentation"]
    br = res_by_workload["braid_roundtrip"]
    m = {}

    def put(name, value, unit):
        m[name] = _metric(float(value), unit)

    parse = _durs(rw, "query", "words.read_word_file") + _durs(mk, "query", "words.read_word_file")
    put("words.parse_letters_per_s",
        _rate(rw["parsed_letters"] + mk["parsed_letters"], parse), "1/s")
    put("words.free_reduce_letters_per_s",
        _rate(mk["probe_counts"]["free_reduce_letters"],
              _durs(mk, "probe", "words.free_reduce")), "1/s")

    search = _durs(rw, "query", "presentations.equivalent_bounded")
    put("presentations.search_ms", _med(search, 1e3), "ms")
    put("presentations.nodes_per_s", _rate(sum(rw["explored"]), search), "1/s")
    put("presentations.nodes_per_query",
        statistics.fmean(rw["explored"][: rw["prefix"]]), "count")
    put("presentations.neighbors_per_s",
        _rate(rw["probe_counts"]["neighbors"],
              _durs(rw, "probe", "presentations.rewrite_neighbors")), "1/s")
    replayed = sum(p for res in (rw, vp) for p, r in zip(res["path_len"], res["records"])
                   if r[2] and p)
    put("presentations.replay_steps_per_s",
        _rate(replayed, _durs(rw, "check", "presentations.replay_path")
              + _durs(vp, "check", "presentations.replay_path")), "1/s")
    put("presentations.build_ms", rw["build_ms"], "ms")

    firsts = vp["first_relation_ids"]
    verify = vp["spans"]["query/reduced_map.verify_reduction"]["durs"]
    put("reduced_map.bank_build_ms", sum(d for q, d in verify if q in firsts) * 1e3, "ms")
    put("reduced_map.relation_us",
        _med([d for q, d in verify if q not in firsts], 1e6), "us")
    put("reduced_map.cert_steps", sum(p or 0 for p in vp["path_len"]), "count")
    put("reduced_map.expand_letters_per_s",
        _rate(vp["probe_counts"]["expand_letters"],
              _durs(vp, "probe", "reduced_map.expand_word")), "1/s")

    msearch = _durs(mk, "query", "markov.markov_equivalent_bounded")
    put("markov.search_ms", _med(msearch, 1e3), "ms")
    put("markov.nodes_per_s", _rate(sum(mk["explored"]), msearch), "1/s")
    put("markov.nodes_per_query", statistics.fmean(mk["explored"][: mk["prefix"]]), "count")
    put("markov.neighbors_per_s",
        _rate(mk["probe_counts"]["neighbors"],
              _durs(mk, "probe", "markov.markov_neighbors")), "1/s")
    moves = sum(p for p, r in zip(mk["path_len"], mk["records"]) if r[2] and p)
    put("markov.replay_moves_per_s",
        _rate(2 * moves, _durs(mk, "query", "markov.render_markov_path")
              + _durs(mk, "check", "markov.replay_markov_path")), "1/s")
    put("markov.closure_code_ms",
        _med(_durs(br, "query", "markov.closure_code_equivalent"), 1e3), "ms")
    fingerprint = sum(sum(_durs(mk, "probe", f"quotients.{f}")) for f in (
        "hyperoctahedral_image", "sigma_exponent_sum", "bar_parity_per_component"))
    put("quotients.fingerprint_us", fingerprint / max(1, 2 * mk["queries"]) * 1e6, "us")

    put("diagram.parse_events_per_s",
        _rate(br["parsed_events"], _durs(br, "query", "diagram.read_morse_file")), "1/s")
    put("diagram.gauss_code_events_per_s",
        _rate(br["coded_events"], _durs(br, "query", "diagram.gauss_code")), "1/s")
    put("diagram.closure_letters_per_s",
        _rate(br["closed_letters"], _durs(br, "query", "diagram.closure_diagram")), "1/s")
    put("diagram.gauss_eq_pos_ms", _med(_durs(br, "query", "diagram.gauss_equivalent", "pos"), 1e3), "ms")
    put("diagram.gauss_eq_neg_ms", _med(_durs(br, "query", "diagram.gauss_equivalent", "neg"), 1e3), "ms")
    put("diagram.gauss_eq_calls", len(_durs(br, "query", "diagram.gauss_equivalent")), "count")
    braids = _durs(br, "query", "braiding.braid")
    put("braiding.braid_ms", _med(braids, 1e3), "ms")
    put("braiding.slices_per_s", _rate(br["braided_events"], braids), "1/s")
    put("braiding.letters_out", sum(x or 0 for x in br["letters_out"][: br["prefix"]]), "count")

    cli = [x for res in (mk, vp, br) for x in res["cli_overhead_ms"]]
    put("cli.overhead_ms", statistics.median(cli), "ms")

    for name in ORDER:
        res = res_by_workload[name]
        for layer in SELF_LAYERS[name]:
            put(f"{name}.{layer}.self_ms", res["self_s"].get(layer, 0.0) / res["queries"] * 1e3, "ms")
        put(f"{name}.trace_overhead_pct",
            (res["traced_s"] / res["untraced_s"] - 1) * 100, "%")
    return m


#: Layers whose self time per query is reported, per workload; ``bench`` is
#: the query span's own time outside every call into the program.
SELF_LAYERS = {
    "rewrite_eq": ("words", "presentations", "bench"),
    "markov_eq": ("words", "markov", "bench"),
    "verify_presentation": ("reduced_map", "bench"),
    "braid_roundtrip": ("diagram", "braiding", "markov", "bench"),
}


def traced_suite(seed, seconds, work, deadline):
    """Every workload: an untraced pass for an eighth of ``seconds`` (one
    sweep for verify_presentation), then a traced pass over exactly the same
    queries in a fresh process, so the whole suite ends well inside a run's
    time limit even on a slow machine."""
    by_workload, attempted, failed, report = {}, 0, 0, {}
    for name in ORDER:
        plain_s = 0 if name == "verify_presentation" else seconds / 8
        _, (plain,), _ = run_workload(name, seed, plain_s, os.path.join(work, "u"),
                                      deadline)
        count = len(plain["records"])
        spans = os.path.join(WORK, "last-trace", f"{name}.spans.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        _, traced, _ = run_workload(name, seed, 0, os.path.join(work, "t"),
                                    deadline, count=count, trace=spans)
        res = traced[0]
        res["untraced_s"] = sum(scaled(r[1], r[6]) for r in plain["records"])
        res["traced_s"] = sum(scaled(r[1], r[6]) for r in res["records"])
        res["queries"] = count
        by_workload[name] = res
        attempted += count + len(plain["records"])
        failed += sum(1 for r in res["records"] + plain["records"] if not r[5])
        report[name] = {
            "queries": count,
            "untraced_qps": count / res["untraced_s"],
            "traced_qps": count / res["traced_s"],
            "failures": res["failures"][:3] + plain["failures"][:3],
        }
    return per_layer(by_workload), report, attempted, failed


# ---------------------------------------------------------------------------


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ORDER)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "twbraid", "__init__.py")):
        print("error: run from a checkout root that has src/twbraid", file=sys.stderr)
        return 2

    deadline = perf() + RUN_LIMIT
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        if args.trace:
            metrics, report, attempted, failed = traced_suite(
                args.seed, args.seconds, work, deadline)
        else:
            setup_extra = []
            setups, results, manifest = run_workload(
                args.workload, args.seed, args.seconds, work, deadline)
            for _ in range(SETUP_REPS):
                setup_extra.append(_spawn(manifest, deadline, "--setup-only")[0])
            with open(manifest, encoding="utf-8") as fh:
                block = json.load(fh).get("block")
            metrics, report, attempted, failed = end_to_end(
                setups + setup_extra, results, block)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["report"] = report
    print(json.dumps(info))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
