"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload untraced with ``--seconds 0`` (each worker's minimum
number of queries; one sweep for verify_presentation), and the traced suite
twice with the same seed.  It asserts that every run exits 0 with no failed
query; that every metric in BENCHMARK.json is printed with its unit; that
every end-to-end metric the benchmark defines is printed, in the metrics or
in the report line (only the ``neg_*`` ones may be absent, on
verify_presentation, which has no negative queries); and that the counters
``presentations.nodes_per_query``, ``markov.nodes_per_query``,
``reduced_map.cert_steps`` and ``braiding.letters_out`` repeat exactly
between the two traced runs.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

#: Every end-to-end metric the benchmark defines, gated or not.
DEFINED = ("setup_s", "throughput_qps", "pos_p50_ms", "pos_tail_ms",
           "neg_p50_ms", "neg_tail_ms", "pos_decided_share",
           "neg_decided_share", "failed_share", "peak_rss_mb")
EXACT = ("presentations.nodes_per_query", "markov.nodes_per_query",
         "reduced_map.cert_steps", "braiding.letters_out")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, (workload, proc.returncode, proc.stderr[-2000:])
    info, last = json.loads(lines[0]), json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
    return info, last


def _check_units(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}, (
        sorted(set(metrics) ^ {m["name"] for m in declared}))
    for m in declared:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        info, last = _run(w["name"], 1, 0)
        _check_units(last["metrics"], bench["end_to_end"])
        report = info["report"]
        assert report["failed_share"] == 0.0, report
        for name in DEFINED:
            printed = name in last["metrics"] or name in report
            no_negatives = w["name"] == "verify_presentation" and name.startswith("neg_")
            assert printed or no_negatives, (w["name"], name)
        if w["name"] in ("verify_presentation", "braid_roundtrip"):
            assert last["metrics"]["pos_decided_share"]["value"] == 1.0, w["name"]
        print(f"ok  {w['name']:20s} {last['attempted']:6d} queries, "
              f"e2e metrics and units as declared")
    first = _run(bench["workloads"][0]["name"], 7, 1)[1]["metrics"]
    second = _run(bench["workloads"][0]["name"], 7, 1)[1]["metrics"]
    _check_units(first, bench["per_layer"])
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], (
            name, first[name], second[name])
    print(f"ok  traced suite: {len(first)} per-layer metrics as declared; "
          f"{', '.join(EXACT)} repeat exactly")
    for name, reason in run.NOT_GATED.items():
        print(f"not gated: {name}: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
