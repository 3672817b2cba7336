"""Run the benchmark over seeds 1-10 and summarise each metric.

    python3 perfbench/record.py [--out FILE]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed (untraced,
for ``run_seconds``), sequentially, and prints for every end-to-end metric
its median, quartiles and spread (the distance between the quartiles, from
``statistics.quantiles(n=4)``, as a share of the median) next to the
metric's bound; for time metrics also the spread of the values as measured,
before the scaling to the reference machine speed.  Then one traced run
(seed 1).  ``--out`` writes everything, with the machine and each run's
report line, as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[0]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        point["machine"] = runs[0][0]["machine"]
        metrics = {}
        for metric in bounds:
            metrics[metric] = summarise([r[1]["metrics"][metric]["value"] for r in runs])
        point["workloads"][name] = {
            "metrics": metrics,
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": [r[1]["failed"] for r in runs],
            "reports": [r[0]["report"] for r in runs],
        }
        print(f"== {name} ({len(runs)} seeds, {seconds:g} s)")
        for metric, s in metrics.items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- spread >= bound/3"
            print(f"  {metric:20s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:.3f} (bound {bounds[metric]}){flag}")
            print("      " + " ".join(f"{v:.4g}" for v in s["values"]))
            measured = [r[0]["report"]["as_measured"].get(metric) for r in runs]
            if None not in measured:
                m = summarise(measured)
                metrics[metric]["as_measured"] = m
                print(f"      as measured: median {m['median']:.4g}, spread {m['spread']:.3f}")
        sys.stdout.flush()
    info, last = run_once(names[0], TRACE_SEED, seconds, 1)
    point["trace"] = {"seed": TRACE_SEED, "report": info["report"],
                      "metrics": last["metrics"]}
    for metric, m in last["metrics"].items():
        print(f"  {metric:45s} {m['value']:14.4f} {m['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
