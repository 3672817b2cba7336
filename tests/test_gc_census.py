"""``tools/gc_census.py`` runs each benchmark workload's queries in process
and prints the garbage collections they start."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["rewrite_eq", "markov_eq", "verify_presentation", "braid_roundtrip"]


def _tree(path: Path) -> set:
    return {p.relative_to(path) for p in path.rglob("*")}


def test_prints_one_census_line_per_workload():
    perfbench = _tree(ROOT / "perfbench")
    got = subprocess.run(
        [sys.executable, "tools/gc_census.py", "20"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert len(lines) == len(WORKLOADS)
    gen0 = 0
    for workload, line in zip(WORKLOADS, lines):
        match = re.fullmatch(
            rf"{workload} seed 1: queries 20 gen0 (\d+) gen1 \d+ gen2 (\d+) "
            r"collecting \d+\.\d{3} s gen2 in (.+)",
            line,
        )
        assert match, line
        gen0 += int(match[1])
        if match[2] == "0":
            assert match[3] == "-"
    assert gen0 > 0  # the queries allocate, so the callback counts something
    assert _tree(ROOT / "perfbench") == perfbench  # no bytecode, no stream
