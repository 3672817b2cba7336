"""Both searches are pinned on short prefixes of the benchmark's streams.

``tools/search_digest.py`` digests every verdict, node count and
certificate of a stream; the full streams take seconds, so this runs its
``stream_digest`` on the first queries of one ``rewrite_eq`` and one
``markov_eq`` stream, in a fresh interpreter that writes no bytecode, and
compares the lines with sha256 values recorded before the rewrite kernels
read per-room rows, which must not change them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = [
    "rewrite_eq seed 7: queries 60 equal 19 sha256 "
    "bc33d07a43b46f69bb24e404b334d8d956a8f5c5097cf19f79c3f1f5110b57d4",
    "markov_eq seed 1: queries 40 equal 16 sha256 "
    "e4d0e3861a4a5c502a9670a2526d985a9ad6a20361dad97fb897c2255d37e9b1",
]

SCRIPT = """
import sys
sys.path.insert(0, "tools")
import search_digest
for stream in (("rewrite_eq", 7, 60), ("markov_eq", 1, 40)):
    print(search_digest.stream_digest(*stream)[0])
"""


def _tree(path: Path) -> set:
    return {p.relative_to(path) for p in path.rglob("*")}


def test_stream_prefixes_are_pinned():
    perfbench = _tree(ROOT / "perfbench")
    got = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == PINNED
    assert _tree(ROOT / "perfbench") == perfbench  # no bytecode, no stream
