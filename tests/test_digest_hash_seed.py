"""All nine lines of ``tools/cert_digest.py`` are pinned, and do not depend
on the hash seed.

String hashes change with ``PYTHONHASHSEED`` and enum members hash by
identity, so the iteration order of a set of either can change from one
process to the next.  Each digest runs in a fresh interpreter under two
seeds and must print the committed line both times: an output that leans
on such an order fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = [
    "steps 465522 sha256 "
    "1c444203e9b0dd07498427504b00a7ffe93700321ff5ec4523946870dc3cd482",
    "verify-presentation tb 4 -v: exit 0 sha256 "
    "b3411a9fc320ed928c653bacb3552e646bc3a5251de09816507ef8b5c0cdc643",
    "verify-presentation ft 4 -v: exit 0 sha256 "
    "d819981a9121fcd6ea5ef11edefae7e75080a85c102f965980811637a6678e6d",
    "verify-presentation vb 4 -v: exit 0 sha256 "
    "d48ae6c5d9d2c6d9d85f2b3636050276a9b07e102063f48d00ccc65ce6c49dc4",
    "verify-presentation fv 4 -v: exit 0 sha256 "
    "e078131ef0441bee4a3b66d1874264b1f88de39801e49221b0addf4469e8f39b",
    "markov pairs 44 equal 35 sha256 "
    "2c1c47c3d68b72daa55658a4f3cb881515d0c470216fce667e013bef2bc893f4",
    "rewrite pairs 60 equal 18 sha256 "
    "3b7c20f9a971b937b1324c439d214658eec4bc895b068994404e0495c9196cca",
    "gauss pairs 114 equal 80 sha256 "
    "cb89426b9377a403952f50447cd314933684fbe9512076f120c36b839b50b977",
    "braid diagrams 166 letters 14071 sha256 "
    "cf64557bde918657420b6ad376e5f9c95464f9c39ff941fd4eb0a55e417e00ef",
]

SCRIPT = """
import sys
sys.path.insert(0, "tools")
import cert_digest
steps, sha = cert_digest.certificate_digest()
print(f"steps {steps} sha256 {sha}")
for family in ("tb", "ft", "vb", "fv"):
    print(f"verify-presentation {family} 4 -v: {cert_digest.cli_digest(family)}")
pairs, equal, sha = cert_digest.markov_digest()
print(f"markov pairs {pairs} equal {equal} sha256 {sha}")
pairs, equal, sha = cert_digest.rewrite_digest()
print(f"rewrite pairs {pairs} equal {equal} sha256 {sha}")
pairs, equal, sha = cert_digest.gauss_digest()
print(f"gauss pairs {pairs} equal {equal} sha256 {sha}")
diagrams, letters, sha = cert_digest.braid_digest()
print(f"braid diagrams {diagrams} letters {letters} sha256 {sha}")
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_gauss_and_braid_digests_under_the_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == PINNED
