"""Digest every reduced-presentation certificate at n = 2..24, to compare two
checkouts.

Runs `verify_reduction` for TB, FT, VB and FV at every n from 2 to 24 and
prints the number of relations, the number of certificate steps and one
SHA-256 over `name|rule|forward|pos;` of every step, in order.  A change to
the derived-rule bank that keeps every certificate prints the same line.
It reaches larger n than `tools/cert_digest.py` and takes about 35 s.

Run from the repository root; it takes no arguments and puts `src` on
`sys.path` itself:

    python3 tools/cert_sweep.py
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from twbraid.presentations import Family, reduced_presentation
from twbraid.reduced_map import verify_reduction

FAMILIES = (Family.TB_REDUCED, Family.FT_REDUCED, Family.VB_REDUCED, Family.FV_REDUCED)


def main() -> None:
    digest = hashlib.sha256()
    relations = steps = 0
    for family in FAMILIES:
        for n in range(2, 25):
            for r, verdict in verify_reduction(reduced_presentation(family, n)):
                if not verdict:
                    raise SystemExit(f"{family.value} n={n}: {r.name} not proved")
                relations += 1
                for s in verdict.path:
                    digest.update(f"{r.name}|{s.rule}|{s.forward}|{s.pos};".encode())
                    steps += 1
    print(f"relations {relations} steps {steps} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
