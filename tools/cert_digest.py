"""Digest every reduced-presentation certificate, to compare two checkouts.

Covers every relation of TB/FT/VB/FV at n=2..10 and TB at n=16.  Prints the
number of certificate steps, one SHA-256 over the (family, n, relation,
rule, forward, pos) of every step, and a SHA-256 of the output of
`twb verify-presentation <family> 4 -v` for each family.  A change to the
derived-rule bank that keeps every certificate prints the same lines.

    PYTHONPATH=src python3 tools/cert_digest.py
"""

import contextlib
import hashlib
import io

from twbraid.cli import main
from twbraid.presentations import Family, reduced_presentation
from twbraid.reduced_map import verify_reduction

FAMILIES = (Family.TB_REDUCED, Family.FT_REDUCED, Family.VB_REDUCED, Family.FV_REDUCED)
CASES = [(f, n) for f in FAMILIES for n in range(2, 11)] + [(Family.TB_REDUCED, 16)]


def certificate_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    steps = 0
    for family, n in CASES:
        for r, verdict in verify_reduction(reduced_presentation(family, n)):
            if not verdict.proved:
                raise SystemExit(f"{family.value} n={n}: {r.name} not proved")
            for s in verdict.path:
                line = f"{family.value}|{n}|{r.name}|{s.rule}|{s.forward}|{s.pos}\n"
                digest.update(line.encode())
                steps += 1
    return steps, digest.hexdigest()


def cli_digest(family: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-presentation", family, "4", "-v"])
    return f"exit {code} sha256 {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


if __name__ == "__main__":
    steps, sha = certificate_digest()
    print(f"steps {steps} sha256 {sha}")
    for family in ("tb", "ft", "vb", "fv"):
        print(f"verify-presentation {family} 4 -v: {cli_digest(family)}")
