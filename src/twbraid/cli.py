"""Command-line surface: braid/close/gauss round trips, word rewriting,
presentation verification, invariant reports, and Markov-equivalence search.

Exit codes: 0 for success (Proved/Equal/equivalent), 1 when a bounded check
returns Unknown or an equivalence test fails, 2 for input errors.  The
markov-eq search bounds may also be set through the environment as
TWB_MAX_NODES, TWB_MAX_LENGTH, and TWB_MAX_STRANDS; explicit flags win.
"""
from __future__ import annotations

import argparse
import os
import sys

from .braiding import braid_with_trace, trace_lines
from .diagram import (
    DiagramError,
    closure_diagram,
    format_morse_file,
    gauss_code,
    gauss_equivalent,
    read_morse_file,
)
from .markov import markov_equivalent_bounded, render_markov_path
from .presentations import Family, Mismatch, reduced_presentation
from .quotients import (
    bar_parity_per_component,
    closure_permutation,
    hyperoctahedral_image,
    sigma_exponent_sum,
)
from .reduced_map import (
    expand_word,
    full_relations_for,
    render_path,
    verify_derived_relation,
)
from .words import (
    UnsupportedN,
    WordError,
    format_word_file,
    free_reduce,
    read_word_file,
)

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_INPUT = 2

_FAMILIES = {
    "tb": Family.TB_REDUCED,
    "ft": Family.FT_REDUCED,
    "vb": Family.VB_REDUCED,
    "fv": Family.FV_REDUCED,
}


class ConfigError(ValueError):
    pass


def _bound(flag_value: int | None, env_name: str) -> int | None:
    """Explicit flag wins; otherwise the TWB_ environment; otherwise None
    (the library default)."""
    if flag_value is not None:
        if flag_value <= 0:
            raise ConfigError(f"bounds must be positive, got {flag_value}")
        return flag_value
    raw = os.environ.get(env_name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{env_name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ConfigError(f"{env_name} must be positive, got {value}")
    return value


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_braid(args) -> int:
    d = read_morse_file(args.morse_file)
    word, trace = braid_with_trace(d)
    _emit(format_word_file(word), args.output)
    text = trace_lines(trace)
    if args.trace is None:
        sys.stderr.write(text)
    else:
        _emit(text, args.trace)
    return EXIT_OK


def cmd_close(args) -> int:
    w = read_word_file(args.word_file)
    _emit(format_morse_file(closure_diagram(w)), args.output)
    return EXIT_OK


def cmd_gauss(args) -> int:
    code = gauss_code(read_morse_file(args.morse_file))
    print(code)
    return EXIT_OK


def cmd_gauss_eq(args) -> int:
    a = gauss_code(read_morse_file(args.morse_file_1))
    b = gauss_code(read_morse_file(args.morse_file_2))
    if gauss_equivalent(a, b):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_UNKNOWN


def cmd_reduce(args) -> int:
    w = read_word_file(args.word_file)
    _emit(format_word_file(free_reduce(w)), args.output)
    return EXIT_OK


def cmd_expand(args) -> int:
    w = read_word_file(args.word_file)
    _emit(format_word_file(expand_word(w)), args.output)
    return EXIT_OK


def cmd_verify_presentation(args) -> int:
    reduced = reduced_presentation(_FAMILIES[args.family], args.n)
    unknown = 0
    total = 0
    for relation in full_relations_for(reduced.family, reduced.n):
        total += 1
        verdict = verify_derived_relation(relation, reduced)
        if verdict:
            print(f"{relation.name}: Proved ({len(verdict.path)} steps)")
            if args.verbose and verdict.path:
                print(render_path(relation, reduced, verdict.path))
        else:
            unknown += 1
            print(f"{relation.name}: Unknown")
    print(
        f"{total - unknown}/{total} relations proved "
        f"({_FAMILIES[args.family].value}, n={args.n})"
    )
    return EXIT_OK if unknown == 0 else EXIT_UNKNOWN


def cmd_invariants(args) -> int:
    w = read_word_file(args.word_file)
    image = hyperoctahedral_image(w)
    perm = " ".join(f"{i + 1}->{image.mapping[i]}" for i in range(w.n))
    signs = " ".join("+" if s > 0 else "-" for s in image.signs)
    closure = closure_permutation(w)
    parities = bar_parity_per_component(w)
    print(f"word ({w.n} strands, {w.category.value}): {w or 'empty'}")
    print(f"strand permutation: {perm}")
    print(f"sign vector: ({signs})")
    print(f"sigma exponent sum: {sigma_exponent_sum(w)}")
    print(f"closure components: {closure.component_count}")
    for cycle in sorted(parities):
        strands = ",".join(str(s) for s in cycle)
        print(f"bar parity on component {{{strands}}}: {parities[cycle]}")
    return EXIT_OK


def cmd_markov_eq(args) -> int:
    w1 = read_word_file(args.word_file_1)
    w2 = read_word_file(args.word_file_2)
    kwargs = {}
    for name in ("max_strands", "max_length", "max_nodes"):
        bound = _bound(getattr(args, name), f"TWB_{name.upper()}")
        if bound is not None:
            kwargs[name] = bound
    outcome = markov_equivalent_bounded(w1, w2, **kwargs)
    print(outcome.label)
    if outcome.equal:
        for line in render_markov_path(w1, outcome.path):
            print(line)
        return EXIT_OK
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twb",
        description=(
            "Twisted braid words, Morse diagrams, and their equivalences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("braid", help="turn a Morse diagram into a braid word")
    p.add_argument("morse_file")
    p.add_argument("-o", "--output", help="word file to write (default stdout)")
    p.add_argument(
        "--trace",
        help="write the JSON-lines elimination trace here (default stderr)",
    )
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("close", help="close a braid word into a Morse diagram")
    p.add_argument("word_file")
    p.add_argument("-o", "--output", help="morse file to write (default stdout)")
    p.set_defaults(func=cmd_close)

    p = sub.add_parser("gauss", help="print a diagram's Gauss code")
    p.add_argument("morse_file")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser(
        "gauss-eq", help="compare two diagrams' Gauss codes (exit 1 if they differ)"
    )
    p.add_argument("morse_file_1")
    p.add_argument("morse_file_2")
    p.set_defaults(func=cmd_gauss_eq)

    p = sub.add_parser("reduce", help="freely reduce a braid word")
    p.add_argument("word_file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "expand", help="rewrite a braid word over the reduced generating set"
    )
    p.add_argument("word_file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser(
        "verify-presentation",
        help="check every full relation against a reduced presentation",
    )
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_verify_presentation)

    p = sub.add_parser(
        "invariants", help="report a word's quotient and closure invariants"
    )
    p.add_argument("word_file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "markov-eq",
        help="bounded search for a Markov move path between two words",
    )
    p.add_argument("word_file_1")
    p.add_argument("word_file_2")
    p.add_argument("--max-strands", type=int, default=None)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(func=cmd_markov_eq)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WordError, DiagramError, Mismatch, UnsupportedN, ConfigError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
