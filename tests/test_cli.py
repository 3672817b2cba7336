"""End-to-end checks of the ``twb`` command line."""
import time
from importlib import resources

import pytest

from twbraid import reduced_map
from twbraid.cli import main
from twbraid.diagram import (
    closure_diagram,
    gauss_code,
    gauss_equivalent,
    read_morse_file,
    shipped_diagram,
    write_morse_file,
)
from twbraid.words import Category, Kind, parse_word, read_word_file, write_word_file


def word_file(tmp_path, name, n, text, category="twisted"):
    path = tmp_path / name
    write_word_file(path, parse_word(text, n, Category(category)))
    return str(path)


def morse_file(tmp_path, name, diagram):
    path = tmp_path / name
    write_morse_file(path, diagram)
    return str(path)


#: `twb braid showcase.morse`: the word file on stdout, the trace on stderr.
SHOWCASE_WORD_FILE = (
    "n=9 category=twisted\n"
    "v5 v4 v3 v2 v1 b6 v4 v5 S5 v4 S4 b5 b9 v5 v6 v7 v8 s8 b6 v1 v2 v3 v4 "
    "v7 v8 v6 v7 v5 v6 v4 v5 v3 v4 v2 v1\n"
)
SHOWCASE_TRACE = """\
{"step": 1, "arc": 1, "letters": ["v5", "v4", "v3", "v2", "v1"]}
{"step": 2, "arc": 2, "letters": []}
{"step": 3, "arc": 3, "letters": ["b5", "v5", "v6", "v7", "v8", "s8"]}
{"step": 4, "arc": 4, "letters": ["v4", "S4"]}
{"step": 5, "arc": 5, "letters": ["b6", "v4", "v5", "S5"]}
{"step": 6, "arc": 6, "letters": []}
{"step": 7, "arc": 7, "letters": ["b6"]}
{"step": 8, "arc": 8, "letters": []}
{"step": 9, "arc": 9, "letters": ["b9"]}
{"step": 10, "arc": 0, "letters": ["v1", "v2", "v3", "v4", "v7", "v8", "v6", \
"v7", "v5", "v6", "v4", "v5", "v3", "v4", "v2", "v1"]}
"""


class TestBraid:
    def test_unknot_gives_empty_one_strand_word(self, tmp_path, capsys):
        d = closure_diagram(parse_word("", 1, Category.TWISTED))
        src = morse_file(tmp_path, "u.morse", d)
        assert main(["braid", src]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n=1 category=twisted"

    def test_showcase_example_counts(self, tmp_path):
        src = morse_file(tmp_path, "p.morse", shipped_diagram("showcase"))
        dst = tmp_path / "p.word"
        trace = tmp_path / "p.trace"
        assert main(["braid", src, "-o", str(dst), "--trace", str(trace)]) == 0
        w = read_word_file(dst)
        kinds = [g.kind for g in w.letters]
        classical = sum(k in (Kind.SIGMA, Kind.SIGMA_INV) for k in kinds)
        assert (classical, kinds.count(Kind.B)) == (3, 4)
        first = trace.read_text().splitlines()[0]
        assert first.startswith('{"step": 1,')

    def test_trace_goes_to_stderr_by_default(self, tmp_path, capsys):
        d = closure_diagram(parse_word("s1 b2", 2, Category.TWISTED))
        src = morse_file(tmp_path, "t.morse", d)
        assert main(["braid", src]) == 0
        captured = capsys.readouterr()
        assert "category=twisted" in captured.out
        assert '"arc"' in captured.err

    def test_output_word_file_round_trips(self, tmp_path):
        d = shipped_diagram("corpus_03_trefoil")
        src = morse_file(tmp_path, "t.morse", d)
        dst = tmp_path / "t.word"
        assert main(["braid", src, "-o", str(dst), "--trace", str(tmp_path / "x")]) == 0
        assert str(read_word_file(dst)) == "s1 s1 s1"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["braid", str(tmp_path / "missing.morse")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_showcase_output_is_pinned(self, capsys):
        src = resources.files("twbraid") / "data" / "showcase.morse"
        assert main(["braid", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.out == SHOWCASE_WORD_FILE
        assert captured.err == SHOWCASE_TRACE


class TestCloseAndGauss:
    def test_close_then_braid_is_faithful(self, tmp_path, capsys):
        src = word_file(tmp_path, "w.word", 3, "b1 s2 v1 b3")
        closed = tmp_path / "w.morse"
        assert main(["close", src, "-o", str(closed)]) == 0
        d = read_morse_file(closed)
        rebraided = tmp_path / "back.word"
        assert main(["braid", str(closed), "-o", str(rebraided),
                     "--trace", str(tmp_path / "tr")]) == 0
        back = read_word_file(rebraided)
        original = read_word_file(src)
        assert gauss_equivalent(
            gauss_code(d), gauss_code(closure_diagram(back))
        )
        assert back.n == original.n

    def test_close_writes_parseable_morse_to_stdout(self, tmp_path, capsys):
        src = word_file(tmp_path, "b.word", 1, "b1")
        assert main(["close", src]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "morse category=twisted"
        assert "bar 1" in out

    def test_gauss_prints_code(self, tmp_path, capsys):
        d = closure_diagram(parse_word("s1 s1 s1", 2, Category.CLASSICAL))
        src = morse_file(tmp_path, "t.morse", d)
        assert main(["gauss", src]) == 0
        out = capsys.readouterr().out
        assert out.count("O") == 3 and out.count("U") == 3

    @pytest.mark.parametrize("name, code", [
        ("showcase", "O1- U2- b U3+ / O2- b U1- b b O3+"),
        ("corpus_35_ft_cycle", "b F1 b F2 / F1 F2"),
    ])
    def test_gauss_prints_bars_and_flat_crossings(self, name, code, capsys):
        src = resources.files("twbraid") / "data" / f"{name}.morse"
        assert main(["gauss", str(src)]) == 0
        assert capsys.readouterr().out == code + "\n"

    def test_gauss_eq_exit_codes(self, tmp_path):
        plain = morse_file(tmp_path, "a.morse", shipped_diagram("corpus_03_trefoil"))
        wiggled = morse_file(
            tmp_path, "b.morse", shipped_diagram("corpus_05_trefoil_wiggled")
        )
        other = morse_file(tmp_path, "c.morse", shipped_diagram("showcase"))
        assert main(["gauss-eq", plain, wiggled]) == 0
        assert main(["gauss-eq", plain, other]) == 1


class TestRewriting:
    def test_reduce_cancels(self, tmp_path, capsys):
        src = word_file(tmp_path, "r.word", 2, "s1 S1 b1 b1 v1")
        assert main(["reduce", src]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "v1"

    def test_expand_rewrites_high_sigma(self, tmp_path, capsys):
        src = word_file(tmp_path, "e.word", 3, "s2")
        assert main(["expand", src]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "v1 v2 s1 v2 v1"

    @pytest.mark.parametrize("text, expanded", [
        ("s2 s1", "v1 v2 s1 v2 v1 s1"),  # s2 expands into v letters
        ("s1", "s1"),  # a v-free expansion is a virtual word too
    ])
    def test_expand_writes_a_classical_word_as_a_virtual_one(
            self, tmp_path, capsys, text, expanded):
        src = word_file(tmp_path, "c.word", 3, text, "classical")
        assert main(["expand", src]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["n=3 category=virtual", expanded]


class TestVerifyPresentation:
    def test_tb2_all_proved(self, capsys):
        assert main(["verify-presentation", "tb", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "9/9 relations proved (TB_reduced, n=2)"
        assert all(": Proved (" in line for line in lines[:-1])

    def test_verbose_prints_steps(self, capsys):
        assert main(["verify-presentation", "tb", "2", "-v"]) == 0
        assert " @ " in capsys.readouterr().out

    def test_unscripted_relation_exits_1(self, monkeypatch, capsys):
        # a bank built without the d.braid lemmas joins no expansions of
        # braid.braid, so its one instance at n=3 is Unknown
        monkeypatch.setattr(reduced_map._RuleBank, "_build_braid", lambda self, i: None)
        reduced_map._bank_at.cache_clear()
        try:
            assert main(["verify-presentation", "tb", "3"]) == 1
        finally:
            reduced_map._bank_at.cache_clear()
        lines = capsys.readouterr().out.splitlines()
        assert "braid.braid[1]: Unknown" in lines
        assert lines[-1] == "24/25 relations proved (TB_reduced, n=3)"

    def test_unsupported_n_exits_2(self, capsys):
        assert main(["verify-presentation", "ft", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, n", [("tb", 49), ("ft", 49), ("vb", 49), ("fv", 49), ("tb", 100000)]
    )
    def test_strands_past_the_codec_exit_2(self, family, n, capsys):
        # v(n-1) has no code: the letter must be named, not aliased to b0, and
        # refused before either presentation is built
        t0 = time.perf_counter()
        assert main(["verify-presentation", family, str(n)]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"v{n - 1}" in captured.err and "letter codec" in captured.err

    def test_bad_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-presentation", "zz", "2"])
        assert exc.value.code == 2


class TestInvariants:
    def test_single_barred_strand(self, tmp_path, capsys):
        src = word_file(tmp_path, "b.word", 1, "b1")
        assert main(["invariants", src]) == 0
        out = capsys.readouterr().out
        assert "sign vector: (-)" in out
        assert "closure components: 1" in out
        assert "bar parity on component {1}: 1" in out

    def test_conjugate_pair_reports_match(self, tmp_path, capsys):
        a = word_file(tmp_path, "a.word", 2, "v1 s1 v1")
        b = word_file(tmp_path, "b.word", 2, "b1 b2 s1 b2 b1")
        assert main(["invariants", a]) == 0
        report_a = capsys.readouterr().out.splitlines()[1:]
        assert main(["invariants", b]) == 0
        report_b = capsys.readouterr().out.splitlines()[1:]
        assert report_a == report_b


class TestMarkovEq:
    def test_equal_prints_move_path(self, tmp_path, capsys):
        a = word_file(tmp_path, "a.word", 2, "v1 s1 v1")
        b = word_file(tmp_path, "b.word", 2, "b1 b2 s1 b2 b1")
        assert main(["markov-eq", a, b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Equal"
        assert lines[1].startswith("start (2 strands):")
        assert len(lines) >= 3

    def test_unknown_under_tiny_bounds(self, tmp_path, capsys):
        a = word_file(tmp_path, "a.word", 1, "b1")
        b = word_file(tmp_path, "b.word", 1, "")
        code = main(["markov-eq", a, b,
                     "--max-strands", "1", "--max-length", "2",
                     "--max-nodes", "40"])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "Unknown"

    def test_strand_bound_below_a_word_exits_2(self, tmp_path, capsys):
        a = word_file(tmp_path, "a.word", 3, "s1 s2")
        b = word_file(tmp_path, "b.word", 3, "s2 s1")
        assert main(["markov-eq", a, b, "--max-strands", "3"]) == 0
        capsys.readouterr()
        assert main(["markov-eq", a, b, "--max-strands", "2"]) == 2
        assert "max_strands 2" in capsys.readouterr().err

    def test_category_mismatch_exits_2(self, tmp_path, capsys):
        a = word_file(tmp_path, "a.word", 2, "s1")
        b = word_file(tmp_path, "b.word", 2, "c1", category="flat_twisted")
        assert main(["markov-eq", a, b]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, complaint", [
        ("0", "must be positive"),
        ("abc", "must be an integer"),
    ])
    def test_env_bounds_are_validated(self, tmp_path, capsys, monkeypatch,
                                      raw, complaint):
        monkeypatch.setenv("TWB_MAX_NODES", raw)
        a = word_file(tmp_path, "a.word", 2, "s1")
        assert main(["markov-eq", a, a]) == 2
        err = capsys.readouterr().err
        assert "TWB_MAX_NODES" in err
        assert complaint in err

    def test_env_bounds_are_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TWB_MAX_NODES", "40")
        monkeypatch.setenv("TWB_MAX_STRANDS", "1")
        monkeypatch.setenv("TWB_MAX_LENGTH", "2")
        a = word_file(tmp_path, "a.word", 1, "b1")
        b = word_file(tmp_path, "b.word", 1, "")
        assert main(["markov-eq", a, b]) == 1

    def test_flag_beats_bad_flag_value(self, tmp_path, capsys):
        a = word_file(tmp_path, "a.word", 2, "s1")
        assert main(["markov-eq", a, a, "--max-nodes", "-5"]) == 2
        assert "positive" in capsys.readouterr().err
