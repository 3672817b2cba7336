import hashlib

import pytest
from hypothesis import assume, given, settings

from twbraid.braiding import (
    UpArc,
    UpArcDecomposition,
    braid,
    braid_with_trace,
    find_up_arcs,
    normalize_bars_off_up_arcs,
    trace_lines,
)
from twbraid.diagram import (
    Bar,
    Cap,
    CrossPos,
    CrossVirtual,
    Cup,
    DiagramError,
    EventKind,
    MorseDiagram,
    NotClosed,
    closure_diagram,
    flip_orientation,
    format_morse_file,
    gauss_code,
    gauss_equivalent,
    shipped_diagram,
    shipped_diagram_names,
    validate,
)
from twbraid.quotients import closure_permutation
from twbraid.words import (
    _INDEX_SPAN,
    Category,
    Kind,
    format_word_file,
    parse_word,
)
from diagramgen import diagrams
from wordgen import words

TREFOIL_STANDARD = MorseDiagram(
    (
        Cup(1),
        Cup(2),
        CrossPos(1),
        CrossPos(1),
        CrossPos(1),
        Cap(2),
        Cap(1),
    ),
    Category.CLASSICAL,
)

# one strand's worth of braid closed nested, with a woven return: three
# classical crossings (one fully descending), one virtual, four bars
SHOWCASE = MorseDiagram(
    (
        Cup(1),
        Cup(2),
        CrossPos(1),
        Bar(1),
        Bar(2),
        CrossPos(2),
        Bar(2),
        CrossPos(2),
        CrossVirtual(3),
        Bar(4),
        Cup(2, "cw"),
        Cap(1),
        Cup(3, "cw"),
        Cap(2),
        Cup(2, "cw"),
        Cap(1),
        Cap(2),
        Cap(1),
    ),
    Category.TWISTED,
)


def classical_count(w):
    return sum(1 for g in w.letters if g.kind in (Kind.SIGMA, Kind.SIGMA_INV, Kind.C))


def bar_count(w):
    return sum(1 for g in w.letters if g.kind is Kind.B)


class TestFindUpArcs:
    def test_one_cup_diagram_has_one_free_up_arc(self):
        dec = find_up_arcs(MorseDiagram((Cup(1), Cap(1))))
        assert dec.up_arc_count == 1
        assert len(dec.free_up_arcs) == 1
        assert dec.valid_crossings == ()
        arc = dec.free_up_arcs[0]
        assert arc.free and arc.bars == ()

    def test_bars_ride_their_free_arc(self):
        dec = find_up_arcs(MorseDiagram((Cup(1), Bar(2), Cap(1))))
        assert dec.free_up_arcs[0].bars == (1,)
        assert dec.down_skeleton == ()

    def test_trefoil_standard_counts(self):
        # hand trace: both returns ascend freely, the braid box descends
        dec = find_up_arcs(TREFOIL_STANDARD)
        assert dec.up_arc_count == 2
        assert len(dec.free_up_arcs) == 2
        assert dec.valid_crossings == ()
        assert set(dec.down_skeleton) == {2, 3, 4}

    def test_showcase_statistics(self):
        assert SHOWCASE.counts()["classical"] == 3
        assert SHOWCASE.counts()["virtual"] == 1
        assert SHOWCASE.counts()["bars"] == 4
        dec = find_up_arcs(SHOWCASE)
        kinds = [SHOWCASE.slices[i].kind for i in dec.valid_crossings]
        assert len(dec.valid_crossings) == 3
        assert kinds.count(EventKind.CROSS_POS) == 2
        assert kinds.count(EventKind.CROSS_VIRTUAL) == 1
        assert len(dec.free_up_arcs) == 3

    @given(diagrams())
    @settings(max_examples=100, deadline=None)
    def test_partition_covers_every_event_once(self, d):
        dec = find_up_arcs(d)
        free_events = []
        for arc in dec.free_up_arcs:
            free_events += [arc.bottom[1], arc.top[1], *arc.bars]
        all_parts = list(dec.valid_crossings) + list(dec.down_skeleton) + free_events
        assert sorted(all_parts) == list(range(len(d.slices)))

    @given(diagrams())
    @settings(max_examples=100, deadline=None)
    def test_free_arcs_run_cup_to_cap(self, d):
        for arc in find_up_arcs(d).free_up_arcs:
            assert d.slices[arc.bottom[1]].kind is EventKind.CUP
            assert d.slices[arc.top[1]].kind is EventKind.CAP


class TestNormalize:
    def test_no_bars_unchanged(self):
        assert normalize_bars_off_up_arcs(TREFOIL_STANDARD) == TREFOIL_STANDARD

    def test_unknot_bar_slides_off_the_ascent(self):
        d = MorseDiagram((Cup(1), Bar(2), Cap(1)))
        out = normalize_bars_off_up_arcs(d)
        assert out.slices == (Cup(1), Bar(1), Cap(1))
        assert gauss_code(out).bar_count == 1

    def test_bar_slides_past_a_virtual_crossing_to_its_cap(self):
        # the bar rides the up leg of the first cup, which crosses the
        # second cup's down leg virtually before the two meet at cap 2
        d = MorseDiagram(
            (Cup(1), Cup(3), Bar(2), CrossVirtual(2), Cap(2), Cap(1))
        )
        out = normalize_bars_off_up_arcs(d)
        assert out.slices == (
            Cup(1), Cup(3), CrossVirtual(2), Bar(2), Cap(2), Cap(1)
        )
        assert gauss_equivalent(gauss_code(out), gauss_code(d))

    def test_showcase_code_and_bar_count_survive(self):
        out = normalize_bars_off_up_arcs(SHOWCASE)
        assert out.counts()["bars"] == 4
        assert gauss_equivalent(gauss_code(out), gauss_code(SHOWCASE))

    @given(diagrams(categories=(Category.TWISTED, Category.FLAT_TWISTED)))
    @settings(max_examples=100, deadline=None)
    def test_normalization_preserves_the_code(self, d):
        out = normalize_bars_off_up_arcs(d)
        assert validate(out) is None
        assert out.counts()["bars"] == d.counts()["bars"]
        assert gauss_equivalent(gauss_code(out), gauss_code(d))


class TestBraid:
    def test_unknot_braids_to_the_empty_word(self):
        w = braid(MorseDiagram((Cup(1), Cap(1))))
        assert w.n == 1 and w.letters == ()

    def test_barred_unknot(self):
        w = braid(MorseDiagram((Cup(1), Bar(2), Cap(1))))
        assert str(w) == "b1" and w.n == 1

    def test_trefoil_standard_recovers_its_braid(self):
        w = braid(TREFOIL_STANDARD)
        assert str(w) == "s1 s1 s1" and w.n == 2

    def test_classical_input_braids_into_the_virtual_category(self):
        assert braid(TREFOIL_STANDARD).category is Category.VIRTUAL

    def test_showcase_output_counts(self):
        w = braid(SHOWCASE)
        assert classical_count(w) == 3
        assert bar_count(w) == 4
        assert w.category is Category.TWISTED

    def test_empty_diagram_refused(self):
        with pytest.raises(DiagramError):
            braid(MorseDiagram(()))

    def test_invalid_diagram_refused(self):
        with pytest.raises(DiagramError):
            braid(MorseDiagram((Cup(1),)))

    @pytest.mark.parametrize(
        "fn", [braid, gauss_code, normalize_bars_off_up_arcs]
    )
    def test_open_diagram_names_the_final_slice(self, fn):
        with pytest.raises(NotClosed) as err:
            fn(MorseDiagram((Cup(1),)))
        assert err.value.slice_index == 1

    def test_round_trip_on_the_showcase(self):
        w = braid(SHOWCASE)
        assert gauss_equivalent(
            gauss_code(SHOWCASE), gauss_code(closure_diagram(w))
        )

    @given(diagrams())
    @settings(max_examples=120, deadline=None)
    def test_gauss_round_trip(self, d):
        assume(d.slices)
        w = braid(d)
        assert gauss_equivalent(gauss_code(d), gauss_code(closure_diagram(w)))

    @given(diagrams())
    @settings(max_examples=120, deadline=None)
    def test_conservation(self, d):
        assume(d.slices)
        w = braid(d)
        assert classical_count(w) == d.counts()["classical"]
        assert bar_count(w) == d.counts()["bars"]

    @given(diagrams())
    @settings(max_examples=120, deadline=None)
    def test_component_preservation(self, d):
        assume(d.slices)
        w = braid(d)
        assert (
            closure_permutation(w).component_count
            == len(gauss_code(d).components)
        )

    @given(diagrams())
    @settings(max_examples=100, deadline=None)
    def test_one_elimination_step_per_up_arc(self, d):
        assume(d.slices)
        dec = find_up_arcs(d)
        word, trace = braid_with_trace(d)
        arc_steps = [t for t in trace if t["arc"] != 0]
        assert len(arc_steps) == dec.up_arc_count
        assert word.n == dec.up_arc_count

    @given(words(max_n=4, max_len=10))
    @settings(max_examples=100, deadline=None)
    def test_rebraiding_a_closure_is_faithful(self, w):
        d = closure_diagram(w)
        out = braid(d)
        assert out.n == w.n
        assert gauss_equivalent(gauss_code(d), gauss_code(closure_diagram(out)))

    def test_trace_is_json_lines(self):
        import json

        _, trace = braid_with_trace(SHOWCASE)
        text = trace_lines(trace)
        lines = [json.loads(ln) for ln in text.strip().splitlines()]
        assert [t["step"] for t in lines] == list(range(1, len(lines) + 1))
        emitted = [tok for t in lines for tok in t["letters"]]
        assert len(emitted) == len(braid(SHOWCASE).letters)


#: SHA-256 over every shipped diagram's braid word and trace, up-arc
#: decomposition and bar-normalised diagram, recorded on the tuple-keyed
#: sweep that the integer port keys replaced.
SHIPPED_BRAIDING_SHA256 = (
    "a0047c5e782e58b41441fd74d0811bef52647942bcf917dad9c5fd7fec9cfe04"
)


def shipped_braiding_digest():
    digest = hashlib.sha256()
    for name in shipped_diagram_names():
        d = shipped_diagram(name)
        word, trace = braid_with_trace(d)
        normal = format_morse_file(normalize_bars_off_up_arcs(d))
        digest.update(f"{name}|{format_word_file(word)}|{trace_lines(trace)}|"
                      f"{find_up_arcs(d)!r}|{normal}\n".encode())
    return digest.hexdigest()


class TestPinnedOutputs:
    def test_shipped_braiding_outputs(self):
        assert shipped_braiding_digest() == SHIPPED_BRAIDING_SHA256

    @pytest.mark.parametrize(
        "flip, strands, letters, sha256",
        [
            (False, 50, 1606,
             "7212550fd94dd02ba4921101cb0e4304cbb12976a652321b6b4348f3fd330e5c"),
            (True, 170, 9466,
             "61eb750a6081767bd6e7c234a184f4688f737aafbe10dc7bb9e090550275aab4"),
        ],
        ids=["closure", "flipped"],
    )
    def test_round_trip_past_the_codec_span(self, flip, strands, letters, sha256):
        # braid words outgrow the letter codec's strands, so braiding must
        # not lean on the codec
        tokens = [f"s{i}" for i in range(1, 50)] + ["b50", "v3", "S7", "b1"]
        tokens += [f"S{i}" for i in range(49, 40, -1)]
        d = closure_diagram(parse_word(" ".join(tokens), 50, Category.TWISTED))
        if flip:
            d = flip_orientation(d)
        word, trace = braid_with_trace(d)
        assert word.n >= _INDEX_SPAN
        assert (word.n, len(word)) == (strands, letters)
        pinned = f"{word!r}|{trace_lines(trace)}".encode()
        assert hashlib.sha256(pinned).hexdigest() == sha256
        assert gauss_equivalent(gauss_code(d), gauss_code(closure_diagram(word)))

    @given(diagrams())
    @settings(max_examples=150, deadline=None)
    def test_braid_is_the_traced_word(self, d):
        assume(d.slices)
        assert braid(d) == braid_with_trace(d)[0]
