import collections
import functools
import random
import re
import time
from dataclasses import dataclass, field

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twbraid.braiding import braid, normalize_bars_off_up_arcs
from twbraid.diagram import (
    BAR_MARK,
    Bar,
    Cap,
    CrossNeg,
    CrossPos,
    CrossVirtual,
    CrossingVisit,
    Cup,
    DOWN,
    DiagramError,
    Event,
    EventKind,
    MorseDiagram,
    NotClosed,
    OrientationConflict,
    PositionOutOfRange,
    Role,
    Symbol,
    Turn,
    TwistedGaussCode,
    UP,
    WidthMismatch,
    _sweep,
    closure_diagram,
    ensure_valid,
    flip_orientation,
    format_morse_file,
    gauss_code,
    gauss_equivalent,
    parse_morse_file,
    read_morse_file,
    shipped_diagram,
    shipped_diagram_names,
    validate,
    write_morse_file,
)
from twbraid.markov import closure_code
from twbraid.quotients import closure_permutation
from twbraid.words import (
    Category,
    CategoryViolation,
    WordError,
    parse_word,
)
from diagramgen import diagrams
from wordgen import words


def tw(text, n, category=Category.TWISTED):
    return parse_word(text, n, category)


class TestEvents:
    def test_extrema_need_turns(self):
        with pytest.raises(WordError):
            Event(EventKind.CUP, 1)
        with pytest.raises(WordError):
            Event(EventKind.BAR, 1, Turn.CW)

    def test_positions_start_at_one(self):
        with pytest.raises(WordError):
            Bar(0)

    def test_turn_accepts_strings(self):
        assert Cup(1, "cw").turn is Turn.CW

    def test_reprs(self):
        assert repr(Cup(1)) == "Event(cup 1 ccw)"
        assert repr(Bar(2)) == "Event(bar 2)"
        assert repr(shipped_diagram("corpus_35_ft_cycle")) == (
            "MorseDiagram(8 events, flat_twisted)")
        assert repr(BAR_MARK) == "BarMark"


class TestCategoryGating:
    def test_bars_need_a_twisted_category(self):
        with pytest.raises(CategoryViolation):
            MorseDiagram((Cup(1), Bar(1), Cap(1)), Category.VIRTUAL)
        MorseDiagram((Cup(1), Bar(1), Cap(1)), Category.FLAT_TWISTED)

    def test_flat_categories_reject_negative_crossings(self):
        ev = (Cup(1), Cup(2), CrossNeg(2), CrossNeg(2), Cap(2), Cap(1))
        with pytest.raises(CategoryViolation):
            MorseDiagram(ev, Category.FLAT_VIRTUAL)
        MorseDiagram(ev, Category.CLASSICAL)

    def test_virtual_crossings_allowed_everywhere(self):
        ev = (Cup(1), Cup(2), CrossVirtual(2), CrossVirtual(2), Cap(2), Cap(1))
        for cat in Category:
            MorseDiagram(ev, cat)


class TestValidate:
    def test_unknot_is_valid(self):
        assert validate(MorseDiagram((Cup(1), Cap(1)))) is None

    def test_unknot_with_bars_is_valid(self):
        assert validate(MorseDiagram((Cup(1), Bar(1), Bar(2), Cap(1)))) is None

    def test_lone_cup_is_not_closed(self):
        diag = validate(MorseDiagram((Cup(1),)))
        assert isinstance(diag, NotClosed)
        assert diag.slice_index == 1

    def test_empty_diagram_is_valid(self):
        assert validate(MorseDiagram(())) is None

    def test_cap_flow_conflict(self):
        # two side-by-side cups: positions 2,3 flow up,down -- a ccw cap
        # there wants down,up
        diag = validate(MorseDiagram((Cup(1), Cup(1), Cap(2), Cap(1))))
        assert isinstance(diag, OrientationConflict)
        assert diag.slice_index == 2

    def test_nested_cap_order_is_fine(self):
        assert validate(MorseDiagram((Cup(1), Cup(1), Cap(1), Cap(1)))) is None

    def test_cup_position_out_of_range(self):
        diag = validate(MorseDiagram((Cup(3),)))
        assert isinstance(diag, PositionOutOfRange)
        assert diag.slice_index == 0

    def test_crossing_needs_width(self):
        diag = validate(MorseDiagram((Cup(1), Cap(1), CrossPos(1))))
        assert isinstance(diag, WidthMismatch)
        assert diag.slice_index == 2

    def test_bar_needs_a_strand(self):
        diag = validate(MorseDiagram((Bar(1),)))
        assert isinstance(diag, WidthMismatch)

    def test_bar_position_out_of_range(self):
        diag = validate(MorseDiagram((Cup(1), Bar(3), Cap(1))))
        assert isinstance(diag, PositionOutOfRange)
        assert str(diag) == "slice 1: bar at 3 exceeds width 2"

    @pytest.mark.parametrize(
        "slices, error, message",
        [
            ((Cup(1), Cap(1), CrossVirtual(1)), WidthMismatch,
             "slice 2: crossing needs 2 strands, width 0"),
            ((Cup(1), Cup(1), CrossVirtual(4), Cap(1), Cap(1)),
             PositionOutOfRange, "slice 2: crossing at 4 exceeds width 4 - 1"),
        ],
        ids=["width", "position"],
    )
    @pytest.mark.parametrize("category", list(Category), ids=lambda c: c.value)
    def test_virtual_crossing_diagnoses(self, slices, error, message, category):
        d = MorseDiagram(slices, category)
        with pytest.raises(error) as braiding_sweep:
            _sweep(d, virtual_ports=True)
        for diag in (validate(d), _reference_validate(d), braiding_sweep.value):
            assert type(diag) is error
            assert diag.slice_index == 2
            assert str(diag) == message

    def test_ensure_valid_raises_the_diagnostic(self):
        with pytest.raises(NotClosed):
            ensure_valid(MorseDiagram((Cup(1),)))

    def test_gauss_code_refuses_invalid_diagrams(self):
        with pytest.raises(DiagramError):
            gauss_code(MorseDiagram((Cup(1),)))


TREFOIL_CODE = TwistedGaussCode(
    (
        (
            CrossingVisit(1, Role.OVER, 1),
            CrossingVisit(2, Role.UNDER, 1),
            CrossingVisit(3, Role.OVER, 1),
            CrossingVisit(1, Role.UNDER, 1),
            CrossingVisit(2, Role.OVER, 1),
            CrossingVisit(3, Role.UNDER, 1),
        ),
    )
)


class TestGaussCode:
    def test_unknot_code_is_empty(self):
        gc = gauss_code(MorseDiagram((Cup(1), Cap(1))))
        assert gc.components == ((),)

    def test_bars_appear_in_trace_order(self):
        gc = gauss_code(MorseDiagram((Cup(1), Bar(1), Bar(2), Cap(1))))
        assert gc.components == ((BAR_MARK, BAR_MARK),)
        assert gc.bar_count == 2

    def test_trefoil_closure_code(self):
        gc = gauss_code(closure_diagram(tw("s1 s1 s1", 2, Category.CLASSICAL)))
        assert len(gc.components) == 1
        assert gc.crossing_count == 3
        assert gauss_equivalent(gc, TREFOIL_CODE)

    def test_mirror_trefoil_is_not_the_trefoil(self):
        gc = gauss_code(closure_diagram(tw("S1 S1 S1", 2, Category.CLASSICAL)))
        assert not gauss_equivalent(gc, TREFOIL_CODE)

    def test_hopf_link_has_two_components(self):
        gc = gauss_code(closure_diagram(tw("s1 s1", 2, Category.CLASSICAL)))
        assert len(gc.components) == 2
        assert all(len(c) == 2 for c in gc.components)

    def test_virtual_crossings_leave_no_symbol(self):
        w = tw("v1 s1 v1", 2)
        gc = gauss_code(closure_diagram(w))
        assert gc.crossing_count == 1
        assert gc.bar_count == 0

    def test_flat_visits_have_no_sign(self):
        gc = gauss_code(
            closure_diagram(tw("c1 c1", 2, Category.FLAT_VIRTUAL))
        )
        assert gc.flat
        for comp in gc.components:
            for sym in comp:
                assert isinstance(sym, CrossingVisit)
                assert sym.sign is None
                assert sym.role in (Role.FIRST, Role.SECOND)

    def test_labels_are_fresh_in_first_visit_order(self):
        gc = gauss_code(closure_diagram(tw("s1 s1 s1", 2, Category.CLASSICAL)))
        seen = []
        for sym in gc.components[0]:
            if sym.label not in seen:
                seen.append(sym.label)
        assert seen == [1, 2, 3]


class TestGaussEquivalent:
    def test_rotation_invariance(self):
        comp = TREFOIL_CODE.components[0]
        for r in range(len(comp)):
            rotated = TwistedGaussCode((comp[r:] + comp[:r],))
            assert gauss_equivalent(TREFOIL_CODE, rotated)

    def test_label_renaming_invariance(self):
        relabel = {1: 7, 2: 5, 3: 9}
        comp = tuple(
            CrossingVisit(relabel[s.label], s.role, s.sign)
            for s in TREFOIL_CODE.components[0]
        )
        assert gauss_equivalent(TREFOIL_CODE, TwistedGaussCode((comp,)))

    def test_sign_flip_is_detected(self):
        comp = tuple(
            CrossingVisit(s.label, s.role, -s.sign)
            for s in TREFOIL_CODE.components[0]
        )
        assert not gauss_equivalent(TREFOIL_CODE, TwistedGaussCode((comp,)))

    def test_role_swap_is_detected(self):
        # two consecutive kinks: role-swapping is not absorbed by rotation
        # or relabelling (the trefoil code, by contrast, absorbs it)
        kinks = TwistedGaussCode(
            (
                (
                    CrossingVisit(1, Role.OVER, 1),
                    CrossingVisit(1, Role.UNDER, 1),
                    CrossingVisit(2, Role.OVER, 1),
                    CrossingVisit(2, Role.UNDER, 1),
                ),
            )
        )
        swap = {Role.OVER: Role.UNDER, Role.UNDER: Role.OVER}
        comp = tuple(
            CrossingVisit(s.label, swap[s.role], s.sign)
            for s in kinks.components[0]
        )
        assert not gauss_equivalent(kinks, TwistedGaussCode((comp,)))

    def test_trefoil_code_absorbs_a_role_swap(self):
        swap = {Role.OVER: Role.UNDER, Role.UNDER: Role.OVER}
        comp = tuple(
            CrossingVisit(s.label, swap[s.role], s.sign)
            for s in TREFOIL_CODE.components[0]
        )
        assert gauss_equivalent(TREFOIL_CODE, TwistedGaussCode((comp,)))

    def test_component_order_is_ignored(self):
        a = TwistedGaussCode(((BAR_MARK,), ()))
        b = TwistedGaussCode(((), (BAR_MARK,)))
        assert gauss_equivalent(a, b)

    def test_bar_count_mismatch(self):
        a = TwistedGaussCode(((BAR_MARK,),))
        b = TwistedGaussCode(((BAR_MARK, BAR_MARK),))
        assert not gauss_equivalent(a, b)

    def test_flat_codes_ignore_visit_roles(self):
        a = TwistedGaussCode(
            ((CrossingVisit(1, Role.FIRST, None), CrossingVisit(1, Role.SECOND, None),),),
            flat=True,
        )
        b = TwistedGaussCode(
            ((CrossingVisit(1, Role.SECOND, None), CrossingVisit(1, Role.FIRST, None),),),
            flat=True,
        )
        assert gauss_equivalent(a, b)

    def test_flat_flag_must_agree(self):
        a = TwistedGaussCode(((),), flat=True)
        b = TwistedGaussCode(((),), flat=False)
        assert not gauss_equivalent(a, b)

    def test_label_bijection_is_global_across_components(self):
        # the second components match under 1<->2 alone, but the first
        # components force the identity pairing; a bar pins the rotation
        a = TwistedGaussCode(
            (
                (
                    CrossingVisit(1, Role.OVER, 1),
                    BAR_MARK,
                    CrossingVisit(2, Role.OVER, 1),
                ),
                (
                    CrossingVisit(1, Role.UNDER, 1),
                    BAR_MARK,
                    CrossingVisit(2, Role.UNDER, 1),
                ),
            )
        )
        b = TwistedGaussCode(
            (
                (
                    CrossingVisit(1, Role.OVER, 1),
                    BAR_MARK,
                    CrossingVisit(2, Role.OVER, 1),
                ),
                (
                    CrossingVisit(2, Role.UNDER, 1),
                    BAR_MARK,
                    CrossingVisit(1, Role.UNDER, 1),
                ),
            )
        )
        assert not gauss_equivalent(a, b)


# ---------------------------------------------------------------------------
# the backtracker that canonical forms replaced, kept as the reference


def _unify(
    a: tuple[Symbol, ...],
    b: tuple[Symbol, ...],
    fwd: dict[int, int],
    bwd: dict[int, int],
    flat: bool,
) -> dict | None:
    """Try to identify two equal-length symbol runs under a label bijection.

    Returns the additional label pairs on success (for undo), else None.
    """
    added: dict[int, int] = {}
    for x, y in zip(a, b):
        if (x is BAR_MARK) != (y is BAR_MARK):
            return _undo(fwd, bwd, added)
        if x is BAR_MARK:
            continue
        if not flat and (x.role is not y.role or x.sign != y.sign):
            return _undo(fwd, bwd, added)
        lx, ly = x.label, y.label
        if fwd.get(lx, ly) != ly or bwd.get(ly, lx) != lx:
            return _undo(fwd, bwd, added)
        if lx not in fwd:
            fwd[lx] = ly
            bwd[ly] = lx
            added[lx] = ly
    return added


def _undo(fwd: dict, bwd: dict, added: dict) -> None:
    for lx, ly in added.items():
        del fwd[lx]
        del bwd[ly]
    return None


def _reference_gauss_equivalent(
    g1: TwistedGaussCode, g2: TwistedGaussCode
) -> bool:
    """Equality up to component matching, rotation and label renaming.

    Orientation is fixed (no reversal) and signs must agree; flat codes
    ignore visit order roles.  Exhaustive backtracking: (k - 1)! on k
    barred Hopf pairs, so only for small inputs.
    """
    if g1.flat != g2.flat:
        return False
    comps1, comps2 = list(g1.components), list(g2.components)
    if len(comps1) != len(comps2):
        return False
    if sorted(map(len, comps1)) != sorted(map(len, comps2)):
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    used = [False] * len(comps2)

    def match(i: int) -> bool:
        if i == len(comps1):
            return True
        a = comps1[i]
        for j, b in enumerate(comps2):
            if used[j] or len(a) != len(b):
                continue
            rotations = range(max(1, len(a)))
            for r in rotations:
                rotated = b[r:] + b[:r]
                added = _unify(a, rotated, fwd, bwd, g1.flat)
                if added is None:
                    continue
                used[j] = True
                if match(i + 1):
                    return True
                used[j] = False
                _undo(fwd, bwd, added)
        return False

    return match(0)


# The sweep as it was before ports became integer keys: one _RefEdge object
# per strand segment and a dict keyed by (slice index, port name).  Kept as
# a test-only reference for ``diagram._sweep``.


@dataclass
class _RefEdge:
    lower: tuple[int, str] | None = None  # (slice index, port) below
    upper: tuple[int, str] | None = None
    flow_up: bool = True


@dataclass
class _RefGraph:
    edges: list[_RefEdge] = field(default_factory=list)
    port_edge: dict[tuple[int, str], int] = field(default_factory=dict)
    #: per classical/flat crossing slice: {"over": port pair, "sign": ±1|None}
    crossing_info: dict[int, dict] = field(default_factory=dict)

    def next_half(self, idx: int, port: str) -> tuple[int, str]:
        out_port = _PORT_PAIR[port]
        return self.port_edge[(idx, out_port)], out_port

    def walks(self) -> list[list[tuple[int, str]]]:
        """Per component, the (slice index, port) of every event met along
        the flow, starting from the component's lowest-numbered edge."""
        visited = [False] * len(self.edges)
        walks = []
        for start in range(len(self.edges)):
            if visited[start]:
                continue
            walk: list[tuple[int, str]] = []
            eid = start
            while not visited[eid]:
                visited[eid] = True
                edge = self.edges[eid]
                idx, port = edge.upper if edge.flow_up else edge.lower
                walk.append((idx, port))
                eid, _ = self.next_half(idx, port)
            walks.append(walk)
        return walks


_PORT_PAIR = {
    "L": "R",
    "R": "L",
    "B": "T",
    "T": "B",
    "BL": "TR",
    "TR": "BL",
    "BR": "TL",
    "TL": "BR",
}

#: Direction vectors of the two strands of a crossing, keyed by
#: (strand, flow): the "/" strand joins BL and TR, the "\" strand BR and TL.
_STRAND_VEC = {
    ("/", UP): (1, 1),
    ("/", DOWN): (-1, -1),
    ("\\", UP): (-1, 1),
    ("\\", DOWN): (1, -1),
}

_CROSSINGS = frozenset(
    {EventKind.CROSS_POS, EventKind.CROSS_NEG, EventKind.CROSS_VIRTUAL}
)


def _reference_sweep(d: MorseDiagram) -> _RefGraph:
    """Build the edge graph, raising the first validation failure."""
    g = _RefGraph()
    live: list[int] = []  # edge ids left-to-right

    def open_edge(idx: int, port: str, flow_up: bool) -> int:
        g.edges.append(_RefEdge(lower=(idx, port), flow_up=flow_up))
        eid = len(g.edges) - 1
        g.port_edge[(idx, port)] = eid
        return eid

    def close_edge(eid: int, idx: int, port: str) -> None:
        g.edges[eid].upper = (idx, port)
        g.port_edge[(idx, port)] = eid

    for idx, ev in enumerate(d.slices):
        width = len(live)
        p = ev.pos
        if ev.kind is EventKind.CUP:
            if p > width + 1:
                raise PositionOutOfRange(
                    f"cup at {p} exceeds width {width} + 1", idx
                )
            left_up = ev.turn is Turn.CW
            a = open_edge(idx, "L", left_up)
            b = open_edge(idx, "R", not left_up)
            live[p - 1 : p - 1] = [a, b]
        elif ev.kind is EventKind.CAP:
            if width < 2:
                raise WidthMismatch(f"cap needs 2 strands, width {width}", idx)
            if p > width - 1:
                raise PositionOutOfRange(
                    f"cap at {p} exceeds width {width} - 1", idx
                )
            a, b = live[p - 1], live[p]
            want = (DOWN, UP) if ev.turn is Turn.CCW else (UP, DOWN)
            got = (g.edges[a].flow_up, g.edges[b].flow_up)
            if got != want:
                raise OrientationConflict(
                    f"cap {ev.turn.value} expects flows "
                    f"{'up' if want[0] else 'down'}/"
                    f"{'up' if want[1] else 'down'}, got "
                    f"{'up' if got[0] else 'down'}/"
                    f"{'up' if got[1] else 'down'}",
                    idx,
                )
            close_edge(a, idx, "L")
            close_edge(b, idx, "R")
            del live[p - 1 : p + 1]
        elif ev.kind in _CROSSINGS:
            if width < 2:
                raise WidthMismatch(
                    f"crossing needs 2 strands, width {width}", idx
                )
            if p > width - 1:
                raise PositionOutOfRange(
                    f"crossing at {p} exceeds width {width} - 1", idx
                )
            a, b = live[p - 1], live[p]
            fa, fb = g.edges[a].flow_up, g.edges[b].flow_up
            close_edge(a, idx, "BL")
            close_edge(b, idx, "BR")
            # the strand entering below-left exits above-right
            live[p - 1] = open_edge(idx, "TL", fb)
            live[p] = open_edge(idx, "TR", fa)
            if ev.kind is not EventKind.CROSS_VIRTUAL:
                if d.flat:
                    g.crossing_info[idx] = {"over": None, "sign": None}
                else:
                    over = "\\" if ev.kind is EventKind.CROSS_POS else "/"
                    under = "/" if over == "\\" else "\\"
                    ov = _STRAND_VEC[(over, fb if over == "\\" else fa)]
                    uv = _STRAND_VEC[(under, fa if over == "\\" else fb)]
                    sign = 1 if uv[0] * ov[1] - uv[1] * ov[0] > 0 else -1
                    g.crossing_info[idx] = {"over": over, "sign": sign}
        elif ev.kind is EventKind.BAR:
            if width < 1:
                raise WidthMismatch(f"bar needs a strand, width {width}", idx)
            if p > width:
                raise PositionOutOfRange(
                    f"bar at {p} exceeds width {width}", idx
                )
            a = live[p - 1]
            flow = g.edges[a].flow_up
            close_edge(a, idx, "B")
            live[p - 1] = open_edge(idx, "T", flow)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(ev.kind)
    if live:
        raise NotClosed(f"{len(live)} strands left open", len(d.slices))
    return g


def _port_name(d, key):
    """The reference's (slice index, port name) for an integer port key."""
    idx = key >> 2
    kind = d.slices[idx].kind
    if kind in (EventKind.CUP, EventKind.CAP):
        names = ("L", "R")
    elif kind is EventKind.BAR:
        names = ("B", "T")
    else:
        names = ("BL", "TR", "BR", "TL")
    return idx, names[key & 3]


def _reference_validate(d):
    try:
        _reference_sweep(d)
    except DiagramError as err:
        return err
    return None


def _diagnosis(err):
    if err is None:
        return None
    return type(err), err.slice_index, str(err)


def _mutate(d, rnd):
    """The diagram with one event shifted by one place, dropped, or (for a
    cap) turned the other way."""
    events = list(d.slices)
    i = rnd.randrange(len(events))
    ev = events[i]
    how = rnd.choice(("shift", "drop", "turn"))
    if how == "shift":
        step = rnd.choice((-1, 1)) if ev.pos > 1 else 1
        events[i] = Event(ev.kind, ev.pos + step, ev.turn)
    elif how == "drop":
        del events[i]
    else:
        caps = [j for j, e in enumerate(events) if e.kind is EventKind.CAP]
        cap = events[i := rnd.choice(caps)]
        events[i] = Cap(cap.pos, Turn.CW if cap.turn is Turn.CCW else Turn.CCW)
    return MorseDiagram(tuple(events), d.category)


@pytest.mark.parametrize("category", list(Category), ids=lambda c: c.value)
class TestSweepAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_walks_and_crossings_match(self, category, data):
        d = data.draw(diagrams(max_events=30, categories=(category,)))
        g, ref = _sweep(d, virtual_ports=True), _reference_sweep(d)
        walks = [[_port_name(d, key) for key in walk] for walk in g.walks()]
        assert walks == ref.walks()
        # marks name the over strand by its ports' ``key & 2``
        slot = {None: None, 0: "/", 2: "\\"}
        info = {
            i: (slot[m[0]], m[1])
            for i, m in enumerate(g.marks)
            if m is not None and m is not BAR_MARK
        }
        assert info == {
            i: (c["over"], c["sign"]) for i, c in ref.crossing_info.items()
        }
        bars = [i for i, ev in enumerate(d.slices) if ev.kind is EventKind.BAR]
        assert [i for i, m in enumerate(g.marks) if m is BAR_MARK] == bars

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rnd=st.randoms())
    def test_mutated_diagrams_get_the_same_diagnosis(self, category, data, rnd):
        d = data.draw(diagrams(max_events=30, categories=(category,)))
        assume(d.slices)
        bad = _mutate(d, rnd)
        assert _diagnosis(validate(bad)) == _diagnosis(_reference_validate(bad))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_lean_walks_skip_the_virtual_crossings(self, category, data):
        d = data.draw(diagrams(max_events=30, categories=(category,)))
        g, ref = _sweep(d), _reference_sweep(d)
        walks = [[_port_name(d, key) for key in walk] for walk in g.walks()]
        assert walks == [
            [(idx, port) for idx, port in walk
             if d.slices[idx].kind is not EventKind.CROSS_VIRTUAL]
            for walk in ref.walks()
        ]
        assert g.marks == _sweep(d, virtual_ports=True).marks

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_gauss_code_equals_the_reference_code(self, category, data):
        d = data.draw(diagrams(max_events=30, categories=(category,)))
        assert gauss_code(d) == _reference_code(d)
        w = data.draw(words(max_n=6, max_len=24, categories=(category,)))
        closed = closure_diagram(w)
        assert gauss_code(closed) == _reference_code(closed)

    @pytest.mark.parametrize("text, n", [("", 1), ("", 3), ("v1", 2),
                                         ("v1 v2 v1 v3 v2", 4)])
    def test_gauss_code_on_empty_and_all_virtual_closures(self, category, text, n):
        # classical words have no v letters, but their diagrams may
        w = tw(text, n, Category.VIRTUAL)
        closed = MorseDiagram(closure_diagram(w).slices, category)
        code = gauss_code(closed)
        assert code == _reference_code(closed)
        assert code.components == ((),) * closure_permutation(w).component_count


def _reference_code(d):
    """The Gauss code read off the reference sweep's walks, which visit
    every crossing: labels in first-visit order, virtual crossings and
    extrema left out."""
    ref = _reference_sweep(d)
    labels: dict[int, int] = {}
    components = []
    for walk in ref.walks():
        symbols = []
        for idx, port in walk:
            if d.slices[idx].kind is EventKind.BAR:
                symbols.append(BAR_MARK)
                continue
            info = ref.crossing_info.get(idx)
            if info is None:
                continue
            first = idx not in labels
            label = labels.setdefault(idx, len(labels) + 1)
            if info["sign"] is None:
                role = Role.FIRST if first else Role.SECOND
            else:
                strand = "/" if port in ("BL", "TR") else "\\"
                role = Role.OVER if strand == info["over"] else Role.UNDER
            symbols.append(CrossingVisit(label, role, info["sign"]))
        components.append(tuple(symbols))
    return TwistedGaussCode(tuple(components), d.flat)


def _visits(code):
    return collections.Counter(
        s.label for comp in code.components for s in comp if s is not BAR_MARK
    )


def _assert_well_formed(code):
    assert all(n == 2 for n in _visits(code).values()), code


def _scramble(code, rnd):
    """The same code with every component rotated, the labels renamed and
    the components shuffled."""
    labels = sorted(_visits(code))
    fresh = rnd.sample(range(1, 3 * len(labels) + 2), len(labels))
    image = dict(zip(labels, fresh))
    comps = []
    for comp in code.components:
        r = rnd.randrange(len(comp)) if comp else 0
        comps.append(tuple(
            s if s is BAR_MARK else CrossingVisit(image[s.label], s.role, s.sign)
            for s in comp[r:] + comp[:r]
        ))
    rnd.shuffle(comps)
    return TwistedGaussCode(tuple(comps), code.flat)


def _flip(code, rnd):
    """One crossing's sign flipped on both visits; in a flat code, its two
    visit roles swapped instead.  None without a crossing."""
    labels = sorted(_visits(code))
    if not labels:
        return None
    label = rnd.choice(labels)
    swap = {Role.FIRST: Role.SECOND, Role.SECOND: Role.FIRST}

    def flipped(s):
        if s is BAR_MARK or s.label != label:
            return s
        if code.flat:
            return CrossingVisit(label, swap[s.role], None)
        return CrossingVisit(label, s.role, -s.sign)

    comps = (tuple(map(flipped, comp)) for comp in code.components)
    return TwistedGaussCode(tuple(comps), code.flat)


@st.composite
def mixed_codes(draw, flat=None):
    """Well-formed codes that mix empty, bar-only and crossed components:
    up to four labels, each visiting random places of up to three
    components, which may end up with bars only or empty."""
    if flat is None:
        flat = draw(st.booleans())
    comps = [[] for _ in range(draw(st.integers(1, 3)))]
    roles = (Role.FIRST, Role.SECOND) if flat else (Role.OVER, Role.UNDER)
    for label in range(1, draw(st.integers(0, 4)) + 1):
        sign = None if flat else draw(st.sampled_from((1, -1)))
        for role in roles:
            comp = draw(st.sampled_from(comps))
            visit = CrossingVisit(label, role, sign)
            comp.insert(draw(st.integers(0, len(comp))), visit)
    for _ in range(draw(st.integers(0, 4))):
        comp = draw(st.sampled_from(comps))
        comp.insert(draw(st.integers(0, len(comp))), BAR_MARK)
    comps += [[BAR_MARK] * k for k in draw(st.lists(st.integers(1, 3), max_size=2))]
    comps += [[] for _ in range(draw(st.integers(0, 2)))]
    return TwistedGaussCode(tuple(map(tuple, draw(st.permutations(comps)))), flat)


def _agree(g1, g2):
    verdict = gauss_equivalent(g1, g2)
    assert verdict == _reference_gauss_equivalent(g1, g2), (str(g1), str(g2))
    return verdict


def _hopf_pairs(k, moved):
    """k unlinked barred Hopf pairs on 2k strands: strand p carries a bar and
    is linked to strand k + p by a double crossing routed through virtual
    crossings.  With ``moved`` the last pair's bar sits on its other
    component, which no relabelling undoes.  The backtracker tries the
    (k - 1)! orders of the barred components on this pair."""
    n = 2 * k
    letters = [f"b{n if moved and p == k else p}" for p in range(1, k + 1)]
    for p in range(1, k + 1):
        route = [f"v{j}" for j in range(k + p - 1, p, -1)]
        letters += route + [f"s{p}", f"s{p}"] + route[::-1]
    return gauss_code(closure_diagram(tw(" ".join(letters), n)))


#: Wall-clock bound for both Hopf verdicts at one k in 8..12: sixty times
#: the slowest of 20 runs per k (0.83 ms, at k = 12, Python 3.11 on 2
#: cores), and a quarter of what the backtracker needs at k = 8.
HOPF_BOUND_S = 0.05


@functools.cache
def _corpus_codes(name):
    """The shipped diagram's code and its braid round trip's code."""
    d = shipped_diagram(name)
    return gauss_code(d), gauss_code(closure_diagram(braid(d)))


class TestCanonicalForm:
    def test_forms_are_hashable_and_shared_by_equivalent_codes(self):
        rotated = TwistedGaussCode(
            (TREFOIL_CODE.components[0][3:] + TREFOIL_CODE.components[0][:3],)
        )
        forms = {TREFOIL_CODE.canonical_form, rotated.canonical_form}
        assert len(forms) == 1
        flipped = _flip(TREFOIL_CODE, random.Random(1))
        assert flipped.canonical_form != TREFOIL_CODE.canonical_form

    def test_a_label_seen_once_is_refused(self):
        code = TwistedGaussCode(
            ((CrossingVisit(7, Role.OVER, 1), BAR_MARK),)
        )
        with pytest.raises(ValueError, match="label 7 has 1 visits"):
            code.canonical_form
        with pytest.raises(ValueError, match="label 7"):
            gauss_equivalent(code, TREFOIL_CODE)

    def test_a_label_seen_three_times_is_refused(self):
        visit = CrossingVisit(4, Role.FIRST, None)
        code = TwistedGaussCode(((visit, visit), (visit,)), flat=True)
        with pytest.raises(ValueError, match="label 4 has 3 visits"):
            code.canonical_form

    def test_empty_and_bar_only_components(self):
        a = TwistedGaussCode(((), (BAR_MARK, BAR_MARK), ()))
        b = TwistedGaussCode(((BAR_MARK, BAR_MARK), (), ()))
        c = TwistedGaussCode(((BAR_MARK,), (BAR_MARK,), ()))
        assert _agree(a, b)
        assert not _agree(a, c)
        assert _agree(TwistedGaussCode(()), TwistedGaussCode(()))
        assert not _agree(TwistedGaussCode(()), TwistedGaussCode(((),)))

    def test_corpus_round_trips_against_every_corpus_code(self):
        names = shipped_diagram_names()
        for name in names:
            code, back = _corpus_codes(name)
            _assert_well_formed(code)
            _assert_well_formed(back)
            assert _agree(code, back), name
            for other in names:
                _agree(code, _corpus_codes(other)[1])

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(shipped_diagram_names()), st.randoms())
    def test_corpus_against_scrambled_and_flipped_round_trips(self, name, rnd):
        code, back = _corpus_codes(name)
        assert _agree(code, _scramble(back, rnd))
        flipped = _flip(back, rnd)
        if flipped is not None:
            assert _agree(code, flipped) == code.flat

    @settings(max_examples=150, deadline=None)
    @given(words(max_len=16), words(max_len=16), st.randoms())
    def test_word_closures_against_their_copies(self, w, other, rnd):
        code = gauss_code(closure_diagram(w))
        _assert_well_formed(code)
        normal = closure_code(w)
        _assert_well_formed(normal)
        assert _agree(code, _scramble(code, rnd))
        assert _agree(normal, _scramble(normal, rnd))
        flipped = _flip(code, rnd)
        if flipped is not None:
            assert _agree(code, flipped) == code.flat
        _agree(code, gauss_code(closure_diagram(other)))
        _agree(normal, closure_code(other))

    @settings(max_examples=150, deadline=None)
    @given(
        diagrams(max_events=24, categories=(Category.FLAT_VIRTUAL,)),
        diagrams(max_events=24, categories=(Category.FLAT_VIRTUAL,)),
        st.randoms(),
    )
    def test_flat_virtual_sweeps_against_their_copies(self, d, other, rnd):
        assume(d.slices)
        code = gauss_code(d)
        _assert_well_formed(code)
        back = gauss_code(closure_diagram(braid(d)))
        _assert_well_formed(back)
        assert _agree(code, back)
        assert _agree(code, _scramble(back, rnd))
        _agree(code, gauss_code(other))

    @settings(max_examples=300, deadline=None)
    @given(st.booleans().flatmap(lambda flat: st.tuples(
        mixed_codes(flat), mixed_codes(flat))), st.randoms())
    def test_mixed_components_against_the_reference(self, codes, rnd):
        code, other = codes
        assert _agree(code, _scramble(code, rnd))
        flipped = _flip(code, rnd)
        if flipped is not None:
            _agree(code, flipped)
        _agree(code, other)
        _agree(code, _scramble(other, rnd))

    @pytest.mark.parametrize("k", range(8, 13))
    def test_hopf_pairs(self, k):
        # the backtracker needs 0.2 s at k = 8 and about seven times more
        # per step in k
        same, moved = _hopf_pairs(k, False), _hopf_pairs(k, True)
        copy = _scramble(same, random.Random(k))
        start = time.perf_counter()
        assert gauss_equivalent(same, copy)
        assert not gauss_equivalent(same, moved)
        assert time.perf_counter() - start < HOPF_BOUND_S


class TestClosureDiagram:
    def test_empty_word_closes_to_the_unknot(self):
        d = closure_diagram(tw("", 1))
        assert d.slices == (Cup(1, Turn.CCW), Cap(1, Turn.CCW))

    def test_identity_braid_closes_to_unlinks(self):
        gc = gauss_code(closure_diagram(tw("", 3)))
        assert gc.components == ((), (), ())

    def test_single_bar_closure(self):
        d = closure_diagram(tw("b1", 1))
        assert d.slices == (Cup(1, Turn.CCW), Bar(1), Cap(1, Turn.CCW))

    @given(words(max_n=4, max_len=10))
    @settings(max_examples=120, deadline=None)
    def test_closures_validate(self, w):
        d = closure_diagram(w)
        assert validate(d) is None

    @given(words(max_n=4, max_len=10))
    @settings(max_examples=120, deadline=None)
    def test_closure_conserves_letters(self, w):
        c = closure_diagram(w).counts()
        # s/S letters in the non-flat categories, c letters in the flat ones
        assert c["classical"] == sum(
            1 for g in w.letters if g.kind.value in ("s", "S", "c")
        )
        assert c["bars"] == sum(1 for g in w.letters if g.kind.value == "b")
        assert c["cups"] == c["caps"] == w.n

    @given(words(max_n=4, max_len=10))
    @settings(max_examples=120, deadline=None)
    def test_closure_component_count_matches_permutation(self, w):
        gc = gauss_code(closure_diagram(w))
        assert len(gc.components) == closure_permutation(w).component_count

    @given(words(max_n=4, max_len=8))
    @settings(max_examples=100, deadline=None)
    def test_closure_keeps_the_word_category(self, w):
        assert closure_diagram(w).category == w.category


class TestFlipOrientation:
    def test_double_flip_is_identity(self):
        d = closure_diagram(tw("s1 b2 v1", 2))
        assert flip_orientation(flip_orientation(d)) == d

    @given(words(max_n=4, max_len=8))
    @settings(max_examples=80, deadline=None)
    def test_flip_preserves_validity_and_counts(self, w):
        d = closure_diagram(w)
        f = flip_orientation(d)
        assert validate(f) is None
        g1, g2 = gauss_code(d), gauss_code(f)
        assert g1.bar_count == g2.bar_count
        assert g1.crossing_count == g2.crossing_count
        assert len(g1.components) == len(g2.components)

    def test_flip_reverses_signs_coherently(self):
        # reversing both strands of a crossing keeps its sign
        d = closure_diagram(tw("s1 s1 s1", 2, Category.CLASSICAL))
        gc = gauss_code(flip_orientation(d))
        assert all(
            s.sign == 1 for comp in gc.components for s in comp
        )


class TestMorseFiles:
    def test_round_trip(self, tmp_path):
        d = closure_diagram(tw("s1 b1 v1 S2 b3", 3))
        path = tmp_path / "d.morse"
        write_morse_file(path, d)
        assert read_morse_file(path) == d

    def test_format_is_stable(self):
        d = MorseDiagram((Cup(1), Bar(1), Cap(1, Turn.CW)))
        assert format_morse_file(d) == (
            "morse category=twisted\ncup 1 ccw\nbar 1\ncap 1 cw\n"
        )

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# a circle\nmorse category=virtual\n\ncup 1 ccw\n# middle\ncap 1 ccw\n"
        d = parse_morse_file(text)
        assert len(d.slices) == 2
        assert d.category is Category.VIRTUAL

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "morse category=nope\ncup 1 ccw\n",
            "cup 1 ccw\n",
            "morse category=twisted\ncup 1\n",
            "morse category=twisted\nbar 1 cw\n",
            "morse category=twisted\nzap 1\n",
            "morse category=twisted\ncup x ccw\n",
            "morse category=twisted\ncap 1_0 ccw\n",
            "morse category=twisted\ncup +1 ccw\n",
            "morse category=twisted\ncap \u0661 ccw\n",
        ],
    )
    def test_malformed_files(self, text):
        with pytest.raises(WordError):
            parse_morse_file(text)

    @pytest.mark.parametrize("line", ["cap 1_0 ccw", "cup +1 ccw",
                                      "cap \u0661 ccw", "bar -1", "bar 1.0"])
    def test_positions_are_ascii_digits(self, line):
        with pytest.raises(WordError, match=re.escape(f"bad position in {line!r}")):
            parse_morse_file(f"morse category=twisted\n{line}\n")

    def test_positions_past_the_lookup_table_parse(self):
        text = "morse category=twisted\ncup 300 ccw\nbar 0301\nbar 07\n"
        assert parse_morse_file(text).slices == (Cup(300), Bar(301), Bar(7))

    def test_category_gating_applies_on_parse(self):
        with pytest.raises(CategoryViolation):
            parse_morse_file("morse category=classical\nbar 1\n")


_LETTER_EVENT = {
    "s": EventKind.CROSS_POS,
    "S": EventKind.CROSS_NEG,
    "v": EventKind.CROSS_VIRTUAL,
    "c": EventKind.CROSS_POS,
    "b": EventKind.BAR,
}


class TestSharedEvents:
    @given(words(max_n=5, max_len=16))
    @settings(max_examples=120, deadline=None)
    def test_closure_events_equal_fresh_events(self, w):
        fresh = [Event(EventKind.CUP, k, Turn.CCW) for k in range(1, w.n + 1)]
        fresh += [Event(_LETTER_EVENT[g.kind.value], g.index)
                  for g in reversed(w.letters)]
        fresh += [Event(EventKind.CAP, k, Turn.CCW) for k in range(w.n, 0, -1)]
        for _ in range(2):
            events = closure_diagram(w).slices
            assert all(type(ev) is Event for ev in events)
            assert events == tuple(fresh)

    @given(diagrams())
    @settings(max_examples=120, deadline=None)
    def test_parsed_events_equal_fresh_events(self, d):
        for _ in range(2):
            events = parse_morse_file(format_morse_file(d)).slices
            assert all(type(ev) is Event for ev in events)
            assert events == d.slices

    @given(words(max_n=5, max_len=16))
    @settings(max_examples=120, deadline=None)
    def test_flipped_events_are_shared(self, w):
        d = closure_diagram(w)
        mirror = {None: None, Turn.CW: Turn.CCW, Turn.CCW: Turn.CW}
        fresh = tuple(Event(ev.kind, ev.pos, mirror[ev.turn]) for ev in d.slices)
        first, second = flip_orientation(d).slices, flip_orientation(d).slices
        assert all(type(ev) is Event for ev in first)
        assert first == fresh
        assert all(a is b for a, b in zip(first, second))

    @given(diagrams(categories=(Category.TWISTED, Category.FLAT_TWISTED)))
    @settings(max_examples=120, deadline=None)
    def test_normalized_events_are_shared(self, d):
        first = normalize_bars_off_up_arcs(d).slices
        second = normalize_bars_off_up_arcs(d).slices
        assert all(type(ev) is Event for ev in first)
        # unmoved events are d's own; each moved bar comes from the cache
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("line", ["bar 0", "cup 1", "cap 1 sideways"])
    def test_malformed_lines_fail_every_time(self, line):
        text = f"morse category=twisted\ncup 1 ccw\n{line}\n"
        for _ in range(2):
            with pytest.raises(WordError):
                parse_morse_file(text)


class TestShippedCorpus:
    def test_corpus_size_and_validity(self):
        names = shipped_diagram_names()
        corpus = [n for n in names if n.startswith("corpus_")]
        assert len(corpus) >= 30
        for name in names:
            assert validate(shipped_diagram(name)) is None, name

    def test_corpus_stays_inside_its_bounds(self):
        for name in shipped_diagram_names():
            if not name.startswith("corpus_"):
                continue
            d = shipped_diagram(name)
            counts = d.counts()
            assert counts["classical"] <= 6, name
            assert counts["virtual"] <= 4, name
            assert counts["bars"] <= 6, name
            assert len(gauss_code(d).components) <= 3, name

    def test_move_instances_ship_in_pairs(self):
        moves = [n for n in shipped_diagram_names() if n.startswith("move_")]
        lefts = {n[:-5] for n in moves if n.endswith("_left")}
        rights = {n[:-6] for n in moves if n.endswith("_right")}
        assert lefts == rights
        assert sum(1 for m in lefts if "_t1_" in m) >= 2
        assert sum(1 for m in lefts if "_t3_" in m) >= 2

    def test_showcase_example_ships(self):
        d = shipped_diagram("showcase")
        counts = d.counts()
        assert (counts["classical"], counts["virtual"], counts["bars"]) == (3, 1, 4)

    def test_unknown_shipped_name(self):
        with pytest.raises(WordError):
            shipped_diagram("no_such_diagram")
