"""Link diagrams in Morse slice form, their Gauss codes, and braid closures.

A diagram is an ordered sequence of elementary events read from the *bottom*
of the picture upward.  A cup is a local minimum and opens two adjacent
strands, a cap is a local maximum and closes two, crossings exchange two
neighbouring strands, and a bar decorates a single strand.  The slice list is
closed: the live strand count starts and ends at zero.

Orientations are carried by the cups and caps.  A ``ccw`` extremum has flow
running down its left leg and up its right leg; ``cw`` is the mirror.  Every
strand direction in the diagram is forced by propagating these choices
upward, and validation rejects diagrams whose caps disagree with the flows
that actually arrive.

Crossing signs follow the braid convention: with both strands flowing
downward, the crossing whose over-strand runs from the upper left to the
lower right is positive.  In general the sign is the orientation of the
(under, over) direction frame; only internal consistency matters here, since
signs are compared between diagrams produced by this module.

In flat categories the ``x+`` event stands for the unsigned flat crossing
(there is no over/under and no sign, and ``x-`` is not allowed); virtual
crossings never contribute to the Gauss code in any category.
"""
from __future__ import annotations

import collections
import functools
import itertools
import re
from dataclasses import dataclass
from importlib import resources

from .words import (
    ALLOWED_KINDS,
    BraidWord,
    Category,
    CategoryViolation,
    IdentityEnum,
    Kind,
    WordError,
)

# ---------------------------------------------------------------------------
# events


class EventKind(IdentityEnum):
    CUP = "cup"
    CAP = "cap"
    CROSS_POS = "x+"
    CROSS_NEG = "x-"
    CROSS_VIRTUAL = "xv"
    BAR = "bar"


class Turn(IdentityEnum):
    """Sense of a cup or cap: ``ccw`` flows down the left leg, up the right."""

    CW = "cw"
    CCW = "ccw"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    pos: int
    turn: Turn | None = None

    def __post_init__(self) -> None:
        if self.pos < 1:
            raise WordError(f"event position must be >= 1, got {self.pos}")
        extremum = self.kind in (EventKind.CUP, EventKind.CAP)
        if extremum and self.turn is None:
            raise WordError(f"{self.kind.value} needs a cw/ccw turn")
        if not extremum and self.turn is not None:
            raise WordError(f"{self.kind.value} takes no turn")

    def __repr__(self) -> str:
        if self.turn is not None:
            return f"Event({self.kind.value} {self.pos} {self.turn.value})"
        return f"Event({self.kind.value} {self.pos})"


#: Events are frozen, so equal events can be one shared object: closures and
#: parsed files take theirs from this bounded cache.
_event = functools.lru_cache(maxsize=4096)(Event)


def Cup(pos: int, turn: Turn | str = Turn.CCW) -> Event:
    return Event(EventKind.CUP, pos, Turn(turn))


def Cap(pos: int, turn: Turn | str = Turn.CCW) -> Event:
    return Event(EventKind.CAP, pos, Turn(turn))


def CrossPos(pos: int) -> Event:
    return Event(EventKind.CROSS_POS, pos)


def CrossNeg(pos: int) -> Event:
    return Event(EventKind.CROSS_NEG, pos)


def CrossVirtual(pos: int) -> Event:
    return Event(EventKind.CROSS_VIRTUAL, pos)


def Bar(pos: int) -> Event:
    return Event(EventKind.BAR, pos)


_EVENT_OF_KIND = {
    Kind.SIGMA: EventKind.CROSS_POS,
    Kind.SIGMA_INV: EventKind.CROSS_NEG,
    Kind.V: EventKind.CROSS_VIRTUAL,
    Kind.C: EventKind.CROSS_POS,  # flat crossing, meaning set by category
    Kind.B: EventKind.BAR,
}


# ---------------------------------------------------------------------------
# diagrams

#: Event kinds refused per category, read off its letters: a bar without
#: Kind.B, and ``x-`` without Kind.SIGMA_INV, so flat categories express their
#: flat crossings with the ``x+`` event.  Virtual crossings are routing
#: furniture in every category (closures of classical words still need them).
_REFUSED_KINDS = {
    category: frozenset(_EVENT_OF_KIND[k] for k in (Kind.B, Kind.SIGMA_INV)
                        if k not in kinds)
    for category, kinds in ALLOWED_KINDS.items()
}


@dataclass(frozen=True)
class MorseDiagram:
    slices: tuple[Event, ...]
    category: Category = Category.TWISTED

    def __post_init__(self) -> None:
        refused = _REFUSED_KINDS[self.category]
        for ev in self.slices:
            if ev.kind in refused:
                raise CategoryViolation(
                    f"{ev.kind.value} event is not allowed in category "
                    f"{self.category.value}"
                )

    @property
    def flat(self) -> bool:
        return Kind.C in ALLOWED_KINDS[self.category]

    def counts(self) -> dict[str, int]:
        """Event tallies: classical/virtual crossings, bars, cups, caps."""
        n = collections.Counter(ev.kind for ev in self.slices)
        return {
            "classical": n[EventKind.CROSS_POS] + n[EventKind.CROSS_NEG],
            "virtual": n[EventKind.CROSS_VIRTUAL],
            "bars": n[EventKind.BAR],
            "cups": n[EventKind.CUP],
            "caps": n[EventKind.CAP],
        }

    def __repr__(self) -> str:
        return (
            f"MorseDiagram({len(self.slices)} events, {self.category.value})"
        )


def flip_orientation(d: MorseDiagram) -> MorseDiagram:
    """Reverse the flow of every component by mirroring all cup/cap turns."""
    mirror = {Turn.CW: Turn.CCW, Turn.CCW: Turn.CW}
    flipped = (
        ev if ev.turn is None else _event(ev.kind, ev.pos, mirror[ev.turn])
        for ev in d.slices
    )
    return MorseDiagram(tuple(flipped), d.category)


# ---------------------------------------------------------------------------
# validation


class DiagramError(Exception):
    """A diagram failed validation; names the first offending slice."""

    def __init__(self, message: str, slice_index: int | None = None):
        self.slice_index = slice_index
        if slice_index is not None:
            message = f"slice {slice_index}: {message}"
        super().__init__(message)


class WidthMismatch(DiagramError):
    """An event needs more live strands than the slice provides."""


class PositionOutOfRange(DiagramError):
    """An event's position falls outside the current live width."""


class OrientationConflict(DiagramError):
    """A cap's turn disagrees with the strand flows arriving at it."""


class NotClosed(DiagramError):
    """The final slice leaves live strands dangling."""


#: Flow directions.  ``UP`` means the strand's orientation points upward.
UP = True
DOWN = False


def validate(d: MorseDiagram) -> DiagramError | None:
    """Check widths, positions and orientation consistency.

    Returns ``None`` when the diagram is well formed, otherwise the
    diagnostic for the first failing slice (without raising it).  Virtual
    crossings get the same width and position checks, from a sweep that
    builds no ports for them.
    """
    try:
        _sweep(d)
    except DiagramError as err:
        return err
    return None


def ensure_valid(d: MorseDiagram) -> None:
    diag = validate(d)
    if diag is not None:
        raise diag


# ---------------------------------------------------------------------------
# the sweep: edges, flows and port wiring
#
# The sweep simulates the slice list bottom-to-top, building one edge per
# strand segment between events.  A port is a corner of an event, written as
# one int ``key = 4 * slice + port``: cups and caps use L/R = 0/1, bars
# B/T = 0/1, and crossings BL/TR = 0/1 and BR/TL = 2/3, where the strand
# entering below-left leaves above-right and vice versa.  So ``key >> 2`` is
# the slice, ``key & 3 < 2`` marks the "/" strand of a crossing, and the
# port a strand leaves an event by is ``key ^ 1``, the partner of the port
# it entered by.
#
# Virtual crossings get ports only when braiding asks for them
# (``virtual_ports=True``), as its up-arcs end at every crossing.  Otherwise
# a virtual crossing only swaps its two live edges, which run on through it:
# Gauss codes, validation and bar sliding never stop there.  Either way a
# component's lowest-numbered edge is the left leg of its lowest cup, and
# edges are numbered in slice order, so both graphs list the components in
# the same order and walk each from the same place.


class _Graph:
    """Edges as parallel lists: the port keys of each edge's ``lower`` and
    ``upper`` ends and its flow, plus the edge at every port key (-1 where a
    slice has no such port).  Virtual crossings have ports only in the graph
    braiding sweeps; elsewhere their slices have none."""

    def __init__(self, slices: int):
        self.lower: list[int] = []
        self.upper: list[int] = []
        self.flow_up: list[bool] = []
        self.port_edge = [-1] * (4 * slices)
        #: per slice: BAR_MARK for a bar; (over, sign) for a classical or
        #: flat crossing, where ``over`` is ``key & 2`` of the over strand's
        #: ports (0 for "/", 2 for "\") and both are None when flat; None
        #: for the rest
        self.marks: list = [None] * slices

    def walks(self) -> list[list[int]]:
        """Per component, the port key of every event met along the flow,
        starting from the component's lowest-numbered edge.  Each edge
        enters the event its flow points at (its upper end if it flows up),
        and the walk leaves that event by the partner port ``key ^ 1``."""
        upper, lower, flow_up, port_edge = (
            self.upper, self.lower, self.flow_up, self.port_edge
        )
        visited = [False] * len(flow_up)
        walks = []
        for start in range(len(flow_up)):
            if visited[start]:
                continue
            walk: list[int] = []
            eid = start
            while not visited[eid]:
                visited[eid] = True
                key = upper[eid] if flow_up[eid] else lower[eid]
                walk.append(key)
                eid = port_edge[key ^ 1]
            walks.append(walk)
        return walks


def _crossing_out_of_range(p: int, width: int, idx: int) -> DiagramError:
    """The diagnostic for a crossing at ``p`` that ``width`` strands cannot
    hold."""
    if width < 2:
        return WidthMismatch(f"crossing needs 2 strands, width {width}", idx)
    return PositionOutOfRange(f"crossing at {p} exceeds width {width} - 1", idx)


def _sweep(d: MorseDiagram, virtual_ports: bool = False) -> _Graph:
    """Build the edge graph, raising the first validation failure.  Virtual
    crossings get edges and ports only with ``virtual_ports``."""
    g = _Graph(len(d.slices))
    lower, upper, flow_up, port_edge = g.lower, g.upper, g.flow_up, g.port_edge
    live: list[int] = []  # edge ids left-to-right
    # enum members bound once: on CPython 3.11 reading one off its class
    # costs about 0.1 us
    cup, cap, bar, virtual = (
        EventKind.CUP, EventKind.CAP, EventKind.BAR, EventKind.CROSS_VIRTUAL
    )
    cw, ccw, cross_pos = Turn.CW, Turn.CCW, EventKind.CROSS_POS
    marks, flat, bar_mark = g.marks, d.flat, BAR_MARK
    passed = None if virtual_ports else virtual  # the kind swept past
    for idx, ev in enumerate(d.slices):
        p, kind = ev.pos, ev.kind
        if kind is passed:
            if p >= len(live):
                raise _crossing_out_of_range(p, len(live), idx)
            live[p - 1], live[p] = live[p], live[p - 1]
            continue
        width, key = len(live), idx << 2
        if kind is cup:
            if p > width + 1:
                raise PositionOutOfRange(
                    f"cup at {p} exceeds width {width} + 1", idx
                )
            left_up = ev.turn is cw
            a = len(flow_up)
            lower += (key, key + 1)
            upper += (-1, -1)
            flow_up += (left_up, not left_up)
            port_edge[key], port_edge[key + 1] = a, a + 1
            live[p - 1 : p - 1] = (a, a + 1)
        elif kind is cap:
            if p >= width:  # positions start at 1, so also when width < 2
                if width < 2:
                    raise WidthMismatch(f"cap needs 2 strands, width {width}", idx)
                raise PositionOutOfRange(
                    f"cap at {p} exceeds width {width} - 1", idx
                )
            a, b = live[p - 1], live[p]
            want = (DOWN, UP) if ev.turn is ccw else (UP, DOWN)
            got = (flow_up[a], flow_up[b])
            if got != want:
                raise OrientationConflict(
                    f"cap {ev.turn.value} expects flows "
                    f"{'up' if want[0] else 'down'}/"
                    f"{'up' if want[1] else 'down'}, got "
                    f"{'up' if got[0] else 'down'}/"
                    f"{'up' if got[1] else 'down'}",
                    idx,
                )
            upper[a], upper[b] = key, key + 1
            port_edge[key], port_edge[key + 1] = a, b
            del live[p - 1 : p + 1]
        elif kind is bar:
            if p > width:
                if width < 1:
                    raise WidthMismatch(f"bar needs a strand, width {width}", idx)
                raise PositionOutOfRange(
                    f"bar at {p} exceeds width {width}", idx
                )
            a = live[p - 1]
            marks[idx] = bar_mark
            upper[a], port_edge[key] = key, a
            port_edge[key + 1] = live[p - 1] = len(flow_up)
            lower.append(key + 1)
            upper.append(-1)
            flow_up.append(flow_up[a])
        else:  # a crossing
            if p >= width:
                raise _crossing_out_of_range(p, width, idx)
            a, b = live[p - 1], live[p]
            fa, fb = flow_up[a], flow_up[b]
            upper[a], upper[b] = key, key + 2  # BL, BR
            port_edge[key], port_edge[key + 2] = a, b
            # the strand entering below-left exits above-right
            e = live[p - 1] = len(flow_up)
            live[p] = e + 1
            lower += (key + 3, key + 1)  # TL, TR
            upper += (-1, -1)
            flow_up += (fb, fa)
            port_edge[key + 3], port_edge[key + 1] = e, e + 1
            if kind is not virtual:
                if flat:
                    marks[idx] = (None, None)
                else:
                    # the (under, over) frame turns positively exactly when
                    # a positive crossing joins two strands flowing the same
                    # way, or a negative one two flowing opposite ways
                    positive = kind is cross_pos
                    sign = 1 if (fa == fb) == positive else -1
                    marks[idx] = (2 if positive else 0, sign)
    if live:
        raise NotClosed(f"{len(live)} strands left open", len(d.slices))
    return g


# ---------------------------------------------------------------------------
# Gauss codes


class Role(IdentityEnum):
    OVER = "O"
    UNDER = "U"
    FIRST = "1"
    SECOND = "2"


@dataclass(frozen=True)
class CrossingVisit:
    label: int
    role: Role
    sign: int | None  # None in flat categories

    def token(self) -> str:
        if self.sign is None:
            return f"F{self.label}"
        return f"{self.role.value}{self.label}{'+' if self.sign > 0 else '-'}"


#: Shared crossing visits, as ``_event`` shares events: ``gauss_code`` takes
#: its visits from this bounded cache.
_visit = functools.lru_cache(maxsize=4096)(CrossingVisit)


class BarMark:
    """Singleton symbol for a bar passed during the trace."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BarMark"

    def token(self) -> str:
        return "b"


BAR_MARK = BarMark()

Symbol = CrossingVisit | BarMark


@dataclass(frozen=True)
class TwistedGaussCode:
    """Per-component cyclic symbol sequences; virtual crossings are absent."""

    components: tuple[tuple[Symbol, ...], ...]
    flat: bool = False

    def __str__(self) -> str:
        return " / ".join(
            " ".join(s.token() for s in comp) or "-"
            for comp in self.components
        )

    @property
    def bar_count(self) -> int:
        return sum(s is BAR_MARK for comp in self.components for s in comp)

    @property
    def crossing_count(self) -> int:
        visits = (s is not BAR_MARK for comp in self.components for s in comp)
        return sum(visits) // 2

    @functools.cached_property
    def canonical_form(self) -> tuple:
        """Hashable; equal exactly for ``gauss_equivalent`` codes.  Raises
        ValueError when a crossing label does not appear exactly twice."""
        flat = self.flat
        tok = [[0 if s is BAR_MARK else -1 if flat else _TOKEN[s.role, s.sign]
                for s in comp] for comp in self.components]  # symbol tokens
        lab = [[0 if s is BAR_MARK else s.label for s in comp]
               for comp in self.components]
        spots: dict = {}  # label -> its (component, position)s
        for c, tc in enumerate(tok):
            lc = lab[c]
            for i in [i for i, t in enumerate(tc) if t < 0]:
                spots.setdefault(lc[i], []).append((c, i))
        root = list(range(len(tok)))  # union-find over components

        def find(c: int) -> int:
            while root[c] != c:
                root[c] = c = root[root[c]]
            return c

        for label, at in spots.items():
            if len(at) != 2:
                raise ValueError(f"label {label} has {len(at)} visits, not 2")
            root[find(at[0][0])] = find(at[1][0])
        pieces: dict[int, list[int]] = {}
        for c in range(len(tok)):
            pieces.setdefault(find(c), []).append(c)
        walks = []
        for piece in pieces.values():
            tc = tok[piece[0]]
            if len(piece) > 1:
                walks.append(_least_walk(tok, lab, spots, piece))
            elif min(tc, default=0) == 0:
                # no crossing: every walk from a least token reads the same
                walks.append((*tc, _END))
            else:
                # one component: its least walk depends only on the tokens
                # and on which positions share a label
                new: dict = {}
                ranks = [new.setdefault(label, len(new) + 1) if t < 0 else 0
                         for t, label in zip(tc, lab[piece[0]])]
                walks.append(_cycle_walk(tuple(tc), tuple(ranks)))
        return self.flat, tuple(sorted(walks))


def gauss_code(d: MorseDiagram) -> TwistedGaussCode:
    """Trace each component along its flow, recording crossings and bars.

    Classical (or flat) crossing visits get fresh labels in first-visit
    order; virtual crossings and extrema are passed through silently.
    Components are ordered by their lowest-numbered edge.
    """
    g = _sweep(d)
    marks, bar_mark, visit = g.marks, BAR_MARK, _visit
    # enum members bound once, as in _sweep
    first, second = Role.FIRST, Role.SECOND
    over_role, under_role = Role.OVER, Role.UNDER
    labels = [0] * len(marks)  # slice index -> crossing label, 0 if unmet
    met = 0
    components: list[tuple[Symbol, ...]] = []
    for walk in g.walks():
        symbols: list[Symbol] = []
        for key in walk:
            mark = marks[key >> 2]
            if mark is None:
                continue
            if mark is bar_mark:
                symbols.append(bar_mark)
                continue
            over, sign = mark
            label = labels[key >> 2]
            if label:
                role = second
            else:
                met += 1
                label = labels[key >> 2] = met
                role = first
            if sign is not None:
                role = over_role if key & 2 == over else under_role
            symbols.append(visit(label, role, sign))
        components.append(tuple(symbols))
    return TwistedGaussCode(tuple(components), d.flat)


def gauss_equivalent(g1: TwistedGaussCode, g2: TwistedGaussCode) -> bool:
    """Equality up to component matching, rotation and label renaming.

    Orientation is fixed (no reversal) and signs must agree; flat codes
    ignore visit roles.  This compares canonical forms.  The components
    joined by shared crossing labels make a piece.  A piece is walked from
    each position holding its least symbol token (a crossing visit's role
    and sign, or a bar): along that component, relabelling crossings by
    first visit, then into the unvisited component holding the other visit
    of the lowest relabelled crossing, until the piece is done.  Every label
    appears exactly twice, so the start fixes the walk.  The form is the
    sorted least walks of the pieces: O(L^2) in the code length L.
    """
    return g1.canonical_form == g2.canonical_form


#: Symbol tokens: a bar is 0, a crossing visit negative by role and sign (one
#: token if flat).  A walk writes a visit as its token less ``label << 4``
#: and ends each component with ``_END``, above every symbol token.
_TOKEN = {
    key: -k for k, key in enumerate(itertools.product(Role, (1, -1, None)), 1)
}
_END = 1


def _least_walk(tok, lab, spots, piece: list[int]) -> tuple[int, ...]:
    """The least walk of a piece: of the walks from each position of its
    least symbol token.  Starts whose first ``width`` symbols are not least
    drop out, for a width growing fourfold, before whole walks compare."""
    least = min(min(tok[c]) for c in piece)
    starts = [(c, i) for c in piece for i, t in enumerate(tok[c]) if t == least]
    total = sum(len(tok[c]) + 1 for c in piece)
    width = 8
    while len(starts) > 1 and width < total:
        heads = [_walk(tok, lab, spots, at, len(piece), width) for at in starts]
        low = min(heads)
        starts = [at for at, head in zip(starts, heads) if head == low]
        width *= 4
    return tuple(min(_walk(tok, lab, spots, at, len(piece), total) for at in starts))


@functools.lru_cache(maxsize=512)
def _cycle_walk(tc: tuple[int, ...], ranks: tuple[int, ...]) -> tuple[int, ...]:
    """The least walk of a one-component piece, from its tokens and the
    first-visit ranks of its labels.  Most such pieces are short and recur
    (a kink, a bar or two), so a small cache answers most of them."""
    return _least_walk([list(tc)], [list(ranks)], {}, [0])


def _walk(tok, lab, spots, at: tuple[int, int], size: int, width: int) -> list[int]:
    """The first ``width`` symbols of the walk from ``at`` (component,
    position) through the ``size`` components of its piece."""
    out: list[int] = []
    new: dict = {}  # label -> first-visit label, in first-visit order
    (c, i), seen, k = at, set(), 0
    while True:
        seen.add(c)
        tc, lc, need = tok[c], lab[c], width - len(out)
        out += [t - (new.setdefault(label, len(new) + 1) << 4) if t < 0 else t
                for t, label in zip((tc[i:] + tc[:i])[:need], (lc[i:] + lc[:i])[:need])]
        out.append(_END)
        if len(seen) == size or len(out) >= width:
            return out[:width]
        # enter the unseen component holding the other visit of the lowest
        # relabelled crossing that has one
        ranked = list(new)
        while True:
            first, second = spots[ranked[k]]
            c, i = first if first[0] not in seen else second
            if c not in seen:
                break
            k += 1


# ---------------------------------------------------------------------------
# braid closure

def closure_diagram(w: BraidWord) -> MorseDiagram:
    """Close a braid word into a Morse diagram.

    The braid occupies columns 1..n with its letters stacked top-to-bottom
    and all strands flowing downward; each bottom endpoint returns up the
    right-hand side, nested so the returns cross nothing.  The closure
    therefore adds no crossings and no bars beyond the word's own letters.
    """
    n = w.n
    # cup k opens braid column k and its return; nesting parks the return
    # of column k at position 2n + 1 - k, clear of all the others
    cup, cap, ccw = EventKind.CUP, EventKind.CAP, Turn.CCW
    event, event_kind = _event, _EVENT_OF_KIND
    events = [event(cup, k, ccw) for k in range(1, n + 1)]
    events += [event(event_kind[g.kind], g.index) for g in reversed(w.letters)]
    events += [event(cap, i, ccw) for i in range(n, 0, -1)]
    return MorseDiagram(tuple(events), w.category)


# ---------------------------------------------------------------------------
# morse files: header `morse category=<name>`, one event per line

_MORSE_HEADER_RE = re.compile(r"morse\s+category=([a-z_]+)\Z")
_KIND_OF_NAME = {k.value: k for k in EventKind}
_TURN_OF_NAME = {t.value: t for t in Turn}
#: One- and two-digit positions, read by one lookup instead of a check and
#: ``int``.
_POSITION = {str(p): p for p in range(1, 100)}


def format_morse_file(d: MorseDiagram) -> str:
    lines = [f"morse category={d.category.value}"]
    for ev in d.slices:
        if ev.turn is not None:
            lines.append(f"{ev.kind.value} {ev.pos} {ev.turn.value}")
        else:
            lines.append(f"{ev.kind.value} {ev.pos}")
    return "\n".join(lines) + "\n"


def parse_morse_file(text: str) -> MorseDiagram:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise WordError("empty morse file")
    m = _MORSE_HEADER_RE.match(lines[0])
    if m is None:
        raise WordError(f"bad morse-file header: {lines[0]!r}")
    try:
        cat = Category(m.group(1))
    except ValueError:
        raise WordError(f"unknown category {m.group(1)!r}") from None
    extrema = (EventKind.CUP, EventKind.CAP)
    events = []
    for ln in lines[1:]:
        parts = ln.split()
        kind = _KIND_OF_NAME.get(parts[0])
        if kind is None:
            raise WordError(f"unknown morse event {parts[0]!r}")
        extremum = kind in extrema
        if len(parts) != (3 if extremum else 2):
            raise WordError(f"malformed morse event line: {ln!r}")
        pos = _POSITION.get(parts[1])
        if pos is None:  # ASCII digits only, as in word tokens
            digits = parts[1]
            if not (digits.isascii() and digits.isdigit()):
                raise WordError(f"bad position in {ln!r}")
            pos = int(digits)
        if extremum:
            turn = _TURN_OF_NAME.get(parts[2])
            if turn is None:
                raise WordError(f"bad turn in {ln!r}")
            events.append(_event(kind, pos, turn))
        else:
            events.append(_event(kind, pos))
    return MorseDiagram(tuple(events), cat)


def read_morse_file(path) -> MorseDiagram:
    with open(path, encoding="utf-8") as fh:
        return parse_morse_file(fh.read())


def write_morse_file(path, d: MorseDiagram) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_morse_file(d))


# ---------------------------------------------------------------------------
# shipped diagrams (data/*.morse inside the package)


def shipped_diagram_names() -> tuple[str, ...]:
    """Names (file stems) of the diagrams shipped with the package."""
    data = resources.files("twbraid") / "data"
    return tuple(
        sorted(
            entry.name[: -len(".morse")]
            for entry in data.iterdir()
            if entry.name.endswith(".morse")
        )
    )


def shipped_diagram(name: str) -> MorseDiagram:
    """Load one shipped diagram by name (file stem)."""
    data = resources.files("twbraid") / "data"
    entry = data / f"{name}.morse"
    try:
        text = entry.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise WordError(f"no shipped diagram named {name!r}") from None
    return parse_morse_file(text)
