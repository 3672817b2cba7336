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
import enum
import functools
import itertools
import re
from dataclasses import dataclass, field
from importlib import resources

from .words import (
    BraidWord,
    Category,
    CategoryViolation,
    Kind,
    WordError,
)

# ---------------------------------------------------------------------------
# events


class EventKind(enum.Enum):
    CUP = "cup"
    CAP = "cap"
    CROSS_POS = "x+"
    CROSS_NEG = "x-"
    CROSS_VIRTUAL = "xv"
    BAR = "bar"


#: Event kinds that exchange the strands at ``pos`` and ``pos + 1``.
CROSSINGS = frozenset(
    {EventKind.CROSS_POS, EventKind.CROSS_NEG, EventKind.CROSS_VIRTUAL}
)


class Turn(enum.Enum):
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


# ---------------------------------------------------------------------------
# diagrams

#: Event kinds allowed per category.  Virtual crossings are routing furniture
#: in every category (closures of classical words still need them), bars need
#: a twisted category, and flat categories express their flat crossings with
#: the ``x+`` event while rejecting ``x-``.
_EVENT_KINDS: dict[Category, frozenset[EventKind]] = {
    Category.TWISTED: frozenset(EventKind),
    Category.FLAT_TWISTED: frozenset(EventKind) - {EventKind.CROSS_NEG},
    Category.VIRTUAL: frozenset(EventKind) - {EventKind.BAR},
    Category.FLAT_VIRTUAL: frozenset(EventKind)
    - {EventKind.CROSS_NEG, EventKind.BAR},
    Category.CLASSICAL: frozenset(EventKind) - {EventKind.BAR},
}


@dataclass(frozen=True)
class MorseDiagram:
    slices: tuple[Event, ...]
    category: Category = Category.TWISTED

    def __post_init__(self) -> None:
        allowed = _EVENT_KINDS[self.category]
        for ev in self.slices:
            if ev.kind not in allowed:
                raise CategoryViolation(
                    f"{ev.kind.value} event is not allowed in category "
                    f"{self.category.value}"
                )

    @property
    def flat(self) -> bool:
        return self.category in (Category.FLAT_TWISTED, Category.FLAT_VIRTUAL)

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
    mirror = {None: None, Turn.CW: Turn.CCW, Turn.CCW: Turn.CW}
    flipped = (Event(ev.kind, ev.pos, mirror[ev.turn]) for ev in d.slices)
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
    diagnostic for the first failing slice (without raising it).
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
# strand segment between events.  Ports name the corners of an event:
# cups/caps use L/R, bars B/T, crossings BL/BR/TL/TR where the strand
# entering below-left leaves above-right and vice versa.


@dataclass
class _Edge:
    lower: tuple[int, str] | None = None  # (slice index, port) below
    upper: tuple[int, str] | None = None
    flow_up: bool = True


@dataclass
class _Graph:
    edges: list[_Edge] = field(default_factory=list)
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


def _sweep(d: MorseDiagram) -> _Graph:
    """Build the edge graph, raising the first validation failure."""
    g = _Graph()
    live: list[int] = []  # edge ids left-to-right

    def open_edge(idx: int, port: str, flow_up: bool) -> int:
        g.edges.append(_Edge(lower=(idx, port), flow_up=flow_up))
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
        elif ev.kind in CROSSINGS:
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


# ---------------------------------------------------------------------------
# Gauss codes


class Role(enum.Enum):
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
        tok: list[list[int]] = []  # symbol token per position, then _END
        lab: list[list[int]] = []
        spots: dict[int, list[tuple[int, int]]] = {}
        for c, comp in enumerate(self.components):
            tok.append([0 if s is BAR_MARK else -1 if self.flat
                        else _TOKEN[s.role, s.sign] for s in comp] + [_END])
            lab.append([0 if s is BAR_MARK else s.label for s in comp])
            for i, s in enumerate(comp):
                if s is not BAR_MARK:
                    spots.setdefault(s.label, []).append((c, i))
        root = list(range(len(tok)))  # union-find over components

        def find(c: int) -> int:
            while root[c] != c:
                root[c] = c = root[root[c]]
            return c

        other = {}
        for label, at in spots.items():
            if len(at) != 2:
                raise ValueError(f"label {label} has {len(at)} visits, not 2")
            other[at[0]], other[at[1]] = at[1], at[0]
            root[find(at[0][0])] = find(at[1][0])
        pieces: dict[int, list[int]] = {}
        for c in range(len(tok)):
            pieces.setdefault(find(c), []).append(c)
        walks = (_least_walk(tok, lab, other, p) for p in pieces.values())
        return self.flat, tuple(sorted(walks))


def gauss_code(d: MorseDiagram) -> TwistedGaussCode:
    """Trace each component along its flow, recording crossings and bars.

    Classical (or flat) crossing visits get fresh labels in first-visit
    order; virtual crossings and extrema are passed through silently.
    Components are ordered by their lowest-numbered edge.
    """
    g = _sweep(d)
    labels: dict[int, int] = {}  # slice index -> crossing label
    components: list[tuple[Symbol, ...]] = []
    for walk in g.walks():
        symbols: list[Symbol] = []
        for idx, port in walk:
            if d.slices[idx].kind is EventKind.BAR:
                symbols.append(BAR_MARK)
            elif idx in g.crossing_info:
                info = g.crossing_info[idx]
                if idx not in labels:
                    labels[idx] = len(labels) + 1
                    first = True
                else:
                    first = False
                if info["sign"] is None:
                    role = Role.FIRST if first else Role.SECOND
                else:
                    strand = "/" if port in ("BL", "TR") else "\\"
                    role = (
                        Role.OVER if strand == info["over"] else Role.UNDER
                    )
                symbols.append(CrossingVisit(labels[idx], role, info["sign"]))
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


def _least_walk(tok, lab, other, piece: list[int]) -> tuple[int, ...]:
    least = min(min(tok[c]) for c in piece)  # _END if there is no symbol
    best = None
    for c in piece:
        for i, t in enumerate(tok[c]):
            if t == least:
                best = _walk(tok, lab, other, c, i, best) or best
    return tuple(best)


def _walk(tok, lab, other, c: int, i: int, best) -> list[int] | None:
    """The walk from position i of component c; None once not below best."""
    out: list[int] = []
    new: dict[int, int] = {}  # label -> first-visit label
    exits: list[tuple[int, int]] = []  # other visits, in first-visit order
    seen, k, tie = {c}, 0, best is not None
    while True:
        tc, lc, n = tok[c], lab[c], len(tok[c]) - 1
        for j in itertools.chain(range(i, n), range(i), (n,)):
            t = tc[j]
            if t < 0:
                r = new.get(lc[j])
                if r is None:
                    r = new[lc[j]] = len(new) + 1
                    exits.append(other[c, j])
                t -= r << 4
            if tie and t != best[len(out)]:
                if t > best[len(out)]:
                    return None
                tie = False
            out.append(t)
        while k < len(exits) and exits[k][0] in seen:
            k += 1
        if k == len(exits):
            return None if tie else out
        c, i = exits[k]
        seen.add(c)


# ---------------------------------------------------------------------------
# braid closure

_EVENT_OF_KIND = {
    Kind.SIGMA: EventKind.CROSS_POS,
    Kind.SIGMA_INV: EventKind.CROSS_NEG,
    Kind.V: EventKind.CROSS_VIRTUAL,
    Kind.C: EventKind.CROSS_POS,  # flat crossing, meaning set by category
    Kind.B: EventKind.BAR,
}


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
    events = [Cup(k, Turn.CCW) for k in range(1, n + 1)]
    for g in reversed(w.letters):
        events.append(Event(_EVENT_OF_KIND[g.kind], g.index))
    events.extend(Cap(i, Turn.CCW) for i in range(n, 0, -1))
    return MorseDiagram(tuple(events), w.category)


# ---------------------------------------------------------------------------
# morse files: header `morse category=<name>`, one event per line

_MORSE_HEADER_RE = re.compile(r"morse\s+category=([a-z_]+)\Z")


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
    kinds = {k.value: k for k in EventKind}
    events = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] not in kinds:
            raise WordError(f"unknown morse event {parts[0]!r}")
        kind = kinds[parts[0]]
        extremum = kind in (EventKind.CUP, EventKind.CAP)
        if len(parts) != (3 if extremum else 2):
            raise WordError(f"malformed morse event line: {ln!r}")
        try:
            pos = int(parts[1])
        except ValueError:
            raise WordError(f"bad position in {ln!r}") from None
        if extremum:
            try:
                turn = Turn(parts[2])
            except ValueError:
                raise WordError(f"bad turn in {ln!r}") from None
            events.append(Event(kind, pos, turn))
        else:
            events.append(Event(kind, pos))
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
