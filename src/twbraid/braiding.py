"""Converting a link diagram in Morse form into a braid word.

The algorithm keeps every descending piece of the diagram where it is and
eliminates the ascending material.  Each maximal ascending run, subdivided at
the crossings it passes through, is an *up-arc*; cutting an up-arc and
detouring its two ends to the bottom and top of the picture (crossing
everything else virtually) turns it into a braid strand closed around the
right-hand side.  Once every up-arc is gone the diagram *is* a closed braid,
and reading it off gives the word.

Correctness is checked against the Gauss code: the closure of the output
word must carry the same code as the input diagram.  Classical crossings and
bars are conserved exactly; virtual crossings are freely created (detour
routing) and destroyed (they also braid into plain ``v`` letters).

A diagram in the classical category braids to a *virtual*-category word:
the detour routing is inherently virtual, so the output lives in the
smallest category containing both the original crossings and the routing.

One walk of the swept diagram fills flat int lists (``_Arcs``): per up-arc
its ends, bars, exit and trailing bars, and per strand of each crossing the
up-arc carrying it and the bars before it.  ``braid`` visits the crossing
slices from the top down out of those lists, and ``find_up_arcs`` builds its
``UpArc`` objects from the same lists.  Ints are not tracked by the garbage
collector, so a braid leaves few objects that could start a collection.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import (
    DiagramError,
    EventKind,
    MorseDiagram,
    _event,
    _sweep,
)
from .words import WITH_VIRTUALS, BraidWord, Generator, Kind, generator

# ---------------------------------------------------------------------------
# walking components and carving out up-arcs

# Inside, a walk is a list of port keys (see the sweep in ``diagram``) and
# each slice has a class below.  Up-arc ends are ("cup", idx), ("cap", idx)
# or ("cross", idx, slot), where slot is "/" for the strand joining the
# bottom-left and top-right corners and "\" for the other one.

_CUP, _CAP, _BAR, _CROSS = range(4)
_CLASS = {EventKind.CUP: _CUP, EventKind.CAP: _CAP, EventKind.BAR: _BAR}


@dataclass(frozen=True)
class UpArc:
    """One ascending segment, delimited by extrema and/or crossings."""

    label: int
    bottom: tuple  # ("cup", idx) or ("cross", idx, slot)
    top: tuple  # ("cap", idx) or ("cross", idx, slot)
    bars: tuple[int, ...]  # slice indices of bars riding the segment

    @property
    def free(self) -> bool:
        return self.bottom[0] == "cup" and self.top[0] == "cap"


@dataclass(frozen=True)
class UpArcDecomposition:
    """Partition of a diagram's events for braiding.

    ``valid_crossings`` are the crossings (classical or virtual) met by some
    ascending strand; ``free_up_arcs`` are the ascending runs meeting no
    crossing at all, cup to cap with their bars; ``down_skeleton`` is every
    remaining event.  ``arcs`` lists all up-arcs — the future braid strands —
    with fresh numeric labels in discovery order.
    """

    valid_crossings: tuple[int, ...]
    free_up_arcs: tuple[UpArc, ...]
    down_skeleton: tuple[int, ...]
    arcs: tuple[UpArc, ...]

    @property
    def up_arc_count(self) -> int:
        return len(self.arcs)


class _Arcs:
    """The up-arcs of a diagram, read from one sweep that raises the
    diagram's first validation failure, in flat int lists.  Up-arcs end at
    virtual crossings too, so the sweep gives them ports.

    Each up-arc is replaced by a descending braid strand with the same
    label.  Top to bottom, the strand passes the arc's bars, then either the
    single crossing the arc ascended into or the full descending run hanging
    from the arc's cap.  Per label (index 0 unused): ``bottom`` and ``top``
    are the port keys of the arc's ends, ``parked[park[label - 1] :
    park[label]]`` the slice indices of its bars, bottom to top, ``trail``
    the bars its strand passes after its last crossing, and ``exit`` the
    label of the up-arc whose detour the strand descends into at the bottom
    of the braid.  Per strand of a crossing, at ``key >> 1`` of its port
    keys (``2 * slice`` for "/", one more for "\\"): ``carrier`` is the
    label of the strand passing it and ``before`` the bars that strand
    passes since its previous crossing.
    """

    __slots__ = ("bottom", "top", "exit", "trail", "park", "parked",
                 "carrier", "before", "marks")

    def __init__(self, d: MorseDiagram):
        g = _sweep(d, virtual_ports=True)
        cls = [_CLASS.get(ev.kind, _CROSS) for ev in d.slices]
        bottom, top, exit, trail, park = [0], [0], [0], [0], [0]
        parked: list[int] = []
        carrier = [0] * (2 * len(cls))
        before = carrier.copy()
        for keys in g.walks():
            # every closed component has a lowest cup
            start = next(i for i, k in enumerate(keys) if cls[k >> 2] == _CUP)
            # from a cup, the walk ascends to a cap, descends to the next
            # cup, and so on; an ascent is cut into up-arcs at its crossings,
            # and its last strand adopts the descent that follows.  ``tail``
            # is that strand, 0 (the unused label) before the first cap.
            first, tail, run = len(top), 0, 0
            for key in keys[start:] + keys[:start]:
                c = cls[key >> 2]
                if c == _BAR:
                    run += 1
                    if up:
                        parked.append(key >> 2)
                elif c == _CUP:
                    exit[tail], trail[tail] = len(top), run
                    low, run, up = key, 0, True
                elif c == _CAP or up:  # an up-arc ends
                    label = len(top)
                    bottom.append(low)
                    top.append(key)
                    exit.append(label + 1)  # a tail's is set at the next cup
                    trail.append(0)
                    park.append(len(parked))
                    if c == _CAP:
                        tail, up = label, False  # its bars stay in ``run``
                    else:  # a crossing; the next up-arc starts above it
                        carrier[key >> 1], before[key >> 1] = label, run
                        low, run = key, 0
                else:
                    carrier[key >> 1], before[key >> 1] = tail, run
                    run = 0
            exit[tail], trail[tail] = first, run
        self.bottom, self.top, self.exit, self.trail = bottom, top, exit, trail
        self.park, self.parked = park, parked
        self.carrier, self.before, self.marks = carrier, before, g.marks


_EXTREMUM_NAME = {EventKind.CUP: "cup", EventKind.CAP: "cap"}


def _arc_end(d: MorseDiagram, key: int) -> tuple:
    """The up-arc end at a port key."""
    name = _EXTREMUM_NAME.get(d.slices[key >> 2].kind)
    if name is not None:
        return (name, key >> 2)
    return ("cross", key >> 2, "/" if key & 3 < 2 else "\\")


def find_up_arcs(d: MorseDiagram) -> UpArcDecomposition:
    """Partition a diagram into valid crossings, free up-arcs and skeleton."""
    lists = _Arcs(d)
    bottom, top, park, parked = lists.bottom, lists.top, lists.park, lists.parked
    arcs = tuple(
        UpArc(label, _arc_end(d, bottom[label]), _arc_end(d, top[label]),
              tuple(parked[park[label - 1] : park[label]]))
        for label in range(1, len(top))
    )
    valid = {end[1] for arc in arcs for end in (arc.bottom, arc.top)
             if end[0] == "cross"}
    free = tuple(arc for arc in arcs if arc.free)
    free_events = {i for arc in free for i in (arc.bottom[1], arc.top[1], *arc.bars)}
    skeleton = tuple(i for i in range(len(d.slices))
                     if i not in valid and i not in free_events)
    return UpArcDecomposition(tuple(sorted(valid)), free, skeleton, arcs)


# ---------------------------------------------------------------------------
# bar normalization


def _bar_move(d: MorseDiagram, g) -> tuple[int, int, int] | None:
    """Find one bar on an ascending edge that can slide off it.

    Returns (bar slice index, insertion index, strand position) for the
    first bar that can slide — upward past virtual crossings to a cap and
    onto its descending leg, or failing that downward to a cup — or None.
    """
    slices, port_edge = d.slices, g.port_edge
    for idx, ev in enumerate(slices):
        if ev.kind is not EventKind.BAR:
            continue
        key = idx << 2  # the bar's B port; T is key + 1
        if not g.flow_up[port_edge[key + 1]]:
            continue
        # walk up to a cap, then down to a cup: a walk up meets only ports
        # below its events, and a walk down only ports above them; the
        # graph has no ports at virtual crossings, so only bars are passed
        for ends, start, after in ((g.upper, key + 1, 0), (g.lower, key, 1)):
            end = ends[port_edge[start]]
            while slices[end >> 2].kind is EventKind.BAR:
                end = ends[port_edge[end ^ 1]]
            j = end >> 2
            if slices[j].kind in (EventKind.CAP, EventKind.CUP):
                # park on the descending leg, below the cap or above the
                # cup; port 0 of an extremum is its left leg
                pos = slices[j].pos
                return idx, j + after, pos + 1 if end & 3 == 0 else pos
            # a classical/flat crossing blocks the slide
    return None


def normalize_bars_off_up_arcs(d: MorseDiagram) -> MorseDiagram:
    """Slide bars off ascending edges without disturbing the Gauss code.

    Bars travel along their own strand, passing only virtual crossings,
    other bars and one extremum, and park on the adjacent descending edge —
    below the cap when sliding up, above the cup when sliding down.  A bar
    fenced in by classical crossings stays put; ``braid`` carries such bars
    on the replacement strand itself.
    """
    while True:
        g = _sweep(d)
        move = _bar_move(d, g)
        if move is None:
            return d
        idx, insert_at, pos = move
        events = list(d.slices)
        bar = events.pop(idx)
        if insert_at > idx:
            insert_at -= 1
        events.insert(insert_at, _event(bar.kind, pos))
        d = MorseDiagram(tuple(events), d.category)


# ---------------------------------------------------------------------------
# braiding proper

def braid(d: MorseDiagram) -> BraidWord:
    word, _ = _braid(d)
    return word


def braid_with_trace(d: MorseDiagram) -> tuple[BraidWord, list[dict]]:
    """Braid a diagram, also returning the per-arc elimination trace.

    The trace has one entry per up-arc (in label order) listing the letters
    attributed to its elimination: the bars it parks plus the crossings it
    ascends into (or, for a cap-topped arc, the crossings and bars of the
    descending run its strand adopts).  Virtual letters emitted while
    routing strands for a crossing count toward that crossing's arc; the
    final closure-sorting letters are reported with arc 0.
    """
    word, credit = _braid(d)
    attributed: list[list[str]] = [[] for _ in range(word.n + 1)]
    for gen, arc in zip(word.letters, credit):
        attributed[arc].append(gen.token())
    trace = [  # one step per up-arc, in label order
        {"step": arc, "arc": arc, "letters": attributed[arc]}
        for arc in range(1, word.n + 1)
    ]
    if attributed[0]:
        trace.append(
            {"step": word.n + 1, "arc": 0, "letters": attributed[0]}
        )
    return word, trace


def _braid(d: MorseDiagram) -> tuple[BraidWord, list[int]]:
    """The braid word, and per letter the up-arc it is credited to (0 for
    the closure sort)."""
    if not d.slices:
        raise DiagramError("empty diagram: nothing to braid")
    a = _Arcs(d)
    top, carrier, before, trail = a.top, a.carrier, a.before, a.trail
    n = len(top) - 1
    arrangement = list(range(1, n + 1))  # arc label at each position
    where = list(range(-1, n))  # position of each arc label (0 unused)
    letters: list[Generator] = []
    credit: list[int] = []
    bar, marks = Kind.B, a.marks
    v = [None] + [generator(Kind.V, p) for p in range(1, n)]  # v[p]: v_p

    def emit_bars(label: int, count: int, arc: int) -> None:
        letters.extend([generator(bar, where[label] + 1)] * count)
        credit.extend([arc] * count)

    for j in range(len(carrier) - 2, -1, -2):  # top of the picture first
        la, lb = carrier[j], carrier[j + 1]  # the "/" and "\" strands
        if not la:
            continue  # not a crossing
        idx = j >> 1
        bars_a, bars_b = before[j], before[j + 1]
        if la > lb:
            la, lb, bars_a, bars_b = lb, la, bars_b, bars_a
        # credit the arc that ascends into the crossing; for all-descending
        # crossings, the lower-numbered strand that adopted it
        arc = lb if top[la] >> 2 != idx and top[lb] >> 2 == idx else la
        if bars_a:
            emit_bars(la, bars_a, la)
        if bars_b:
            emit_bars(lb, bars_b, lb)
        mark = marks[idx]
        if mark is None or mark[1] is None:  # virtual or flat crossing
            left, right = (la, lb) if where[la] < where[lb] else (lb, la)
            kind = Kind.V if mark is None else Kind.C
        else:
            over_bit, sign = mark
            over = carrier[j + over_bit // 2]  # over_bit is 0 or 2
            under = la + lb - over
            if sign > 0:
                left, right, kind = over, under, Kind.SIGMA
            else:
                left, right, kind = under, over, Kind.SIGMA_INV
        # bubble `right` to sit immediately right of `left`: one v letter
        # per swap, and the strands in between shift by one
        pl, pr = where[left], where[right]
        if pr > pl + 1:
            swaps = v[pr : pl + 1 : -1]
            arrangement[pl + 1 : pr + 1] = [right] + arrangement[pl + 1 : pr]
            moved = range(pl + 1, pr + 1)
        elif pr < pl:
            swaps = v[pr + 1 : pl + 1]
            arrangement[pr : pl + 1] = arrangement[pr + 1 : pl + 1] + [right]
            moved = range(pr, pl + 1)
        else:
            swaps, moved = (), ()
        for q in moved:
            where[arrangement[q]] = q
        letters += swaps
        credit += [arc] * len(swaps)
        i = where[left] + 1
        letters.append(generator(kind, i))
        credit.append(arc)
        arrangement[i - 1], arrangement[i] = right, left
        where[left], where[right] = i, i - 1
    # trailing bars, left to right
    for label in arrangement:
        if trail[label]:
            emit_bars(label, trail[label], label)
    # closure sort: the strand exiting into arc j must leave at position j.
    # Bubble passes; each ends at the last swap of the one before, as the
    # places past it are final, so the swaps are those of full passes.
    order = [a.exit[label] for label in arrangement]
    end = n - 1
    while end:
        last = 0
        for q in range(end):
            if order[q] > order[q + 1]:
                order[q], order[q + 1] = order[q + 1], order[q]
                letters.append(v[q + 1])
                credit.append(0)
                last = q
        end = last
    category = WITH_VIRTUALS.get(d.category, d.category)
    return BraidWord(n, tuple(letters), category), credit


def trace_lines(trace: list[dict]) -> str:
    """Render a braiding trace as JSON lines."""
    return "\n".join(json.dumps(entry) for entry in trace) + "\n"
