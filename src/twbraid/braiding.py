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
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import (
    DiagramError,
    EventKind,
    MorseDiagram,
    _Graph,
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


@dataclass
class _Strand:
    """The descending braid strand replacing one up-arc.

    ``bottom`` and ``top`` are the port keys of the arc's ends and
    ``parked`` the slice indices of its bars.  Top to bottom, the strand
    passes those bars, then either the single crossing the arc ascended into
    or the full descending run hanging from the arc's cap.  ``crossings``
    holds the port keys by which it passes its crossings, ``bars[k]`` counts
    the bars it passes before crossing k and ``bars[-1]`` those after the
    last.  ``exit`` is the label of the up-arc whose detour this strand
    descends into at the bottom of the braid.
    """

    bottom: int
    top: int
    parked: list[int]
    crossings: list[int]
    bars: list[int]
    exit: int = 0


def _arc_structure(d: MorseDiagram) -> tuple[list[_Strand | None], _Graph]:
    """The replacement strand of each up-arc by label (none at 0) and the
    swept graph, from one sweep that raises the diagram's first validation
    failure.  Up-arcs end at virtual crossings too, so they get ports."""
    g = _sweep(d, virtual_ports=True)
    cls = [_CLASS.get(ev.kind, _CROSS) for ev in d.slices]
    strands: list[_Strand | None] = [None]
    for keys in g.walks():
        # every closed component has a lowest cup
        start = next(
            i for i, key in enumerate(keys) if cls[key >> 2] == _CUP
        )
        # from a cup, the walk ascends to a cap, descends to the next cup,
        # and so on; an ascent is cut into up-arcs at its crossings, and its
        # last strand adopts the descent that follows
        firsts: list[int] = []  # the first up-arc of each ascent
        tails: list[_Strand] = []  # the last strand of each ascent
        for key in keys[start:] + keys[:start]:
            c = cls[key >> 2]
            if c == _CUP:
                bottom, bars, up = key, [], True
                firsts.append(len(strands))
            elif c == _CAP:
                strand = _Strand(bottom, key, bars, [], [len(bars)])
                strands.append(strand)
                tails.append(strand)
                up = False
            elif c == _BAR:
                if up:
                    bars.append(key >> 2)
                else:
                    strand.bars[-1] += 1
            elif up:
                # a crossing ends an up-arc, and the next one starts above it
                above = len(strands) + 1
                strands.append(_Strand(bottom, key, bars, [key], [len(bars), 0], above))
                bottom, bars = key, []
            else:
                strand.crossings.append(key)
                strand.bars.append(0)
        for j, tail in enumerate(tails):
            tail.exit = firsts[(j + 1) % len(firsts)]
    return strands, g


_EXTREMUM_NAME = {EventKind.CUP: "cup", EventKind.CAP: "cap"}


def _arc_end(d: MorseDiagram, key: int) -> tuple:
    """The up-arc end at a port key."""
    name = _EXTREMUM_NAME.get(d.slices[key >> 2].kind)
    if name is not None:
        return (name, key >> 2)
    return ("cross", key >> 2, "/" if key & 3 < 2 else "\\")


def find_up_arcs(d: MorseDiagram) -> UpArcDecomposition:
    """Partition a diagram into valid crossings, free up-arcs and skeleton."""
    strands, _ = _arc_structure(d)
    arcs = tuple(
        UpArc(label, _arc_end(d, s.bottom), _arc_end(d, s.top), tuple(s.parked))
        for label, s in enumerate(strands[1:], 1)
    )
    valid = set()
    for arc in arcs:
        for end in (arc.bottom, arc.top):
            if end[0] == "cross":
                valid.add(end[1])
    free = tuple(a for a in arcs if a.free)
    free_events = set()
    for a in free:
        free_events.add(a.bottom[1])
        free_events.add(a.top[1])
        free_events.update(a.bars)
    skeleton = tuple(
        i
        for i in range(len(d.slices))
        if i not in valid and i not in free_events
    )
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
    strands, g = _arc_structure(d)
    n = len(strands) - 1
    # which two strands carry each crossing, by which port keys, and after
    # how many bars of their own; a strand meets its crossings top to bottom
    carriers: dict[int, list[tuple[int, int, int]]] = {}
    for label in range(1, n + 1):
        s = strands[label]
        for key, bars in zip(s.crossings, s.bars):
            carriers.setdefault(key >> 2, []).append((label, key, bars))

    arrangement = list(range(1, n + 1))  # arc label at each position
    where = list(range(-1, n))  # position of each arc label (0 unused)
    letters: list[Generator] = []
    credit: list[int] = []
    bar, marks = Kind.B, g.marks
    v = [None] + [generator(Kind.V, p) for p in range(1, n)]  # v[p]: v_p

    def emit_bars(label: int, count: int, arc: int) -> None:
        letters.extend([generator(bar, where[label] + 1)] * count)
        credit.extend([arc] * count)

    for idx in sorted(carriers, reverse=True):  # top of the picture first
        (la, key_a, bars_a), (lb, key_b, bars_b) = carriers[idx]
        assert la < lb, "a crossing cannot join a strand to itself"
        # credit the arc that ascends into the crossing; for all-descending
        # crossings, the lower-numbered strand that adopted it
        rises_a = strands[la].top >> 2 == idx
        arc = lb if not rises_a and strands[lb].top >> 2 == idx else la
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
            over, under = (la, lb) if key_a & 2 == over_bit else (lb, la)
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
        if strands[label].bars[-1]:
            emit_bars(label, strands[label].bars[-1], label)
    # closure sort: the strand exiting into arc j must leave at position j.
    # Bubble passes; each ends at the last swap of the one before, as the
    # places past it are final, so the swaps are those of full passes.
    order = [strands[label].exit for label in arrangement]
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
