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
    _sweep,
)
from .words import BraidWord, Category, Generator, Kind

# ---------------------------------------------------------------------------
# walking components and carving out up-arcs

# walk items: ("cup", idx) / ("cap", idx) / ("bar", idx) /
# ("cross", idx, slot) where slot is "/" for the strand joining the
# bottom-left and top-right corners and "\" for the other one.


_ITEM_NAME = {EventKind.CUP: "cup", EventKind.CAP: "cap", EventKind.BAR: "bar"}


def _walk_item(d: MorseDiagram, key: int) -> tuple:
    """The walk item of a port key (see the sweep in ``diagram``)."""
    idx = key >> 2
    name = _ITEM_NAME.get(d.slices[idx].kind)
    if name is not None:
        return (name, idx)
    return ("cross", idx, "/" if key & 3 < 2 else "\\")


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

    ``queue`` holds the items the strand passes on its way down, top to
    bottom: the arc's own parked bars, then either the single crossing the
    arc ascended into or the full descending run hanging from the arc's cap.
    ``exit`` is the label of the up-arc whose detour this strand descends
    into at the bottom of the braid.
    """

    arc: UpArc
    queue: list[tuple]
    exit: int = 0


def _arc_structure(
    d: MorseDiagram,
) -> tuple[list[UpArc], dict[int, _Strand], _Graph]:
    """Up-arcs, their replacement strands and the swept graph, from one
    sweep that raises the diagram's first validation failure."""
    g = _sweep(d)
    arcs: list[UpArc] = []
    strands: dict[int, _Strand] = {}
    for keys in g.walks():
        walk = [_walk_item(d, key) for key in keys]
        cups = [i for i, it in enumerate(walk) if it[0] == "cup"]
        if not cups:
            raise DiagramError("component without a local minimum")
        walk = walk[cups[0] :] + walk[: cups[0]]
        # chunk boundaries: cup starts an ascent, cap starts a descent
        chunks: list[tuple[str, tuple, list[tuple]]] = []
        for item in walk:
            if item[0] in ("cup", "cap"):
                chunks.append((item[0], item, []))
            else:
                chunks[-1][2].append(item)
        first_arc_of_chunk: list[int] = []
        chunk_strand_tail: list[_Strand | None] = []
        for kind, boundary, interior in chunks:
            if kind == "cap":
                first_arc_of_chunk.append(0)
                chunk_strand_tail.append(None)
                continue
            # ascending chunk: subdivide at crossings
            segments: list[tuple[list[int], tuple | None]] = [([], None)]
            for item in interior:
                if item[0] == "bar":
                    segments[-1][0].append(item[1])
                else:
                    segments[-1] = (segments[-1][0], item)
                    segments.append(([], None))
            first_arc_of_chunk.append(len(arcs) + 1)
            chunk_strand_tail.append(None)
            bottom = boundary
            for bars, top_cross in segments:
                label = len(arcs) + 1
                top = top_cross  # None for the last segment: ends at the cap
                arc = UpArc(label, bottom, top or ("cap", -1), tuple(bars))
                arcs.append(arc)
                strand = _Strand(arc, [("bar", b) for b in bars])
                strands[label] = strand
                if top_cross is not None:
                    strand.queue.append(top_cross)
                    strand.exit = label + 1  # the segment above the crossing
                    bottom = top_cross
                else:
                    chunk_strand_tail[-1] = strand
        # second pass: close each ascent's last strand over the following
        # descent, and patch the cap identities we couldn't see above
        n_chunks = len(chunks)
        for ci, (kind, boundary, interior) in enumerate(chunks):
            if kind != "cup":
                continue
            strand = chunk_strand_tail[ci]
            nxt = (ci + 1) % n_chunks
            cap_boundary = chunks[nxt][1]
            label = strand.arc.label
            arcs[label - 1] = UpArc(
                label, strand.arc.bottom, cap_boundary, strand.arc.bars
            )
            strand.arc = arcs[label - 1]
            if chunks[nxt][0] == "cap":
                strand.queue.extend(chunks[nxt][2])
                after = (nxt + 1) % n_chunks
            else:
                # ascent straight into another ascent cannot happen: flow
                # only turns at extrema
                raise AssertionError("ascent not followed by a descent")
            strand.exit = first_arc_of_chunk[after]
    return arcs, strands, g


def find_up_arcs(d: MorseDiagram) -> UpArcDecomposition:
    """Partition a diagram into valid crossings, free up-arcs and skeleton."""
    arcs, _, _ = _arc_structure(d)
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
    return UpArcDecomposition(
        tuple(sorted(valid)), free, skeleton, tuple(arcs)
    )


# ---------------------------------------------------------------------------
# bar normalization

_SLIDE_THROUGH = (EventKind.BAR, EventKind.CROSS_VIRTUAL)


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
        # below its events, and a walk down only ports above them
        for ends, start, after in ((g.upper, key + 1, 0), (g.lower, key, 1)):
            end = ends[port_edge[start]]
            while slices[end >> 2].kind in _SLIDE_THROUGH:
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
        events.insert(insert_at, type(bar)(bar.kind, pos))
        d = MorseDiagram(tuple(events), d.category)


# ---------------------------------------------------------------------------
# braiding proper

_OUTPUT_CATEGORY = {
    Category.CLASSICAL: Category.VIRTUAL,  # detour routing is virtual
}


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
    arcs, strands, g = _arc_structure(d)
    n = len(arcs)
    # which two strands carry each crossing, and in which slot
    carriers: dict[int, list[tuple[int, str]]] = {}
    for label, s in strands.items():
        for item in s.queue:
            if item[0] == "cross":
                carriers.setdefault(item[1], []).append((label, item[2]))
    for idx, pair in carriers.items():
        if len(pair) != 2:  # pragma: no cover - structural impossibility
            raise AssertionError(f"crossing {idx} carried {len(pair)} times")

    arrangement = list(range(1, n + 1))  # arc label at each position
    where = list(range(-1, n))  # position of each arc label (0 unused)
    letters: list[Generator] = []
    credit: list[int] = []
    v = Kind.V  # bound once: reading an enum member off its class is slow

    def emit(kind: Kind, i: int, arc: int) -> None:
        letters.append(Generator(kind, i))
        credit.append(arc)

    def swap(p: int) -> None:  # exchange the strands at positions p, p + 1
        a, b = arrangement[p], arrangement[p + 1]
        arrangement[p], arrangement[p + 1] = b, a
        where[a], where[b] = p + 1, p

    def flush_bars(label: int, arc: int) -> None:
        q = strands[label].queue
        while q and q[0][0] == "bar":
            q.pop(0)
            emit(Kind.B, where[label] + 1, arc)

    def attribute_crossing(idx: int) -> int:
        # credit the arc that ascends into the crossing; for all-descending
        # crossings, the lower-numbered strand that adopted it
        asc = [
            lb
            for lb, _ in carriers[idx]
            if strands[lb].arc.top[0] == "cross"
            and strands[lb].arc.top[1] == idx
        ]
        pool = asc or [lb for lb, _ in carriers[idx]]
        return min(pool)

    for idx in sorted(carriers, reverse=True):  # top of the picture first
        (la, slot_a), (lb, slot_b) = carriers[idx]
        assert la != lb, "a crossing cannot join a strand to itself"
        arc = attribute_crossing(idx)
        flush_bars(la, la)
        flush_bars(lb, lb)
        for label in (la, lb):
            item = strands[label].queue.pop(0)
            assert item[0] == "cross" and item[1] == idx
        info = g.crossing_info.get(idx)
        if info is None or info[1] is None:  # virtual or flat crossing
            left, right = (la, lb) if where[la] < where[lb] else (lb, la)
            kind = Kind.V if info is None else Kind.C
        else:
            over_slot, sign = info
            over = la if slot_a == over_slot else lb
            under = lb if over == la else la
            if sign > 0:
                left, right, kind = over, under, Kind.SIGMA
            else:
                left, right, kind = under, over, Kind.SIGMA_INV
        # bubble `right` to sit immediately right of `left`
        while where[right] != where[left] + 1:
            p = where[right]
            if p > where[left]:
                p -= 1
            swap(p)
            emit(v, p + 1, arc)
        i = where[left] + 1
        emit(kind, i, arc)
        swap(i - 1)
    # trailing bars, left to right
    for label in list(arrangement):
        flush_bars(label, label)
        assert not strands[label].queue
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
                emit(v, q + 1, 0)
                last = q
        end = last
    category = _OUTPUT_CATEGORY.get(d.category, d.category)
    return BraidWord(n, tuple(letters), category), credit


def trace_lines(trace: list[dict]) -> str:
    """Render a braiding trace as JSON lines."""
    return "\n".join(json.dumps(entry) for entry in trace) + "\n"
