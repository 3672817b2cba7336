"""The bidirectional search engine as it was before its final level became
a meeting test, kept as the reference that ``presentations._bidirectional``
must agree with.

It expands every node of every level alike, always asking
``neighbors(node, forward, None)``, writes each fresh neighbour into the
seen maps, and resolves a meeting among the results not seen before the
meeting node's expansion began.  It takes the ``profile`` of the engine it
is compared with and ignores it.
"""

from twbraid.presentations import _reconstruct


def bidirectional(start, goal, neighbors, step_into, max_nodes: int, *,
                  profile, key=None):
    """Expand the smaller frontier level by level until the two searches
    meet or max_nodes nodes have been expanded; returns (path or None,
    nodes expanded).

    neighbors(node, forward, None) returns the nodes one step away from
    node, in the search from start (forward) or from goal, in any order and
    with repeats; the seen maps store each node's parent only.
    step_into(node, forward, targets) returns the first (step, neighbour)
    of node, in the search's canonical order, whose neighbour is in
    targets, or None; a step has an inverse(), and a backward step enters
    the path inverted.  It is called only to build the path: once where the
    searches meet, and once per other path step in _reconstruct.

    The order neighbors returns does not matter.  Frontiers are sorted by
    key, so a level cut by the budget expands the same nodes.  And when a
    neighbour of node is fresh and on the other side, the searches meet at
    the first (step, r) of node whose r is on the other side and was not
    seen before node's expansion began.
    """
    if start == goal:
        return (), 0
    fwd_seen: dict = {start: None}
    bwd_seen: dict = {goal: None}
    fwd_frontier, bwd_frontier = [start], [goal]
    explored = 0
    while fwd_frontier and bwd_frontier and explored < max_nodes:
        forward = len(fwd_frontier) <= len(bwd_frontier)
        frontier = fwd_frontier if forward else bwd_frontier
        seen, other = (fwd_seen, bwd_seen) if forward else (bwd_seen, fwd_seen)
        frontier.sort(key=key)
        next_frontier = []
        for node in frontier:
            if explored == max_nodes:
                break
            explored += 1
            for result in neighbors(node, forward, None):
                if result in seen:
                    continue
                seen[result] = node
                if result in other:
                    # unseen, or seen first from node
                    fresh = {r for r in other if seen.get(r, node) is node}
                    step, meeting = step_into(node, forward, fresh)
                    # _reconstruct walks the forward chain back to the start
                    # and the backward chain out to the goal, so it applies
                    # no matter which frontier produced the meeting node
                    if forward:
                        ends = node, step, meeting
                    else:
                        ends = meeting, step.inverse(), node
                    return _reconstruct(*ends, fwd_seen, bwd_seen, step_into), explored
                next_frontier.append(result)
        if forward:
            fwd_frontier = next_frontier
        else:
            bwd_frontier = next_frontier
    return None, explored
