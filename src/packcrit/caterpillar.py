"""Exact packing colorings of caterpillars in polynomial time.

A caterpillar is a tree whose non-leaf vertices form a path (the spine).
Distances between any two vertices are determined by their spine positions
and whether each endpoint sits on the spine or hangs off it as a leaf, so
a left-to-right sweep over the spine decides k-colorability with one small
clearance counter per color.

For a color c >= 2 let u be the spine distance to its most recent use on
the spine and v the spine distance to its most recent use on a leaf.  A
new use is legal iff the true distance exceeds c, which collapses to the
single counter w = min(u, v + 1): a spine use needs w >= c + 1, a leaf use
needs w >= c.  Color 1 never travels: leaves at a position may all take 1
unless their spine vertex does, adjacent spine vertices cannot both take
1, and a spine vertex taking 1 forces its leaves onto distinct colors
>= 2.  When the spine vertex takes a color >= 2, recoloring every leaf to
1 keeps any valid completion valid, so only that assignment is explored.

The state space S is bounded by 2 * (k+2)!/3! and depends only on k, so
one decision expands each (state, leaf count) pair once, at a cost of the
per-state branching B, and every later spine position that meets the
pair again is a table lookup: at most S expansions per distinct leaf
count, plus one lookup per frontier state per position.  The table is
built per call, shared by the call's components and dropped when it
returns.  Each position's frontier keeps the
insertion order of the states it reached, so the sweep and its witness
are deterministic.  For the values caterpillars can need (never more than
seven) this is fast even on hundreds of vertices.
The general solver in this package proves the same answers by search on
small instances; the test suite pins the two routes together.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .families import LabeledGraph, is_caterpillar
from .graphs import Graph, connected_components, induced_subgraph


def caterpillar_profile(g: Graph):
    """Decompose a connected caterpillar into spine order and leaf lists.

    Returns (leaf_counts, spine, leaves) where spine is a tuple of vertex
    ids in path order, leaves[i] lists the pendant neighbors of spine[i],
    and leaf_counts[i] == len(leaves[i]).  Raises ValueError when g is not
    a connected caterpillar.  Orientation is fixed by smallest endpoint so
    repeated calls agree.
    """
    if not is_caterpillar(g):
        raise ValueError("graph is not a connected caterpillar")
    if g.n == 1:
        return (0,), (0,), ((),)
    if g.n == 2:
        return (1,), (0,), ((1,),)
    interior = [v for v in range(g.n) if g.degree(v) >= 2]
    if len(interior) == 1:
        hub = interior[0]
        return ((g.n - 1,), (hub,),
                (tuple(sorted(g.neighbors(hub))),))
    inner = set(interior)
    ends = [v for v in interior
            if sum(1 for u in g.neighbors(v) if u in inner) <= 1]
    cur = min(ends)
    spine = [cur]
    prev = -1
    while True:
        nxt = [u for u in g.neighbors(cur) if u in inner and u != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        spine.append(cur)
    leaves = tuple(tuple(sorted(u for u in g.neighbors(s) if g.degree(u) == 1))
                   for s in spine)
    return tuple(len(t) for t in leaves), tuple(spine), leaves


def caterpillar_from_profile(leaf_counts) -> LabeledGraph:
    """Build the caterpillar with the given leaf count at each spine position.

    Spine vertices come first (0..L-1 along the path), then leaves in spine
    order.  Labels record the spine and each leaf slot.
    """
    counts = tuple(int(c) for c in leaf_counts)
    if not counts:
        raise ValueError("need at least one spine position")
    if any(c < 0 for c in counts):
        raise ValueError("leaf counts must be nonnegative")
    L = len(counts)
    edges = [(i, i + 1) for i in range(L - 1)]
    labels = {"spine[%d]" % i: i for i in range(L)}
    nxt = L
    for i, c in enumerate(counts):
        for j in range(c):
            edges.append((i, nxt))
            labels["leaf[%d][%d]" % (i, j)] = nxt
            nxt += 1
    return LabeledGraph(Graph.from_edges(nxt, edges), labels)


def _moves(state, cnt, k, caps):
    """Legal (next_state, (spine_color, leaf_colorset)) pairs from state at a
    spine position with cnt leaves."""
    out = []
    bit, w = state
    if not bit and k >= 1:
        avail = [c for c in range(2, k + 1) if w[c - 2] >= c]
        if len(avail) >= cnt:
            for S in combinations(avail, cnt):
                w2 = list(w)
                for c in S:
                    # a leaf use sits one step off the spine, so its
                    # clearance starts at 1, not 0
                    w2[c - 2] = 1
                nstate = (True, tuple(min(x + 1, caps[i])
                                      for i, x in enumerate(w2)))
                out.append((nstate, (1, S)))
    for cs in range(2, k + 1):
        if w[cs - 2] < cs + 1:
            continue
        w2 = list(w)
        w2[cs - 2] = 0
        nstate = (False, tuple(min(x + 1, caps[i])
                               for i, x in enumerate(w2)))
        out.append((nstate, (cs, ())))
    return out


def _sweep(counts, k, moves):
    """Feasibility sweep; returns per-position (spine_color, leaf_colorset)
    choices for one valid coloring, or None.

    moves maps (state, leaf count) to that pair's _moves list.  It belongs
    to one decide call, so each pair is expanded once per call and every
    later position with the same pair is a lookup.  The frontier is the
    previous position's dict, visited in insertion order.
    """
    caps = tuple(c + 1 for c in range(2, k + 1))
    frontier = ((False, caps),)
    parents = []
    for cnt in counts:
        step: dict = {}
        for state in frontier:
            key = (state, cnt)
            succ = moves.get(key)
            if succ is None:
                succ = moves[key] = _moves(state, cnt, k, caps)
            for nstate, choice in succ:
                if nstate not in step:
                    step[nstate] = (state, choice)
        if not step:
            return None
        parents.append(step)
        frontier = step
    choices = []
    state = min(frontier)
    for step in reversed(parents):
        state, choice = step[state]
        choices.append(choice)
    choices.reverse()
    return choices


def decide_caterpillar_k_colorable(g: Graph, k: int) -> Optional[tuple]:
    """One packing k-coloring of a caterpillar forest, or None.

    Every component of g must be a caterpillar; otherwise ValueError, for
    any k.  Same return convention as the general decision solver: a tuple
    of colors indexed by vertex, or None when no such coloring exists.
    """
    if g.n == 0:
        return ()
    parts = []
    for comp in connected_components(g):
        sub, kept = induced_subgraph(g, comp)
        parts.append((kept, caterpillar_profile(sub)))
    if k <= 0:
        return None
    colors = [0] * g.n
    moves: dict = {}
    for kept, (counts, spine, leaves) in parts:
        choices = _sweep(counts, k, moves)
        if choices is None:
            return None
        for i, (cs, S) in enumerate(choices):
            colors[kept[spine[i]]] = cs
            if cs == 1:
                for leaf, c in zip(leaves[i], S):
                    colors[kept[leaf]] = c
            else:
                for leaf in leaves[i]:
                    colors[kept[leaf]] = 1
    return tuple(colors)


def caterpillar_chi_rho(g: Graph) -> int:
    """Exact packing chromatic number of a caterpillar forest."""
    if g.n == 0:
        return 0
    k = 1
    while decide_caterpillar_k_colorable(g, k) is None:
        k += 1
        if k > g.n:
            raise AssertionError("sweep failed to terminate by k = n")
    return k
