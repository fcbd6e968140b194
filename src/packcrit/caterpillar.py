"""Exact packing colorings of caterpillars in polynomial time.

A caterpillar is a tree whose non-leaf vertices form a path (the spine).
Distances between any two vertices are determined by their spine positions
and whether each endpoint sits on the spine or hangs off it as a leaf, so
a left-to-right sweep over the spine decides k-colorability with one small
clearance counter per color.

For a color c >= 2 let u be the spine distance to its most recent use on
the spine and v the spine distance to its most recent use on a leaf.  A
new use is legal iff the true distance exceeds c, which collapses to the
single counter w_c = min(u, v + 1), saturated at c + 1: a spine use needs
w_c = c + 1, a leaf use needs w_c >= c.  Color 1 never travels: leaves at
a position may all take 1 unless their spine vertex does, adjacent spine
vertices cannot both take 1, and a spine vertex taking 1 forces its leaves
onto distinct colors >= 2.  When the spine vertex takes a color >= 2,
recoloring every leaf to 1 keeps any valid completion valid, so only that
assignment is explored.

A state is the flag "the spine vertex took 1" with the counters w_2..w_k,
packed into one integer.  Each counter has a field of
(k+1).bit_length() + 1 bits: the low bits hold 0..k+1 and the top bit is a
guard that is always clear in a stored state.  Color 2 has the most
significant field and the flag sits above them all.  Fields are fixed width
and never overflow, so comparing two packed states compares the flag first
and then the counters from color 2 up, which is the order of the tuples
(flag, (w_2, ..., w_k)).  Setting every guard bit and subtracting the
thresholds c (or c + 1) field by field leaves the guard of color c set iff
w_c >= c (or w_c = c + 1) without a borrow crossing fields; the same
spine test gives the fields below their cap, which the saturating +1 bumps.

The moves from a state depend only on the palette k, the state and the
number of leaves at the position, and a position with k or more leaves has
the same moves as one with k (at most k - 1 colors are left for them), so
they are expanded once per (state, min(leaves, k)) and kept in a module
table per palette for later calls.  Its size is bounded by the whole
automaton for that palette: 12, 44, 205, 1,140, 7,119 and 48,688 entries
for k = 2..7, about 31 MiB (tracemalloc) at k = 7 if a caller walks all
of it.  Each position's frontier keeps the insertion order of the states
it reached and the witness ends in the smallest final state, so the sweep
and its witness are deterministic and do not depend on what the table held
before.

Every caterpillar has a packing 7-coloring (Goddard, Hedetniemi,
Hedetniemi, Harris & Rall, "Broadcast chromatic numbers of graphs", Ars
Combinatoria 2008), so a palette above seven is swept at seven.  The
general solver in this package proves the same answers by search on small
instances; the test suite pins the two routes together.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .families import caterpillar_component_profile
from .graphs import Graph, connected_components

# every caterpillar is packing 7-colorable (Goddard et al. 2008)
MAX_PALETTE = 7


class _Layout:
    """Field positions and per-field constants of the packed states for
    one palette k >= 1."""

    def __init__(self, k):
        width = (k + 1).bit_length() + 1
        self.guard_shift = width - 1
        self.shift = {c: width * (k - c) for c in range(2, k + 1)}
        self.field = {c: ((1 << width) - 1) << s for c, s in self.shift.items()}
        self.flag = 1 << width * (k - 1)
        self.guards = sum(1 << s + width - 1 for s in self.shift.values())
        self.leaf_ok = sum(c << s for c, s in self.shift.items())
        self.caps = sum(c + 1 << s for c, s in self.shift.items())

    def ready(self, x, thresholds):
        """Guard bits of the colors c whose counter in x reaches the
        threshold that `thresholds` holds in c's field."""
        return ((x | self.guards) - thresholds) & self.guards

    def advance(self, x):
        """Move one spine position on: each counter w_c below its cap c + 1
        goes up by one."""
        return x + ((self.guards ^ self.ready(x, self.caps))
                    >> self.guard_shift)


def _moves(state, cnt, k, lay):
    """(next_state, (state, (spine_color, leaf_colorset))) for each legal
    move from state at a spine position with cnt leaves, in the order the
    sweep tries them."""
    out = []
    if not state & lay.flag:
        ok = lay.ready(state, lay.leaf_ok)
        avail = [c for c in range(2, k + 1)
                 if ok >> lay.shift[c] + lay.guard_shift & 1]
        for S in combinations(avail, cnt):
            x = state
            for c in S:
                # a leaf use sits one step off the spine, so its
                # clearance starts at 1, not 0
                x = x & ~lay.field[c] | 1 << lay.shift[c]
            out.append((lay.advance(x) | lay.flag, (state, (1, S))))
    ok = lay.ready(state, lay.caps)
    for cs in range(2, k + 1):
        if ok >> lay.shift[cs] + lay.guard_shift & 1:
            x = state & ~lay.field[cs] & ~lay.flag
            out.append((lay.advance(x), (state, (cs, ()))))
    return out


# palette -> (layout, {min(leaf count, k): {state: _moves list}})
_TABLES: dict = {}


def _sweep(counts, k):
    """Feasibility sweep; returns per-position (spine_color, leaf_colorset)
    choices for one valid coloring, or None.

    Each position's frontier is a dict from the states reached to the
    (previous state, choice) that first reached them, visited in insertion
    order; the moves come from the palette's kept table.
    """
    entry = _TABLES.get(k)
    if entry is None:
        entry = _TABLES[k] = (_Layout(k), {})
    lay, table = entry
    frontier = (lay.caps,)
    parents = []
    for cnt in counts:
        row = table.setdefault(min(cnt, k), {})
        step: dict = {}
        for state in frontier:
            succ = row.get(state)
            if succ is None:
                succ = row[state] = _moves(state, cnt, k, lay)
            for nstate, back in succ:
                if nstate not in step:
                    step[nstate] = back
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
    of colors indexed by vertex, or None when no such coloring exists.  A
    palette above MAX_PALETTE is swept at MAX_PALETTE, so its coloring uses
    at most that many colors; AssertionError if that sweep fails.
    """
    if g.n == 0:
        return ()
    parts = [caterpillar_component_profile(g.rows, comp)
             for comp in connected_components(g)]
    if k <= 0:
        return None
    palette = min(k, MAX_PALETTE)
    colors = [0] * g.n
    for counts, spine, leaves in parts:
        choices = _sweep(counts, palette)
        if choices is None:
            if palette < k:
                raise AssertionError("no packing %d-coloring of a caterpillar"
                                     % palette)
            return None
        for i, (cs, S) in enumerate(choices):
            colors[spine[i]] = cs
            if cs == 1:
                for leaf, c in zip(leaves[i], S):
                    colors[leaf] = c
            else:
                for leaf in leaves[i]:
                    colors[leaf] = 1
    return tuple(colors)


def caterpillar_chi_rho(g: Graph) -> int:
    """Exact packing chromatic number of a caterpillar forest.

    Every component is profiled once, before any sweep, and swept at rising
    palettes from the largest value found so far, so the value is the
    maximum over components of their least sweeping palettes.  A
    non-caterpillar component raises ValueError, and one that is not
    packing MAX_PALETTE-colorable raises AssertionError.
    """
    profiles = [caterpillar_component_profile(g.rows, comp)[0]
                for comp in connected_components(g)]
    value = 0
    for counts in profiles:
        value = max(value, 1)
        while _sweep(counts, value) is None:
            if value == MAX_PALETTE:
                raise AssertionError("no packing %d-coloring of a caterpillar"
                                     % MAX_PALETTE)
            value += 1
    return value
