"""Exact packing colorings of caterpillars in polynomial time.

A caterpillar is a tree whose non-leaf vertices form a path (the spine).
A forest is profiled in one pass over its adjacency rows
(families.caterpillar_profiles), which walks each component's spine from
its smaller end and reads the leaf count at every position.
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
the same moves as one with k (at most k - 1 colors are left for them).  The
sweep determinises this automaton lazily, as a regex engine does with a
lazy DFA (Cox, "Regular Expression Matching Can Be Simple And Fast",
2007).  Per palette, the packed states are numbered as they are found, so a
frontier (the states reached at a position) is one int bitmask.  Each state
is expanded once per l = min(leaves, k) into its successor mask, its bits
in the predecessor masks of those successors, and its first move to each
successor.  The expansions are kept for later calls and are bounded by the
whole automaton: 12, 44, 205, 1,140, 7,119 and 48,688 (state, l) pairs
for k = 2..7, about 54 MiB (tracemalloc) at k = 7 if a caller walks all of
it; the cache budget below does not cover them.  A step ORs the successor
masks of the frontier's states, expanding those not yet expanded at l.  A
transition cache maps (l, frontier) to the next frontier, so sweeps that
share a prefix of leaf counts, or reach a frontier another sweep has left,
look their steps up.  The cache is charged the bits of its
two masks plus _ENTRY_BITS for each entry, and is flushed whole once
_CACHE_BITS (1 MiB) would be passed, so that charge bounds its memory.  The
value-7 comb certificate (a 175-vertex comb and its 174 edge deletions)
caches 586 transitions, 0.28 Mbit of masks, at k = 6.

The forward pass keeps only the frontier of each position.  The witness
ends in the smallest packed state of the last frontier; each step back
takes the smallest packed state of the previous frontier that has a move
there, then its first such move.  The rule reads neither the numbering nor
the cache, so the witness does not depend on earlier calls.

Every caterpillar has a packing 7-coloring (Goddard, Hedetniemi,
Hedetniemi, Harris & Rall, "Broadcast chromatic numbers of graphs", Ars
Combinatoria 2008), so a palette above seven is swept at seven.  The
general solver in this package proves the same answers by search on small
instances; the test suite pins the two routes together.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, combinations, count
from operator import add, or_
from typing import Optional

from .families import caterpillar_profiles
from .graphs import Graph

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
    """(next_state, (spine_color, leaf_colorset)) for each legal move from
    state at a spine position with cnt leaves, in the order the sweep tries
    them."""
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
            out.append((lay.advance(x) | lay.flag, (1, S)))
    ok = lay.ready(state, lay.caps)
    for cs in range(2, k + 1):
        if ok >> lay.shift[cs] + lay.guard_shift & 1:
            x = state & ~lay.field[cs] & ~lay.flag
            out.append((lay.advance(x), (cs, ())))
    return out


def _bits(mask):
    """The positions of the set bits of a nonzero mask, lowest first.

    A narrow mask is peeled one low bit at a time.  On a wide one each peel
    copies the whole int, so the runs of zeros between set bits come from
    one split of the binary string instead, and the walk stays in C (the two
    cost the same near 400 bits with 40 set).
    """
    if mask.bit_length() > 256:
        return map(add, accumulate(map(len, bin(mask)[:2:-1].split("1"))),
                   count())
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# charge per cached transition on top of its two masks' bits: the key
# tuple, the dict slot and two int headers, about 200 bytes
_ENTRY_BITS = 1600
# the transition cache of one palette is flushed whole past this many bits
_CACHE_BITS = 1 << 23


class _Automaton:
    """The lazily determinised automaton of one palette k.

    Packed states are numbered as they are found, so a frontier is an int
    bitmask over those numbers.  For each leaf count l = min(leaves, k),
    `done[l]` is the mask of the states expanded at l; for each of them
    `succ[l][i]` is the mask of the states one move on from state i,
    `pred[l][j]` the mask of the expanded states with a move to j, and
    `first[l][i, j]` the first move from i to j in `_moves` order.
    `cache` maps (l, frontier) to the next frontier.
    """

    def __init__(self, k):
        self.k = k
        self.lay = _Layout(k)
        self.number = {}
        self.packed = []
        self.done: dict = {}
        self.succ: dict = {}
        self.pred: dict = {}
        self.first: dict = {}
        self.cache: dict = {}
        self.cache_bits = 0
        self.start = 1 << self._number(self.lay.caps)

    def _number(self, state):
        i = self.number.get(state)
        if i is None:
            i = self.number[state] = len(self.packed)
            self.packed.append(state)
        return i

    def _expand(self, i, cnt):
        pred = self.pred[cnt]
        first = self.first[cnt]
        mask = 0
        for nstate, choice in _moves(self.packed[i], cnt, self.k, self.lay):
            j = self._number(nstate)
            if not mask >> j & 1:
                mask |= 1 << j
                pred[j] = pred.get(j, 0) | 1 << i
                first[i, j] = choice
        self.succ[cnt][i] = mask

    def step(self, cnt, frontier):
        """The frontier one spine position on, over a position with
        cnt <= k leaves."""
        key = (cnt, frontier)
        nxt = self.cache.get(key)
        if nxt is not None:
            return nxt
        done = self.done.get(cnt)
        if done is None:
            done = 0
            self.succ[cnt] = {}
            self.pred[cnt] = {}
            self.first[cnt] = {}
        new = frontier & ~done
        if new:
            for i in _bits(new):
                self._expand(i, cnt)
            self.done[cnt] = done | new
        nxt = reduce(or_, map(self.succ[cnt].__getitem__, _bits(frontier)))
        bits = frontier.bit_length() + nxt.bit_length() + _ENTRY_BITS
        if self.cache_bits + bits > _CACHE_BITS:
            self.cache.clear()
            self.cache_bits = 0
        self.cache[key] = nxt
        self.cache_bits += bits
        return nxt

    def smallest(self, mask):
        """Number of the smallest packed state in a nonempty mask."""
        return self.number[min(map(self.packed.__getitem__, _bits(mask)))]


# palette -> its _Automaton, kept for later calls
_TABLES: dict = {}


def _sweep(counts, k):
    """Feasibility sweep; returns per-position (spine_color, leaf_colorset)
    choices for one valid coloring, or None.

    The forward pass keeps one frontier mask per position, and the witness
    follows the rule in the module docstring.
    """
    auto = _TABLES.get(k)
    if auto is None:
        auto = _TABLES[k] = _Automaton(k)
    cnts = [min(cnt, k) for cnt in counts]
    frontiers = [auto.start]
    for cnt in cnts:
        frontier = auto.step(cnt, frontiers[-1])
        if not frontier:
            return None
        frontiers.append(frontier)
    choices = []
    j = auto.smallest(frontiers[-1])
    for cnt, frontier in zip(reversed(cnts), reversed(frontiers[:-1])):
        i = auto.smallest(auto.pred[cnt][j] & frontier)
        choices.append(auto.first[cnt][i, j])
        j = i
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
    parts = caterpillar_profiles(g.rows)
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

    The forest is profiled in one pass before any sweep, and each component
    is swept at rising palettes from the largest value found so far, so the
    value is the maximum over components of their least sweeping palettes.
    A non-caterpillar component raises ValueError, and one that is not
    packing MAX_PALETTE-colorable raises AssertionError.
    """
    value = 0
    for counts, _, _ in caterpillar_profiles(g.rows):
        value = max(value, 1)
        while _sweep(counts, value) is None:
            if value == MAX_PALETTE:
                raise AssertionError("no packing %d-coloring of a caterpillar"
                                     % MAX_PALETTE)
            value += 1
    return value
