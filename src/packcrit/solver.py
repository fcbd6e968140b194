"""Exact packing-coloring decision procedure and chromatic value computation.

A coloring assigns positive integer colors; any two vertices sharing color c
must be at distance greater than c.  The decision procedure is a depth-first
search with forward checking (Haralick & Elliott 1980), plus a symmetry
break: twins, vertices whose neighbourhoods agree away from each other, are
forced into non-decreasing color order, which is safe because swapping colors
between two twins preserves every distance constraint.  The domains are held
color-major, one vertex mask per color: the mask of color c is the set of
vertices that may still take c.  Entering a vertex reads its domain and the
set of vertices with two or more colors left (twos) in one pass over the
masks; trying color c there intersects the ball of radius c around it with
the unassigned vertices and the mask of c, and fails exactly when a vertex
of that intersection is outside twos, that is, would lose its last color.
A trial that succeeds clears those vertices from the mask of c, and going
back restores that one mask.  Vertices go in a
static order; each tries a hint color first, when the caller holds a packing
coloring of the same graph, and then the rest of its domain in ascending
order.  The subtree below a value does not depend on which sibling values
went before it, and an infeasible search tries them all, so the hint leaves
unsatisfiable proofs node for node as they were and only shortens
satisfiable searches.  Color 1 starts out of the domain of every vertex of
degree >= k: its neighbours, pairwise within distance 2, would need deg(v)
distinct colors from 2..k.  A second symmetry break is value precedence
(Van Hentenryck et al. 2003; Law & Lee 2004) over the high colors, those
from max(T, 2) up to k with T the largest finite distance: each of them
conflicts with a vertex's whole component, so they are interchangeable, and
a vertex may take a high color only when every lower one is already used
earlier in its component.  Both breaks are lex-leader constraints under
the static order, so the lex-least coloring of every orbit under twin swaps
and high-color permutations together survives them.  The used high colors
are exactly those the forward check has removed, so the search keeps only
the lowest high color left in a domain.  Masks that single out some high
colors turn the rule off, and the hint's high colors are renamed into
first-use order so that the hint survives it.

The optimizer works per connected component.  It starts from the caller's
start coloring restricted to the component, if given, or else from the
layered coloring: color 1 on a maximum independent set of G, then color c
on a maximum independent set of G^c, the graph joining vertices at distance
1..c, among the vertices still uncolored, one color per vertex from the
largest finite distance on.  Every color takes at least one vertex, so it
never uses more than n - alpha + 1 colors.  That palette is witnessed
already, so the downward walk starts one below it and stops at the first
infeasible palette or at the first palette a bound closes; each feasible
search replaces the kept witness.  Two search-free bounds are asked, in
this order, before each search.  The power bound (packing_lower_bound)
counts colors over the whole graph: color class c is independent in G^c,
so a packing k-coloring needs sum_{c=1..k} alpha(G^c) >= n.  alpha(G)
comes from the same maximum independent set, and from the largest finite
distance on alpha(G^c) is the number of components, so at diameter <= 2
the bound is n - alpha + 1 (Goddard et al. 2008), the palette of the
layered coloring there, and no search runs.  Only when it does not close
the palette is neighborhood_lower_bound computed, once per component: it
counts colors inside closed neighbourhoods (every color >= 2 appears at
most once in one, color 1 on an independent set).  Where either bound
meets the witnessed palette no unsatisfiable search is needed to prove
optimality.  With a start, where neither bound closes its palette, the
layered coloring is built once before the first search, stopping once it
reaches the start's palette; when it uses fewer colors it replaces the
start and the bounds are asked again.  Each search of the walk is hinted
with the coloring in hand, one palette up.  The conflict table of a search
and the rows of G^c read the balls of the cached distance matrix (the ball
of radius c around v holds the vertices at distance 1..c from v); the rows
of G^c are built once per c and serve the power bound and the layered
coloring alike.  A deadline reaches every search and the independence
numbers behind both bounds and the layered coloring.  The search keeps its
own stack, so no graph size meets Python's recursion limit.  Component
witnesses are stitched back onto the original vertex ids.  The solver
keeps no memo of its own between calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import (
    Graph,
    SolveTimeout,
    all_pairs_distances,
    connected_components,
    induced_subgraph,
    max_independent_set,
)


@dataclass(frozen=True)
class PackingColoring:
    """Vertex colors, 1-based; colors[v] is the color of vertex v."""

    colors: tuple

    @property
    def palette_size(self) -> int:
        return max(self.colors, default=0)

    @classmethod
    def from_mapping(cls, n: int, mapping) -> "PackingColoring":
        colors = [0] * n
        for v, c in mapping.items():
            colors[v] = c
        return cls(tuple(colors))

    def color_class(self, c: int) -> frozenset:
        return frozenset(v for v, cv in enumerate(self.colors) if cv == c)


@dataclass(frozen=True)
class ChiRhoResult:
    value: int
    witness: PackingColoring
    node_count: int


def _is_color(c) -> bool:
    """Colors are ints >= 1; a bool is not a color."""
    return type(c) is int and c >= 1


def _color_tuple(coloring) -> tuple:
    """The colors of a PackingColoring or of any sequence, as a tuple."""
    if isinstance(coloring, PackingColoring):
        return coloring.colors
    return tuple(coloring)


def is_valid_packing_coloring(g: Graph, coloring) -> bool:
    """Every vertex colored with an integer >= 1 and no vertex of color c
    in the ball of radius c around another."""
    colors = _color_tuple(coloring)
    if len(colors) != g.n:
        return False
    if not all(map(_is_color, colors)):
        return False
    classes = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(ball[min(c, len(ball) - 1)] & classes[c]
                   for ball, c in zip(all_pairs_distances(g).balls, colors))


def _twin_groups(g: Graph):
    """Partition vertices into twin classes, in order of first member.

    u and v are twins when N(u) - {v} = N(v) - {u}: equal open
    neighbourhoods when they are not adjacent, equal closed ones when they
    are.  That is the same as equal distance rows away from u and v.  Equal
    rows agree on the vertices at distance 1.  Conversely, a shortest path
    from u to any other vertex w leaves u through v (so d(v, w) < d(u, w))
    or through a neighbour of u other than v, which is a neighbour of v too
    (so d(v, w) <= d(u, w)); symmetrically d(u, w) <= d(v, w).  So any
    color swap inside a class is safe.  No vertex is a false twin of one
    vertex and a true twin of another, so the relation is an equivalence,
    and a dict keyed by each class's first open and closed row finds every
    vertex's class in one pass.
    """
    groups = []
    where = {}
    for v, row in enumerate(g.rows):
        closed = row | 1 << v
        grp = where.get(row, where.get(closed))
        if grp is None:
            grp = where[row] = where[closed] = []
            groups.append(grp)
        grp.append(v)
    return groups


def _search(g: Graph, k: int, allowed, deadline, hint=None):
    """Core DFS.  Returns (color tuple or None, nodes expanded).

    allowed maps restricted vertices to a bitmask of their colors, bit c - 1
    for color c; bits above k are ignored.  Restricted vertices go first and
    keep their twin classes out of the symmetry break.

    hint, when given, holds one color >= 1 per vertex, typically a packing
    coloring already in hand; each vertex tries its hint color first while
    that color is still in its domain, then the rest in ascending order.
    Hint colors above k are ignored.  The variable order is static, each
    value's domain changes are undone before the next value is tried, and an
    infeasible search tries every value at every node; so the hint never
    changes the nodes of an infeasible search, only how soon a feasible one
    ends.

    The domains are color-major: avail[c - 1] is the set of vertices whose
    domain still holds color c, so vertex u's domain is the colors c with u
    in avail[c - 1].  Every mask starts as all vertices; the restricted
    vertices lose the colors outside their allowed bits, and the color-1
    cut below clears vertices from avail[0].  Entering depth i at vertex v
    reads v's domain and twos, the vertices in at least two masks, in one
    pass over the k masks.  A trial of color c at v forward-checks
    hit = conflict[v][c] & unassigned & avail[c - 1], the unassigned
    vertices within distance c of v that still hold c.  It fails iff
    hit & ~twos is non-zero; otherwise avail[c - 1] loses hit, and the
    depth keeps (c, the mask before) to restore it on the way back.

    This is the per-vertex forward check, decision for decision.  That
    check removes c from every unassigned u within distance c of v whose
    domain holds c, that is from every u in hit, and fails iff one of them
    had c as its only color.  A u in hit holds c, so its domain is exactly
    {c} iff it holds no second color, iff u is not in twos.  twos is read
    from the masks as they stand on entering the depth, and they stand so
    at every trial there: a failing trial changes nothing, and a succeeding
    one is undone before the next trial at that depth.  So both checks fail
    on the same trials and leave the same domains after the others, and the
    nodes and the coloring found are those of forward checking over
    per-vertex domains (tests/test_solver.py keeps that kernel as the
    reference).

    Color 1 starts out of the domain of every vertex of degree >= k.  If v
    had color 1, its neighbours could not (they are at distance 1), and they
    are pairwise within distance 2 through v, so no two of them share a
    color c >= 2: they would need deg(v) distinct colors from 2..k.  That
    holds in every packing k-coloring, so the cut is sound together with
    the allowed bits, the twin break, the precedence below and the hint.

    Value precedence over the high colors.  Let T be the largest finite
    distance of g and top = max(T, 2).  For every vertex v and every
    c >= T, conflict[v][c] is v's last ball, its whole component minus v,
    so the colors top..k carry identical constraints: any permutation of
    them, applied to the whole graph or to one component alone, maps
    packing colorings to packing colorings, and each of them takes at most
    one vertex per component.  Color 1 is left out because of the degree
    cut, which treats it apart.  The rule is the lex-leader constraint for
    those permutations under the static order (Crawford et al. 1996), that
    is value precedence: in each component, a vertex may take a high color
    c only if c <= hi + 1, with hi the highest high color an earlier vertex
    of that component took (top - 1 if none).  The twin break is the
    lex-leader constraint for the swap of two twins, which share a
    component.  The lex-least member of an orbit of the group they all
    generate satisfies every one of these constraints, so each orbit of
    packing k-colorings keeps a member; the degree cut holds in every
    coloring and is invariant under the group, as twins have equal degree.
    The kernel needs no state for it: once a vertex of v's component takes
    a high color c, the forward check removes c from v's domain, so the
    high colors v still holds are hi + 1..k (the rule makes the used ones
    exactly top..hi), and entering v keeps only the lowest of them.
    The rule is on when every allowed mask holds all of top..k or none of
    it, since then the masks are invariant under those permutations too;
    _detour_colorable's masks are exactly diam..chi, all high colors.  A
    mask that holds some high colors but not all, such as a pin to one
    high color, turns it off (high = 0), and so do fewer than two high
    colors, where it has nothing to cut.  With the rule on, the hint's
    colors in top..k are renamed top, top + 1, ... in order of first use
    along the order, separately in each component.  The renamed hint is a
    packing coloring whenever the hint is, and a search that follows it
    obeys the rule; the hint still leaves an infeasible search's nodes as
    they were.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout("deadline expired before search started")
    n = g.n
    if n == 0:
        return (), 0
    if k <= 0:
        return None, 0
    balls = all_pairs_distances(g).balls

    everyone = (1 << n) - 1
    # avail[c - 1]: the vertices whose domain still holds color c
    avail = [everyone] * k
    for v, mask in allowed.items():
        for c in range(k):
            if not mask >> c & 1:
                avail[c] &= ~(1 << v)
    for v, row in enumerate(g.rows):
        if row.bit_count() >= k:
            avail[0] &= ~(1 << v)

    # conflict[v][c]: vertices that cannot share color c with v, i.e. the
    # ball of radius c around v, the last ball repeated up to c = k
    conflict = [ball + ball[-1:] * (k + 1 - len(ball)) for ball in balls]

    groups = _twin_groups(g)
    restricted = set(allowed)
    twin_pred = [None] * n
    ordered_groups = []
    for grp in groups:
        members = [v for v in grp if v not in restricted]
        if not members:
            continue
        if not (set(grp) & restricted):
            for a, b in zip(members, members[1:]):
                twin_pred[b] = a
        ordered_groups.append(members)
    ordered_groups.sort(key=lambda ms: (-g.degree(ms[0]), ms[0]))
    order = sorted(restricted) + [v for ms in ordered_groups for v in ms]

    # value precedence over the high colors top..k, off (high = 0) unless
    # there are two or more and every mask treats them alike; the hint's
    # high colors are renamed top, top + 1, ... in first use along order,
    # per component (keyed by its vertex mask)
    top = max(2, max(map(len, balls)) - 1)
    high = ((1 << k) - 1) & -(1 << (top - 1))
    if not high & high - 1 or any(m & high not in (0, high)
                                  for m in allowed.values()):
        high = 0
    elif hint is not None:
        hint = list(hint)
        renamed = {}
        for v in order:
            if top <= hint[v] <= k:
                seen = renamed.setdefault(balls[v][-1] | 1 << v, {})
                hint[v] = seen.setdefault(hint[v], top + len(seen))
    # a hint color above k has its bit outside every domain, so it is ignored
    hint_bit = [0] * n if hint is None else [1 << (c - 1) for c in hint]

    # depth-first over order with an explicit stack: untried[i] holds the
    # colors not yet tried at depth i, twos_at[i] the vertices that had two
    # or more colors left when depth i was entered, and trail_c[i] and
    # trail_mask[i] the index c - 1 of the color on trial there and its mask
    # before the trial, so no graph size meets the recursion limit
    colors = [0] * n
    untried = [0] * n
    twos_at = [0] * n
    trail_c = [0] * n
    trail_mask = [0] * n
    unassigned = everyone
    nodes = 0
    idx = 0
    while True:
        if idx == n:
            return tuple(colors), nodes
        v = order[idx]
        if colors[v] == 0:
            # first visit at this depth: v's domain and twos in one pass
            # over the masks
            bit = 1 << v
            dom = ones = twos = 0
            cb = 1
            for a in avail:
                if a & bit:
                    dom |= cb
                cb <<= 1
                twos |= ones & a
                ones |= a
            if high:
                # precedence: of the high colors v holds, only the lowest
                hd = dom & high
                dom ^= hd & hd - 1
            pred = twin_pred[v]
            if pred is not None:
                # twins take colors in non-decreasing id order
                dom &= ~((1 << (colors[pred] - 1)) - 1)
            unassigned &= ~bit
            m = dom
        else:
            # back from a subtree that failed: undo the color on trial
            avail[trail_c[idx]] = trail_mask[idx]
            m = untried[idx]
            twos = twos_at[idx]
        conflict_v = conflict[v]
        hb = hint_bit[v]
        while m:
            low = m & hb or m & -m
            m ^= low
            c = low.bit_length()
            nodes += 1
            if deadline is not None and not nodes & 1023:
                if time.monotonic() > deadline:
                    raise SolveTimeout("packing coloring search timed out")
            mask = avail[c - 1]
            hit = conflict_v[c] & unassigned & mask
            if not hit & ~twos:
                break
        else:
            # every color failed here: backtrack
            colors[v] = 0
            unassigned |= 1 << v
            if idx == 0:
                return None, nodes
            idx -= 1
            continue
        colors[v] = c
        avail[c - 1] = mask ^ hit
        untried[idx], twos_at[idx] = m, twos
        trail_c[idx], trail_mask[idx] = c - 1, mask
        idx += 1


def decide_packing_k_colorable(g: Graph, k: int, pinned=None, deadline=None):
    """Color tuple using colors 1..k honoring pins, or None if impossible.
    k, the pinned vertices and their colors must be integers (not bools)."""
    if not (type(k) is int and k >= 0):
        raise ValueError("palette size %r is not a nonnegative integer" % (k,))
    pinned = dict(pinned or {})
    for v, c in pinned.items():
        if not (type(v) is int and 0 <= v < g.n):
            raise ValueError("pinned vertex %r outside graph" % (v,))
        if not (_is_color(c) and c <= k):
            raise ValueError("pinned color %r outside 1..%d" % (c, k))
    return _search(g, k, {v: 1 << (c - 1) for v, c in pinned.items()},
                   deadline)[0]


def _greedy_independent(rows) -> int:
    """Size of an independent set of the graph with adjacency bitmask rows,
    picked greedily by least degree among the vertices still free; the
    first free vertex of degree <= 1 is taken at once, as no pick beats
    it."""
    avail = (1 << len(rows)) - 1
    size = 0
    while avail:
        best, bd = -1, len(rows)
        m = avail
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            d = (rows[v] & avail).bit_count()
            if d < bd:
                best, bd = v, d
                if d <= 1:
                    break
        avail &= ~(rows[best] | 1 << best)
        size += 1
    return size


class _PowerSums:
    """The rows of G^c for one graph, built once per c, and the two
    questions the walk asks of them.  closes(k) is the power bound's
    incremental test: it answers whether sum_{c=1..k-1} alpha(G^c) < n,
    which rules out every packing (k-1)-coloring (see packing_lower_bound).
    layered(first, cap) is its upper-side companion, a packing coloring
    built from independent sets of the same powers.

    In closes, each term is rho_c = alpha(G^c).  rho_1 is alpha(G), passed
    in when the caller has it.  From the largest finite distance t on,
    rho_c is the number of components.  Below t row v of G^c is the ball of
    radius c around v, or v's last ball when its largest distance is
    smaller; a greedy independent set gives a lower bound on rho_c, and the
    exact alpha runs only while the sum of the lower bounds is still below
    n.  Every value is kept, so later questions about smaller palettes cost
    only the sum.
    deadline is passed on to every exact alpha.
    """

    def __init__(self, g: Graph, alpha, deadline):
        self.g = g
        self.balls = all_pairs_distances(g).balls
        self.top = max(map(len, self.balls)) - 1
        self.exact = {} if alpha is None else {1: alpha}
        self.lower = {}
        self.rows = {}
        self.components = None
        self.deadline = deadline

    def _power(self, c):
        """Adjacency rows of G^c."""
        rows = self.rows.get(c)
        if rows is None:
            rows = self.rows[c] = [ball[min(c, len(ball) - 1)]
                                   for ball in self.balls]
        return rows

    def closes(self, k) -> bool:
        n = self.g.n
        total = 0
        guessed = []
        for c in range(1, k):
            if c >= self.top:
                if self.components is None:
                    self.components = len({ball[-1] | 1 << v
                                           for v, ball in enumerate(self.balls)})
                total += self.components * (k - c)
                break
            rho = self.exact.get(c)
            if rho is None:
                rho = self.lower.get(c)
                if rho is None:
                    rho = self.lower[c] = _greedy_independent(self._power(c))
                guessed.append(c)
            total += rho
        for c in guessed:
            if total >= n:
                return False
            rho = self.exact[c] = max_independent_set(
                self._power(c), None, self.deadline)[0]
            total += rho - self.lower[c]
        return total < n

    def layered(self, first, cap):
        """A packing coloring with fewer than cap colors, or None when the
        layering reaches cap first.

        first, a vertex mask of an independent set of G, takes color 1.
        Color c = 2, 3, ... then takes a maximum independent set of G^c
        among the vertices no smaller color took: its members are pairwise
        more than c apart, so every class is a packing class.  From the
        largest finite distance t on, each remaining vertex gets its own
        color (G^c is complete on a connected graph there).  The layering
        stops as soon as c reaches cap.

        Every color c >= 2 takes at least one of the vertices left, so with
        first a maximum independent set the palette is at most
        n - alpha + 1, with equality only when every class past color 1 is
        a single vertex, which is the case at diameter <= 2; with cap
        n + 1 it never returns None.  deadline is passed on to every alpha.
        """
        colors = [0] * self.g.n
        left = (1 << self.g.n) - 1
        c = 0
        while left:
            c += 1
            if c >= cap:
                return None
            if c == 1:
                take = first
            elif c >= self.top:
                # one color per remaining vertex, lowest id first
                take = left & -left
            else:
                take = max_independent_set(self._power(c), left,
                                           self.deadline)[1]
            left &= ~take
            while take:
                bit = take & -take
                take ^= bit
                colors[bit.bit_length() - 1] = c
        return tuple(colors)


def packing_lower_bound(g: Graph, deadline=None) -> int:
    """A search-free lower bound on chi-rho: the least k with
    sum_{c=1..k} alpha(G^c) >= n, where G^c joins the vertices at
    distance 1..c; 0 for K0.

    Color class c of a packing coloring is a set of vertices pairwise more
    than c apart, an independent set of G^c, so a packing k-coloring covers
    at most sum_{c=1..k} alpha(G^c) vertices.  Once c reaches the largest
    finite distance of g, each component is a clique of G^c, so alpha(G^c)
    is the number of components; the bound counts that, not one vertex per
    color, and so holds for disconnected graphs such as G - v or a bridge
    deletion.  At diameter <= 2 it is the closed form n - alpha + 1
    (Goddard et al. 2008).  deadline is passed on to every independence
    number.
    """
    if g.n == 0:
        return 0
    sums = _PowerSums(g, None, deadline)
    k = 1
    while sums.closes(k + 1):
        k += 1
    return k


def neighborhood_lower_bound(g: Graph, deadline=None) -> int:
    """A search-free lower bound on chi-rho: 0 for K0, 1 for an edgeless
    graph, else the largest of 2 and |N[v]| - alpha(G[N(v)]) + 1 over v.

    Any two vertices of a closed neighbourhood N[v] are at distance at most
    2.  In a packing coloring the vertices of N[v] colored 1 are therefore
    independent, and every color c >= 2 appears at most once in N[v] (two
    such vertices would sit at distance <= 2 <= c).  A k-coloring thus
    covers at most alpha(G[N[v]]) + k - 1 vertices of N[v], and
    alpha(G[N[v]]) = alpha(G[N(v)]) when v has a neighbour, so
    k >= |N[v]| - alpha(G[N(v)]) + 1.  N[v] lies inside one component with
    the distances of g, so the bound holds for disconnected graphs too.
    Since alpha(G[N(v)]) >= 1, a term never exceeds |N[v]|, so vertices
    are scanned by decreasing degree and the scan stops once |N[v]| cannot
    beat the running maximum; a vertex whose N(v) is independent (its term
    is 2) is skipped without computing alpha.  deadline is passed on to
    independence_number.
    """
    rows = g.rows
    if not any(rows):
        return min(g.n, 1)
    best = 2
    for v in sorted(range(g.n), key=lambda v: -rows[v].bit_count()):
        nbhd = rows[v]
        if nbhd.bit_count() + 1 <= best:
            break
        if not any(rows[u] & nbhd for u in g.neighbors(v)):
            continue
        alpha = max_independent_set(rows, nbhd, deadline)[0]
        best = max(best, nbhd.bit_count() + 2 - alpha)
    return best


def _component_value(g: Graph, start, deadline):
    """Chi-rho of a connected (or empty) graph: (value, colors, nodes),
    walking down from start, or from the layered coloring
    (_PowerSums.layered) when start is None, to the first infeasible
    palette or to the first palette that the power bound or
    neighborhood_lower_bound closes.  With a start, where neither bound
    closes its palette, the layered coloring is tried once before any
    search, and replaces the start when it uses fewer colors; the bounds
    are then asked again."""
    if g.n == 0:
        return 0, (), 0
    alpha, first = max_independent_set(g.rows, None, deadline)
    sums = _PowerSums(g, alpha, deadline)
    colors = sums.layered(first, g.n + 1) if start is None else start
    k = max(colors)
    floor = None
    nodes = 0
    while not sums.closes(k):
        if floor is None:
            floor = neighborhood_lower_bound(g, deadline)
            if k > floor and start is not None:
                layered = sums.layered(first, k)
                if layered is not None:
                    colors, k = layered, max(layered)
                    continue
        if k <= floor:
            break
        # the coloring in hand guides the search one palette down
        found, extra = _search(g, k - 1, {}, deadline, colors)
        nodes += extra
        if found is None:
            break
        colors, k = found, k - 1
    return k, colors, nodes


def packing_chromatic_number(g: Graph, start=None, deadline=None) -> ChiRhoResult:
    """Exact packing chromatic number with an optimal witness coloring.

    start, when given, is a packing coloring of g, one color per vertex;
    each component's walk begins below the palette of its part of start,
    or of the layered coloring when that uses fewer colors and no bound
    closes the start's palette.  A start that is not a packing coloring of
    g, one with a color that is not an int >= 1 included, raises
    ValueError.
    """
    if start is not None:
        start = _color_tuple(start)
        if not is_valid_packing_coloring(g, start):
            raise ValueError("start is not a packing coloring of the graph")
    comps = connected_components(g)
    if len(comps) <= 1:
        value, colors, nodes = _component_value(g, start, deadline)
        return ChiRhoResult(value, PackingColoring(colors), nodes)
    # color classes never interact across components, so take the max and
    # put each component's witness back on the original vertex ids
    value = total_nodes = 0
    colors = [0] * g.n
    for comp in comps:
        sub, kept = induced_subgraph(g, comp)
        sub_start = None if start is None else tuple(start[v] for v in kept)
        v, sub_colors, nodes = _component_value(sub, sub_start, deadline)
        total_nodes += nodes
        value = max(value, v)
        for i, c in enumerate(sub_colors):
            colors[kept[i]] = c
    return ChiRhoResult(value, PackingColoring(tuple(colors)), total_nodes)


def brute_force_chi_rho(g: Graph) -> int:
    """Independent small-graph oracle: plain exhaustive search, n <= 8 only.

    Shares no code with the main solver on purpose; distances come from
    Floyd-Warshall here rather than BFS.
    """
    n = g.n
    if n > 8:
        raise ValueError("instance too large for the brute force oracle")
    if n == 0:
        return 0
    big = n + 1
    dist = [[0 if i == j else (1 if g.has_edge(i, j) else big) for j in range(n)]
            for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][m] + dist[m][j] < dist[i][j]:
                    dist[i][j] = dist[i][m] + dist[m][j]

    best = n  # distinct colors 1..n always work
    colors = [0] * n

    def extend(v: int, used_max: int):
        nonlocal best
        if used_max >= best:
            return
        if v == n:
            best = used_max
            return
        for c in range(1, best):
            good = True
            for u in range(v):
                if colors[u] == c and dist[u][v] <= c:
                    good = False
                    break
            if good:
                colors[v] = c
                extend(v + 1, max(used_max, c))
        colors[v] = 0

    extend(0, 0)
    return best
