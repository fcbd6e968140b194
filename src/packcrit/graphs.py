"""Immutable simple graphs on bitmask adjacency rows, with exact metric and
structure computations (distances, independence number, block decomposition).

Vertices are always 0..n-1.  Distances between vertices in different
components are INFINITY, which compares greater than any finite value, so
distance constraints of the form d > k are vacuously satisfied across
components.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

INFINITY = float("inf")


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class SolveTimeout(Exception):
    """Deadline expired before the search finished."""


def _members(mask):
    """The vertices of a bitmask in increasing order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


class Graph:
    """Simple undirected graph; rows[v] is the neighbor set of v as a bitmask."""

    __slots__ = ("n", "rows", "_edges", "_dist")

    def __init__(self, n: int, rows):
        rows = tuple(rows)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(rows) != n:
            raise GraphError("expected %d adjacency rows, got %d" % (n, len(rows)))
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise GraphError("row %d mentions vertices outside 0..%d" % (v, n - 1))
            if (row >> v) & 1:
                raise GraphError("self-loop at vertex %d" % v)
        for v, row in enumerate(rows):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                if not (rows[u] >> v) & 1:
                    raise GraphError("asymmetric adjacency between %d and %d" % (v, u))
                m &= m - 1
        self.n = n
        self.rows = rows
        self._edges = None
        self._dist = None

    @classmethod
    def _trusted(cls, n: int, rows: tuple) -> "Graph":
        """A graph on rows already known to be valid, without the checks;
        for graphs derived from a valid Graph or valid by construction."""
        g = object.__new__(cls)
        g.n = n
        g.rows = rows
        g._edges = None
        g._dist = None
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("edge (%d,%d) outside vertex range" % (u, v))
            if u == v:
                raise GraphError("self-loop at vertex %d" % u)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int):
        """Neighbors of v in increasing order."""
        return _members(self.rows[v])

    @property
    def edges(self):
        """All edges as (u, v) with u < v, lexicographically sorted."""
        if self._edges is None:
            es = []
            for u in range(self.n):
                m = self.rows[u] >> (u + 1) << (u + 1)
                while m:
                    es.append((u, (m & -m).bit_length() - 1))
                    m &= m - 1
            self._edges = tuple(es)
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self):
        return tuple(sorted((self.degree(v) for v in range(self.n)), reverse=True))

    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("min degree of the empty graph is undefined")
        return min(self.degree(v) for v in range(self.n))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return "Graph(n=%d, edges=%r)" % (self.n, list(self.edges))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest path distances held as BFS balls.

    balls[v][c] is the set of vertices at distance 1..c from v as a
    bitmask, for c = 0 up to v's largest finite distance, so balls[v][0] is
    0 and len(balls[v]) - 1 is that distance.  Vertices of other components
    lie in no ball of v; their distance from v is INFINITY.
    """

    n: int
    balls: tuple

    def distance(self, u: int, v: int):
        ball = self.balls[u]
        if not ball[-1] >> v & 1:
            return 0 if u == v else INFINITY
        return next(c for c, within in enumerate(ball) if within >> v & 1)

    def eccentricity(self, v: int):
        ball = self.balls[v]
        if ball[-1] != ((1 << self.n) - 1) ^ (1 << v):
            return INFINITY
        return len(ball) - 1

    @property
    def diameter(self):
        if self.n == 0:
            return 0
        return max(self.eccentricity(v) for v in range(self.n))

    @property
    def radius(self):
        if self.n == 0:
            return 0
        return min(self.eccentricity(v) for v in range(self.n))


@dataclass(frozen=True)
class MetricSummary:
    diameter: object
    radius: object
    center: frozenset
    eccentricities: tuple


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex, keeping the ball reached after each level;
    cached on the graph object."""
    if g._dist is not None:
        return g._dist
    rows = g.rows
    balls = []
    for s in range(g.n):
        seen = frontier = 1 << s
        ball = [0]
        while True:
            nxt = 0
            m = frontier
            while m:
                nxt |= rows[(m & -m).bit_length() - 1]
                m &= m - 1
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            ball.append(ball[-1] | frontier)
        balls.append(tuple(ball))
    dm = DistanceMatrix(g.n, tuple(balls))
    g._dist = dm
    return dm


def metric_summary(g: Graph) -> MetricSummary:
    """Diameter, radius, center and per-vertex eccentricities.

    For disconnected graphs every eccentricity is INFINITY and the center
    (defined over finite eccentricities) is empty.
    """
    dm = all_pairs_distances(g)
    eccs = tuple(dm.eccentricity(v) for v in range(g.n))
    finite = [e for e in eccs if e != INFINITY]
    if g.n == 0:
        return MetricSummary(0, 0, frozenset(), ())
    diameter = max(eccs)
    radius = min(eccs)
    if not finite:
        center = frozenset()
    else:
        rad = min(finite)
        center = frozenset(v for v in range(g.n) if eccs[v] == rad)
    return MetricSummary(diameter, radius, center, eccs)


def _reach(rows, seed, avail):
    """The vertices of the mask avail reachable from the vertices of the
    mask seed by paths inside avail, as a mask (seed lies inside avail)."""
    comp = frontier = seed
    while frontier:
        grow = 0
        m = frontier
        while m:
            grow |= rows[(m & -m).bit_length() - 1]
            m &= m - 1
        frontier = grow & avail & ~comp
        comp |= frontier
    return comp


def connected_components(g: Graph):
    """Vertex lists of the components, each sorted, ordered by smallest member."""
    left = (1 << g.n) - 1
    comps = []
    while left:
        comp = _reach(g.rows, left & -left, left)
        left ^= comp
        comps.append(_members(comp))
    return comps


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return g.n <= 1 or _reach(g.rows, 1, full) == full


def _check_vertex(g: Graph, v):
    if not 0 <= v < g.n:
        raise GraphError("vertex %r outside graph" % (v,))


def delete_edge(g: Graph, e) -> Graph:
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise GraphError("edge (%r,%r) not present" % (u, v))
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph._trusted(g.n, tuple(rows))


def induced_subgraph(g: Graph, vertices):
    """Subgraph induced on `vertices`, renumbered 0..k-1 in sorted order.

    Returns (subgraph, kept) where kept[new_id] = original id.
    """
    kept = tuple(sorted(set(vertices)))
    for v in kept:
        _check_vertex(g, v)
    index = {old: new for new, old in enumerate(kept)}
    rows = [0] * len(kept)
    for new, old in enumerate(kept):
        m = g.rows[old]
        while m:
            u = (m & -m).bit_length() - 1
            if u in index:
                rows[new] |= 1 << index[u]
            m &= m - 1
    return Graph._trusted(len(kept), tuple(rows)), kept


def delete_vertex(g: Graph, v: int):
    """Delete v, compacting ids above it down by one.

    Returns (graph, kept) with kept[new_id] = original id.
    """
    _check_vertex(g, v)
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph(g.n + h.n, rows)


def is_leaf(g: Graph, v: int) -> bool:
    _check_vertex(g, v)
    return g.degree(v) == 1


def support_vertices(g: Graph):
    """Vertices adjacent to at least one leaf."""
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    out = set()
    for v in leaves:
        out.add(g.neighbors(v)[0])
    return frozenset(out)


def is_simplicial(g: Graph, v: int) -> bool:
    """True when the neighborhood of v induces a clique."""
    _check_vertex(g, v)
    nb = g.rows[v]
    return all((g.rows[u] | 1 << u) & nb == nb for u in _members(nb))


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


def independence_number(g: Graph, deadline=None):
    """Exact maximum independent set.  Returns (alpha, witness frozenset).

    See max_independent_set, which this runs over all of g's vertices.
    """
    best, best_mask = max_independent_set(g.rows, None, deadline)
    return best, frozenset(_members(best_mask))


def max_independent_set(rows, avail=None, deadline=None):
    """Exact maximum independent set of the graph with adjacency bitmask
    rows, restricted to the vertices in the mask avail (every vertex when
    None), without building a subgraph.  Returns (alpha, witness mask).

    Vertices of degree at most one always belong to some maximum independent
    set, so they are taken greedily before branching; forests therefore never
    branch at all.  What remains splits by connected component and branches
    on a highest-degree vertex, memoized per candidate set.  deadline, a
    time.monotonic() value, is polled at each branch and raises SolveTimeout
    once it has passed.
    """
    if avail is None:
        avail = (1 << len(rows)) - 1
    memo: dict = {}

    def solve(avail: int):
        orig = avail
        entry = memo.get(orig)
        if entry is not None:
            return entry
        size = 0
        chosen = 0
        # take every vertex with at most one live neighbor
        changed = True
        while changed:
            changed = False
            m = avail
            while m:
                bit = m & -m
                m &= m - 1
                if not avail & bit:
                    continue
                v = bit.bit_length() - 1
                nb = rows[v] & avail
                if nb.bit_count() <= 1:
                    size += 1
                    chosen |= bit
                    avail &= ~(nb | bit)
                    changed = True
        if avail == 0:
            memo[orig] = (size, chosen)
            return size, chosen
        # split what is left into connected pieces
        m = avail
        pieces = []
        while m:
            comp = _reach(rows, m & -m, avail)
            pieces.append(comp)
            m ^= comp
        if len(pieces) > 1:
            for comp in pieces:
                s, c = solve(comp)
                size += s
                chosen |= c
            memo[orig] = (size, chosen)
            return size, chosen
        # branch on a highest-degree vertex: in or out
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout("independence number search timed out")
        bv = -1
        bd = -1
        m = avail
        while m:
            bit = m & -m
            m &= m - 1
            v = bit.bit_length() - 1
            d = (rows[v] & avail).bit_count()
            if d > bd:
                bd = d
                bv = v
        take_s, take_c = solve(avail & ~(rows[bv] | (1 << bv)))
        skip_s, skip_c = solve(avail & ~(1 << bv))
        if take_s + 1 >= skip_s:
            result = (size + take_s + 1, chosen | take_c | (1 << bv))
        else:
            result = (size + skip_s, chosen | skip_c)
        memo[orig] = result
        return result

    return solve(avail)


def exists_alpha_set_avoiding(g: Graph, forbidden) -> bool:
    """True iff some maximum independent set of g avoids every forbidden vertex."""
    avail = (1 << g.n) - 1
    for v in set(forbidden):
        _check_vertex(g, v)
        avail &= ~(1 << v)
    return (max_independent_set(g.rows, avail)[0]
            == max_independent_set(g.rows)[0])


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs / bridges), cut vertices, and the
    roles blocks play when the graph is a block graph of diameter 3."""

    blocks: tuple
    cut_vertices: frozenset
    is_block_graph: bool
    central_block: object
    side_blocks: tuple


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan block decomposition.  Requires a connected graph.

    One depth-first search from vertex 0 over the adjacency rows.  A frame
    holds a vertex and the mask of its neighbours not yet scanned, less the
    parent's bit (a simple graph has one edge back to the parent).  When a
    child v of p finishes with low[v] >= disc[p], the vertices entered since
    v, v included, form one block together with p.  The cut vertices are the
    vertices in two or more blocks, and a block m is a clique iff every
    member x has (rows[x] | 1 << x) & m == m.
    """
    n = g.n
    rows = g.rows
    disc = [0] * n
    low = [0] * n
    timer = 1
    masks = []
    if n:
        disc[0] = low[0] = timer
        entered = [0]
        stack = [[0, rows[0]]]
        while stack:
            frame = stack[-1]
            v, todo = frame
            if todo:
                bit = todo & -todo
                frame[1] = todo ^ bit
                u = bit.bit_length() - 1
                if not disc[u]:
                    timer += 1
                    disc[u] = low[u] = timer
                    entered.append(u)
                    stack.append([u, rows[u] & ~(1 << v)])
                elif disc[u] < low[v]:
                    low[v] = disc[u]
                continue
            stack.pop()
            if not stack:
                break
            p = stack[-1][0]
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                # p separates: the vertices entered since v, and p, are one block
                m = 1 << p
                while True:
                    w = entered.pop()
                    m |= 1 << w
                    if w == v:
                        break
                masks.append(m)
    if timer < n or n == 0:
        raise GraphError("block decomposition requires a connected nonempty graph")
    if n == 1:
        masks.append(1)
    seen = cuts = 0
    for m in masks:
        cuts |= seen & m
        seen |= m
    block_graph = all((rows[x] | 1 << x) & m == m
                      for m in masks for x in _members(m))
    blocks = tuple(sorted((frozenset(_members(m)) for m in masks), key=sorted))

    central = None
    side = ()
    if block_graph:
        ms = metric_summary(g)
        if ms.diameter == 3:
            for i, b in enumerate(blocks):
                if b == ms.center:
                    central = i
                    break
            if central is not None:
                side = tuple(i for i in range(len(blocks)) if i != central)
    return BlockDecomposition(blocks, frozenset(_members(cuts)), block_graph,
                              central, side)
