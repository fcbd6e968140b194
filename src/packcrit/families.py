"""Deterministic constructions of the named graphs and graph families used by
the verification suite, plus exact enumerators for trees, caterpillars and
the two shapes of small-diameter block graphs.

Vertex numbering is fixed per generator (cliques first, then attachments in
owner order) so labels and tests stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, GraphError, is_tree


@dataclass(frozen=True)
class LabeledGraph:
    """A graph plus named distinguished vertices/edges."""

    graph: Graph
    labels: dict = field(default_factory=dict)


def gen_basic(kind: str, n: int) -> LabeledGraph:
    """Standard small families: path, cycle, complete, star (n = leaf count)."""
    if kind == "path":
        if n < 1:
            raise ValueError("path needs n >= 1")
        return LabeledGraph(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)]
        return LabeledGraph(Graph.from_edges(n, edges))
    if kind == "complete":
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return LabeledGraph(Graph.from_edges(n, combinations(range(n), 2)))
    if kind == "star":
        if n < 1:
            raise ValueError("star needs at least one leaf")
        return LabeledGraph(_hang_leaves((), [n]), {"hub": 0})
    raise ValueError("unknown kind %r" % (kind,))


def _hang_leaves(edges, leaf_counts, labels=None) -> Graph:
    """The graph on core vertices 0..len(leaf_counts)-1 with the given edges
    plus leaf_counts[v] pendant leaves on each core vertex v, numbered after
    the core in owner order.  With labels, leaf j of v is recorded there as
    "leaf[v][j]".  ValueError unless every count is an int >= 0.
    """
    edges = list(edges)
    nxt = len(leaf_counts)
    for v, count in enumerate(leaf_counts):
        if type(count) is not int or count < 0:
            raise ValueError("leaf counts must be nonnegative ints, got %r"
                             % (count,))
        for j in range(count):
            edges.append((v, nxt))
            if labels is not None:
                labels["leaf[%d][%d]" % (v, j)] = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def gen_sharpness_family(n: int) -> LabeledGraph:
    """Two n-cliques joined by a bridge, 2n-2 leaves per non-bridge clique
    vertex.  The value halves (2n-1 down to n) when the bridge goes.

    This is gen_realization(2n-1, n) with its edge "e" named "bridge":
    clique A = 0..n-1 with a = 0, clique B = n..2n-1 with b = n, then
    leaves grouped by owner (A side first).
    """
    if n < 2:
        raise ValueError("sharpness family needs n >= 2")
    lg = gen_realization(2 * n - 1, n)
    return LabeledGraph(lg.graph, {"a": 0, "b": n, "bridge": lg.labels["e"]})


def gen_realization(k: int, n: int) -> LabeledGraph:
    """A graph whose value is k and drops to exactly n when edge "e" goes.

    Needs k >= 3 and ceil((k+1)/2) <= n <= k: the full reachable range of
    single-edge drops.  n = k is a clique with one pendant leaf; smaller n
    joins an n-clique to a (k+1-n)-clique by a bridge and hangs k-1 leaves
    on every non-bridge clique vertex.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if not (k + 2) // 2 <= n <= k:
        raise ValueError("n must lie in [ceil((k+1)/2), k]")
    if n == k:
        edges = [*combinations(range(k), 2), (0, k)]
        return LabeledGraph(Graph.from_edges(k + 1, edges), {"e": (0, k)})
    edges = [*combinations(range(n), 2), *combinations(range(n, k + 1), 2),
             (0, n)]
    leaves = [0] + [k - 1] * (n - 1) + [0] + [k - 1] * (k - n)
    return LabeledGraph(_hang_leaves(edges, leaves),
                        {"a": 0, "b": n, "e": (0, n)})


def gen_leafy_unicyclic(cycle_len: int, leaf_counts) -> LabeledGraph:
    """One cycle with leaf_counts[i] pendant leaves on cycle vertex i."""
    leaf_counts = list(leaf_counts)
    if cycle_len < 3:
        raise ValueError("cycle length must be at least 3")
    if len(leaf_counts) != cycle_len:
        raise ValueError("need one leaf count per cycle vertex")
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    labels = {"cycle[%d]" % i: i for i in range(cycle_len)}
    return LabeledGraph(_hang_leaves(edges, leaf_counts, labels), labels)


def caterpillar_from_profile(leaf_counts) -> LabeledGraph:
    """Build the caterpillar with the given leaf count at each spine position.

    Spine vertices come first (0..L-1 along the path), then leaves in spine
    order.  Labels record the spine and each leaf slot.
    """
    counts = list(leaf_counts)
    if not counts:
        raise ValueError("need at least one spine position")
    edges = [(i, i + 1) for i in range(len(counts) - 1)]
    labels = {"spine[%d]" % i: i for i in range(len(counts))}
    return LabeledGraph(_hang_leaves(edges, counts, labels), labels)


def gen_net() -> LabeledGraph:
    """Triangle with one pendant leaf on each vertex."""
    return gen_leafy_unicyclic(3, [1, 1, 1])


def gen_decorated_c4() -> LabeledGraph:
    """Four-cycle with one pendant leaf on each of two adjacent vertices."""
    return gen_leafy_unicyclic(4, [1, 1, 0, 0])


def gen_decorated_c8() -> LabeledGraph:
    """Eight-cycle with one pendant leaf on each of two vertices at distance
    three; drops under every vertex deletion but not under every edge
    deletion."""
    return gen_leafy_unicyclic(8, [1, 0, 0, 1, 0, 0, 0, 0])


def caterpillar_profiles(rows):
    """(leaf_counts, spine, leaves) of every component of the graph with
    adjacency rows, in its own vertex ids, ordered by the smaller end of
    each spine; ValueError unless every component is a caterpillar.

    The interior vertices are those of degree at least two.  A spine is
    walked from each unseen end (an interior vertex with at most one
    interior neighbor, or a vertex of degree at most one whose neighbor is
    not interior), and each spine vertex takes its other neighbors as
    leaves.  A walked vertex with three interior neighbors is a branch, and
    an interior vertex no walk reaches lies on a cycle, which has no end.
    """
    inner = 0
    for v, row in enumerate(rows):
        if row & (row - 1):
            inner |= 1 << v
    seen = 0
    out = []
    for v, row in enumerate(rows):
        link = row & inner
        if seen >> v & 1 or link and (link & (link - 1) or not inner >> v & 1):
            continue
        spine, leaves = [], []
        cur = v
        seen |= 1 << v
        while True:
            link = row & inner
            if link.bit_count() > 2:
                raise ValueError("graph is not a caterpillar forest")
            spine.append(cur)
            m = row & ~inner
            seen |= m
            hung = []
            while m:
                hung.append((m & -m).bit_length() - 1)
                m &= m - 1
            leaves.append(tuple(hung))
            nxt = link & ~seen
            if not nxt:
                break
            seen |= nxt
            cur = nxt.bit_length() - 1
            row = rows[cur]
        out.append((tuple(map(len, leaves)), tuple(spine), tuple(leaves)))
    if inner & ~seen:
        raise ValueError("graph is not a caterpillar forest")
    return out


def caterpillar_profile(g: Graph):
    """Decompose a connected caterpillar into spine order and leaf lists.

    Returns (leaf_counts, spine, leaves) where spine is a tuple of vertex
    ids in path order, leaves[i] lists the pendant neighbors of spine[i],
    and leaf_counts[i] == len(leaves[i]).  Raises ValueError when g is not
    a connected caterpillar.  Orientation is fixed by smallest endpoint so
    repeated calls agree.
    """
    profiles = caterpillar_profiles(g.rows)
    if len(profiles) != 1:
        raise ValueError("graph is not a connected caterpillar")
    return profiles[0]


def is_caterpillar(g: Graph) -> bool:
    """Tree whose non-leaf vertices form a path."""
    try:
        caterpillar_profile(g)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# tree enumeration: rooted level sequences, reduced to one representative per
# free-tree isomorphism class via center-rooted subtree codes


def _rooted_level_sequences(n: int):
    # successor walk over level sequences, reverse lexicographic
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = None
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p is None:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _tree_from_levels(levels) -> Graph:
    n = len(levels)
    edges = []
    for i in range(1, n):
        parent = i - 1
        while levels[parent] != levels[i] - 1:
            parent -= 1
        edges.append((parent, i))
    return Graph.from_edges(n, edges)


def _subtree_code(g: Graph, v: int, parent: int) -> str:
    parts = sorted(_subtree_code(g, u, v) for u in g.neighbors(v) if u != parent)
    return "(" + "".join(parts) + ")"


def tree_canonical_code(g: Graph):
    """Isomorphism-invariant code for a tree, rooted at its center."""
    if not is_tree(g):
        raise GraphError("canonical tree code requires a tree")
    if g.n == 1:
        return ("1", "()")
    # find the one or two centers by repeated leaf stripping
    degrees = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    layer = [v for v in alive if degrees[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in g.neighbors(v):
                if u in alive:
                    degrees[u] -= 1
                    if degrees[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = sorted(alive)
    if len(centers) == 1:
        return ("1", _subtree_code(g, centers[0], -1))
    c1, c2 = centers
    halves = sorted([_subtree_code(g, c1, c2), _subtree_code(g, c2, c1)])
    return ("2", halves[0], halves[1])


def enumerate_trees(n: int):
    """All trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 13:
        raise ValueError("tree enumeration capped at 13 vertices")
    if n == 1:
        yield Graph.empty(1)
        return
    seen = set()
    for levels in _rooted_level_sequences(n):
        t = _tree_from_levels(levels)
        code = tree_canonical_code(t)
        if code not in seen:
            seen.add(code)
            yield t


def enumerate_caterpillars(n: int):
    """All caterpillars on n vertices, one per isomorphism class.

    Built as a spine path with a pendant-leaf count per spine vertex; the
    same caterpillar arises from several spine choices, so results are
    reduced by the tree code.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 16:
        raise ValueError("caterpillar enumeration capped at 16 vertices")
    if n == 1:
        yield Graph.empty(1)
        return
    seen = set()

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    for spine in range(1, n + 1):
        path = [(i, i + 1) for i in range(spine - 1)]
        for counts in compositions(n - spine, spine):
            t = _hang_leaves(path, counts)
            code = tree_canonical_code(t)
            if code not in seen:
                seen.add(code)
                yield t


# ---------------------------------------------------------------------------
# small-diameter block graphs, enumerated by shape parameters


def _side_multisets(budget: int):
    """Sorted tuples of block orders (each >= 2) costing sum(t-1) <= budget,
    in depth-first order from ()."""
    out = [()]
    def rec(prefix, minimum, left):
        for t in range(minimum, left + 2):
            nxt = prefix + (t,)
            out.append(nxt)
            rec(nxt, t, left - (t - 1))
    rec((), 2, budget)
    return out


def enumerate_block_graphs_diam2(max_n: int):
    """Every diameter-2 block graph with at most max_n vertices, once per
    isomorphism class: a hub vertex shared by at least two complete blocks."""
    if max_n < 3:
        return
    for orders in _side_multisets(max_n - 1):
        if len(orders) < 2:
            continue
        edges = []
        nxt = 1
        for t in orders:
            edges.extend(combinations([0, *range(nxt, nxt + t - 1)], 2))
            nxt += t - 1
        yield LabeledGraph(Graph.from_edges(nxt, edges), {"hub": 0})


def enumerate_block_graphs_diam3(max_n: int):
    """Every diameter-3 block graph with at most max_n vertices, once per
    isomorphism class.

    Shape parameters: central clique size b >= 2 and, per central vertex, a
    multiset of side-block orders.  Diameter exactly 3 needs side blocks on
    at least two central vertices.  Listing the per-vertex multisets in
    sorted order makes the parameterization injective up to isomorphism.
    """
    if max_n < 4:
        return
    for b in range(2, max_n + 1):
        budget = max_n - b
        choices = _side_multisets(budget)

        def assign(idx, remaining, prev):
            if idx == b:
                yield ()
                return
            for ms in choices:
                if ms < prev:
                    continue
                cost = sum(t - 1 for t in ms)
                if cost > remaining:
                    continue
                for rest in assign(idx + 1, remaining - cost, ms):
                    yield (ms,) + rest

        for combo in assign(0, budget, ()):
            if sum(1 for ms in combo if ms) < 2:
                continue
            edges = list(combinations(range(b), 2))
            nxt = b
            labels = {"central[%d]" % i: i for i in range(b)}
            for i, ms in enumerate(combo):
                for t in ms:
                    edges.extend(combinations([i, *range(nxt, nxt + t - 1)], 2))
                    nxt += t - 1
            yield LabeledGraph(Graph.from_edges(nxt, edges), labels)
