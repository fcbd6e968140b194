"""Criticality analysis: how the packing chromatic number reacts to deleting
single edges or vertices.

A graph counts as deletion-critical when every proper subgraph colors with a
strictly smaller palette.  For edge-criticality that reduces to: the graph is
a single vertex, or it has no isolated vertex and every edge deletion drops
the value (a graph with an isolated vertex plus anything else can shed that
vertex without changing the value, so it is never critical).

Both routes walk one generator of deletions and apply that rule once.  The
generator yields one deletion per twin orbit of G.  Twins, two vertices u
and v with N(u) - {v} = N(v) - {u} (solver._twin_groups), can be swapped by
an automorphism of G, and so can any product of such swaps inside twin
groups.  All edges between the same two groups (or inside one group)
therefore lie in one orbit, as do all vertices of one group, and their
deletions are isomorphic: they share the value and the verdict, and a
witness moves with the automorphism sigma as c'[sigma(v)] = c[v].  The value
sweep (criticality_report, edge_drop_profile) starts each orbit's exact G-e
or G-v walk from G's optimal witness restricted to the remaining vertices, a
valid coloring since a deletion is a subgraph.  The early-exit verdicts make
one decision at chi(G) - 1 per orbit, hinted by that restricted witness and
with no search-free bound before it, up to the first that does not drop, in
fail-first order: the deletions that remove the fewest adjacencies, least
likely to lower the value, go first.

Deleting one edge can at most halve the value, in the precise sense
chi(G) <= 2*chi(G-e) - 1, except in the degenerate situation where G-e is
edgeless and chi(G-e) = 1 (then chi(G) = 2 is possible).  The floor below and
the constructive repair both carry that exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    INFINITY,
    Graph,
    all_pairs_distances,
    delete_edge,
    delete_vertex,
    metric_summary,
)
from .solver import (
    ChiRhoResult,
    PackingColoring,
    _color_tuple,
    _search,
    _twin_groups,
    is_valid_packing_coloring,
    packing_chromatic_number,
)


class EdgeBoundViolation(RuntimeError):
    """A computed edge-deletion value broke a proven bound: solver defect."""


class RepairError(ValueError):
    """Coloring repair received invalid input or could not proceed."""


def edge_deletion_lower_bound(chi: int) -> int:
    """Largest guaranteed floor for chi(G-e) given chi(G) = chi.

    ceil((chi+1)/2) in general; the chi = 2 case drops to 1 because deleting
    the only edge of K2 leaves an edgeless graph.
    """
    if chi <= 1:
        return 0
    if chi == 2:
        return 1
    return (chi + 2) // 2


@dataclass(frozen=True)
class CriticalityReport:
    chi_rho: int
    edge_values: dict
    vertex_values: dict
    is_edge_critical: bool
    is_vertex_critical: bool
    edge_witnesses: object = None
    vertex_witnesses: object = None
    solves: int = 0
    nodes: int = 0


def _carrier(n: int, group, rep, key):
    """sigma, sigma[v] the image of v, that carries deletion rep onto key of
    the same orbit (two vertices of one twin group, or two edges between the
    same groups, endpoints paired by group).  It is a product of swaps inside
    twin groups, hence an automorphism of G."""
    if isinstance(rep, int):
        rep, key = (rep,), (key,)
    elif group[key[0]] != group[rep[0]]:
        key = key[::-1]
    sigma = list(range(n))
    where = list(range(n))  # where[y]: the vertex sigma sends to y
    for src, dst in zip(rep, key):
        # follow sigma by the swap of sigma[src] and dst, both in one group
        img, back = sigma[src], where[dst]
        sigma[src], sigma[back] = dst, img
        where[dst], where[img] = src, back
    return sigma


def _deletions(g: Graph, kind: str):
    """One deletion per twin orbit of one kind ("edge" or "vertex") as
    (key, G - key, kept, others): key is the orbit's first member in g.edges
    or vertex order, kept[new_id] is the original vertex id, and others lists
    (other_key, sigma) for the rest of the orbit, sigma an automorphism of G
    carrying key onto other_key.  Orbits come fail-first: by ascending
    degree, edges by (smaller, larger) endpoint degree, ties in g.edges or
    vertex order.  The deletion that removes the fewest adjacencies is the
    one least likely to lower the value, so it is tested first."""
    group = [0] * g.n
    for i, members in enumerate(_twin_groups(g)):
        for v in members:
            group[v] = i
    orbits = {}
    if kind == "edge":
        for u, v in g.edges:
            pair = tuple(sorted((group[u], group[v])))
            orbits.setdefault(pair, []).append((u, v))
    else:
        for v in range(g.n):
            orbits.setdefault(group[v], []).append(v)
    for rep, *others in sorted(orbits.values(), key=lambda orbit: sorted(
            map(g.degree, orbit[0] if kind == "edge" else orbit[:1]))):
        h, kept = ((delete_edge(g, rep), range(g.n)) if kind == "edge"
                   else delete_vertex(g, rep))
        yield rep, h, kept, [(key, _carrier(g.n, group, rep, key))
                             for key in others]


def _is_critical(g: Graph, kind: str, drops) -> bool:
    """The criticality rule: K1 is critical, K0 is not, a graph with an
    isolated vertex is not edge-critical, and otherwise every deletion must
    drop.  drops yields one bool per deletion, consumed only as needed."""
    if g.n <= 1:
        return g.n == 1
    if kind == "edge" and g.min_degree() == 0:
        return False
    return all(drops)


def _solved_deletions(g: Graph, kind: str, witness, deadline):
    """({key: (value, colors)} over every deletion of one kind in g.edges or
    vertex order, number of exact solves, their search nodes).  colors maps
    G's remaining vertex ids to colors.  Each orbit is solved once, starting
    from witness, an optimal coloring of G, restricted through kept; the
    rest of the orbit takes its value and its witness moved by sigma."""
    solved = {}
    solves = nodes = 0
    for key, h, kept, others in _deletions(g, kind):
        res = packing_chromatic_number(h, [witness.colors[v] for v in kept],
                                       deadline)
        solves += 1
        nodes += res.node_count
        colors = dict(zip(kept, res.witness.colors))
        solved[key] = res.value, colors
        for other, sigma in others:
            solved[other] = res.value, dict(sorted(
                (sigma[v], c) for v, c in colors.items()))
    order = g.edges if kind == "edge" else range(g.n)
    return {key: solved[key] for key in order}, solves, nodes


def drop_profile(chi: int, edge_values) -> dict:
    """Map each edge to (chi(G-e), drop) given the deleted values; a value
    outside [edge_deletion_lower_bound(chi), chi] raises EdgeBoundViolation."""
    floor = edge_deletion_lower_bound(chi)
    out = {}
    for e, val in edge_values.items():
        if val > chi:
            raise EdgeBoundViolation(
                "edge %r: deleted value %d exceeds chi %d" % (e, val, chi))
        if val < floor:
            raise EdgeBoundViolation(
                "edge %r: deleted value %d below guaranteed floor %d" % (e, val, floor))
        out[e] = (val, chi - val)
    return out


def criticality_report(g: Graph, include_witnesses: bool = False,
                       deadline=None) -> CriticalityReport:
    """Exact per-edge and per-vertex deleted values plus the two verdicts.

    Vertex witnesses map original vertex ids to colors, skipping the deleted
    vertex; edge witnesses are colorings on the unchanged vertex set.
    solves counts the exact G-e and G-v solves, one per twin orbit, and
    nodes the search nodes of G's solve and of those solves.
    """
    base = packing_chromatic_number(g, deadline=deadline)
    chi = base.value
    edges, edge_solves, edge_nodes = _solved_deletions(
        g, "edge", base.witness, deadline)
    verts, vertex_solves, vertex_nodes = _solved_deletions(
        g, "vertex", base.witness, deadline)
    edge_values = {e: val for e, (val, _) in edges.items()}
    vertex_values = {v: val for v, (val, _) in verts.items()}
    return CriticalityReport(
        chi, edge_values, vertex_values,
        _is_critical(g, "edge", (val < chi for val in edge_values.values())),
        _is_critical(g, "vertex", (val < chi for val in vertex_values.values())),
        {e: PackingColoring.from_mapping(g.n, colors)
         for e, (_, colors) in edges.items()} if include_witnesses else None,
        {v: colors for v, (_, colors) in verts.items()}
        if include_witnesses else None,
        edge_solves + vertex_solves,
        base.node_count + edge_nodes + vertex_nodes)


def _drops(h: Graph, kept, base: ChiRhoResult, deadline) -> bool:
    """chi(h) < chi(G) for a deletion h of G, given base, G's solve, and
    kept[new_id] the original vertex id: one decision at chi(G) - 1 that
    tries G's witness restricted through kept first, with no search-free
    bound before it: most such searches end within 2n nodes, drop or not."""
    return _search(h, base.value - 1, {}, deadline,
                   [base.witness.colors[v] for v in kept])[0] is not None


def _critical_given_chi(g: Graph, kind: str, base: ChiRhoResult,
                        deadline) -> bool:
    """Early-exit verdict for one kind of deletion given base, G's solve:
    one drop test per twin orbit, stopping at the first deletion that does
    not drop."""
    return _is_critical(g, kind, (_drops(h, kept, base, deadline)
                                  for _, h, kept, _ in _deletions(g, kind)))


def is_edge_critical(g: Graph, deadline=None) -> bool:
    """Early-exit edge-criticality: one decision solve per twin
    orbit of edges."""
    base = packing_chromatic_number(g, deadline=deadline)
    return _critical_given_chi(g, "edge", base, deadline)


def is_vertex_critical(g: Graph, deadline=None) -> bool:
    """Early-exit vertex-criticality: one decision solve per twin
    orbit of vertices."""
    base = packing_chromatic_number(g, deadline=deadline)
    return _critical_given_chi(g, "vertex", base, deadline)


def edge_drop_profile(g: Graph, deadline=None):
    """Map each edge to (chi(G-e), drop).  Bound breaches are hard errors."""
    base = packing_chromatic_number(g, deadline=deadline)
    edges = _solved_deletions(g, "edge", base.witness, deadline)[0]
    return drop_profile(base.value, {e: val for e, (val, _) in edges.items()})


def _conflict_pairs(colors, dm, k):
    """Same-color-k pairs sitting at distance <= k."""
    members = [v for v, c in enumerate(colors) if c == k]
    pairs = []
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if dm.distance(x, y) <= k:
                pairs.append((x, y))
    return pairs


def repair_coloring(g: Graph, e, c_prime) -> PackingColoring:
    """Turn a valid coloring of G-e into a valid coloring of G.

    Per broken color class the conflicting pairs always share one common
    vertex (shortest paths between conflicting vertices must all cross the
    restored edge, which forces a star shape); that vertex moves to a fresh
    color.  Fresh colors are handed out compactly above the old palette, and
    classes 1 and 2 never break at once, so at most m-1 fresh colors are
    needed for an m-color input: the result stays within palette 2m-1.  The
    one exception is m = 1 with a conflict (only K2 plus isolated vertices),
    which needs palette 2.
    """
    u1, u2 = e
    if u1 > u2:
        u1, u2 = u2, u1
    h = delete_edge(g, (u1, u2))
    colors = list(_color_tuple(c_prime))
    if len(colors) != g.n:
        raise RepairError("coloring covers %d vertices, graph has %d"
                          % (len(colors), g.n))
    if not is_valid_packing_coloring(h, colors):
        raise RepairError("input coloring is not valid on the edge-deleted graph")

    m = max(colors)
    dm = all_pairs_distances(g)
    fresh = m
    for k in sorted(set(colors)):
        pairs = _conflict_pairs(colors, dm, k)
        if not pairs:
            continue
        common = set(pairs[0])
        for p in pairs[1:]:
            common &= set(p)
        if not common:
            raise RepairError(
                "conflicting pairs for color %d share no common vertex" % k)
        # tie-break: nearest to the lower edge endpoint, then smallest id
        z = min(common, key=lambda w: (dm.distance(w, u1), w))
        fresh += 1
        colors[z] = fresh

    result = PackingColoring(tuple(colors))
    if not is_valid_packing_coloring(g, result):
        raise RepairError("repair produced an invalid coloring")
    cap = 2 if m == 1 else 2 * m - 1
    if result.palette_size > cap:
        raise RepairError("repair exceeded the palette cap %d" % cap)
    return result


def detour_drop_criterion(g: Graph, e, u: int, v: int, deadline=None) -> bool:
    """Sufficient test for a strict drop under deleting e.

    True iff deleting e puts u and v farther apart than the (finite, >= 1)
    diameter of G, and some optimal coloring gives u and v distinct colors
    both at least that diameter.  A True result guarantees
    chi(G-e) < chi(G).  A missing edge or a vertex outside 0..n-1 raises
    ValueError.
    """
    if not g.has_edge(*e):
        raise ValueError("edge %r not present" % (e,))
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertices %r, %r not both in the graph" % (u, v))
    diam = metric_summary(g).diameter
    if diam == INFINITY or diam < 1:
        return False
    if all_pairs_distances(delete_edge(g, e)).distance(u, v) <= diam:
        return False
    chi = packing_chromatic_number(g, deadline=deadline).value
    return _detour_colorable(g, u, v, diam, chi, deadline)


def _detour_colorable(g: Graph, u: int, v: int, k: int, chi: int, deadline):
    """Some chi-coloring of G, chi = chi(G), gives u and v distinct colors
    both at least k, for k >= dist(u, v): the coloring half of
    detour_drop_criterion.  One search limits u and v to colors k..chi; two
    such colors are distinct because a shared color c >= k >= dist(u, v)
    would conflict."""
    top = ((1 << chi) - 1) & -(1 << (k - 1))
    return _search(g, chi, {u: top, v: top}, deadline)[0] is not None
