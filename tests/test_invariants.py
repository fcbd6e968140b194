"""Property tests for the structural invariants the modules promise."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from packcrit.corpus import all_graphs, load_corpus
from packcrit.criticality import _deletions, _drops
from packcrit.graphs import max_independent_set
from packcrit.solver import _PowerSums, _search, _twin_groups
from packcrit import (
    Graph,
    all_pairs_distances,
    INFINITY,
    brute_force_chi_rho,
    canonical_key,
    criticality_report,
    decide_packing_k_colorable,
    delete_edge,
    delete_vertex,
    disjoint_union,
    edge_deletion_lower_bound,
    emit_graph6,
    independence_number,
    is_edge_critical,
    is_valid_packing_coloring,
    is_vertex_critical,
    neighborhood_lower_bound,
    packing_chromatic_number,
    packing_lower_bound,
    parse_graph6,
    repair_coloring,
)

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    return Graph.from_edges(n, edges)


@st.composite
def graphs_with_twins(draw, max_n=8):
    """A random graph plus copies of its vertices as true or false twins,
    randomly relabelled, up to max_n vertices in all."""
    base = draw(graphs(max_n=max_n - 1))
    n, edges = max(base.n, 1), set(base.edges)
    for _ in range(draw(st.integers(min_value=1, max_value=max_n - n))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        edges |= {(w, n) for u, w in edges if u == v}
        edges |= {(u, n) for u, w in edges if w == v}
        if draw(st.booleans()):
            edges.add((v, n))
        n += 1
    return relabeled(Graph.from_edges(n, edges),
                     draw(st.integers(min_value=0, max_value=2 ** 30)))


@st.composite
def connected_graphs(draw, max_n=10):
    """A random spanning tree (each vertex after the first joined to an
    earlier one) plus any further edges, randomly relabelled."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v)
             for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges |= {p for p, keep in zip(pairs, mask) if keep}
    return relabeled(Graph.from_edges(n, edges),
                     draw(st.integers(min_value=0, max_value=2 ** 30)))


def relabeled(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestGraph6Roundtrip:
    @SETTINGS
    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        h = parse_graph6(emit_graph6(g))
        assert h.n == g.n and h.rows == g.rows


class TestSolverInvariants:
    @SETTINGS
    @given(graphs())
    def test_witness_matches_value(self, g):
        res = packing_chromatic_number(g)
        assert is_valid_packing_coloring(g, res.witness.colors)
        if g.n:
            assert max(res.witness.colors) == res.value
        else:
            assert res.value == 0
        # one fewer color must be infeasible
        if res.value > 0:
            assert decide_packing_k_colorable(g, res.value - 1) is None

    @SETTINGS
    @given(graphs(max_n=7))
    def test_union_takes_max(self, g):
        h = disjoint_union(g, g)
        a = packing_chromatic_number(g).value
        assert packing_chromatic_number(h).value == a

    @SETTINGS
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=2 ** 30))
    def test_relabel_invariance(self, g, seed):
        h = relabeled(g, seed)
        assert canonical_key(h) == canonical_key(g)
        assert (packing_chromatic_number(h).value
                == packing_chromatic_number(g).value)

    @SETTINGS
    @given(graphs(max_n=6))
    def test_matches_brute_oracle(self, g):
        assert packing_chromatic_number(g).value == brute_force_chi_rho(g)

    @SETTINGS
    @given(graphs())
    def test_bounded_via_independence(self, g):
        if g.n == 0:
            return
        alpha = independence_number(g)[0]
        assert packing_chromatic_number(g).value <= g.n - alpha + 1

    @SETTINGS
    @given(graphs())
    def test_neighborhood_bound_below_oracle(self, g):
        # graphs() draws disconnected and edgeless graphs as well
        assert neighborhood_lower_bound(g) <= brute_force_chi_rho(g)
        assert packing_lower_bound(g) <= brute_force_chi_rho(g)

    @SETTINGS
    @given(graphs(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2 ** 30))
    def test_hint_is_safe(self, g, k, seed):
        # a hint reorders values only: same feasibility, a valid coloring
        # honouring the pins, the same nodes when infeasible, and colors
        # above k ignored
        rng = random.Random(seed)
        pins = {v: rng.randint(1, k) for v in range(g.n) if rng.random() < 0.2}
        masks = {v: 1 << (c - 1) for v, c in pins.items()}
        hint = [rng.randint(1, k + 2) for _ in range(g.n)]
        plain, plain_nodes = _search(g, k, masks, None)
        found, nodes = _search(g, k, masks, None, hint)
        assert (found is None) == (plain is None)
        if found is None:
            assert nodes == plain_nodes
        else:
            assert is_valid_packing_coloring(g, found)
            assert max(found, default=0) <= k
            assert all(found[v] == c for v, c in pins.items())
        above = [c if c <= k else rng.randint(k + 1, k + 9) for c in hint]
        assert _search(g, k, masks, None, above) == (found, nodes)

    @SETTINGS
    @given(graphs(max_n=7), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 30))
    def test_masks_match_pin_enumeration(self, g, k, seed):
        # a multi-bit mask admits exactly the colorings some one-color pin
        # per restricted vertex admits
        rng = random.Random(seed)
        restricted = rng.sample(range(g.n), min(g.n, rng.randint(0, 3)))
        masks = {v: rng.randint(0, (1 << k) - 1) for v in restricted}
        found, _ = _search(g, k, masks, None)
        choices = [[(v, c) for c in range(1, k + 1) if masks[v] >> (c - 1) & 1]
                   for v in restricted]
        reference = any(
            decide_packing_k_colorable(g, k, pinned=dict(pins)) is not None
            for pins in itertools.product(*choices))
        assert (found is not None) == reference
        if found is not None:
            assert is_valid_packing_coloring(g, found)
            assert max(found, default=0) <= k
            assert all(masks[v] >> (found[v] - 1) & 1 for v in restricted)


def distance_row_twins(g):
    """The twin classes by their first definition: v joins the first class
    whose first member r has the same distance row as v away from v and r."""
    dm = all_pairs_distances(g)
    groups = []
    for v in range(g.n):
        for grp in groups:
            r = grp[0]
            if all(dm.distance(v, w) == dm.distance(r, w)
                   for w in range(g.n) if w != v and w != r):
                grp.append(v)
                break
        else:
            groups.append([v])
    return groups


def floyd_warshall(g):
    """Distance table by Floyd-Warshall, INFINITY across components."""
    dist = [[0 if i == j else 1 if g.has_edge(i, j) else INFINITY
             for j in range(g.n)] for i in range(g.n)]
    for m in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                dist[i][j] = min(dist[i][j], dist[i][m] + dist[m][j])
    return dist


class TestValidityOracle:
    @SETTINGS
    @given(st.data())
    def test_matches_pairwise_check(self, data):
        # two drawn graphs side by side, so most inputs are disconnected;
        # colors up to n + 2 lie above every finite distance
        g = disjoint_union(data.draw(graphs(max_n=6)),
                           data.draw(graphs(max_n=4)))
        dist = floyd_warshall(g)
        colorings = [data.draw(st.lists(
            st.integers(min_value=1, max_value=g.n + 2),
            min_size=g.n, max_size=g.n)),
            packing_chromatic_number(g).witness.colors]
        for colors in colorings:
            pairwise = all(colors[u] != colors[v] or dist[u][v] > colors[u]
                           for u in range(g.n) for v in range(u + 1, g.n))
            assert is_valid_packing_coloring(g, colors) == pairwise


def check_layered(g, cap):
    """_PowerSums.layered on a connected graph g, from a maximum independent
    set, against what its docstring promises."""
    alpha, first = max_independent_set(g.rows)

    def layered(cap):
        return _PowerSums(g, alpha, None).layered(first, cap)

    full = layered(g.n - alpha + 2)
    # the palette is at most that of the independent-set construction
    assert full is not None and max(full) <= g.n - alpha + 1
    assert is_valid_packing_coloring(g, full)
    if g.n <= 8:
        assert max(full) >= brute_force_chi_rho(g)
    # the layering is deterministic and stops once it reaches the cap, so
    # it returns the same coloring exactly when that coloring fits under it
    for c in (cap, max(full), max(full) + 1):
        assert layered(c) == (full if max(full) < c else None)


class TestLayeredColoring:
    def test_connected_le7(self):
        for g in load_corpus("connected-le7"):
            check_layered(g, g.n + 1)

    @SETTINGS
    @given(connected_graphs(), st.integers(min_value=1, max_value=12))
    def test_connected_up_to_10(self, g, cap):
        check_layered(g, cap)


class TestTwinGroups:
    def test_neighbourhood_rows_match_distance_rows(self):
        for g in all_graphs(6):
            for h in ([g] + [delete_edge(g, e) for e in g.edges]
                      + [delete_vertex(g, v)[0] for v in range(g.n)]):
                assert _twin_groups(h) == distance_row_twins(h)

    @SETTINGS
    @given(graphs_with_twins())
    def test_planted_twins_match_distance_rows(self, g):
        assert _twin_groups(g) == distance_row_twins(g)


class TestEdgeDeletion:
    @SETTINGS
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=2 ** 30))
    def test_drop_is_bounded(self, g, seed):
        edges = g.edges
        if not edges:
            return
        u, v = edges[seed % len(edges)]
        before = packing_chromatic_number(g).value
        after = packing_chromatic_number(delete_edge(g, (u, v))).value
        assert after <= before
        assert after >= edge_deletion_lower_bound(before)

    @SETTINGS
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=2 ** 30))
    def test_independence_grows(self, g, seed):
        edges = g.edges
        if not edges:
            return
        u, v = edges[seed % len(edges)]
        a0 = independence_number(g)[0]
        a1 = independence_number(delete_edge(g, (u, v)))[0]
        assert a0 <= a1 <= a0 + 1

    @SETTINGS
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=2 ** 30))
    def test_repair_stays_valid(self, g, seed):
        edges = g.edges
        if not edges:
            return
        u, v = edges[seed % len(edges)]
        h = delete_edge(g, (u, v))
        base = packing_chromatic_number(h)
        fixed = repair_coloring(g, (u, v), base.witness.colors)
        assert is_valid_packing_coloring(g, fixed)
        m = base.value
        cap = 2 if m <= 1 else 2 * m - 1
        assert fixed.palette_size <= cap


class TestStartFromParentWitness:
    @SETTINGS
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=2 ** 30))
    def test_deletions_match_oracle(self, g, seed):
        # G's optimal witness, restricted, is a valid start for G-e and G-v
        if g.n == 0:
            return
        colors = packing_chromatic_number(g).witness.colors
        deleted = [delete_vertex(g, seed % g.n)]
        if g.edges:
            deleted.append((delete_edge(g, g.edges[seed % len(g.edges)]),
                            range(g.n)))
        for h, kept in deleted:
            res = packing_chromatic_number(h, start=[colors[v] for v in kept])
            assert res.value == brute_force_chi_rho(h)
            assert is_valid_packing_coloring(h, res.witness)
            assert res.witness.palette_size == res.value


class TestTwinOrbitSweep:
    @SETTINGS
    @given(graphs_with_twins())
    def test_report_matches_oracle(self, g):
        # deletions in one twin orbit share a solve; each value, witness
        # and verdict must still hold for its own deletion
        rep = criticality_report(g, include_witnesses=True)
        assert rep.chi_rho == brute_force_chi_rho(g)
        for e in g.edges:
            h = delete_edge(g, e)
            w = rep.edge_witnesses[e]
            assert rep.edge_values[e] == brute_force_chi_rho(h)
            assert is_valid_packing_coloring(h, w)
            assert w.palette_size == rep.edge_values[e]
        for v in range(g.n):
            h, kept = delete_vertex(g, v)
            colors = tuple(rep.vertex_witnesses[v][u] for u in kept)
            assert rep.vertex_values[v] == brute_force_chi_rho(h)
            assert is_valid_packing_coloring(h, colors)
            assert max(colors, default=0) == rep.vertex_values[v]
        assert is_edge_critical(g) == rep.is_edge_critical
        assert is_vertex_critical(g) == rep.is_vertex_critical


def assert_fail_first_orbits(g):
    """_deletions yields every twin orbit once, covering g.edges and
    range(g.n), in non-decreasing fail-first key."""
    for kind, members in (("edge", g.edges), ("vertex", range(g.n))):
        seen, keys = [], []
        for rep, h, kept, others in _deletions(g, kind):
            seen += [rep] + [key for key, _ in others]
            ends = rep if kind == "edge" else (rep,)
            keys.append(sorted(g.degree(v) for v in ends))
            for key, _ in others:
                other_ends = key if kind == "edge" else (key,)
                assert sorted(g.degree(v) for v in other_ends) == keys[-1]
        assert sorted(seen) == list(members)
        assert keys == sorted(keys)


class TestFailFirstDeletions:
    def test_orbits_exhaustive(self):
        for g in all_graphs(6):
            assert_fail_first_orbits(g)

    @SETTINGS
    @given(graphs_with_twins())
    def test_orbits_with_twins(self, g):
        assert_fail_first_orbits(g)

    def test_drops_match_oracle(self):
        # one hinted decision per deletion against the brute-force value
        for g in all_graphs(6):
            base = packing_chromatic_number(g)
            for kind in ("edge", "vertex"):
                for _, h, kept, _ in _deletions(g, kind):
                    assert _drops(h, kept, base, None) == (
                        brute_force_chi_rho(h) < base.value)

    @SETTINGS
    @given(st.one_of(graphs(), graphs_with_twins()))
    def test_verdicts_match_report(self, g):
        rep = criticality_report(g)
        assert is_edge_critical(g) == rep.is_edge_critical
        assert is_vertex_critical(g) == rep.is_vertex_critical


class TestDistances:
    @SETTINGS
    @given(graphs(max_n=9))
    def test_metric_axioms(self, g):
        d = all_pairs_distances(g).distance
        for i in range(g.n):
            assert d(i, i) == 0
            for j in range(g.n):
                assert d(i, j) == d(j, i)
                for m in range(g.n):
                    if d(i, m) < INFINITY and d(m, j) < INFINITY:
                        assert d(i, j) <= d(i, m) + d(m, j)
