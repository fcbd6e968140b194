import time

import pytest

from packcrit import (
    INFINITY,
    Graph,
    GraphError,
    SolveTimeout,
    all_pairs_distances,
    block_decomposition,
    connected_components,
    delete_edge,
    delete_vertex,
    disjoint_union,
    exists_alpha_set_avoiding,
    independence_number,
    induced_subgraph,
    is_connected,
    is_leaf,
    is_simplicial,
    is_tree,
    metric_summary,
    support_vertices,
)
from packcrit.corpus import all_graphs, load_corpus


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def floyd_warshall(g):
    """Distance table by Floyd-Warshall, INFINITY across components."""
    dist = [[0 if i == j else 1 if g.has_edge(i, j) else INFINITY
             for j in range(g.n)] for i in range(g.n)]
    for m in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                dist[i][j] = min(dist[i][j], dist[i][m] + dist[m][j])
    return dist


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.edge_count == 2

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(GraphError):
            Graph(2, [0])

    def test_rejects_asymmetry(self):
        with pytest.raises(GraphError):
            Graph(2, [0b10, 0b00])

    def test_empty(self):
        g = Graph.empty(4)
        assert g.n == 4 and g.edge_count == 0
        assert Graph.empty(0).n == 0

    def test_equality_and_hash(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        c = Graph.from_edges(3, [(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph.from_edges(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == [0, 1, 3]
        assert g.neighbors(0) == [2]

    def test_edges_lexicographic(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_degree_sequence_descending(self):
        g = path(4)
        assert g.degree_sequence() == (2, 2, 1, 1)

    def test_min_degree(self):
        assert cycle(5).min_degree() == 2
        assert path(3).min_degree() == 1
        with pytest.raises(GraphError):
            Graph.empty(0).min_degree()


class TestDistances:
    def test_path_distances(self):
        d = all_pairs_distances(path(4))
        assert d.distance(0, 3) == 3
        assert d.distance(1, 2) == 1
        assert d.distance(2, 2) == 0

    def test_disconnected_infinite(self):
        g = Graph.from_edges(3, [(0, 1)])
        d = all_pairs_distances(g)
        assert d.distance(0, 2) == INFINITY
        assert d.distance(2, 0) == INFINITY

    def test_symmetry_and_diagonal(self):
        g = cycle(6)
        d = all_pairs_distances(g)
        for u in range(6):
            assert d.distance(u, u) == 0
            for v in range(6):
                assert d.distance(u, v) == d.distance(v, u)

    def test_rings_are_distance_classes(self):
        # the ring balls[v][d] - balls[v][d - 1] = {u : dist(v, u) = d}, up
        # to v's largest finite distance, against Floyd-Warshall distances;
        # unreachable vertices sit in no ring
        for g in list(load_corpus("connected-le7")) + [
                Graph.from_edges(5, [(0, 1), (2, 3)])]:
            d = all_pairs_distances(g)
            dist = floyd_warshall(g)
            for v in range(g.n):
                finite = [x for x in dist[v] if x != INFINITY]
                balls = d.balls[v]
                assert balls[0] == 0
                assert len(balls) - 1 == max(finite)
                for level in range(1, len(balls)):
                    assert balls[level] & ~balls[level - 1] == sum(
                        1 << u for u in range(g.n) if dist[v][u] == level)
                    assert balls[level - 1] & ~balls[level] == 0
                for u in range(g.n):
                    assert d.distance(v, u) == dist[v][u]

    def test_cycle_eccentricities(self):
        d = all_pairs_distances(cycle(5))
        assert all(d.eccentricity(v) == 2 for v in range(5))
        assert d.diameter == 2
        assert d.radius == 2

    def test_metric_summary_path(self):
        ms = metric_summary(path(4))
        assert ms.diameter == 3
        assert ms.radius == 2
        assert ms.center == frozenset({1, 2})

    def test_metric_summary_disconnected(self):
        ms = metric_summary(Graph.from_edges(3, [(0, 1)]))
        assert ms.diameter == INFINITY

    def test_metric_summary_k1(self):
        ms = metric_summary(Graph.empty(1))
        assert ms.diameter == 0
        assert ms.center == frozenset({0})


class TestComponents:
    def test_component_split(self):
        g = Graph.from_edges(5, [(0, 3), (1, 2)])
        comps = connected_components(g)
        assert comps == [[0, 3], [1, 2], [4]]

    def test_is_connected(self):
        assert is_connected(cycle(4))
        assert not is_connected(Graph.empty(2))
        assert is_connected(Graph.empty(1))
        assert is_connected(Graph.empty(0))


class TestSurgery:
    def test_delete_edge(self):
        g = delete_edge(cycle(4), (0, 1))
        assert not g.has_edge(0, 1)
        assert g.edge_count == 3

    def test_delete_edge_missing_raises(self):
        with pytest.raises(GraphError):
            delete_edge(path(3), (0, 2))

    def test_induced_subgraph_mapping(self):
        g = cycle(5)
        sub, kept = induced_subgraph(g, [1, 2, 4])
        assert kept == (1, 2, 4)
        assert sub.n == 3
        assert sub.has_edge(0, 1)        # 1-2 survives
        assert not sub.has_edge(0, 2)    # 1-4 not an edge
        assert not sub.has_edge(1, 2)

    def test_delete_vertex(self):
        g, kept = delete_vertex(path(4), 0)
        assert kept == (1, 2, 3)
        assert g.edges == ((0, 1), (1, 2))

    def test_unchecked_deletions_match_checked_graphs(self):
        # deletions skip Graph's checks; they must build what the checks pass
        for g in all_graphs(6):
            derived = [delete_edge(g, e) for e in g.edges]
            derived += [delete_vertex(g, v)[0] for v in range(g.n)]
            for h in derived:
                assert type(h.rows) is tuple
                assert h == Graph(h.n, h.rows)
                assert h.edges == Graph(h.n, h.rows).edges

    def test_disjoint_union(self):
        g = disjoint_union(path(2), path(3))
        assert g.n == 5
        assert g.edges == ((0, 1), (2, 3), (3, 4))


class TestPredicates:
    def test_leaves_and_support(self):
        g = path(4)
        assert is_leaf(g, 0) and is_leaf(g, 3)
        assert not is_leaf(g, 1)
        assert support_vertices(g) == frozenset({1, 2})

    def test_simplicial(self):
        g = complete(4)
        assert all(is_simplicial(g, v) for v in range(4))
        assert not is_simplicial(path(3), 1)
        assert is_simplicial(path(3), 0)

    def test_vertex_outside_graph_raises(self):
        g = path(4)
        for v in (-1, g.n):
            with pytest.raises(GraphError, match="outside graph"):
                is_leaf(g, v)
            with pytest.raises(GraphError, match="outside graph"):
                is_simplicial(g, v)

    def test_is_tree(self):
        assert is_tree(path(5))
        assert is_tree(Graph.empty(1))
        assert not is_tree(cycle(3))
        assert not is_tree(Graph.empty(2))
        assert not is_tree(Graph.empty(0))


class TestIndependence:
    def test_cycle_alpha(self):
        alpha, witness = independence_number(cycle(5))
        assert alpha == 2
        assert len(witness) == 2
        u, v = sorted(witness)
        assert not cycle(5).has_edge(u, v)

    def test_complete_alpha(self):
        assert independence_number(complete(6))[0] == 1

    def test_star_alpha(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        alpha, witness = independence_number(g)
        assert alpha == 4
        assert witness == frozenset({1, 2, 3, 4})

    def test_empty_graph_alpha(self):
        assert independence_number(Graph.empty(0))[0] == 0
        assert independence_number(Graph.empty(3))[0] == 3

    def test_witness_is_independent(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        alpha, witness = independence_number(g)
        ws = sorted(witness)
        assert len(ws) == alpha
        for i, u in enumerate(ws):
            for v in ws[i + 1:]:
                assert not g.has_edge(u, v)

    def test_expired_deadline_raises(self):
        # the Petersen graph is cubic, so nothing is taken greedily and the
        # search branches at once; forests never branch and ignore it
        petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                    + [(i, i + 5) for i in range(5)])
        expired = time.monotonic() - 1.0
        with pytest.raises(SolveTimeout):
            independence_number(petersen, deadline=expired)
        assert independence_number(petersen)[0] == 4
        assert independence_number(path(6), deadline=expired)[0] == 3

    def test_avoiding_sets(self):
        c4 = cycle(4)
        # alpha = 2 via either diagonal; avoiding any one vertex is fine
        assert exists_alpha_set_avoiding(c4, {0})
        # avoiding both diagonals kills every maximum independent set
        assert not exists_alpha_set_avoiding(c4, {0, 1})
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert exists_alpha_set_avoiding(star, {0})
        assert not exists_alpha_set_avoiding(star, {1})


class TestBlocks:
    def test_path_blocks(self):
        bd = block_decomposition(path(4))
        assert sorted(sorted(b) for b in bd.blocks) == [[0, 1], [1, 2], [2, 3]]
        assert bd.cut_vertices == frozenset({1, 2})
        assert bd.is_block_graph

    def test_cycle_single_block(self):
        bd = block_decomposition(cycle(5))
        assert len(bd.blocks) == 1
        assert bd.cut_vertices == frozenset()
        assert not bd.is_block_graph  # C5 is not a clique

    def test_bowtie(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        bd = block_decomposition(g)
        assert len(bd.blocks) == 2
        assert bd.cut_vertices == frozenset({2})
        assert bd.is_block_graph

    def test_k1_block(self):
        bd = block_decomposition(Graph.empty(1))
        assert bd.blocks == (frozenset({0}),)
        assert bd.is_block_graph

    def test_disconnected_raises(self):
        with pytest.raises(GraphError):
            block_decomposition(Graph.empty(2))

    def test_central_block_on_diam3_path(self):
        bd = block_decomposition(path(4))
        assert bd.central_block is not None
        assert bd.blocks[bd.central_block] == frozenset({1, 2})

    def test_side_blocks(self):
        bd = block_decomposition(path(4))
        assert set(bd.side_blocks) == {i for i in range(3) if i != bd.central_block}
