import pytest

from packcrit import (
    Graph,
    LabeledGraph,
    ShapeError,
    check_block_diam2,
    check_block_diam3,
    check_diam2_characterization,
    check_tree_equivalence,
    classify_4critical_leafy_unicyclic,
    classify_block_diam3,
    classify_small_critical,
    gen_basic,
    gen_decorated_c4,
    gen_decorated_c8,
    gen_leafy_unicyclic,
    gen_net,
    is_edge_critical,
    is_leafy_unicyclic,
    theorem_check,
    theorem_ids,
    verify_theorem,
)
from packcrit import characterizations
from packcrit.corpus import all_graphs, connected_graphs
from packcrit.criticality import _detour_colorable
from packcrit.graphs import (
    all_pairs_distances,
    delete_edge,
    is_connected,
    metric_summary,
)
from packcrit.solver import packing_chromatic_number


def path(n):
    return gen_basic("path", n).graph


def cycle(n):
    return gen_basic("cycle", n).graph


def complete(n):
    return gen_basic("complete", n).graph


class TestSmallClassifier:
    def test_frozen_table(self):
        assert classify_small_critical(path(2)) == 2
        assert classify_small_critical(cycle(3)) == 3
        assert classify_small_critical(path(4)) == 3
        assert classify_small_critical(path(3)) is None
        assert classify_small_critical(cycle(4)) is None
        assert classify_small_critical(complete(4)) is None
        assert classify_small_critical(Graph.empty(1)) is None
        # 4 vertices, 3 edges, right degrees, but disconnected: K3 + K1
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
        assert classify_small_critical(g) is None


class TestLeafyUnicyclicPredicate:
    def test_positives(self):
        assert is_leafy_unicyclic(cycle(5))
        assert is_leafy_unicyclic(gen_net().graph)
        assert is_leafy_unicyclic(gen_decorated_c8().graph)
        assert is_leafy_unicyclic(gen_leafy_unicyclic(3, [0, 0, 2]).graph)

    def test_negatives(self):
        assert not is_leafy_unicyclic(path(4))
        assert not is_leafy_unicyclic(complete(4))
        # tail of length 2 hanging off a triangle
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert not is_leafy_unicyclic(g)
        # two cycles sharing a vertex has m = n + 1
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert not is_leafy_unicyclic(bowtie)


def two_core(g):
    """The vertices left after stripping leaves until none is left."""
    degrees = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    queue = [v for v in alive if degrees[v] <= 1]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in g.neighbors(v):
            if u in alive:
                degrees[u] -= 1
                if degrees[u] <= 1:
                    queue.append(u)
    return alive


def reference_leafy_cycle(g):
    """The cycle of a leafy unicyclic graph, or None: the 2-core of a
    connected graph with as many edges as vertices, with every other vertex
    a leaf on it.  The reference for _leafy_cycle."""
    if g.n < 3 or not is_connected(g) or g.edge_count != g.n:
        return None
    cycle = two_core(g)
    for v in range(g.n):
        if v not in cycle and (g.degree(v) != 1
                               or g.neighbors(v)[0] not in cycle):
            return None
    return cycle


class TestLeafyCycle:
    def test_matches_reference_on_all_graphs_on_seven_vertices(self):
        found = 0
        for g in all_graphs(7):
            want = reference_leafy_cycle(g)
            assert characterizations._leafy_cycle(g) == want
            found += want is not None
        assert found > 0


class TestFourCriticalClassifier:
    def test_bare_cycles(self):
        assert classify_4critical_leafy_unicyclic(cycle(5))
        assert classify_4critical_leafy_unicyclic(cycle(6))
        assert classify_4critical_leafy_unicyclic(cycle(7))
        assert not classify_4critical_leafy_unicyclic(cycle(8))
        assert classify_4critical_leafy_unicyclic(cycle(9))
        assert not classify_4critical_leafy_unicyclic(cycle(12))
        assert not classify_4critical_leafy_unicyclic(cycle(3))
        assert not classify_4critical_leafy_unicyclic(cycle(4))

    def test_decorated_graphs(self):
        assert classify_4critical_leafy_unicyclic(gen_net().graph)
        assert classify_4critical_leafy_unicyclic(gen_decorated_c4().graph)
        assert not classify_4critical_leafy_unicyclic(gen_decorated_c8().graph)
        # C4 with two leaves on opposite vertices is not on the list
        assert not classify_4critical_leafy_unicyclic(
            gen_leafy_unicyclic(4, [1, 0, 1, 0]).graph)
        # C5 with any leaf is not on the list
        assert not classify_4critical_leafy_unicyclic(
            gen_leafy_unicyclic(5, [1, 0, 0, 0, 0]).graph)
        # net with a doubled leaf is not the net
        assert not classify_4critical_leafy_unicyclic(
            gen_leafy_unicyclic(3, [2, 1, 1]).graph)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            classify_4critical_leafy_unicyclic(path(4))


class TestDiam2Check:
    def test_c5_agrees_positive(self):
        v = check_diam2_characterization(cycle(5))
        assert v.structural_verdict and v.ground_truth and v.agree

    def test_c4_agrees_negative(self):
        v = check_diam2_characterization(cycle(4))
        assert not v.structural_verdict and not v.ground_truth and v.agree

    def test_star_agrees_negative(self):
        v = check_diam2_characterization(gen_basic("star", 3).graph)
        assert not v.structural_verdict and v.agree

    def test_details_tag_every_edge(self):
        g = cycle(5)
        v = check_diam2_characterization(g)
        assert set(v.details) == set(g.edges)
        assert all(tag in ("alpha-raise", "far-pair", "none")
                   for tag in v.details.values())

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            check_diam2_characterization(complete(3))   # diameter 1
        with pytest.raises(ShapeError):
            check_diam2_characterization(path(4))       # diameter 3
        with pytest.raises(ShapeError):
            check_diam2_characterization(Graph.empty(2))


class TestBlockDiam2Check:
    def test_triangle_is_out_of_scope(self):
        # cliques have diameter 1; the precondition is strict
        with pytest.raises(ShapeError):
            check_block_diam2(complete(3))

    def test_star_negative(self):
        v = check_block_diam2(gen_basic("star", 3).graph)
        assert not v.structural_verdict and not v.ground_truth and v.agree

    def test_bowtie_positive(self):
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0),
                                      (2, 3), (3, 4), (4, 2)])
        v = check_block_diam2(bowtie)
        assert v.structural_verdict and v.ground_truth and v.agree

    def test_rejects_non_block_graph(self):
        with pytest.raises(ShapeError):
            check_block_diam2(cycle(4))


class TestBlockDiam3Classifier:
    def test_p4_case_a(self):
        cls = classify_block_diam3(path(4))
        assert cls.case == "a"
        assert cls.central_block == frozenset({1, 2})
        assert cls.block_count == 3

    def test_case_b_instance(self):
        # central edge x1x2; x1 carries two leaves, x2 a triangle
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 5)])
        cls = classify_block_diam3(g)
        assert cls.case == "b"
        assert cls.p3 == 1
        assert is_edge_critical(g)

    def test_case_c_instance(self):
        # x0 sits in a side block of order 4, x1 in two side blocks of order 3
        edges = [(0, 1)]
        edges += [(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)]
        edges += [(1, 5), (1, 6), (5, 6)]
        edges += [(1, 7), (1, 8), (7, 8)]
        g = Graph.from_edges(9, edges)
        cls = classify_block_diam3(g)
        assert cls.case == "c"
        assert cls.per_vertex[0] == frozenset({"c1"})
        assert cls.per_vertex[1] == frozenset({"c2"})
        assert is_edge_critical(g)

    def test_none_instance(self):
        # one order-3 side block per central vertex fits no case
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (2, 3),
                                 (1, 4), (1, 5), (4, 5), (0, 6), (1, 7)])
        cls = classify_block_diam3(g)
        assert cls.case == "none"
        assert not is_edge_critical(g)

    def test_check_wrapper_agrees(self):
        v = check_block_diam3(path(4))
        assert v.structural_verdict and v.ground_truth and v.agree

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            classify_block_diam3(cycle(6))    # not a block graph
        with pytest.raises(ShapeError):
            classify_block_diam3(path(3))     # diameter 2
        with pytest.raises(ShapeError):
            classify_block_diam3(Graph.empty(3))


class TestTreeEquivalence:
    def test_p4_positive(self):
        v = check_tree_equivalence(path(4))
        assert v.structural_verdict and v.ground_truth and v.agree

    def test_p5_negative(self):
        v = check_tree_equivalence(path(5))
        assert not v.structural_verdict and not v.ground_truth and v.agree

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            check_tree_equivalence(cycle(3))


class TestRegistry:
    def test_ids_stable(self):
        assert theorem_ids() == sorted([
            "small-critical-2", "small-critical-3",
            "leafy-unicyclic-4critical", "diam2", "block-diam2", "block-diam3",
            "tree-equivalence", "edge-bound", "connected-critical",
            "vertex-critical-implication", "detour-drop"])

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            theorem_check("no-such-theorem", path(2))

    # the shapes each theorem checks among K0, K1, 2K2, C4, P4 and the net
    SHAPES = {
        "K0": lambda: Graph.empty(0),
        "K1": lambda: Graph.empty(1),
        "2K2": lambda: Graph.from_edges(4, [(0, 1), (2, 3)]),
        "C4": lambda: cycle(4),
        "P4": lambda: path(4),
        "net": lambda: gen_net().graph,
    }
    ALL_BUT_K0 = {"K1", "2K2", "C4", "P4", "net"}
    CHECKED = {
        "small-critical-2": {"K0"} | ALL_BUT_K0,
        "small-critical-3": {"K0"} | ALL_BUT_K0,
        "leafy-unicyclic-4critical": {"C4", "net"},
        "diam2": {"C4"},
        "block-diam2": set(),
        "block-diam3": {"P4", "net"},
        "tree-equivalence": {"K1", "P4"},
        "edge-bound": ALL_BUT_K0,
        "connected-critical": ALL_BUT_K0,
        "vertex-critical-implication": ALL_BUT_K0,
        "detour-drop": {"K0", "K1", "C4", "P4", "net"},
    }

    def test_shape_skip_returns_none(self):
        assert theorem_check("tree-equivalence", cycle(3)) is None
        assert theorem_check("diam2", path(4)) is None
        assert theorem_check("detour-drop", Graph.empty(2)) is None
        assert sorted(self.CHECKED) == theorem_ids()
        for tid, checked in self.CHECKED.items():
            for shape, build in self.SHAPES.items():
                v = theorem_check(tid, build())
                if shape in checked:
                    assert v is not None and v.theorem_id == tid and v.agree, \
                        (tid, shape)
                else:
                    assert v is None, (tid, shape)

    def test_other_errors_propagate(self, monkeypatch):
        # only ShapeError means "outside the shape"; a ValueError raised
        # inside a check is a failure of the check
        def broken(g, deadline=None):
            raise ValueError("solver failed")
        monkeypatch.setattr(characterizations, "packing_chromatic_number",
                            broken)
        with pytest.raises(ValueError, match="solver failed"):
            theorem_check("tree-equivalence", path(4))

    def test_labeled_graph_unwrapped(self):
        v = theorem_check("small-critical-2", gen_basic("path", 2))
        assert v is not None and v.agree

    def test_verify_counts(self):
        corpus = list(connected_graphs(4))
        s = verify_theorem("tree-equivalence", corpus)
        # trees on <= 4 vertices: K1, K2, P3, P4, star
        assert s.checked == 5
        assert s.skipped == len(corpus) - 5
        assert s.disagreements == ()

    def test_verify_positives_sorted(self):
        s = verify_theorem("small-critical-3", connected_graphs(5))
        assert list(s.positives) == sorted(s.positives)
        assert len(s.positives) == 2


def unmemoised_detour_drop(g):
    """(fired, verdict) of the detour-drop check, asking the coloring half
    again for every edge and confirming each drop with a full solve."""
    chi = packing_chromatic_number(g).value
    diam = metric_summary(g).diameter
    fired, ok = 0, True
    for e in g.edges:
        h = delete_edge(g, e)
        dist = all_pairs_distances(h).distance
        hits = sum(1 for u in range(g.n) for v in range(u + 1, g.n)
                   if dist(u, v) > diam
                   and _detour_colorable(g, u, v, diam, chi, None))
        fired += hits
        if hits and packing_chromatic_number(h).value >= chi:
            ok = False
    return fired, ok


class TestDetourDrop:
    def test_memo_matches_pairwise_loop(self):
        total = 0
        for g in connected_graphs(6):
            v = theorem_check("detour-drop", g)
            fired, ok = unmemoised_detour_drop(g)
            assert v.details == {"fired": fired}
            assert v.agree == v.structural_verdict == ok
            total += fired
        assert total > 0
