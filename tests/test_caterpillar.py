import pytest
from hypothesis import given, settings, strategies as st

from packcrit import (
    Graph,
    brute_force_chi_rho,
    caterpillar_chi_rho,
    caterpillar_from_profile,
    caterpillar_profile,
    decide_caterpillar_k_colorable,
    decide_packing_k_colorable,
    delete_edge,
    disjoint_union,
    emit_graph6,
    enumerate_caterpillars,
    gen_basic,
    gen_net,
    is_caterpillar,
    is_valid_packing_coloring,
    packing_chromatic_number,
    parse_graph6,
)
from packcrit import caterpillar
from packcrit.canon import canonical_key


def comb(length, teeth):
    return caterpillar_from_profile([teeth] * length).graph


# three legs of length two from a center: smallest non-caterpillar tree
SPIDER = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


@st.composite
def caterpillars(draw, max_n=30):
    """A relabelled caterpillar of at most max_n vertices."""
    length = draw(st.integers(min_value=1, max_value=10))
    budget = max_n - length
    counts = []
    for _ in range(length):
        c = draw(st.integers(min_value=0, max_value=min(4, budget)))
        budget -= c
        counts.append(c)
    g = caterpillar_from_profile(counts).graph
    perm = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestProfile:
    def test_single_vertex(self):
        counts, spine, leaves = caterpillar_profile(Graph.empty(1))
        assert counts == (0,) and spine == (0,) and leaves == ((),)

    def test_edge(self):
        counts, spine, leaves = caterpillar_profile(gen_basic("path", 2).graph)
        assert counts == (1,) and spine == (0,) and leaves == ((1,),)

    def test_star(self):
        g = gen_basic("star", 4).graph
        counts, spine, leaves = caterpillar_profile(g)
        assert counts == (4,) and spine == (0,)
        assert leaves == ((1, 2, 3, 4),)

    def test_path(self):
        counts, spine, leaves = caterpillar_profile(gen_basic("path", 5).graph)
        assert counts == (1, 0, 1)
        assert spine == (1, 2, 3)
        assert leaves == ((0,), (), (4,))

    def test_roundtrip_profile(self):
        lab = caterpillar_from_profile([2, 0, 1, 3])
        counts, spine, leaves = caterpillar_profile(lab.graph)
        assert counts == (2, 0, 1, 3)
        assert lab.labels["spine[0]"] == 0
        assert lab.labels["leaf[3][2]"] == lab.graph.n - 1

    def test_orientation_deterministic(self):
        # asymmetric caterpillar: same profile regardless of construction order
        a = caterpillar_from_profile([3, 0, 1]).graph
        counts, _, _ = caterpillar_profile(a)
        assert counts in ((3, 0, 1), (1, 0, 3))
        counts2, _, _ = caterpillar_profile(a)
        assert counts == counts2

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            caterpillar_profile(gen_basic("cycle", 4).graph)

    def test_rejects_spider(self):
        assert not is_caterpillar(SPIDER)
        with pytest.raises(ValueError):
            caterpillar_profile(SPIDER)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            caterpillar_profile(Graph.empty(3))

    def test_from_profile_validation(self):
        with pytest.raises(ValueError):
            caterpillar_from_profile([])
        with pytest.raises(ValueError):
            caterpillar_from_profile([1, -1])
        with pytest.raises(ValueError):
            caterpillar_from_profile([1.5, 2])
        with pytest.raises(ValueError):
            caterpillar_from_profile([True, 2])


class TestDecide:
    def test_empty_graph(self):
        assert decide_caterpillar_k_colorable(Graph.empty(0), 0) == ()

    def test_zero_palette(self):
        assert decide_caterpillar_k_colorable(Graph.empty(1), 0) is None

    def test_rejects_non_caterpillar_component(self):
        with pytest.raises(ValueError):
            decide_caterpillar_k_colorable(gen_net().graph, 5)

    @pytest.mark.parametrize("k", [0, 1])
    def test_rejects_any_bad_component_before_sweeping(self, k):
        # an infeasible or empty palette must not hide a non-caterpillar
        k2 = gen_basic("path", 2).graph
        for g in (disjoint_union(k2, SPIDER), disjoint_union(SPIDER, k2),
                  SPIDER):
            with pytest.raises(ValueError):
                decide_caterpillar_k_colorable(g, k)
            with pytest.raises(ValueError):
                caterpillar_chi_rho(g)

    def test_witness_is_valid(self):
        g = comb(6, 2)
        k = caterpillar_chi_rho(g)
        colors = decide_caterpillar_k_colorable(g, k)
        assert is_valid_packing_coloring(g, colors)
        assert max(colors) <= k
        assert decide_caterpillar_k_colorable(g, k - 1) is None

    def test_forest_support(self):
        g = disjoint_union(comb(4, 1), gen_basic("path", 7).graph)
        k = caterpillar_chi_rho(g)
        colors = decide_caterpillar_k_colorable(g, k)
        assert is_valid_packing_coloring(g, colors)
        assert k == max(caterpillar_chi_rho(comb(4, 1)),
                        caterpillar_chi_rho(gen_basic("path", 7).graph))

    def test_matches_brute_oracle_small(self):
        # every caterpillar up to the brute-force cap
        for n in range(1, 9):
            for g in enumerate_caterpillars(n):
                assert caterpillar_chi_rho(g) == brute_force_chi_rho(g)

    def test_matches_solver_full_corpus(self):
        for n in range(1, 13):
            for g in enumerate_caterpillars(n):
                want = packing_chromatic_number(g).value
                got = caterpillar_chi_rho(g)
                assert got == want, emit_graph6(g)
                colors = decide_caterpillar_k_colorable(g, want)
                assert is_valid_packing_coloring(g, colors)

    def test_matches_solver_on_paths(self):
        # long paths settle at three colors
        for n in (1, 2, 3, 4, 9, 30, 101):
            g = gen_basic("path", n).graph
            want = packing_chromatic_number(g).value
            assert caterpillar_chi_rho(g) == want
        assert caterpillar_chi_rho(gen_basic("path", 101).graph) == 3


class TestPalette:
    """Palettes above seven are swept at seven (Goddard et al. 2008)."""

    @pytest.mark.parametrize("k", [8, 12, 20])
    def test_large_palette_clamped(self, k, monkeypatch):
        monkeypatch.setattr(caterpillar, "_TABLES", {})
        g = comb(35, 4)
        colors = decide_caterpillar_k_colorable(g, k)
        assert is_valid_packing_coloring(g, colors)
        assert max(colors) <= caterpillar.MAX_PALETTE
        # the sweep ran at the clamped palette, not at k
        assert list(caterpillar._TABLES) == [caterpillar.MAX_PALETTE]

    def test_failed_clamped_sweep_raises(self, monkeypatch):
        # comb(35, 4) needs seven colors; a clamp at five cannot hold it
        monkeypatch.setattr(caterpillar, "MAX_PALETTE", 5)
        with pytest.raises(AssertionError):
            decide_caterpillar_k_colorable(comb(35, 4), 6)
        with pytest.raises(AssertionError):
            caterpillar_chi_rho(comb(35, 4))
        assert decide_caterpillar_k_colorable(comb(35, 4), 5) is None


class TestKeptTable:
    def test_bounded_by_the_palette_automaton(self):
        # 1,140 = every reachable k = 5 state times leaf counts 0..5; keyed
        # by the raw leaf count these sweeps alone would add 3,115 entries
        for m in range(1, 61):
            g = gen_basic("star", m).graph
            assert is_valid_packing_coloring(
                g, decide_caterpillar_k_colorable(g, 5))
        for teeth in range(61):
            decide_caterpillar_k_colorable(comb(6, teeth), 5)
        assert sum(map(len, caterpillar._TABLES[5][1].values())) <= 1140

    def test_history_independent(self, monkeypatch):
        monkeypatch.setattr(caterpillar, "_TABLES", {})
        g = caterpillar_from_profile([2, 0, 3, 1, 4, 1, 0, 2]).graph
        k = caterpillar_chi_rho(g)
        first = decide_caterpillar_k_colorable(g, k)
        for other, palette in ((comb(12, 2), 6), (comb(9, 3), 4),
                               (disjoint_union(comb(5, 1), Graph.empty(3)), 3),
                               (comb(35, 4), 7), (comb(20, 1), k)):
            decide_caterpillar_k_colorable(other, palette)
        assert decide_caterpillar_k_colorable(g, k) == first
        monkeypatch.setattr(caterpillar, "_TABLES", {})
        assert decide_caterpillar_k_colorable(g, k) == first


class TestFrozenThresholds:
    """First spine lengths where uniform combs need a larger palette.

    Frozen from sweep runs; the solver cross-checks below keep the sweep
    honest at the sizes it can reach.
    """

    TEETH_1 = {2: 1, 3: 2, 4: 4, 5: 10}
    TEETH_2 = {2: 1, 3: 2, 4: 3, 5: 5, 6: 12}
    TEETH_3 = {2: 1, 3: 2, 4: 3, 5: 5, 6: 9}

    @pytest.mark.parametrize("teeth,table", [(1, TEETH_1), (2, TEETH_2),
                                             (3, TEETH_3)])
    def test_thresholds(self, teeth, table):
        for value, first_len in table.items():
            assert caterpillar_chi_rho(comb(first_len, teeth)) == value
            if first_len > 1:
                assert caterpillar_chi_rho(comb(first_len - 1, teeth)) < value

    def test_solver_confirms_comb_5_boundary(self):
        # comb(10,1) has 20 vertices and needs five colors; comb(9,1) four
        g = comb(10, 1)
        assert packing_chromatic_number(g).value == 5
        assert packing_chromatic_number(comb(9, 1)).value == 4
        assert caterpillar_chi_rho(g) == 5

    def test_solver_confirms_decide_boundary_n36(self):
        # solver SAT side only; the UNSAT side at this size rests on the sweep
        g = comb(12, 2)
        assert caterpillar_chi_rho(g) == 6
        colors = decide_packing_k_colorable(g, 6)
        assert colors is not None and is_valid_packing_coloring(g, colors)

    def test_six_teeth_saturation_boundary(self):
        # six leaves on every spine vertex pin the spine colors to {2..6};
        # those five colors cannot cover 35 consecutive spine vertices
        g34 = comb(34, 6)
        colors = decide_caterpillar_k_colorable(g34, 6)
        assert colors is not None and is_valid_packing_coloring(g34, colors)
        g35 = comb(35, 6)
        assert decide_caterpillar_k_colorable(g35, 6) is None
        seven = decide_caterpillar_k_colorable(g35, 7)
        assert seven is not None and is_valid_packing_coloring(g35, seven)


class TestAgainstGeneralSolverDeeper:
    @settings(max_examples=40, deadline=None)
    @given(caterpillars(), st.integers(min_value=0, max_value=2 ** 30))
    def test_differential_random_caterpillars(self, g, pick):
        # G and one G-e (a caterpillar forest) at chi and chi - 1
        graphs = [g]
        if g.edges:
            graphs.append(delete_edge(g, g.edges[pick % len(g.edges)]))
        for h in graphs:
            chi = caterpillar_chi_rho(h)
            for k in (chi, chi - 1):
                mine = decide_caterpillar_k_colorable(h, k)
                ref = decide_packing_k_colorable(h, k)
                assert (mine is None) == (ref is None), (emit_graph6(h), k)
                for colors in (mine, ref):
                    if colors is not None:
                        assert is_valid_packing_coloring(h, colors)
                        assert max(colors) <= k

    def test_unsat_agreement_n20(self):
        # comb(5,3): both engines prove four colors impossible
        g = comb(5, 3)
        assert caterpillar_chi_rho(g) == 5
        assert decide_packing_k_colorable(g, 4) is None
        colors = decide_packing_k_colorable(g, 5)
        assert is_valid_packing_coloring(g, colors)

    def test_relabel_invariance(self):
        g = caterpillar_from_profile([2, 1, 0, 3, 1]).graph
        perm = [g.n - 1 - i for i in range(g.n)]
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        h = Graph.from_edges(g.n, edges)
        assert canonical_key(h) == canonical_key(g)
        assert caterpillar_chi_rho(h) == caterpillar_chi_rho(g)

    def test_every_edge_deletion_checkable(self):
        g = comb(4, 2)
        k = caterpillar_chi_rho(g)
        for e in g.edges:
            h = delete_edge(g, e)
            sub = caterpillar_chi_rho(h)
            assert sub == packing_chromatic_number(h).value
            assert sub <= k
