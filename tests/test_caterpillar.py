import random
from functools import lru_cache

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
from packcrit.corpus import all_graphs, load_corpus
from packcrit.families import caterpillar_profiles
from packcrit.graphs import connected_components


def comb(length, teeth):
    return caterpillar_from_profile([teeth] * length).graph


@lru_cache(maxsize=None)
def _layout(k):
    return caterpillar._Layout(k)


@lru_cache(maxsize=None)
def _reference_moves(state, cnt, k):
    return tuple(caterpillar._moves(state, cnt, k, _layout(k)))


def caterpillar_component_profile(rows, comp):
    """(leaf_counts, spine, leaves) of the component with sorted vertex list
    comp, or ValueError: a degree-sum tree test, then a spine walked from
    its smallest end.  The reference for caterpillar_profiles."""
    size = len(comp)
    if sum(rows[v].bit_count() for v in comp) != 2 * (size - 1):
        raise ValueError("graph is not a connected caterpillar")
    if size == 1:
        return (0,), (comp[0],), ((),)
    if size == 2:
        return (1,), (comp[0],), ((comp[1],),)
    interior = [v for v in comp if rows[v] & (rows[v] - 1)]
    inner = sum(1 << v for v in interior)
    ends = []
    for v in interior:
        d = (rows[v] & inner).bit_count()
        if d > 2:
            raise ValueError("graph is not a connected caterpillar")
        if d <= 1:
            ends.append(v)
    cur = ends[0]
    spine = [cur]
    seen = 1 << cur
    while True:
        nxt = rows[cur] & inner & ~seen
        if not nxt:
            break
        cur = nxt.bit_length() - 1
        spine.append(cur)
        seen |= nxt
    leaves = [tuple(u for u in range(len(rows))
                    if rows[s] >> u & 1 and not inner >> u & 1)
              for s in spine]
    return tuple(len(t) for t in leaves), tuple(spine), tuple(leaves)


def dict_frontier_sweep(counts, k):
    """The sweep on dict frontiers: each position's frontier maps the
    packed states reached to the (previous state, choice) that first
    reached them, visited in insertion order, and the witness ends in the
    smallest final state.  The reference for _sweep's feasibility."""
    frontier = (_layout(k).caps,)
    parents = []
    for cnt in counts:
        step: dict = {}
        for state in frontier:
            for nstate, choice in _reference_moves(state, min(cnt, k), k):
                if nstate not in step:
                    step[nstate] = (state, choice)
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


def reference_colorable(g, k):
    """Whether every component of the caterpillar forest g passes the
    dict-frontier sweep at palette k."""
    if k <= 0:
        return g.n == 0
    palette = min(k, caterpillar.MAX_PALETTE)
    return all(
        dict_frontier_sweep(caterpillar_component_profile(g.rows, comp)[0],
                            palette) is not None
        for comp in connected_components(g))


def comb_certificate(g, value):
    """The deletion-criticality certificate of a comb: decisions on g at
    value - 1 and value, then on every G-e at value - 1."""
    out = [decide_caterpillar_k_colorable(g, value - 1),
           decide_caterpillar_k_colorable(g, value)]
    out += [decide_caterpillar_k_colorable(delete_edge(g, e), value - 1)
            for e in g.edges]
    return out


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


def reference_profiles(g):
    """Every component's reference profile, or None when one is not a
    caterpillar."""
    try:
        return [caterpillar_component_profile(g.rows, comp)
                for comp in connected_components(g)]
    except ValueError:
        return None


class TestProfiles:
    """caterpillar_profiles against the per-component reference."""

    def assert_matches_reference(self, g):
        want = reference_profiles(g)
        if want is None:
            with pytest.raises(ValueError):
                caterpillar_profiles(g.rows)
            return
        got = caterpillar_profiles(g.rows)
        assert set(got) == set(want), emit_graph6(g)
        # one profile per component, ordered by the smaller spine end
        assert len(got) == len(want)
        ends = [spine[0] for _, spine, _ in got]
        assert ends == sorted(ends)
        assert all(spine[0] <= spine[-1] for _, spine, _ in got)

    def test_all_graphs_on_seven_vertices(self):
        for g in all_graphs(7):
            self.assert_matches_reference(g)

    @pytest.mark.parametrize("name", ["trees-le12", "caterpillars-le12"])
    def test_corpus(self, name):
        for g in load_corpus(name):
            self.assert_matches_reference(g)

    def test_comb_and_deletions(self):
        g = comb(35, 4)
        for h in [g] + [delete_edge(g, e) for e in g.edges]:
            self.assert_matches_reference(h)

    @pytest.mark.parametrize("g", [
        gen_basic("cycle", 4).graph,
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
        SPIDER,
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
    ], ids=["C4", "C4-pendant", "spider", "triangle-tail", "path-triangle"])
    def test_rejects(self, g):
        with pytest.raises(ValueError):
            caterpillar_profiles(g.rows)
        assert reference_profiles(g) is None


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
        assert sum(map(len, caterpillar._TABLES[5].succ.values())) <= 1140

    def test_tiny_cache_budget(self, monkeypatch):
        # flushing the transition cache changes neither answers nor witnesses
        g = comb(35, 4)
        monkeypatch.setattr(caterpillar, "_TABLES", {})
        want = comb_certificate(g, 7)
        budget = 3 * caterpillar._ENTRY_BITS
        monkeypatch.setattr(caterpillar, "_CACHE_BITS", budget)
        monkeypatch.setattr(caterpillar, "_TABLES", {})
        step = caterpillar._Automaton.step
        seen = []

        def checked_step(auto, cnt, frontier):
            nxt = step(auto, cnt, frontier)
            held = sum(f.bit_length() + m.bit_length() + caterpillar._ENTRY_BITS
                       for (_, f), m in auto.cache.items())
            assert held == auto.cache_bits <= budget
            seen.append(len(auto.cache))
            return nxt

        monkeypatch.setattr(caterpillar._Automaton, "step", checked_step)
        assert comb_certificate(g, 7) == want
        assert max(seen) <= 2 and len(seen) > 6000

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


class TestReferenceKernel:
    """The bitset kernel against the dict-frontier sweep."""

    def test_caterpillar_corpus_and_deletions(self):
        for g in load_corpus("caterpillars-le12"):
            for h in [g] + [delete_edge(g, e) for e in g.edges]:
                chi = caterpillar_chi_rho(h)
                for k in (chi, chi - 1):
                    colors = decide_caterpillar_k_colorable(h, k)
                    assert (colors is not None) == reference_colorable(h, k), \
                        (emit_graph6(h), k)
                    if colors is not None:
                        assert is_valid_packing_coloring(h, colors)
                        assert max(colors, default=0) <= k

    def test_comb_certificate(self):
        g = comb(35, 4)
        got = comb_certificate(g, 7)
        graphs = [g, g] + [delete_edge(g, e) for e in g.edges]
        palettes = [6, 7] + [6] * len(g.edges)
        assert len(got) == 176
        for h, k, colors in zip(graphs, palettes, got):
            assert (colors is not None) == reference_colorable(h, k)
            if colors is not None:
                assert is_valid_packing_coloring(h, colors)
                assert max(colors) <= k
        assert got[0] is None and got[1] is not None
        assert all(colors is not None for colors in got[2:])

    def test_bit_walk(self):
        rng = random.Random(0)
        for width in (1, 2, 64, 256, 257, 400, 3000):
            for _ in range(20):
                mask = rng.getrandbits(width) | 1 << width - 1
                assert list(caterpillar._bits(mask)) == \
                    [i for i in range(width) if mask >> i & 1]

    def test_wide_frontiers(self, monkeypatch):
        # long profiles at palettes 6 and 7 reach frontiers wider than the
        # 256 bits past which _bits splits the binary string
        monkeypatch.setattr(caterpillar, "_TABLES", {})
        rng = random.Random(5)
        for k in (6, 7):
            for _ in range(4):
                counts = [rng.randrange(k + 1) for _ in range(40)]
                g = caterpillar_from_profile(counts).graph
                colors = decide_caterpillar_k_colorable(g, k)
                assert (colors is not None) == reference_colorable(g, k)
                if colors is not None:
                    assert is_valid_packing_coloring(g, colors)
            assert len(caterpillar._TABLES[k].packed) > 256


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
