import pytest

from packcrit import (
    Graph,
    RepairError,
    all_pairs_distances,
    criticality_report,
    decide_packing_k_colorable,
    delete_edge,
    delete_vertex,
    detour_drop_criterion,
    edge_deletion_lower_bound,
    edge_drop_profile,
    gen_basic,
    gen_decorated_c8,
    gen_net,
    is_edge_critical,
    is_valid_packing_coloring,
    is_vertex_critical,
    metric_summary,
    packing_chromatic_number,
    repair_coloring,
)
from packcrit.corpus import all_graphs, connected_graphs, load_corpus
from packcrit.criticality import _detour_colorable
from packcrit.solver import _twin_groups


def path(n):
    return gen_basic("path", n).graph


def cycle(n):
    return gen_basic("cycle", n).graph


def complete(n):
    return gen_basic("complete", n).graph


class TestLowerBound:
    def test_frozen_table(self):
        # the halving bound degenerates below value 3: a single-edge graph
        # drops from 2 to 1, so the floor there is 1, not 2
        assert [edge_deletion_lower_bound(chi) for chi in range(9)] == \
            [0, 0, 1, 2, 3, 3, 4, 4, 5]

    def test_matches_naive_from_three_up(self):
        for chi in range(3, 30):
            assert edge_deletion_lower_bound(chi) == (chi + 1 + 1) // 2


class TestReports:
    def test_k2_report(self):
        rep = criticality_report(path(2))
        assert rep.chi_rho == 2
        assert rep.is_edge_critical
        assert rep.is_vertex_critical
        assert rep.edge_values == {(0, 1): 1}
        assert rep.vertex_values == {0: 1, 1: 1}

    def test_c4_not_edge_but_vertex_critical(self):
        rep = criticality_report(cycle(4))
        assert rep.chi_rho == 3
        assert not rep.is_edge_critical
        assert rep.is_vertex_critical
        assert set(rep.edge_values.values()) == {3}
        assert set(rep.vertex_values.values()) == {2}

    def test_c5_both_critical(self):
        rep = criticality_report(cycle(5))
        assert rep.chi_rho == 4
        assert rep.is_edge_critical and rep.is_vertex_critical
        assert set(rep.edge_values.values()) == {3}

    def test_net_edge_critical(self):
        rep = criticality_report(gen_net().graph)
        assert rep.chi_rho == 4
        assert rep.is_edge_critical

    def test_decorated_c8_vertex_only(self):
        rep = criticality_report(gen_decorated_c8().graph)
        assert rep.chi_rho == 4
        assert not rep.is_edge_critical
        assert rep.is_vertex_critical

    def test_k1_critical_by_convention(self):
        rep = criticality_report(Graph.empty(1))
        assert rep.chi_rho == 1
        assert rep.is_edge_critical
        assert rep.is_vertex_critical
        assert rep.edge_values == {}

    def test_empty_graph_not_critical(self):
        rep = criticality_report(Graph.empty(0))
        assert rep.chi_rho == 0
        assert not rep.is_edge_critical
        assert not rep.is_vertex_critical

    def test_isolated_vertex_blocks_edge_criticality(self):
        from packcrit import disjoint_union
        g = disjoint_union(path(2), Graph.empty(1))
        rep = criticality_report(g)
        assert not rep.is_edge_critical

    def test_witnesses_check_out(self):
        # two triangles joined by a bridge: deleting the bridge disconnects
        bridged = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3),
                                       (3, 4), (4, 5), (3, 5)])
        # block graphs carry many twins, so most witnesses are moved ones
        blocks = [lg.graph for lg in load_corpus("block-diam3-le12")
                  if lg.graph.n <= 10]
        for g in list(connected_graphs(5)) + [bridged] + blocks:
            rep = criticality_report(g, include_witnesses=True)
            for e, w in rep.edge_witnesses.items():
                h = delete_edge(g, e)
                assert is_valid_packing_coloring(h, w)
                assert w.palette_size == rep.edge_values[e]
            for v, w in rep.vertex_witnesses.items():
                h, kept = delete_vertex(g, v)
                colors = tuple(w[orig] for orig in kept)
                assert is_valid_packing_coloring(h, colors)
                assert max(colors, default=0) == rep.vertex_values[v]

    @pytest.mark.parametrize("g, solves", [
        (gen_basic("star", 5).graph, 1 + 2),  # one edge orbit, two vertex orbits
        (complete(4), 1 + 1),
        (cycle(5), 5 + 5),  # no twins
    ])
    def test_solves_one_per_twin_orbit(self, g, solves):
        assert criticality_report(g).solves == solves

    def test_nodes_counted(self):
        # K4, K4 - e and K3 all meet the neighbourhood bound at their
        # constructed palettes; C9's power bound stops at 3 (4 + 3 + 2 = 9
        # vertices fit), so its walk must prove 3 colors infeasible
        assert criticality_report(complete(4)).nodes == 0
        rep = criticality_report(cycle(9))
        assert rep.nodes >= packing_chromatic_number(cycle(9)).node_count > 0

    def test_fast_paths_agree_with_report(self):
        # dual route: the early-exit predicates vs the full per-deletion
        # table, over isolated vertices, disconnected graphs, K1 and K0
        for g in list(all_graphs(5)) + [Graph.empty(0)]:
            rep = criticality_report(g)
            assert is_edge_critical(g) == rep.is_edge_critical
            assert is_vertex_critical(g) == rep.is_vertex_critical


class TestTwinOrbits:
    def test_twin_swap_is_automorphism(self):
        # _twin_groups looks each vertex up by its group's first member
        # only; the dedupe needs every swap inside a group to fix the edges
        for g in all_graphs(6):
            edges = set(g.edges)
            for group in _twin_groups(g):
                for i, a in enumerate(group):
                    for b in group[i + 1:]:
                        swap = {a: b, b: a}
                        assert {tuple(sorted((swap.get(u, u), swap.get(v, v))))
                                for u, v in edges} == edges


class TestDropProfile:
    def test_profile_bounds(self):
        for g in [cycle(5), path(4), complete(4), gen_net().graph]:
            chi = packing_chromatic_number(g).value
            for e, (val, drop) in edge_drop_profile(g).items():
                assert edge_deletion_lower_bound(chi) <= val <= chi
                assert drop == chi - val

    def test_profile_c5(self):
        prof = edge_drop_profile(cycle(5))
        assert all(val == 3 and drop == 1 for val, drop in prof.values())


class TestRepair:
    def _optimal_on_deleted(self, g, e):
        return packing_chromatic_number(delete_edge(g, e)).witness

    def test_repair_on_c5(self):
        g = cycle(5)
        e = (0, 4)
        cprime = self._optimal_on_deleted(g, e)
        fixed = repair_coloring(g, e, cprime)
        assert is_valid_packing_coloring(g, fixed)
        m = cprime.palette_size
        assert fixed.palette_size <= 2 * m - 1

    def test_repair_cap_over_corpus(self):
        for g in connected_graphs(5):
            for e in g.edges:
                cprime = self._optimal_on_deleted(g, e)
                fixed = repair_coloring(g, e, cprime)
                assert is_valid_packing_coloring(g, fixed)
                m = max(cprime.colors) if cprime.colors else 0
                cap = 2 if m <= 1 else 2 * m - 1
                assert fixed.palette_size <= cap

    def test_repair_rejects_invalid_input(self):
        g = cycle(5)
        with pytest.raises(RepairError):
            repair_coloring(g, (0, 4), (1, 1, 1, 1, 1))

    def test_repair_accepts_already_valid(self):
        # a coloring of G-e that happens to be valid on G needs no new colors
        g = cycle(6)
        cprime = (1, 2, 1, 3, 1, 4)
        assert is_valid_packing_coloring(g, cprime)
        fixed = repair_coloring(g, (0, 5), cprime)
        assert fixed.colors == cprime

    def test_repair_broken_middle_class(self):
        # on the path, the 2s at positions 1 and 5 are fine, but closing the
        # cycle puts them at distance 2, so one of them must move
        g = cycle(6)
        cprime = (1, 2, 1, 3, 1, 2)
        assert not is_valid_packing_coloring(g, cprime)
        fixed = repair_coloring(g, (0, 5), cprime)
        assert is_valid_packing_coloring(g, fixed)
        assert fixed.palette_size <= 2 * 3 - 1

    def test_repair_missing_edge_raises(self):
        with pytest.raises(Exception):
            repair_coloring(path(3), (0, 2), (1, 2, 1))


class TestDetourCriterion:
    def test_fires_on_c5(self):
        # deleting any C5 edge stretches its endpoints to distance 4 and an
        # optimal coloring puts the two biggest colors on adjacent vertices
        assert detour_drop_criterion(cycle(5), (3, 4), 3, 4)

    def test_requires_edge(self):
        with pytest.raises(ValueError):
            detour_drop_criterion(cycle(5), (0, 2), 0, 2)

    def test_rejects_vertex_outside_graph(self):
        for u, v in ((3, 7), (0, -5), (-2, 4)):
            with pytest.raises(ValueError):
                detour_drop_criterion(cycle(5), (3, 4), u, v)

    def test_rejects_edge_outside_graph(self):
        g = path(4)
        for e in ((g.n, 0), (0, g.n), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="not present"):
                detour_drop_criterion(g, e, 0, 1)

    def test_false_when_graph_disconnects(self):
        # removing a bridge leaves infinite diameter; the criterion demands a
        # finite stretched diameter
        assert not detour_drop_criterion(path(4), (1, 2), 1, 2)

    def test_false_without_stretch(self):
        # deleting the diamond chord leaves a 4-cycle with the same diameter
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert not detour_drop_criterion(g, (0, 2), 0, 2)

    def test_fires_on_clique(self):
        # cliques stretch every deleted edge and carry adjacent top colors
        assert detour_drop_criterion(complete(4), (0, 1), 0, 1)
        assert packing_chromatic_number(
            delete_edge(complete(4), (0, 1))).value < 4

    def test_firing_implies_drop(self):
        for g in connected_graphs(5):
            chi = packing_chromatic_number(g).value
            for e in g.edges:
                h = delete_edge(g, e)
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        if detour_drop_criterion(g, e, u, v):
                            assert packing_chromatic_number(h).value < chi

    def test_colorable_matches_pin_pairs(self):
        # one masked search against the pinned decisions it replaced: every
        # ordered pair of distinct colors from diam..chi on u and v
        for g in connected_graphs(6):
            diam = metric_summary(g).diameter
            chi = packing_chromatic_number(g).value
            for e in g.edges:
                dist = all_pairs_distances(delete_edge(g, e)).distance
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        if dist(u, v) <= diam:
                            continue
                        pinned = any(
                            decide_packing_k_colorable(
                                g, chi, pinned={pu: i, pv: j}) is not None
                            for i in range(diam, chi + 1)
                            for j in range(i + 1, chi + 1)
                            for pu, pv in ((u, v), (v, u)))
                        assert _detour_colorable(
                            g, u, v, diam, chi, None) == pinned
