import random
import time
import types

import pytest

from packcrit import (
    INFINITY,
    Graph,
    PackingColoring,
    SolveTimeout,
    all_pairs_distances,
    brute_force_chi_rho,
    caterpillar_from_profile,
    decide_packing_k_colorable,
    delete_edge,
    disjoint_union,
    gen_basic,
    gen_realization,
    gen_sharpness_family,
    independence_number,
    is_valid_packing_coloring,
    neighborhood_lower_bound,
    packing_chromatic_number,
    packing_lower_bound,
    parse_graph6,
)
from packcrit import solver
from packcrit.corpus import all_graphs, connected_graphs, load_corpus
from packcrit.graphs import max_independent_set
from packcrit.solver import _PowerSums, _search, _twin_groups


def assert_optimal_witness(g, res):
    assert is_valid_packing_coloring(g, res.witness)
    assert res.witness.palette_size == res.value


def path(n):
    return gen_basic("path", n).graph


def cycle(n):
    return gen_basic("cycle", n).graph


def complete(n):
    return gen_basic("complete", n).graph


def plain_colorable(g, k, masks):
    """Label-order backtracking under the distance rule and the masks alone,
    with none of the search's pruning: no twin break, no color-1 cut."""
    dm = all_pairs_distances(g)
    colors = []

    def extend(v):
        if v == g.n:
            return True
        for c in range(1, k + 1):
            if masks.get(v, -1) >> (c - 1) & 1 and all(
                    colors[u] != c or dm.distance(u, v) > c for u in range(v)):
                colors.append(c)
                if extend(v + 1):
                    return True
                colors.pop()
        return False

    return extend(0)


def first_high_color(g):
    """The largest finite distance of g, and at least 2: from this color on
    every color conflicts with a vertex's whole component."""
    dm = all_pairs_distances(g)
    return max([2] + [dm.distance(u, w) for u in range(g.n)
                      for w in range(g.n) if dm.distance(u, w) != INFINITY])


def vertex_major_search(g, k, allowed, hint=None):
    """Forward checking over per-vertex domains: one color mask per vertex
    and a loop over the conflicting vertices at every trial, with _search's
    order, twin break, color-1 cut, value precedence, hint renaming and hint
    order but no deadline.  The reference for _search's colorings and node
    counts."""
    n = g.n
    if n == 0:
        return (), 0
    if k <= 0:
        return None, 0
    dm = all_pairs_distances(g)
    balls = dm.balls
    full = (1 << k) - 1
    domains = [full] * n
    for v, mask in allowed.items():
        domains[v] = mask & full
    for v, row in enumerate(g.rows):
        if row.bit_count() >= k:
            domains[v] &= ~1
    conflict = [[ball[min(c, len(ball) - 1)] for c in range(k + 1)]
                for ball in balls]
    restricted = set(allowed)
    twin_pred = [None] * n
    ordered_groups = []
    for grp in _twin_groups(g):
        members = [v for v in grp if v not in restricted]
        if not members:
            continue
        if not (set(grp) & restricted):
            for a, b in zip(members, members[1:]):
                twin_pred[b] = a
        ordered_groups.append(members)
    ordered_groups.sort(key=lambda ms: (-g.degree(ms[0]), ms[0]))
    order = sorted(restricted) + [v for ms in ordered_groups for v in ms]
    # the high colors: from the largest finite distance (and 2) up to k;
    # precedence applies when every mask holds all of them or none, and
    # separately in each component
    first_high = first_high_color(g)
    highs = set(range(first_high, k + 1))
    precedence = all(
        not {c for c in highs if mask >> (c - 1) & 1}
        or all(mask >> (c - 1) & 1 for c in highs)
        for mask in allowed.values())
    component = [frozenset(w for w in range(n)
                           if dm.distance(u, w) != INFINITY)
                 for u in range(n)]
    if precedence and hint is not None:
        renamed = list(hint)
        for comp in set(component):
            firsts = []
            for v in order:
                if v in comp and hint[v] in highs and hint[v] not in firsts:
                    firsts.append(hint[v])
            for v in comp:
                if hint[v] in highs:
                    renamed[v] = first_high + firsts.index(hint[v])
        hint = renamed
    hint_bit = [0] * n if hint is None else [1 << (c - 1) for c in hint]
    colors = [0] * n
    untried = [0] * n
    trail = [()] * n
    unassigned = (1 << n) - 1
    nodes = 0
    idx = 0
    while True:
        if idx == n:
            return tuple(colors), nodes
        v = order[idx]
        if colors[v] == 0:
            dom = domains[v]
            pred = twin_pred[v]
            if pred is not None:
                dom &= ~((1 << (colors[pred] - 1)) - 1)
            if precedence:
                # no high color above the highest one on the path in v's
                # component plus one
                used = [colors[u] for u in order[:idx]
                        if colors[u] in highs and u in component[v]]
                newest = max(used, default=first_high - 1) + 1
                dom &= ~sum(1 << (c - 1) for c in highs if c > newest)
            unassigned &= ~(1 << v)
            m = dom
        else:
            for u, du in trail[idx]:
                domains[u] = du
            m = untried[idx]
        conflict_v = conflict[v]
        hb = hint_bit[v]
        while m:
            low = m & hb or m & -m
            m ^= low
            c = low.bit_length()
            nodes += 1
            colors[v] = c
            changes = []
            ok = True
            um = conflict_v[c] & unassigned
            while um:
                ul = um & -um
                um ^= ul
                u = ul.bit_length() - 1
                du = domains[u]
                if du & low:
                    domains[u] = du ^ low
                    changes.append((u, du))
                    if du == low:
                        ok = False
                        break
            if ok:
                break
            for u, du in changes:
                domains[u] = du
        else:
            colors[v] = 0
            unassigned |= 1 << v
            if idx == 0:
                return None, nodes
            idx -= 1
            continue
        untried[idx], trail[idx] = m, changes
        idx += 1


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestValidity:
    def test_accepts_valid(self):
        assert is_valid_packing_coloring(path(4), (1, 2, 1, 3))
        assert is_valid_packing_coloring(path(4), PackingColoring((1, 2, 1, 3)))

    def test_rejects_adjacent_ones(self):
        assert not is_valid_packing_coloring(path(2), (1, 1))

    def test_rejects_close_high_colors(self):
        # the two 2s sit at distance 2, need > 2
        assert not is_valid_packing_coloring(path(3), (2, 1, 2))

    def test_rejects_nonpositive(self):
        assert not is_valid_packing_coloring(path(2), (0, 1))

    def test_rejects_non_integer_colors(self):
        # 3.5 differs from 3, so only the type makes this coloring invalid
        dqg = parse_graph6("Dqg")
        assert is_valid_packing_coloring(dqg, (1, 2, 3, 1, 4))
        assert not is_valid_packing_coloring(dqg, (1, 2, 3, 1, 3.5))
        assert not is_valid_packing_coloring(path(2), (1.5, 2))
        assert not is_valid_packing_coloring(path(2), (True, 2))
        assert not is_valid_packing_coloring(path(2), (1.0, 2))

    def test_start_with_non_integer_colors_raises(self):
        dqg = parse_graph6("Dqg")
        for g, start in ((path(2), [1.5, 2]), (path(2), [True, 2]),
                         (dqg, [1, 2, 3, 1, 3.5])):
            with pytest.raises(ValueError):
                packing_chromatic_number(g, start=start)

    def test_rejects_wrong_length(self):
        assert not is_valid_packing_coloring(path(3), (1, 2))

    def test_coloring_helpers(self):
        c = PackingColoring.from_mapping(3, {0: 1, 1: 2, 2: 1})
        assert c.colors == (1, 2, 1)
        assert c.palette_size == 2
        assert c.color_class(1) == frozenset({0, 2})
        assert c.color_class(3) == frozenset()


# frozen by hand: paths stabilize at 3, cycles at 3 or 4 depending on
# divisibility by 4, cliques need all-distinct colors, stars need two
FROZEN_VALUES = [
    (lambda: Graph.empty(0), 0),
    (lambda: Graph.empty(1), 1),
    (lambda: Graph.empty(4), 1),
    (lambda: path(2), 2),
    (lambda: path(3), 2),
    (lambda: path(4), 3),
    (lambda: path(10), 3),
    (lambda: cycle(3), 3),
    (lambda: cycle(4), 3),
    (lambda: cycle(5), 4),
    (lambda: cycle(6), 4),
    (lambda: cycle(7), 4),
    (lambda: cycle(8), 3),
    (lambda: cycle(11), 4),
    (lambda: cycle(12), 3),
    (lambda: complete(5), 5),
    (lambda: gen_basic("star", 6).graph, 2),
]


# triangle 0-2-4 with the path 0-1-3 hanging off vertex 0
TRIANGLE_WITH_TAIL = Graph.from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 4)])


class TestValues:
    @pytest.mark.parametrize("make,want", FROZEN_VALUES)
    def test_frozen_value(self, make, want):
        g = make()
        res = packing_chromatic_number(g)
        assert res.value == want
        assert is_valid_packing_coloring(g, res.witness)
        assert res.witness.palette_size <= want
        assert len(res.witness.colors) == g.n

    def test_disjoint_union_takes_max(self):
        g = disjoint_union(cycle(5), path(4))
        assert packing_chromatic_number(g).value == 4
        assert_optimal_witness(g, packing_chromatic_number(g))
        g = disjoint_union(Graph.empty(1), complete(3))
        assert packing_chromatic_number(g).value == 3
        assert_optimal_witness(g, packing_chromatic_number(g))

    def test_start_coloring(self):
        g = cycle(5)
        for start in [(1, 2, 1, 3, 4), (1, 2, 3, 4, 5)]:
            res = packing_chromatic_number(g, start=start)
            assert res.value == 4
            assert_optimal_witness(g, res)

    def test_walk_starts_from_the_better_coloring(self):
        # both constructions use 4 colors here, one more than the optimum
        g = TRIANGLE_WITH_TAIL
        plain = packing_chromatic_number(g)
        best = packing_chromatic_number(g, start=(3, 1, 1, 2, 2))
        worse = packing_chromatic_number(g, start=(1, 2, 3, 4, 5))
        assert plain.value == best.value == worse.value == 3
        assert_optimal_witness(g, best)
        assert best.node_count < plain.node_count
        assert worse.node_count == plain.node_count

    def test_witness_as_start(self):
        # a PackingColoring is accepted as start, so one solve's witness
        # feeds the next solve
        assert packing_chromatic_number(
            path(2), start=PackingColoring((1, 2))).value == 2
        for g in (cycle(5), TRIANGLE_WITH_TAIL,
                  disjoint_union(cycle(5), TRIANGLE_WITH_TAIL)):
            first = packing_chromatic_number(g)
            again = packing_chromatic_number(g, start=first.witness)
            assert again.value == first.value
            assert_optimal_witness(g, again)
        with pytest.raises(ValueError):
            packing_chromatic_number(path(2), start=PackingColoring((1, 1)))

    def test_start_split_per_component(self):
        g = disjoint_union(cycle(5), TRIANGLE_WITH_TAIL)
        res = packing_chromatic_number(g, start=(1, 2, 1, 3, 4, 3, 1, 1, 2, 2))
        assert res.value == 4
        assert_optimal_witness(g, res)
        # each component walks from its own slice of the start
        parts = [packing_chromatic_number(cycle(5), start=(1, 2, 1, 3, 4)),
                 packing_chromatic_number(TRIANGLE_WITH_TAIL,
                                          start=(3, 1, 1, 2, 2))]
        assert res.node_count == sum(p.node_count for p in parts)

    @pytest.mark.parametrize("start", [
        (1, 2, 1, 3),           # wrong length
        (0, 2, 1, 3, 4),        # color 0
        (1, 1, 2, 3, 4),        # adjacent vertices both colored 1
    ])
    def test_bad_start_rejected(self, start):
        with pytest.raises(ValueError):
            packing_chromatic_number(cycle(5), start=start)

    def test_node_count_reported(self):
        # C9 has chi 4, but alpha over C9, its square and its cube sums to
        # 4 + 3 + 2 = 9 = n, so the power bound stops at 3 and the walk must
        # search (C7's sum 3 + 2 + 1 = 6 < 7 proves 4 with no search)
        res = packing_chromatic_number(cycle(9))
        assert res.node_count > 0

    def test_long_cycle_within_recursion_limit(self):
        # the search keeps its own stack; 1102 = 2 mod 4 gives value 4
        g = cycle(1102)
        res = packing_chromatic_number(g)
        assert res.value == 4
        assert_optimal_witness(g, res)

    def test_walk_follows_the_coloring_in_hand(self):
        # each search of the walk tries the previous palette's coloring
        # first (74,054 nodes without that), and the color-1 degree cut
        # shrinks the unsatisfiable proof (20,087 nodes without it)
        g = gen_realization(7, 4).graph
        res = packing_chromatic_number(g)
        assert res.value == 7
        assert_optimal_witness(g, res)
        assert res.node_count <= 2_000

    def test_diameter_two_solved_by_construction(self):
        # at diameter 2 chi = n - alpha + 1 (Goddard et al. 2008), the
        # palette of the spread construction, so no search runs
        for g in load_corpus("connected-le7-diam2"):
            res = packing_chromatic_number(g)
            assert res.node_count == 0
            assert res.value == g.n - independence_number(g)[0] + 1
            assert_optimal_witness(g, res)

    def test_walk_stops_at_the_bound(self):
        # K4 and the triangle with a tail meet their bound at the
        # constructed or started palette, so no search runs
        assert packing_chromatic_number(complete(4)).node_count == 0
        res = packing_chromatic_number(TRIANGLE_WITH_TAIL, start=(3, 1, 1, 2, 2))
        assert res.value == 3 and res.node_count == 0
        assert_optimal_witness(TRIANGLE_WITH_TAIL, res)


class TestNeighborhoodBound:
    @pytest.mark.parametrize("g, want", [
        (Graph.empty(0), 0),
        (Graph.empty(3), 1),
        (complete(5), 5),
        (cycle(5), 2),            # every N(v) is independent
        (gen_basic("star", 5).graph, 2),
        (TRIANGLE_WITH_TAIL, 3),  # N[v] of the triangle vertex with the tail
        (disjoint_union(Graph.empty(1), complete(4)), 4),
    ])
    def test_frozen_values(self, g, want):
        assert neighborhood_lower_bound(g) == want

    def test_below_oracle_exhaustive(self):
        for g in all_graphs(6):
            assert neighborhood_lower_bound(g) <= brute_force_chi_rho(g)
            assert packing_lower_bound(g) <= brute_force_chi_rho(g)


class TestPowerBound:
    def test_diameter_two_closed_form(self):
        # alpha(G^c) = 1 for every c >= 2, so the bound is n - alpha + 1
        for g in load_corpus("connected-le7-diam2"):
            assert packing_lower_bound(g) == g.n - independence_number(g)[0] + 1

    def test_disconnected_counts_components(self):
        # two disjoint 3-paths: alpha = 4 and alpha(G^c) = 2 for c >= 2, so
        # 4 + 2 >= 6 gives 2 = chi; one vertex per color would give 3
        g = disjoint_union(path(3), path(3))
        assert packing_lower_bound(g) == 2 == packing_chromatic_number(g).value
        assert packing_lower_bound(Graph.empty(0)) == 0
        assert packing_lower_bound(Graph.empty(4)) == 1

    def test_cycles(self):
        # C7: 3 + 2 + 1 < 7 closes palette 3; C9: 4 + 3 + 2 = 9 does not
        assert packing_lower_bound(cycle(7)) == 4
        assert packing_lower_bound(cycle(9)) == 3

    def test_expired_deadline_raises_from_power_alpha(self):
        # alpha of a path takes leaves and never branches, but alpha of its
        # square must branch, and the greedy sums 10 + 7 < 20 cannot decide
        expired = time.monotonic() - 1.0
        assert independence_number(path(20), deadline=expired)[0] == 10
        with pytest.raises(SolveTimeout):
            packing_lower_bound(path(20), deadline=expired)
        assert packing_lower_bound(path(20)) == 3


class TestLayered:
    @pytest.mark.parametrize("code, chi", [
        ("KtmCKL?OI@gF", 9),
        ("K{aIADBG@?cB", 7),
    ])
    def test_layering_ends_the_walk_at_the_power_bound(self, code, chi):
        # diameter-3 block graphs whose independent-set construction uses
        # n - alpha + 1 = chi + 1 and chi + 2 colors; the layered coloring
        # uses chi, which the power bound closes, so no search runs (the
        # walk searched 19,582 and 10,764 nodes before the layering)
        g = parse_graph6(code)
        res = packing_chromatic_number(g)
        assert res.value == chi == packing_lower_bound(g)
        assert res.node_count == 0
        assert_optimal_witness(g, res)

    def test_expired_deadline_raises_from_layering(self):
        # C12's square restricted to the vertices color 1 left is a
        # 6-cycle, whose alpha must branch
        g = cycle(12)
        alpha, first = max_independent_set(g.rows)
        expired = time.monotonic() - 1.0
        with pytest.raises(SolveTimeout):
            _PowerSums(g, alpha, expired).layered(first, g.n)
        colors = _PowerSums(g, alpha, None).layered(first, g.n)
        assert max(colors) == 3 and is_valid_packing_coloring(g, colors)


class TestDecide:
    def test_decide_boundary(self):
        assert decide_packing_k_colorable(cycle(5), 3) is None
        cols = decide_packing_k_colorable(cycle(5), 4)
        assert cols is not None
        assert is_valid_packing_coloring(cycle(5), cols)

    def test_decide_zero_palette(self):
        assert decide_packing_k_colorable(Graph.empty(0), 0) == ()
        assert decide_packing_k_colorable(Graph.empty(1), 0) is None

    def test_pins_respected(self):
        g = path(4)
        cols = decide_packing_k_colorable(g, 3, pinned={0: 3})
        assert cols is not None and cols[0] == 3
        assert is_valid_packing_coloring(g, cols)

    def test_contradictory_pins(self):
        g = path(2)
        assert decide_packing_k_colorable(g, 1, pinned={0: 1, 1: 1}) is None

    def test_pin_validation(self):
        with pytest.raises(ValueError):
            decide_packing_k_colorable(path(2), 2, pinned={0: 3})
        with pytest.raises(ValueError):
            decide_packing_k_colorable(path(2), 2, pinned={5: 1})
        for pins in ({0: 1.5}, {0: True}, {0: 2.0}, {0.0: 1}, {False: 1}):
            with pytest.raises(ValueError):
                decide_packing_k_colorable(path(2), 2, pinned=pins)
        for k in (-1, 2.5, 2.0, True):
            with pytest.raises(ValueError):
                decide_packing_k_colorable(path(2), k)

    def test_search_matches_oracle_exhaustive(self):
        # every palette of every graph on up to 6 vertices, without masks
        # against the oracle and with masks on two vertices against the
        # plain search; the color-1 cut and the twin break stay sound
        rng = random.Random(6)
        for g in all_graphs(6):
            chi = brute_force_chi_rho(g)
            for k in range(1, g.n + 1):
                cases = [({}, k >= chi)]
                for _ in range(3 if g.n >= 2 else 0):
                    u, v = rng.sample(range(g.n), 2)
                    masks = {u: rng.randrange(1 << k), v: rng.randrange(1 << k)}
                    cases.append((masks, plain_colorable(g, k, masks)))
                for masks, want in cases:
                    found, _ = _search(g, k, masks, None)
                    assert (found is not None) == want, (g, k, masks)
                    if found is not None:
                        assert is_valid_packing_coloring(g, found)
                        assert max(found) <= k
                        assert all(m >> (found[v] - 1) & 1
                                   for v, m in masks.items())

    def test_kernel_matches_vertex_major_reference(self):
        # same colors and same nodes as the per-vertex-domain kernel: every
        # palette 0..n+1 of every graph on up to 6 vertices, then masks on
        # two vertices and random hints, then the proven-value families
        # (G and G - e) at chi and chi - 1
        def same(g, k, masks, hint=None):
            got = _search(g, k, masks, None, hint)
            assert got == vertex_major_search(g, k, masks, hint), \
                (g, k, masks, hint)

        rng = random.Random(18)
        for g in all_graphs(6):
            for k in range(g.n + 2):
                same(g, k, {})
                if g.n >= 2 and k:
                    u, v = rng.sample(range(g.n), 2)
                    masks = {u: rng.randrange(1 << k), v: rng.randrange(1 << k)}
                    hint = [rng.randint(1, k + 1) for _ in range(g.n)]
                    same(g, k, masks)
                    same(g, k, {}, hint)
                    same(g, k, masks, hint)
        family = []
        for k in range(3, 8):
            for n in range((k + 2) // 2, k + 1):
                lab = gen_realization(k, n)
                family.append((lab.graph, k))
                family.append((delete_edge(lab.graph, tuple(lab.labels["e"])), n))
        for n in range(2, 5):
            lab = gen_sharpness_family(n)
            family.append((lab.graph, 2 * n - 1))
            family.append((delete_edge(lab.graph, tuple(lab.labels["bridge"])), n))
        for g, chi in family:
            witness = packing_chromatic_number(g).witness.colors
            for k in (chi, chi - 1):
                same(g, k, {})
                same(g, k, {}, witness)

    def test_precedence_matches_oracles_exhaustive(self):
        # every palette 0..n+1 of every graph on up to 7 vertices,
        # disconnected ones included, against the brute-force value; on up
        # to 6 vertices also two-vertex masks against the plain search:
        # masks holding all or none of the high colors (precedence on),
        # one-color pins with a high color and masks holding a random part
        # of the high colors (precedence off unless the part is all or none)
        rng = random.Random(21)
        for g in all_graphs(7):
            chi = brute_force_chi_rho(g)
            first_high = first_high_color(g)
            for k in range(g.n + 2):
                cases = [({}, k >= chi)]
                if 2 <= g.n <= 6 and k:
                    highs = sum(1 << (c - 1) for c in range(first_high, k + 1))
                    for _ in range(3):
                        u, v = rng.sample(range(g.n), 2)
                        masks = {w: rng.randrange(1 << k) & ~highs
                                 | rng.choice((0, highs)) for w in (u, v)}
                        cases.append((masks, plain_colorable(g, k, masks)))
                        pin = rng.randint(min(first_high, k), k)
                        masks = {u: 1 << (pin - 1),
                                 v: 1 << rng.randrange(k)}
                        cases.append((masks, plain_colorable(g, k, masks)))
                        masks = {w: rng.randrange(1 << k) for w in (u, v)}
                        cases.append((masks, plain_colorable(g, k, masks)))
                for masks, want in cases:
                    found, _ = _search(g, k, masks, None)
                    assert (found is not None) == want, (g, k, masks)
                    if found is not None:
                        assert is_valid_packing_coloring(g, found)
                        assert max(found, default=0) <= k
                        assert all(m >> (found[w] - 1) & 1
                                   for w, m in masks.items())

    def test_precedence_refutes_petersen_quickly(self):
        # diameter 2, so colors 2..6 are interchangeable: refuting a
        # 6-coloring need not try their orderings one by one
        petersen = Graph.from_edges(
            10, [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        found, nodes = _search(petersen, 6, {}, None)
        assert found is None and nodes <= 100
        assert packing_chromatic_number(petersen).value == 7

    def test_partial_high_mask_turns_precedence_off(self):
        # on P3 colors 2..4 are high; vertex 0 may take 3 or 4 and vertex 1
        # only 3, so 0 must take 4, the higher of its two high colors
        g = path(3)
        found, _ = _search(g, 4, {0: 0b1100, 1: 0b0100}, None)
        assert found is not None and found[:2] == (4, 3)
        assert is_valid_packing_coloring(g, found)

    def test_twin_break_keeps_satisfiable_pins(self):
        # two leaves on the same support are twins; pinning one of them to a
        # high color must not be pruned away by symmetry breaking
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        cols = decide_packing_k_colorable(g, 3, pinned={3: 3})
        assert cols is not None and cols[3] == 3
        assert is_valid_packing_coloring(g, cols)


class TestOracle:
    def test_brute_force_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_chi_rho(Graph.empty(9))

    def test_oracle_matches_solver_small(self):
        for g in all_graphs(5):
            assert packing_chromatic_number(g).value == brute_force_chi_rho(g)

    def test_oracle_matches_on_connected_6(self):
        for g in connected_graphs(6):
            assert packing_chromatic_number(g).value == brute_force_chi_rho(g)


class TestDeterminism:
    def test_witness_stable_across_cache_states(self):
        g = cycle(7)
        first = packing_chromatic_number(g)
        # the solver keeps no state between calls, so every solve is cold
        again = packing_chromatic_number(g)
        cold = packing_chromatic_number(g)
        assert first.witness.colors == again.witness.colors == cold.witness.colors
        assert first.value == again.value == cold.value

    def test_value_invariant_under_relabeling(self):
        rng = random.Random(7)
        for g in connected_graphs(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert packing_chromatic_number(relabel(g, perm)).value == \
                packing_chromatic_number(g).value


class TestTimeout:
    def test_deadline_raises(self):
        g = gen_basic("cycle", 40).graph
        with pytest.raises(SolveTimeout):
            packing_chromatic_number(g, deadline=time.monotonic() - 1.0)

    def test_expired_deadline_on_decide(self):
        with pytest.raises(SolveTimeout):
            decide_packing_k_colorable(gen_basic("cycle", 40).graph, 3,
                                       deadline=time.monotonic() - 1.0)

    def test_deadline_polled_inside_the_search(self, monkeypatch):
        # the clock reads 0 at the entry check and 2 afterwards, so only
        # the search's own poll, at node 1,024, can see the deadline of 1
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) == 1 else 2.0
        monkeypatch.setattr(solver, "time",
                            types.SimpleNamespace(monotonic=monotonic))
        # comb(12, 2) at k = 6 is satisfiable but takes 2,395,876 nodes
        # without a hint
        g = caterpillar_from_profile([2] * 12).graph
        with pytest.raises(SolveTimeout, match="timed out"):
            decide_packing_k_colorable(g, 6, deadline=1.0)
        assert len(reads) == 2
