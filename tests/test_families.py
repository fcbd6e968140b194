import pytest

from packcrit import (
    Graph,
    are_isomorphic,
    canonical_key,
    enumerate_block_graphs_diam2,
    enumerate_block_graphs_diam3,
    enumerate_caterpillars,
    enumerate_trees,
    gen_basic,
    gen_decorated_c4,
    gen_decorated_c8,
    gen_leafy_unicyclic,
    gen_net,
    gen_realization,
    gen_sharpness_family,
    is_caterpillar,
    is_connected,
    is_tree,
    block_decomposition,
    metric_summary,
    tree_canonical_code,
)


class TestBasicFamilies:
    def test_path(self):
        g = gen_basic("path", 4).graph
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = gen_basic("cycle", 4).graph
        assert g.edge_count == 4 and all(g.degree(v) == 2 for v in range(4))

    def test_complete(self):
        g = gen_basic("complete", 5).graph
        assert g.edge_count == 10

    def test_star_labels_hub(self):
        lg = gen_basic("star", 4)
        assert lg.labels["hub"] == 0
        assert lg.graph.n == 5
        assert lg.graph.degree(0) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_basic("cycle", 2)
        with pytest.raises(ValueError):
            gen_basic("path", 0)
        with pytest.raises(ValueError):
            gen_basic("hypercube", 3)


class TestSharpness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shape(self, n):
        lg = gen_sharpness_family(n)
        g = lg.graph
        assert g.n == 2 * n + 2 * (n - 1) * (2 * n - 2)
        a, b = lg.labels["a"], lg.labels["b"]
        assert lg.labels["bridge"] == (a, b)
        assert g.has_edge(a, b)
        # bridge endpoints carry no leaves; every other clique vertex has 2n-2
        leaf_counts = {}
        for v in range(g.n):
            if g.degree(v) == 1:
                s = g.neighbors(v)[0]
                leaf_counts[s] = leaf_counts.get(s, 0) + 1
        assert a not in leaf_counts and b not in leaf_counts
        assert sorted(leaf_counts.values()) == [2 * n - 2] * (2 * (n - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_sharpness_family(1)


class TestRealization:
    def test_pendant_shape_at_top(self):
        lg = gen_realization(4, 4)
        g = lg.graph
        assert g.n == 5
        e = lg.labels["e"]
        assert g.degree(e[1]) == 1

    def test_two_clique_shape(self):
        lg = gen_realization(5, 3)
        g = lg.graph
        # K3 joined to K3 by a bridge, k-1 = 4 leaves on each non-bridge vertex
        assert g.n == 3 + 3 + 4 * 4
        assert g.has_edge(*lg.labels["e"])

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_realization(2, 2)
        with pytest.raises(ValueError):
            gen_realization(5, 2)   # below the floor (5+1)/2
        with pytest.raises(ValueError):
            gen_realization(5, 6)


class TestLeafyUnicyclic:
    def test_shape(self):
        lg = gen_leafy_unicyclic(4, [2, 0, 1, 0])
        g = lg.graph
        assert g.n == 7
        assert g.edge_count == 7
        assert lg.labels["cycle[0]"] == 0
        assert g.degree(lg.labels["leaf[0][1]"]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_leafy_unicyclic(2, [0, 0])
        with pytest.raises(ValueError):
            gen_leafy_unicyclic(3, [1, 1])
        with pytest.raises(ValueError):
            gen_leafy_unicyclic(3, [1.5, 0, 0])
        with pytest.raises(ValueError):
            gen_leafy_unicyclic(3, [True, 0, 0])
        with pytest.raises(ValueError):
            gen_leafy_unicyclic(3, [-1, 0, 0])

    def test_named_graphs(self):
        net = gen_net().graph
        assert net.n == 6 and net.edge_count == 6
        assert sorted(net.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]
        dc4 = gen_decorated_c4().graph
        assert dc4.n == 6 and dc4.edge_count == 6
        dc8 = gen_decorated_c8().graph
        assert dc8.n == 10 and dc8.edge_count == 10


class TestCaterpillarPredicate:
    def test_positives(self):
        assert is_caterpillar(gen_basic("path", 1).graph)
        assert is_caterpillar(gen_basic("path", 6).graph)
        assert is_caterpillar(gen_basic("star", 5).graph)
        comb = Graph.from_edges(6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])
        assert is_caterpillar(comb)

    def test_negatives(self):
        assert not is_caterpillar(gen_basic("cycle", 4).graph)
        # spider with three legs of length 2: stripping leaves leaves a star
        spider = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert not is_caterpillar(spider)


class TestTreeEnumeration:
    # counts of unlabeled trees, published sequence
    COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
              10: 106, 11: 235, 12: 551}

    @pytest.mark.parametrize("n,count", sorted(COUNTS.items()))
    def test_counts(self, n, count):
        trees = list(enumerate_trees(n))
        assert len(trees) == count

    def test_all_are_trees_and_distinct(self):
        trees = list(enumerate_trees(8))
        assert all(is_tree(t) for t in trees)
        assert len({tree_canonical_code(t) for t in trees}) == len(trees)
        assert len({canonical_key(t, max_perms=None) for t in trees}) == len(trees)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(14))

    def test_code_invariant_under_relabeling(self):
        t = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)])
        perm = [3, 5, 0, 6, 1, 4, 2]
        relabeled = Graph.from_edges(7, [(perm[u], perm[v]) for u, v in t.edges])
        assert tree_canonical_code(t) == tree_canonical_code(relabeled)

    def test_code_separates(self):
        assert tree_canonical_code(gen_basic("path", 4).graph) != \
            tree_canonical_code(gen_basic("star", 3).graph)


class TestCaterpillarEnumeration:
    # formula-checked counts: 2^(n-4) + 2^(floor(n/2)-2) for n >= 4
    COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 10, 8: 20, 9: 36, 10: 72}

    @pytest.mark.parametrize("n,count", sorted(COUNTS.items()))
    def test_counts(self, n, count):
        cats = list(enumerate_caterpillars(n))
        assert len(cats) == count

    def test_all_caterpillars_distinct(self):
        cats = list(enumerate_caterpillars(9))
        assert all(is_caterpillar(c) for c in cats)
        assert len({tree_canonical_code(c) for c in cats}) == len(cats)

    def test_subset_of_trees(self):
        tree_codes = {tree_canonical_code(t) for t in enumerate_trees(7)}
        cat_codes = {tree_canonical_code(c) for c in enumerate_caterpillars(7)}
        assert cat_codes <= tree_codes


class TestBlockGraphEnumerators:
    def test_diam2_shapes(self):
        out = list(enumerate_block_graphs_diam2(7))
        for lg in out:
            g = lg.graph
            assert is_connected(g)
            assert metric_summary(g).diameter == 2
            assert block_decomposition(g).is_block_graph
            hub = lg.labels["hub"]
            assert g.degree(hub) == g.n - 1

    def test_diam2_count_partition_formula(self):
        # orders multiset of >= 2 side blocks with total extra vertices <= 9:
        # partitions of 2..9 into at least two parts
        def partitions(k):
            table = [[0] * (k + 1) for _ in range(k + 1)]
            table[0][0] = 1
            for part in range(1, k + 1):
                for tot in range(k + 1):
                    table[part][tot] = table[part - 1][tot]
                    if tot >= part:
                        table[part][tot] += table[part][tot - part]
            return table[k][k]

        want = sum(partitions(k) - 1 for k in range(2, 10))
        got = len(list(enumerate_block_graphs_diam2(10)))
        assert got == want == 87

    def test_diam2_distinct(self):
        out = [lg.graph for lg in enumerate_block_graphs_diam2(8)]
        keys = {canonical_key(g, max_perms=None) for g in out}
        assert len(keys) == len(out)

    def test_diam3_shapes(self):
        out = list(enumerate_block_graphs_diam3(8))
        assert out
        for lg in out:
            g = lg.graph
            assert is_connected(g)
            assert metric_summary(g).diameter == 3
            bd = block_decomposition(g)
            assert bd.is_block_graph
            assert bd.central_block is not None

    def test_diam3_contains_p4(self):
        p4 = gen_basic("path", 4).graph
        assert any(are_isomorphic(lg.graph, p4)
                   for lg in enumerate_block_graphs_diam3(4))

    def test_diam3_distinct(self):
        out = [lg.graph for lg in enumerate_block_graphs_diam3(9)]
        keys = {canonical_key(g, max_perms=None) for g in out}
        assert len(keys) == len(out)
