import hashlib
import json
from collections import deque

import pytest

import packcrit as pc
from packcrit import (
    LabeledGraph,
    are_isomorphic,
    canonical_key,
    emit_graph6,
    gen_basic,
    is_connected,
)
from packcrit.corpus import all_graphs, connected_graphs, corpus_names, load_corpus


# published counts of connected / arbitrary unlabeled simple graphs
CONNECTED_EXACT = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
ALL_EXACT = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def naive_diameter(g):
    # independent check: dict-based BFS, no shared code with the package metric
    best = 0
    for s in range(g.n):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        if len(dist) < g.n:
            return None
        best = max(best, max(dist.values()))
    return best


class TestConnectedEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_EXACT.items()))
    def test_counts(self, n, count):
        got = sum(1 for g in connected_graphs(n) if g.n == n)
        assert got == count

    def test_all_connected(self):
        assert all(is_connected(g) for g in connected_graphs(5))

    def test_pairwise_distinct(self):
        graphs = list(connected_graphs(6))
        keys = {canonical_key(g, max_perms=None) for g in graphs}
        assert len(keys) == len(graphs)

    def test_contains_known_graphs(self):
        c5 = gen_basic("cycle", 5).graph
        assert any(are_isomorphic(g, c5) for g in connected_graphs(5) if g.n == 5)
        k4 = gen_basic("complete", 4).graph
        assert any(are_isomorphic(g, k4) for g in connected_graphs(4) if g.n == 4)


class TestAllGraphEnumeration:
    @pytest.mark.parametrize("n,count", sorted(ALL_EXACT.items()))
    def test_counts(self, n, count):
        got = sum(1 for g in all_graphs(n) if g.n == n)
        assert got == count

    def test_includes_disconnected(self):
        assert any(not is_connected(g) for g in all_graphs(4))

    def test_pairwise_distinct(self):
        graphs = list(all_graphs(5))
        keys = {canonical_key(g, max_perms=None) for g in graphs}
        assert len(keys) == len(graphs)


class TestRegistry:
    def test_names(self):
        names = corpus_names()
        for expected in ("connected-le5", "connected-le6", "connected-le7",
                         "all-le5", "all-le6", "connected-le6-diam2",
                         "connected-le7-diam2", "trees-le12",
                         "caterpillars-le12", "block-diam2-le10",
                         "block-diam3-le12"):
            assert expected in names

    def test_unknown_corpus(self):
        with pytest.raises(ValueError):
            load_corpus("no-such-corpus")

    def test_sizes(self):
        assert len(load_corpus("connected-le5")) == 31
        assert len(load_corpus("connected-le6")) == 143
        assert len(load_corpus("all-le5")) == 52
        assert len(load_corpus("all-le6")) == 208
        assert len(load_corpus("trees-le12")) == 987

    def test_diam2_selection_matches_naive_bfs(self):
        subset = load_corpus("connected-le6-diam2")
        keys = {canonical_key(g, max_perms=None) for g in subset}
        recomputed = {canonical_key(g, max_perms=None)
                      for g in connected_graphs(6) if naive_diameter(g) == 2}
        assert keys == recomputed

    def test_labeled_entries_carry_labels(self):
        entries = load_corpus("block-diam2-le10")
        assert all(isinstance(lg, LabeledGraph) for lg in entries)
        assert all("hub" in lg.labels for lg in entries)


def _realizations():
    out = []
    for k in range(3, 10):
        for n in range((k + 2) // 2, k + 1):
            out.append(pc.gen_realization(k, n))
    return out


# fixed generator calls whose output is frozen below, beside every corpus
FROZEN_CALLS = {
    "basic": lambda: [gen_basic(kind, n) for kind, n in
                      (("path", 4), ("cycle", 5), ("complete", 4),
                       ("complete", 1), ("star", 3), ("star", 1))],
    "realization-k-le9": _realizations,
    "sharpness-2-6": lambda: [pc.gen_sharpness_family(n) for n in range(2, 7)],
    "leafy": lambda: [pc.gen_net(), pc.gen_decorated_c4(),
                      pc.gen_decorated_c8(),
                      pc.gen_leafy_unicyclic(5, [1, 0, 2, 0, 1])],
    "caterpillar-profiles": lambda: [
        pc.caterpillar_from_profile(p)
        for p in ([0], [1], [2, 0, 1, 3], [3, 0, 1], [4] * 35)],
    "enumerators": lambda: [
        *pc.enumerate_trees(6), *pc.enumerate_caterpillars(7),
        *pc.enumerate_block_graphs_diam2(5),
        *pc.enumerate_block_graphs_diam3(7)],
}

# sha256 of the ordered "graph6 labels" lines
FROZEN_DIGESTS = {
    "all-le5":
        "5f9a6809ddc4876c972a54488a51c20ecae7a6462a5b34416932e88848399217",
    "all-le6":
        "912d44151f30378eef8a2e8cb9c9ceb7b13991c85043cddbc67b08b5b4609fa6",
    "basic":
        "3dbd2818a933128c8a2104893492b00b0055452190457cf5b701053909921be4",
    "block-diam2-le10":
        "b6787648a35bf9c60df0a3778f230a912837463ffdf5f5881a3815e1bf5f4158",
    "block-diam3-le12":
        "f16bcc1029164743e12d69f29829cd068c844a56726a9d449af6e9a114f5e23f",
    "caterpillar-profiles":
        "66da8bcdcf0a990536e82800e6c2baa6b751b86cee92ff8a5beeac4145a1eb0a",
    "caterpillars-le12":
        "3f8453595d7249ec4a0572c0c543e6fee625581be8a8b4c8af82c37f5f269aae",
    "connected-le5":
        "4396e0394064a7c350a46c9bf7d4965f6cdd71ceaf1385c0c9f77946a3637e72",
    "connected-le6":
        "4cd6750a898dad9d1aa7911d0abf3a33a7897a7496db572ac1a02c26cf45c955",
    "connected-le6-diam2":
        "8f8899f6cb35d0bc8b713ec21063dcdc2eac8bbd274531770e13f779f61998c7",
    "connected-le7":
        "31b8feab4cf48c1d59c39397e989dfd710f5cb801c66d339fde31beb637b7539",
    "connected-le7-diam2":
        "923cc081b172d90f46b23b3c07e1139431b6dab7de10e0f8e3f4fdb8c90803a9",
    "enumerators":
        "3b4c29b5c0517bdf19c5e088a0bfc8f0b904e2d8f99f4d62756903617383b823",
    "leafy":
        "7d50395f4aef8e46f10bd012587715889e9c293d3da51ac4d40ae3a948818741",
    "realization-k-le9":
        "95b197f87b295a09dfb12b13527f74c385a06f6d6a4e1235321d3fa6b4fac50b",
    "sharpness-2-6":
        "f022b30f7369bbc500137d5251fbc2cb2dcf7d886986680ffde16bfd4a57f45d",
    "trees-le12":
        "869dfc71fa4c0bcf8e3a6f8159ae81bb77dacfd0e856f81e1d81c0b42cfe32ca",
}


def _output_digest(items):
    lines = []
    for it in items:
        labels = it.labels if isinstance(it, LabeledGraph) else {}
        lines.append("%s %s\n" % (emit_graph6(getattr(it, "graph", it)),
                                  json.dumps(labels, sort_keys=True)))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class TestFrozenOutput:
    # Vertex numbering, labels and the order of graphs are all part of the
    # output: perfbench samples the corpora by stride, and the CLI's
    # input_digest hashes the input graphs in order, so a change to any of
    # them changes what is measured and reported even when every graph is
    # still right up to isomorphism.
    @pytest.mark.parametrize("name", sorted(set(corpus_names())
                                            | set(FROZEN_CALLS)))
    def test_generator_output_frozen(self, name):
        items = (FROZEN_CALLS[name]() if name in FROZEN_CALLS
                 else load_corpus(name))
        assert _output_digest(items) == FROZEN_DIGESTS[name]


class TestEnumeratorCrossChecks:
    def test_block_diam3_matches_corpus_filter(self):
        # construction route vs selection route on the shared <= 7 range
        from packcrit import block_decomposition, metric_summary

        built = [lg.graph for lg in load_corpus("block-diam3-le12")
                 if lg.graph.n <= 7]
        built_keys = {canonical_key(g, max_perms=None) for g in built}
        assert len(built_keys) == len(built)

        selected_keys = set()
        for g in connected_graphs(7):
            if metric_summary(g).diameter != 3:
                continue
            if not block_decomposition(g).is_block_graph:
                continue
            selected_keys.add(canonical_key(g, max_perms=None))
        assert built_keys == selected_keys

    def test_block_diam2_matches_corpus_filter(self):
        from packcrit import block_decomposition, metric_summary

        built = [lg.graph for lg in load_corpus("block-diam2-le10")
                 if lg.graph.n <= 7]
        built_keys = {canonical_key(g, max_perms=None) for g in built}

        selected_keys = set()
        for g in connected_graphs(7):
            if metric_summary(g).diameter != 2:
                continue
            if not block_decomposition(g).is_block_graph:
                continue
            selected_keys.add(canonical_key(g, max_perms=None))
        assert built_keys == selected_keys

    def test_trees_corpus_matches_connected_filter(self):
        from packcrit import is_tree

        tree_keys = {canonical_key(t, max_perms=None)
                     for t in load_corpus("trees-le12") if t.n <= 7}
        selected = {canonical_key(g, max_perms=None)
                    for g in connected_graphs(7) if is_tree(g)}
        assert tree_keys == selected
