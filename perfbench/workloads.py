"""The four benchmark workloads.

Each workload builds its graph6 inputs and reference answers from a seed
(set-up), answers one input graph with the package's public API (the timed
call), checks that answer against references that do not come from the
optimizer, and, in the traced run, calls the other public functions of
each layer on a fresh copy of the graph (the probes).

References: `brute_force_chi_rho` for graphs of up to 8 vertices,
`caterpillar_chi_rho` for caterpillar forests, the values the paper proves
for the bridged-clique and drop-realization families, and
`classify_block_diam3` for block graphs of diameter 3.  Every witness
coloring is checked here with a breadth-first search of our own.

Membership of the `certify` and `cli-critical` samples is a fixed stride
through the corpus, and the seed sets their order.  Per-graph cost in those
corpora is heavy-tailed (in the block-diam3 sweep the 50 slowest of 1,654
graphs hold a third of the time), so a sample drawn by seed moved
throughput by about 20% from seed to seed, which no bound could absorb.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import packcrit as pc

# far above the slowest graph of any workload (about 6 s)
DEADLINE_S = 60.0
CLI_JOBS = 2

BLOCK_DIAM3_STRIDE = 24
TREES_STRIDE = 10
CLI_STRIDE = 33
COMB_PROFILE = [4] * 35
COMB_VALUE = 7


def _graph(item):
    return getattr(item, "graph", item)


def _deadline():
    return time.monotonic() + DEADLINE_S


def _edge_key(e):
    return "%d-%d" % (min(e), max(e))


def is_packing(g, colors) -> bool:
    """True iff colors (1-based, one per vertex) is a packing coloring of g:
    no two vertices of color c lie within distance c of each other."""
    n = g.n
    if len(colors) != n or any(c < 1 for c in colors):
        return False
    adj = [g.neighbors(v) for v in range(n)]
    for v, c in enumerate(colors):
        seen = {v}
        frontier = [v]
        for _ in range(c):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        if colors[y] == c:
                            return False
                        seen.add(y)
                        nxt.append(y)
            if not nxt:
                break
            frontier = nxt
    return True


def _optimal_witness(g, colors, value) -> bool:
    return is_packing(g, colors) and max(colors, default=0) == value


class _Chirho:
    """Shared call, check and probes of the two packing_chromatic_number
    workloads; references are {"value": int}."""

    def call(self, g, ref, tracer, rid, stats):
        with tracer.span("solver.chi", rid):
            res = pc.packing_chromatic_number(g, deadline=_deadline())
        stats["nodes"] += res.node_count
        return {"value": res.value, "witness": list(res.witness.colors),
                "nodes": res.node_count}

    def check(self, g, ref, ans):
        if ans["value"] != ref["value"]:
            return "value %d, reference %d" % (ans["value"], ref["value"])
        if not _optimal_witness(g, ans["witness"], ref["value"]):
            return "witness is not an optimal packing coloring"
        return None

    def probe(self, g, ref, tracer, rid, stats):
        probe_layers(g, tracer, rid, stats)
        probe_search(g, ref["value"], tracer, rid, stats)


class CorpusChirho(_Chirho):
    name = "corpus-chirho"

    def build(self, seed, clock):
        with clock("corpus.load"):
            small = [_graph(x) for x in pc.load_corpus("connected-le7")]
            cats = [_graph(x) for x in pc.load_corpus("caterpillars-le12")]
        items = [(g, {"value": pc.brute_force_chi_rho(g)}) for g in small]
        items += [(g, {"value": pc.brute_force_chi_rho(g) if g.n <= 8
                       else pc.caterpillar_chi_rho(g)}) for g in cats]
        random.Random(seed).shuffle(items)
        return items


class FamilyChirho(_Chirho):
    name = "family-chirho"

    def build(self, seed, clock):
        items = []
        with clock("families.gen"):
            for k in range(3, 8):
                for n in range((k + 2) // 2, k + 1):
                    lab = pc.gen_realization(k, n)
                    cut = pc.delete_edge(lab.graph, tuple(lab.labels["e"]))
                    items.append((lab.graph, {"value": k}))
                    items.append((cut, {"value": n}))
            for n in range(2, 5):
                lab = pc.gen_sharpness_family(n)
                cut = pc.delete_edge(lab.graph, tuple(lab.labels["bridge"]))
                items.append((lab.graph, {"value": 2 * n - 1}))
                items.append((cut, {"value": n}))
        random.Random(seed).shuffle(items)
        return items


def _tree_vertex_critical(t):
    """Vertex-criticality of a tree from an engine other than the optimizer,
    or None when neither applies (a non-caterpillar above 8 vertices)."""
    if t.n <= 8:
        chi_of = pc.brute_force_chi_rho
    elif pc.is_caterpillar(t):
        chi_of = pc.caterpillar_chi_rho
    else:
        return None
    chi = chi_of(t)
    return all(chi_of(pc.delete_vertex(t, v)[0]) < chi for v in range(t.n))


class Certify:
    name = "certify"

    def build(self, seed, clock):
        with clock("corpus.load"):
            bd3 = [_graph(x) for x in pc.load_corpus("block-diam3-le12")]
            trees = [_graph(x) for x in pc.load_corpus("trees-le12")]
        with clock("families.gen"):
            comb = pc.caterpillar_from_profile(COMB_PROFILE).graph
        items = [(g, {"kind": "block-diam3",
                      "critical": pc.classify_block_diam3(g).case != "none"})
                 for g in bd3[BLOCK_DIAM3_STRIDE // 2::BLOCK_DIAM3_STRIDE]]
        items += [(t, {"kind": "tree-equivalence",
                       "vertex_critical": _tree_vertex_critical(t)})
                  for t in trees[TREES_STRIDE // 2::TREES_STRIDE]]
        items.append((comb, {"kind": "comb", "value": COMB_VALUE}))
        random.Random(seed).shuffle(items)
        return items

    def call(self, g, ref, tracer, rid, stats):
        if ref["kind"] == "comb":
            return self._comb(g, ref["value"], tracer, rid)
        with tracer.span("characterizations.verify", rid):
            s = pc.verify_theorem(ref["kind"], [g], deadline=_deadline())
        return {"checked": s.checked, "disagreements": len(s.disagreements),
                "positive": bool(s.positives)}

    def _comb(self, g, value, tracer, rid):
        """The deletion-criticality certificate of the comb: no (value-1)-
        coloring, a value-coloring, and a (value-1)-coloring of every G-e."""
        decide = pc.decide_caterpillar_k_colorable
        with tracer.span("caterpillar.decide", rid):
            below = decide(g, value - 1)
        with tracer.span("caterpillar.decide", rid):
            at = decide(g, value)
        drops = []
        for e in g.edges:
            h = pc.delete_edge(g, e)
            with tracer.span("caterpillar.decide", rid):
                drops.append(decide(h, value - 1))
        return {"below": below, "at": at, "drops": drops}

    def check(self, g, ref, ans):
        if ref["kind"] == "comb":
            value = ref["value"]
            if ans["below"] is not None:
                return "comb colored with %d colors" % (value - 1)
            if ans["at"] is None or not is_packing(g, ans["at"]) \
                    or max(ans["at"]) > value:
                return "comb %d-coloring missing or invalid" % value
            if len(ans["drops"]) != g.edge_count:
                return "comb certificate misses edges"
            for e, colors in zip(g.edges, ans["drops"]):
                if colors is None or not is_packing(pc.delete_edge(g, e), colors) \
                        or max(colors) > value - 1:
                    return "comb minus %s: %d-coloring missing or invalid" \
                        % (_edge_key(e), value - 1)
            return None
        if ans["checked"] != 1:
            return "theorem skipped the graph"
        if ans["disagreements"]:
            return "structural verdict disagrees with the solver"
        want = ref["critical"] if ref["kind"] == "block-diam3" \
            else ref["vertex_critical"]
        if want is not None and ans["positive"] != want:
            return "verdict %s, reference %s" % (ans["positive"], want)
        return None

    def probe(self, g, ref, tracer, rid, stats):
        probe_layers(g, tracer, rid, stats)
        if ref["kind"] == "comb":
            return
        value = probe_chi(g, tracer, rid, stats)
        probe_search(g, value, tracer, rid, stats)
        with tracer.span("criticality.edge_critical", rid):
            pc.is_edge_critical(g, deadline=_deadline())
        with tracer.span("criticality.vertex_critical", rid):
            pc.is_vertex_critical(g, deadline=_deadline())
        if ref["kind"] == "block-diam3":
            with tracer.span("characterizations.classify", rid):
                pc.classify_block_diam3(g)


def _cli_reference(g, block_diam3):
    ref = {}
    bf = pc.brute_force_chi_rho
    if g.n <= 8:
        chi = bf(g)
        ref["chi"] = chi
        ref["edge_values"] = {_edge_key(e): bf(pc.delete_edge(g, e))
                              for e in g.edges}
        ref["edge_critical"] = g.n == 1 or (
            g.n >= 2 and g.min_degree() >= 1
            and all(v < chi for v in ref["edge_values"].values()))
    if g.n <= 9:
        ref["vertex_values"] = {str(v): bf(pc.delete_vertex(g, v)[0])
                                for v in range(g.n)}
        if "chi" in ref:
            ref["vertex_critical"] = all(
                v < ref["chi"] for v in ref["vertex_values"].values())
    if block_diam3:
        ref["classified_critical"] = pc.classify_block_diam3(g).case != "none"
    return ref


class CliCritical:
    """`packcrit critical --witness --jobs 2` as a subprocess.  All answers
    of one invocation arrive when it exits, so a graph's latency is the
    wall time of the invocation that answered it."""

    name = "cli-critical"

    def build(self, seed, clock):
        with clock("corpus.load"):
            small = [_graph(x) for x in pc.load_corpus("connected-le7")]
            bd3 = [_graph(x) for x in pc.load_corpus("block-diam3-le12")]
        pool = [(g, False) for g in small] + [(g, True) for g in bd3]
        items = [(g, _cli_reference(g, flag))
                 for g, flag in pool[CLI_STRIDE // 2::CLI_STRIDE]]
        random.Random(seed).shuffle(items)
        return items

    def run_cli(self, input_path, env):
        """One CLI invocation; returns (wall seconds, exit code, rows, digest)."""
        cmd = [sys.executable, "-m", "packcrit.cli", "critical",
               "--input", str(input_path), "--witness",
               "--jobs", str(CLI_JOBS), "--timeout", str(DEADLINE_S)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=10 * DEADLINE_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            return wall, proc.returncode, None, None
        report = json.loads(proc.stdout)
        return wall, 0, report["results"], report["input_digest"]

    def call(self, g, ref, tracer, rid, stats):
        """In-process replay of what the CLI does for one graph."""
        with tracer.span("criticality.report", rid):
            rep = pc.criticality_report(g, include_witnesses=True,
                                        deadline=_deadline())
        with tracer.span("criticality.profile", rid):
            prof = pc.edge_drop_profile(g, deadline=_deadline())
        stats["deletions"] += 2 * g.edge_count + g.n
        return {
            "status": "ok", "bound_ok": True, "chi_rho": rep.chi_rho,
            "edge_critical": rep.is_edge_critical,
            "vertex_critical": rep.is_vertex_critical,
            "edge_drop_profile": {_edge_key(e): list(vd) for e, vd in prof.items()},
            "vertex_values": {str(v): x for v, x in rep.vertex_values.items()},
            "edge_witnesses": {_edge_key(e): list(w.colors)
                               for e, w in rep.edge_witnesses.items()},
            "vertex_witnesses": {str(v): {str(u): c for u, c in w.items()}
                                 for v, w in rep.vertex_witnesses.items()},
        }

    def check(self, g, ref, row):
        if row.get("status") != "ok":
            return "status %s" % row.get("status")
        chi = row["chi_rho"]
        if "chi" in ref and chi != ref["chi"]:
            return "chi_rho %d, reference %d" % (chi, ref["chi"])
        if not row["bound_ok"]:
            return "edge deletion bound violated"
        prof = row["edge_drop_profile"]
        if sorted(prof) != sorted(_edge_key(e) for e in g.edges):
            return "edge profile covers the wrong edges"
        for e in g.edges:
            key = _edge_key(e)
            value, drop = prof[key]
            if drop != chi - value:
                return "edge %s: drop %d, value %d" % (key, drop, value)
            if "edge_values" in ref and value != ref["edge_values"][key]:
                return "edge %s: value %d, reference %d" % (
                    key, value, ref["edge_values"][key])
            if not _optimal_witness(pc.delete_edge(g, e),
                                    row["edge_witnesses"][key], value):
                return "edge %s: witness is not an optimal packing coloring" % key
        for v in range(g.n):
            value = row["vertex_values"][str(v)]
            if "vertex_values" in ref and value != ref["vertex_values"][str(v)]:
                return "vertex %d: value %d, reference %d" % (
                    v, value, ref["vertex_values"][str(v)])
            sub, kept = pc.delete_vertex(g, v)
            wit = row["vertex_witnesses"][str(v)]
            if sorted(wit) != sorted(str(u) for u in kept):
                return "vertex %d: witness covers the wrong vertices" % v
            if not _optimal_witness(sub, [wit[str(u)] for u in kept], value):
                return "vertex %d: witness is not an optimal packing coloring" % v
        for key in ("edge_critical", "vertex_critical"):
            if key in ref and row[key] != ref[key]:
                return "%s %s, reference %s" % (key, row[key], ref[key])
        if "classified_critical" in ref \
                and row["edge_critical"] != ref["classified_critical"]:
            return "edge_critical %s, classifier %s" % (
                row["edge_critical"], ref["classified_critical"])
        return None

    def probe(self, g, ref, tracer, rid, stats):
        probe_layers(g, tracer, rid, stats)
        for e in g.edges:
            probe_canon(pc.delete_edge(g, e), tracer, rid, stats)
        for v in range(g.n):
            probe_canon(pc.delete_vertex(g, v)[0], tracer, rid, stats)
        value = probe_chi(g, tracer, rid, stats)
        probe_search(g, value, tracer, rid, stats)


def probe_canon(g, tracer, rid, stats):
    """Canonical keys per component, as the solver's memo would ask for
    them; counts keys past the permutation cap and keys seen before."""
    comps = pc.connected_components(g)
    for comp in comps:
        sub = g if len(comps) == 1 else pc.induced_subgraph(g, comp)[0]
        with tracer.span("canon.key", rid):
            key = pc.canonical_key(sub)
        stats["canon_calls"] += 1
        if key is None:
            stats["canon_capped"] += 1
        elif key in stats.seen_keys:
            stats["canon_repeats"] += 1
        else:
            stats.seen_keys.add(key)


def probe_layers(g, tracer, rid, stats):
    with tracer.span("graphs.distances", rid):
        pc.all_pairs_distances(g)
    with tracer.span("graphs.alpha", rid):
        pc.independence_number(g)
    probe_canon(g, tracer, rid, stats)


def probe_chi(g, tracer, rid, stats):
    with tracer.span("solver.chi", rid):
        res = pc.packing_chromatic_number(g, deadline=_deadline())
    stats["nodes"] += res.node_count
    return res.value


def probe_search(g, value, tracer, rid, stats):
    """One satisfiable decision at the value and one unsatisfiable decision
    just below it; an outcome other than that is a wrong answer."""
    with tracer.span("solver.decide_sat", rid):
        sat = pc.decide_packing_k_colorable(g, value, deadline=_deadline())
    if sat is None:
        stats["probe_mismatches"] += 1
    if value >= 2:
        with tracer.span("solver.decide_unsat", rid):
            unsat = pc.decide_packing_k_colorable(g, value - 1,
                                                  deadline=_deadline())
        if unsat is not None:
            stats["probe_mismatches"] += 1


WORKLOADS = {w.name: w for w in (CorpusChirho(), FamilyChirho(), Certify(),
                                 CliCritical())}
