"""Structural criticality tests and the machinery that cross-checks each one
against brute-force ground truth over a corpus.

Every characterization here is a fast shape predicate; ground truth always
comes from the solver via the criticality module.  A corpus run that produces
any disagreement means the implementation (not the mathematics) is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .criticality import (
    EdgeBoundViolation,
    _critical_given_chi,
    _detour_colorable,
    _drops,
    edge_drop_profile,
    is_edge_critical,
)
from .graph6 import emit_graph6
from .graphs import (
    Graph,
    all_pairs_distances,
    block_decomposition,
    delete_edge,
    independence_number,
    is_connected,
    is_tree,
    max_independent_set,
    metric_summary,
)
from .families import LabeledGraph
from .solver import packing_chromatic_number


class ShapeError(ValueError):
    """Input violates a characterization's structural precondition."""


@dataclass(frozen=True)
class TheoremVerdict:
    """Agreement record between a structural test and solver ground truth."""

    theorem_id: str
    graph6: str
    structural_verdict: bool
    ground_truth: bool
    agree: bool
    details: object = None


@dataclass(frozen=True)
class VerificationSummary:
    theorem_id: str
    checked: int
    skipped: int
    disagreements: tuple
    positives: tuple


@dataclass(frozen=True)
class BlockDiam3Classification:
    """Which of the three critical shapes a diameter-3 block graph matches."""

    case: str
    central_block: frozenset
    per_vertex: dict
    p3: int
    block_count: int


def classify_small_critical(g: Graph):
    """2 for the single-edge graph, 3 for the triangle or the 4-path, else None.

    These are exactly the shapes that are deletion-critical with values 2
    and 3.
    """
    if g.n == 2 and g.edge_count == 1:
        return 2
    if g.n == 3 and g.edge_count == 3:
        return 3
    if g.n == 4 and g.edge_count == 3 and is_connected(g) \
            and g.degree_sequence() == (2, 2, 1, 1):
        return 3
    return None


def _leafy_cycle(g: Graph):
    """The cycle's vertex set when g is leafy unicyclic, else None.

    A connected graph on three or more vertices has no two adjacent leaves,
    so it is leafy unicyclic iff its non-leaf vertices induce a 2-regular
    graph, and that graph is then the cycle.
    """
    if g.n < 3 or not is_connected(g):
        return None
    rows = g.rows
    cycle = {v for v in range(g.n) if rows[v] & (rows[v] - 1)}
    mask = sum(1 << v for v in cycle)
    if any((rows[v] & mask).bit_count() != 2 for v in cycle):
        return None
    return cycle


def is_leafy_unicyclic(g: Graph) -> bool:
    """Connected, exactly one cycle, and everything off the cycle is a leaf
    hanging directly on a cycle vertex."""
    return _leafy_cycle(g) is not None


def classify_4critical_leafy_unicyclic(g: Graph) -> bool:
    """Among leafy unicyclic graphs, recognize the three shapes that are
    deletion-critical with value 4: long cycles whose length is not a
    multiple of four, the triangle with a leaf on every vertex, and the
    4-cycle with leaves on two adjacent vertices."""
    cycle = _leafy_cycle(g)
    if cycle is None:
        raise ShapeError("input is not a leafy unicyclic graph")
    length = len(cycle)
    if g.n == length:
        return length >= 5 and length % 4 != 0
    counts = {v: 0 for v in cycle}
    for v in range(g.n):
        if v not in cycle:
            counts[g.neighbors(v)[0]] += 1
    if length == 3:
        return all(c == 1 for c in counts.values())
    if length == 4:
        supports = [v for v, c in counts.items() if c > 0]
        return (len(supports) == 2
                and all(counts[v] == 1 for v in supports)
                and g.has_edge(supports[0], supports[1]))
    return False


def check_diam2_characterization(g: Graph, deadline=None) -> TheoremVerdict:
    """Per-edge test for diameter-2 graphs: deleting the edge either raises
    the independence number, or separates some closed-neighborhood vertex
    from the opposite endpoint by distance >= 3 while a maximum independent
    set avoids both."""
    if not is_connected(g) or metric_summary(g).diameter != 2:
        raise ShapeError("characterization requires a connected graph of diameter 2")
    alpha = independence_number(g)[0]
    full = (1 << g.n) - 1
    details = {}
    structural = True
    for e in g.edges:
        h = delete_edge(g, e)
        if independence_number(h)[0] > alpha:
            details[e] = "alpha-raise"
            continue
        dh = all_pairs_distances(h)
        tag = "none"
        for ui, uj in (e, (e[1], e[0])):
            for y in [ui] + g.neighbors(ui):
                # a maximum independent set avoids y and uj
                if (dh.distance(y, uj) >= 3 and max_independent_set(
                        g.rows, full & ~(1 << y) & ~(1 << uj))[0] == alpha):
                    tag = "far-pair"
                    break
            if tag != "none":
                break
        details[e] = tag
        if tag == "none":
            structural = False
    truth = is_edge_critical(g, deadline=deadline)
    return TheoremVerdict("diam2", emit_graph6(g), structural, truth,
                          structural == truth, details)


def check_block_diam2(g: Graph, deadline=None) -> TheoremVerdict:
    """Diameter-2 block graphs are deletion-critical exactly when they have
    no leaf."""
    if not is_connected(g):
        raise ShapeError("input must be connected")
    if metric_summary(g).diameter != 2:
        raise ShapeError("input must have diameter 2")
    if not block_decomposition(g).is_block_graph:
        raise ShapeError("input must be a block graph")
    structural = g.min_degree() >= 2
    truth = is_edge_critical(g, deadline=deadline)
    return TheoremVerdict("block-diam2", emit_graph6(g), structural, truth,
                          structural == truth, {"min_degree": g.min_degree()})


def classify_block_diam3(g: Graph) -> BlockDiam3Classification:
    """Classify a diameter-3 block graph against the three critical shapes.

    With B the central block (the metric center) of size b, the graph is
    critical exactly when one of these holds, matched in order:
      a: every central vertex has degree b (one pendant leaf each);
      b: every central vertex has degree b+1 and all but one carry two leaf
         neighbors;
      c: every central vertex either sits in a side block of order >= 4
         without leaf neighbors (c1), sits in two side blocks of order 3
         without leaf neighbors (c2), or has degree b+1 with two leaf
         neighbors (c3) -- and some central vertex satisfies c1 or c2.
    ShapeError when g is not a connected block graph of diameter 3.
    """
    if g.n == 0 or not is_connected(g):
        raise ShapeError("input must be connected")
    if metric_summary(g).diameter != 3:
        raise ShapeError("input must have diameter 3")
    bd = block_decomposition(g)
    if not bd.is_block_graph:
        raise ShapeError("input must be a block graph")
    if bd.central_block is None:
        raise ValueError("center does not span a block")
    central = bd.blocks[bd.central_block]
    b = len(central)
    side_orders = {x: [] for x in central}
    for i, blk in enumerate(bd.blocks):
        if i == bd.central_block:
            continue
        for x in blk:
            if x in central:
                side_orders[x].append(len(blk))
    leaf_neighbors = {x: sum(1 for u in g.neighbors(x) if g.degree(u) == 1)
                      for x in central}
    per_vertex = {}
    for x in central:
        tags = set()
        if leaf_neighbors[x] == 0 and any(t >= 4 for t in side_orders[x]):
            tags.add("c1")
        if leaf_neighbors[x] == 0 and sum(1 for t in side_orders[x] if t == 3) >= 2:
            tags.add("c2")
        if g.degree(x) == b + 1 and leaf_neighbors[x] == 2:
            tags.add("c3")
        per_vertex[x] = frozenset(tags)
    if all(g.degree(x) == b for x in central):
        case = "a"
    elif (all(g.degree(x) == b + 1 for x in central)
          and sum(1 for x in central if leaf_neighbors[x] == 2) == b - 1):
        case = "b"
    elif (all(per_vertex[x] for x in central)
          and any(per_vertex[x] & {"c1", "c2"} for x in central)):
        case = "c"
    else:
        case = "none"
    p3 = sum(1 for x in central if "c3" in per_vertex[x])
    return BlockDiam3Classification(case, frozenset(central), per_vertex, p3,
                                    len(bd.blocks))


def check_block_diam3(g: Graph, deadline=None) -> TheoremVerdict:
    cls = classify_block_diam3(g)
    structural = cls.case != "none"
    truth = is_edge_critical(g, deadline=deadline)
    return TheoremVerdict("block-diam3", emit_graph6(g), structural, truth,
                          structural == truth,
                          {"case": cls.case, "p3": cls.p3})


def check_tree_equivalence(t: Graph, deadline=None) -> TheoremVerdict:
    """For trees, dropping under every vertex deletion and dropping under
    every edge deletion are the same property."""
    if not is_tree(t):
        raise ShapeError("input must be a tree")
    base = packing_chromatic_number(t, deadline=deadline)
    structural = _critical_given_chi(t, "vertex", base, deadline)
    truth = _critical_given_chi(t, "edge", base, deadline)
    return TheoremVerdict("tree-equivalence", emit_graph6(t), structural, truth,
                          structural == truth, None)


def _check_critical_value(tid: str, structural: bool, target: int, g: Graph,
                          deadline):
    base = packing_chromatic_number(g, deadline=deadline)
    truth = (base.value == target
             and _critical_given_chi(g, "edge", base, deadline))
    return TheoremVerdict(tid, emit_graph6(g), structural, truth,
                          structural == truth, {"chi": base.value})


def _require_vertex(g: Graph):
    if g.n == 0:
        raise ShapeError("input must have a vertex")


def _check_edge_bound(g: Graph, deadline):
    _require_vertex(g)
    try:
        profile = edge_drop_profile(g, deadline=deadline)
        ok = True
        details = {e: val for e, (val, _) in profile.items()}
    except EdgeBoundViolation as exc:
        ok = False
        details = str(exc)
    return TheoremVerdict("edge-bound", emit_graph6(g), ok, True, ok, details)


def _check_connected_critical(g: Graph, deadline):
    _require_vertex(g)
    crit = is_edge_critical(g, deadline=deadline)
    structural = (not crit) or is_connected(g)
    return TheoremVerdict("connected-critical", emit_graph6(g), structural,
                          True, structural, {"edge_critical": crit})


def _check_vertex_implication(g: Graph, deadline):
    _require_vertex(g)
    base = packing_chromatic_number(g, deadline=deadline)
    crit = _critical_given_chi(g, "edge", base, deadline)
    structural = (not crit) or _critical_given_chi(g, "vertex", base, deadline)
    return TheoremVerdict("vertex-critical-implication", emit_graph6(g),
                          structural, True, structural, {"edge_critical": crit})


def _check_detour_drop(g: Graph, deadline):
    """Wherever the detour criterion fires, the solver must confirm a strict
    drop for that edge."""
    if not is_connected(g):
        raise ShapeError("input must be connected")
    base = packing_chromatic_number(g, deadline=deadline)
    diam = metric_summary(g).diameter
    fired = 0
    ok = True
    # the coloring half depends on the pair only, so each pair is asked once
    colorable = cache(lambda u, v: _detour_colorable(
        g, u, v, diam, base.value, deadline))
    for e in g.edges:
        h = delete_edge(g, e)
        dh = all_pairs_distances(h)
        hits = sum(1 for u in range(g.n) for v in range(u + 1, g.n)
                   if dh.distance(u, v) > diam and colorable(u, v))
        fired += hits
        # one drop test confirms the drop for every firing pair
        if hits and not _drops(h, range(g.n), base, deadline):
            ok = False
    return TheoremVerdict("detour-drop", emit_graph6(g), ok, True, ok,
                          {"fired": fired})


# id -> check(g, deadline); a check raises ShapeError when g is outside the
# theorem's shape
_REGISTRY = {
    "small-critical-2": lambda g, d: _check_critical_value(
        "small-critical-2", classify_small_critical(g) == 2, 2, g, d),
    "small-critical-3": lambda g, d: _check_critical_value(
        "small-critical-3", classify_small_critical(g) == 3, 3, g, d),
    "leafy-unicyclic-4critical": lambda g, d: _check_critical_value(
        "leafy-unicyclic-4critical", classify_4critical_leafy_unicyclic(g),
        4, g, d),
    "diam2": check_diam2_characterization,
    "block-diam2": check_block_diam2,
    "block-diam3": check_block_diam3,
    "tree-equivalence": check_tree_equivalence,
    "edge-bound": _check_edge_bound,
    "connected-critical": _check_connected_critical,
    "vertex-critical-implication": _check_vertex_implication,
    "detour-drop": _check_detour_drop,
}


def theorem_ids():
    return sorted(_REGISTRY)


def theorem_check(theorem_id: str, g, deadline=None):
    """Run one theorem's check on one graph (a LabeledGraph is unwrapped).

    Returns None when the check raises ShapeError, that is, when the graph
    is outside the theorem's shape; every other error propagates.
    """
    if theorem_id not in _REGISTRY:
        raise ValueError("unknown theorem id %r" % (theorem_id,))
    if isinstance(g, LabeledGraph):
        g = g.graph
    try:
        return _REGISTRY[theorem_id](g, deadline)
    except ShapeError:
        return None


def verify_theorem(theorem_id: str, corpus, deadline=None) -> VerificationSummary:
    """Check every corpus graph that fits the theorem's shape; collect
    disagreements (sorted by graph6) and structural positives."""
    checked = 0
    skipped = 0
    disagreements = []
    positives = []
    for g in corpus:
        verdict = theorem_check(theorem_id, g, deadline=deadline)
        if verdict is None:
            skipped += 1
            continue
        checked += 1
        if not verdict.agree:
            disagreements.append(verdict)
        if verdict.structural_verdict:
            positives.append(verdict.graph6)
    disagreements.sort(key=lambda v: v.graph6)
    return VerificationSummary(theorem_id, checked, skipped,
                               tuple(disagreements), tuple(sorted(positives)))
