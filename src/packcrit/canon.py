"""Exact canonical forms for small graphs.

Color refinement first, then the canonical key is the lexicographically
smallest upper-triangle bitstring over all orderings that respect the refined
cells.  Automorphisms preserve refined colors, so restricting to
cell-respecting orderings loses nothing.  The search is capped; callers get
None past the cap.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from .graphs import Graph


def refinement_colors(g: Graph):
    """Stable vertex colors under iterated neighborhood refinement.

    Colors are canonical integers: isomorphic graphs get identical multisets
    and corresponding vertices get equal values.
    """
    n = g.n
    colors = [g.degree(v) for v in range(n)]
    nclasses = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
                for v in range(n)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [index[s] for s in sigs]
        k = len(index)
        if k == nclasses:
            return tuple(colors)
        nclasses = k


def canonical_key(g: Graph, max_perms: int = 50000):
    """Canonical (n, bits) pair, identical across isomorphic graphs.

    Returns None when the number of cell-respecting orderings exceeds
    max_perms.  Pass max_perms=None to force an answer regardless of cost.
    """
    n = g.n
    colors = refinement_colors(g)
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    ordered = [cells[c] for c in sorted(cells)]
    if max_perms is not None:
        total = 1
        for cell in ordered:
            total *= factorial(len(cell))
            if total > max_perms:
                return None
    best = None
    for combo in product(*(permutations(cell) for cell in ordered)):
        perm = [v for part in combo for v in part]
        bits = 0
        for i in range(n):
            ri = g.rows[perm[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | ((ri >> perm[j]) & 1)
        if best is None or bits < best:
            best = bits
    return (n, 0 if best is None else best)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test for small graphs (unbounded canonical search)."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_key(g, max_perms=None) == canonical_key(h, max_perms=None)
