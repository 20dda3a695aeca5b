"""Naive reference answers for the oracle's differential tests.

Nothing here calls a domcover search: a Graph is read only for its order,
adjacency rows and degrees, and every answer comes from a lexicographic
combination scan over all k-subsets for k = 1, 2, ... .  The first set met
with a given cover is therefore the lexicographically first, which is the
tie-break the oracle documents.
"""

from __future__ import annotations

from itertools import combinations

from domcover import Graph


def _masks(g: Graph, closed: bool) -> list[int]:
    masks = []
    for v, row in enumerate(g.adjacency):
        m = (1 << v) if closed else 0
        for u in row:
            m |= 1 << u
        masks.append(m)
    return masks


def minimum_covering_sets(g: Graph, total: bool = False) -> list[tuple[int, ...]]:
    """Every minimum (total) dominating set, in lexicographic order.

    Empty when no set works, i.e. for total domination with an isolated vertex.
    """
    masks = _masks(g, closed=not total)
    full = (1 << g.n) - 1
    for k in range(1, g.n + 1):
        found = []
        for combo in combinations(range(g.n), k):
            m = 0
            for v in combo:
                m |= masks[v]
            if m == full:
                found.append(combo)
        if found:
            return found
    return []


def extrema(g: Graph, total: bool = False) -> tuple:
    """(size, cover_min, cover_max, witness_min, witness_max)."""
    sets = minimum_covering_sets(g, total)
    degs = g.degrees()
    covers = [sum(degs[v] for v in s) for s in sets]
    lo = min(range(len(sets)), key=lambda i: (covers[i], i))
    hi = min(range(len(sets)), key=lambda i: (-covers[i], i))
    return len(sets[0]), covers[lo], covers[hi], sets[lo], sets[hi]


def efficient_dominating_set(g: Graph) -> tuple[int, ...] | None:
    """Smallest tuple, over sets of every size, whose closed neighborhoods
    partition V; None when there is none."""
    masks = _masks(g, closed=True)
    full = (1 << g.n) - 1
    found = []
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            m = 0
            for v in combo:
                if m & masks[v]:
                    break
                m |= masks[v]
            else:
                if m == full:
                    found.append(combo)
    return min(found, default=None)
