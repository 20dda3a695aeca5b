"""Linear-time cover extrema on trees.

Three states per vertex make the bottom-up recursion sound on every tree,
including stars and short paths rooted at a leaf:

  IN        the vertex is selected;
  OUT_DOM   not selected, dominated by one of its children;
  OUT_FREE  not selected and not yet dominated (its parent must be selected).

Each state carries one integer key, size*K + sign*cover (see _keys), whose
order is the lexicographic order of (size, sign*cover): size strictly first,
so the result ranges only over minimum dominating sets, then the cover,
negated for the max objective so one comparison path serves both.  Covers
are degree sums in the whole tree, not the subtree.  The block-graph solver
uses the same keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph


@dataclass(frozen=True)
class RootedTree:
    """A tree with parent pointers and a children-before-parents order."""

    graph: Graph
    root: int
    parent: tuple[int | None, ...]
    post_order: tuple[int, ...]


@dataclass(frozen=True)
class CoverSolution:
    """One objective's answer: a witness minimum dominating set and its cover."""

    objective: str  # "min" or "max"
    size: int
    cover: int
    witness: tuple[int, ...]


def root_tree(g: Graph, root: int = 0) -> RootedTree:
    """Validate that g is a tree and orient it away from the root.

    The returned post_order is the reversed breadth-first order, so children
    always precede their parent.  Non-trees raise DomainError.
    """
    n = g.n
    if n == 0:
        raise DomainError("empty graph is not a tree")
    g._check_vertex(root)
    if g.m != n - 1:
        raise DomainError(f"not a tree: {g.m} edges, expected {n - 1}")
    adj = g.adjacency
    parent: list[int | None] = [None] * n
    seen = bytearray(n)
    seen[root] = 1
    visit = [root]
    i = 0
    while i < len(visit):
        v = visit[i]
        i += 1
        for u in adj[v]:
            if not seen[u]:
                seen[u] = 1
                parent[u] = v
                visit.append(u)
    if len(visit) != n:
        w = seen.index(0)
        raise DomainError(f"not a tree: vertex {w} is not reachable from {root}")
    return RootedTree(g, root, tuple(parent), tuple(reversed(visit)))


def _keys(g: Graph, objective: str) -> tuple[int, int, int]:
    """The sign, scale K and infeasible key INF of one objective's DP keys.

    A state of size s and cover c has key s*K + sign*c with K = 4m + 4.  Every
    partial cover lies in [0, 2m], so two keys, or two differences of keys,
    differ in their cover parts by at most 4m < K and compare exactly like
    the (size, sign*cover) pairs they encode.  Every feasible key is >= 0
    and below INF = (n + 1)*K, so a sum with an infeasible part stays >= INF;
    such sums clamp to INF.
    """
    if objective not in ("min", "max"):
        raise DomainError(f"objective must be 'min' or 'max', got {objective!r}")
    scale = 4 * g.m + 4
    return (1 if objective == "min" else -1), scale, (g.n + 1) * scale


def _decode(objective: str, key: int, scale: int, selected: list[int]) -> CoverSolution:
    """The CoverSolution of a root key and its selected vertices."""
    size = (key + scale // 2) // scale
    cover = key - size * scale
    return CoverSolution(
        objective, size, cover if objective == "min" else -cover, tuple(sorted(selected))
    )


def solve_tree(tree: RootedTree, objective: str) -> CoverSolution:
    """Cover extremum over all minimum dominating sets of the tree.

    Single bottom-up pass, O(n).  Ties between child states break toward
    IN, then OUT_DOM, then OUT_FREE; swap ties toward the smaller child id,
    so witnesses are deterministic.
    """
    g = tree.graph
    sign, scale, inf = _keys(g, objective)
    n = g.n
    adj = g.adjacency
    parent = tree.parent
    in_k = [0] * n
    dom_k = [0] * n
    fr_k = [0] * n
    ch_in = [0] * n   # child's state when its parent is IN
    ch_out = [0] * n  # child's state when its parent is OUT_DOM (before swap)
    swap = [-1] * n   # child forced to IN so OUT_DOM has a selected child

    for v in tree.post_order:
        pv = parent[v]
        row = adj[v]
        k_in = scale + sign * len(row)
        k_dom = 0
        k_fr = 0
        # least cost of forcing a child IN; 0 once one already is
        bd = inf
        sw = -1
        for u in row:
            if u == pv:
                continue
            iu = in_k[u]
            du = dom_k[u]
            fu = fr_k[u]
            # parent IN: child may be anything, a FREE child gets dominated here
            b = iu
            st = 0
            if du < b:
                b = du
                st = 1
            if fu < b:
                b = fu
                st = 2
            k_in += b
            ch_in[u] = st
            # parent OUT: child must be dominated inside its own subtree
            if iu <= du:
                k_dom += iu
                ch_out[u] = 0
                bd = 0
                sw = -1
            else:
                k_dom += du
                ch_out[u] = 1
                if iu - du < bd:
                    bd = iu - du
                    sw = u
            k_fr += du
        in_k[v] = k_in
        k_dom += bd
        swap[v] = sw
        dom_k[v] = k_dom if k_dom < inf else inf
        fr_k[v] = k_fr if k_fr < inf else inf

    r = tree.root
    state = 0 if in_k[r] <= dom_k[r] else 1
    selected: list[int] = []
    stack = [(r, state)]
    while stack:
        v, st = stack.pop()
        pv = parent[v]
        if st == 0:
            selected.append(v)
            for u in adj[v]:
                if u != pv:
                    stack.append((u, ch_in[u]))
        elif st == 1:
            sw = swap[v]
            for u in adj[v]:
                if u != pv:
                    stack.append((u, 0 if u == sw else ch_out[u]))
        else:
            for u in adj[v]:
                if u != pv:
                    stack.append((u, 1))
    return _decode(objective, min(in_k[r], dom_k[r]), scale, selected)


def tree_cover_extrema(tree: RootedTree):
    """Both objectives in one report (see oracle.DominationReport)."""
    from .oracle import DominationReport

    lo = solve_tree(tree, "min")
    hi = solve_tree(tree, "max")
    return DominationReport("plain", lo.size, lo.cover, hi.cover, lo.witness, hi.witness)
