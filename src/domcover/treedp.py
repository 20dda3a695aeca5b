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

The recursion runs over breadth-first positions, not vertex ids: root_tree
numbers the vertices in the order the walk reaches them, so every parent
sits at a smaller position than its children, and records each position's
degree and its parent's position.  solve_tree then needs no adjacency: one
scan from the last position down to 1 folds each finished position into its
parent's sums, and one scan back up hands each position its state from its
parent's.  Both read flat lists in position order, which keeps them fast
when the ids are scattered over the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph


@dataclass(frozen=True)
class RootedTree:
    """A tree oriented away from its root, by vertex and by position.

    Position i is the i-th vertex reached by the breadth-first walk from the
    root.  The walk reads each adjacency row in ascending id, so a vertex's
    children take consecutive positions in ascending id, and every parent
    comes before its children.

      parent      parent[v] is v's parent vertex, None at the root;
      post_order  the vertices by descending position: children first;
      order       order[i] is the vertex at position i, order[0] the root;
      degree      degree[i] is the degree of order[i] in the whole tree;
      up          up[i] is the position of order[i]'s parent, -1 at the root.
    """

    graph: Graph
    root: int
    parent: tuple[int | None, ...]
    post_order: tuple[int, ...]
    order: tuple[int, ...]
    degree: tuple[int, ...]
    up: tuple[int, ...]


@dataclass(frozen=True)
class CoverSolution:
    """One objective's answer: a witness minimum dominating set and its cover."""

    objective: str  # "min" or "max"
    size: int
    cover: int
    witness: tuple[int, ...]


def root_tree(g: Graph, root: int = 0) -> RootedTree:
    """Validate that g is a tree and orient it away from the root.

    One breadth-first walk fills every field.  Non-trees raise DomainError.
    """
    n = g.n
    if n == 0:
        raise DomainError("empty graph is not a tree")
    g._check_vertex(root)
    if g.m != n - 1:
        raise DomainError(f"not a tree: {g.m} edges, expected {n - 1}")
    adj = g.adjacency
    # None marks a vertex not reached yet; the root's entry is reset below
    parent: list[int | None] = [None] * n
    parent[root] = root
    order = [root]
    degree = []
    up = [-1]
    # the list iterator reads the length afresh, so it walks the growing queue
    for i, v in enumerate(order):
        row = adj[v]
        degree.append(len(row))
        for u in row:
            if parent[u] is None:
                parent[u] = v
                order.append(u)
                up.append(i)
    if len(order) != n:
        w = parent.index(None)
        raise DomainError(f"not a tree: vertex {w} is not reachable from {root}")
    parent[root] = None
    return RootedTree(
        g,
        root,
        tuple(parent),
        tuple(reversed(order)),
        tuple(order),
        tuple(degree),
        tuple(up),
    )


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

    Two flat scans over positions, O(n).  The backward scan finishes each
    position's three keys from its children's sums and folds them into its
    parent's; the forward scan gives each position its state from its
    parent's and collects the witness.  Ties between child states break
    toward IN, then OUT_DOM, then OUT_FREE; swap ties toward the smaller
    child id, so witnesses are deterministic.  The backward scan meets
    siblings in descending id, so the swap test takes <= to keep the last,
    smallest one.
    """
    g = tree.graph
    sign, scale, inf = _keys(g, objective)
    n = g.n
    up = tree.up
    # per position: sums over the children folded in so far
    in_k = [scale + sign * d for d in tree.degree]
    dom_k = [0] * n
    fr_k = [0] * n
    best = [inf] * n  # least cost of forcing a child IN; 0 once one already is
    swap = [-1] * n  # position of that child
    ch_in = [0] * n  # the position's state when its parent is IN
    ch_out = [0] * n  # its state when its parent is OUT_DOM and it is no swap

    for c in range(n - 1, 0, -1):
        # every child of c sits at a larger position, so c's sums are final
        iu = in_k[c]
        du = dom_k[c] + best[c]
        if du > inf:
            du = inf
        fu = fr_k[c]
        if fu > inf:
            fu = inf
        p = up[c]
        # parent IN: child may be anything, a FREE child gets dominated there
        if iu <= du and iu <= fu:
            in_k[p] += iu
        elif du <= fu:
            in_k[p] += du
            ch_in[c] = 1
        else:
            in_k[p] += fu
            ch_in[c] = 2
        # parent OUT: child must be dominated inside its own subtree
        if iu <= du:
            dom_k[p] += iu
            best[p] = 0
            swap[p] = -1
        else:
            dom_k[p] += du
            ch_out[c] = 1
            # siblings come in descending id, so <= keeps the smallest on a tie
            if iu - du <= best[p]:
                best[p] = iu - du
                swap[p] = c
        fr_k[p] += du

    root_key = min(in_k[0], dom_k[0] + best[0])
    # ch_in[c] is read at c alone, so the forward scan overwrites it with c's
    # state; under an IN parent that state is ch_in[c] and stays in place
    state = ch_in
    state[0] = 0 if in_k[0] == root_key else 1
    for c in range(1, n):
        p = up[c]
        s = state[p]
        if s == 1:
            state[c] = 0 if swap[p] == c else ch_out[c]
        elif s == 2:
            state[c] = 1
    selected = [v for v, s in zip(tree.order, state) if s == 0]
    return _decode(objective, root_key, scale, selected)


def tree_cover_extrema(tree: RootedTree):
    """Both objectives in one report (see oracle.DominationReport)."""
    from .oracle import DominationReport

    lo = solve_tree(tree, "min")
    hi = solve_tree(tree, "max")
    return DominationReport("plain", lo.size, lo.cover, hi.cover, lo.witness, hi.witness)
