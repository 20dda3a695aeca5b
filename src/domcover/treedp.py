"""Linear-time cover extrema on trees, and the one DP behind both engines.

Three states per vertex make the bottom-up recursion sound on every tree,
including stars and short paths rooted at a leaf:

  IN        the vertex is selected;
  OUT_DOM   not selected, dominated by one of its children;
  OUT_FREE  not selected and not yet dominated (its parent must be selected).

Each state carries one integer key, size*K + sign*cover (see _keys), whose
order is the lexicographic order of (size, sign*cover): size strictly first,
so the result ranges only over minimum dominating sets, then the cover,
negated for the max objective so one comparison path serves both.  Covers
are degree sums in the whole graph, not the subtree.

The recursion runs over breadth-first positions, not vertex ids: root_tree
numbers the vertices in the order the walk reaches them, so every parent
sits at a smaller position than its children, and records each position's
degree and its parent's position, each in one flat int array.
_solve_positions then needs no adjacency: one scan from the last position
down to the root finishes each position and folds it into its parent's
sums, and one scan back up hands each position its state from its
parent's.  Both read these arrays and the DP's bytearrays of states in
position order, which keeps them fast when the ids are scattered over the
tree.  A parent's position never decreases along the positions, so each
parent's children are one run and parents finish in the order their runs
end: the backward scan keeps sums only for the parents it has begun
folding and not yet finished, never one entry per position.  The
block-graph engine roots its cut tree into the same kind of positions
(see blockdp.CutTree) and runs the same two scans; a block position adds
its own three states, and a tree is the case with no block
positions.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from operator import sub

from .errors import DomainError
from .graph import Graph, first_unreachable


@dataclass(frozen=True)
class RootedTree:
    """A tree oriented away from its root, as the positions the DP scans.

    Position i is the i-th vertex reached by the breadth-first walk from the
    root.  The walk reads each adjacency row in ascending id, so a vertex's
    children take consecutive positions in ascending id, and every parent
    comes before its children.  Each field is a flat array of the graph's
    own int type, array('i') (array('q') on a graph too large for it), so
    the positions hold no Python object per vertex:

      order   order[i] is the vertex at position i, order[0] the root;
      degree  degree[i] is the degree of order[i] in the whole tree;
      up      up[i] is the position of order[i]'s parent, -1 at the root.

    up never decreases along the positions, since the walk reaches the
    children of each position in turn; _solve_positions relies on it.
    """

    graph: Graph
    root: int
    order: array
    degree: array
    up: array


@dataclass(frozen=True)
class CoverSolution:
    """One objective's answer: a witness minimum dominating set and its cover."""

    objective: str  # "min" or "max"
    size: int
    cover: int
    witness: tuple[int, ...]


def root_tree(g: Graph, root: int = 0) -> RootedTree:
    """Validate that g is a tree and orient it away from the root.

    One breadth-first walk fills every field, reading each row straight
    from the graph's arrays.  With m = n - 1 edges, g is a tree exactly
    when a walk that skips only each vertex's parent meets n positions and
    no more.  On a cycle such a walk would never end, and on a dense one
    each position would add many, so it stops as soon as it holds more
    than n: it never holds more than n plus one row.  Non-trees raise
    DomainError.
    """
    n = g.n
    if n == 0:
        raise DomainError("empty graph is not a tree")
    g._check_vertex(root)
    if g.m != n - 1:
        raise DomainError(f"not a tree: {g.m} edges, expected {n - 1}")
    t, o = g._targets, g._offsets
    order = array(t.typecode, [root])
    degree = array(t.typecode)
    up = array(t.typecode, [-1])
    # the array iterator reads the length afresh, so it walks the growing queue
    for i, v in enumerate(order):
        a, b = o[v], o[v + 1]
        degree.append(b - a)
        if b - a > 1 or not i:  # a leaf's one neighbour is its parent
            parent = order[up[i]] if i else -1
            for u in t[a:b]:
                if u != parent:
                    order.append(u)
                    up.append(i)
            if len(order) > n:
                break
    if len(order) != n:
        w = first_unreachable(g, root)
        raise DomainError(f"not a tree: vertex {w} is not reachable from {root}")
    return RootedTree(g, root, order, degree, up)


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
    """The CoverSolution of a root key and its selected vertices (sorted in place)."""
    size = (key + scale // 2) // scale
    cover = key - size * scale
    selected.sort()
    return CoverSolution(objective, size, cover if objective == "min" else -cover, tuple(selected))


def solve_tree(tree: RootedTree, objective: str) -> CoverSolution:
    """Cover extremum over all minimum dominating sets of the tree.

    The two position scans of _solve_positions with no block positions,
    O(n).  Ties between child states break toward IN, then OUT_DOM, then
    OUT_FREE; swap ties toward the smaller child id, so witnesses are
    deterministic.
    """
    return _solve_positions(
        tree.graph, objective, tree.order, tree.up, tree.degree, bytes(len(tree.order)), ()
    )


def _solve_positions(g, objective, order, up, degree, is_block, noncut) -> CoverSolution:
    """Both engines' DP: two flat scans over breadth-first positions.

    Position 0 is the root and up[c] < c is the parent of position c.  A
    vertex position holds vertex order[c] of degree degree[c], with the tree
    states IN, OUT_DOM, OUT_FREE as 0, 1, 2.  A block position (is_block[c])
    holds block order[c]; degree[c] is the degree of its non-cut members,
    noncut[order[c]] lists them, and its states are (see blockdp)
    SELECTED, NONE_SAT, NONE_PENDING as 0, 1, 2.  A vertex folds its
    children by the tree rules whatever they are, so a cut vertex is a tree
    vertex whose children are blocks.

    The backward scan finishes each position's three keys from its
    children's sums and its own selection cost, and folds them into its
    parent's sums; the forward scan gives each position its state from its
    parent's and collects the witness.
    Children take states in the order 0, 1, 2 on ties.  Siblings sit at
    consecutive positions in ascending id, so the backward scan meets them
    in descending id and every swap test takes <= to keep the smallest.

    Both scans rely on up never decreasing, which a breadth-first walk
    gives.  A parent's children are then one run of positions, so one
    parent takes folds at a time, into locals.  When its run ends the
    parent waits in a ring of w = max(c - up[c]) + 1 slots, position q in
    slot q % w, until the scan finishes it and frees the slot.  While the
    scan is at c, every waiting parent lies in [up[c], c], so no two share
    a slot: sums exist only for the open parents, and w <= n slots, two on
    a path and n on a star.  A finished parent marks its swap child
    (the child it forces to state 0) by zeroing that child's state under
    it, ch1 under a vertex and ch0 under a block.  With the states and
    kinds in bytearrays the scans take 19-26 B per position on 10^5-vertex
    paths and random trees, where sums for every position took 65-83 B,
    and 43 B on a star.
    """
    sign, scale, inf = _keys(g, objective)
    n = len(up)
    ch0 = bytearray(n)  # the position's state when its parent is in state 0
    ch1 = bytearray(n)  # its state under a vertex parent in 1, or a block parent in 2
    # 1 for a block, 2 for a SELECTED block that selects a non-cut member
    kind = bytearray(is_block)
    # the parent taking folds: its position, kind and sums over the children
    # folded so far
    q = -1
    qk = 0
    k0 = 0  # each child at its best under a parent in state 0
    k1 = 0  # vertex: children dominated on their own; block: NONE_PENDING
    k2 = 0  # every child in state 1
    best = inf  # least cost of forcing a child to 0; 0 once one already is
    swap = -1  # position of that child
    # the ring of waiting parents' k0, k1, k2, best and swap; swap is None
    # at a free slot
    w = max(map(sub, range(1, n), islice(up, 1, None)), default=0) + 1
    r0 = [0] * w
    r1 = [0] * w
    r2 = [0] * w
    rb = [0] * w
    rs = [None] * w

    for c, p, dc, kc in zip(range(n - 1, -1, -1), reversed(up), reversed(degree), reversed(kind)):
        # every child of c sits at a larger position, so c's sums are final
        if c == q:
            s0, s1, s2, sb, ss = k0, k1, k2, best, swap
            q = -1
        else:
            x = c % w
            ss = rs[x]
            if ss is None:  # c has no children
                s0 = s1 = s2 = 0
                sb = inf
                ss = -1
            else:
                s0 = r0[x]
                s1 = r1[x]
                s2 = r2[x]
                sb = rb[x]
                r0[x] = r1[x] = r2[x] = rb[x] = 0
                rs[x] = None
        if kc:
            # SELECTED by option B selects no non-cut member but forces a cut
            i = s0 + sb
            if noncut[order[c]]:
                # option A selects one non-cut member, and NONE_SAT would
                # leave it undominated
                own = s0 + scale + sign * dc
                d = inf
                if own <= i:
                    i = own
                    kind[c] = 2
                    ss = -1
            else:
                d = min(s2, inf)
            f = s1
            if ss >= 0:
                ch0[ss] = 0
        else:
            i = s0 + scale + sign * dc
            d = s1 + sb
            if d > inf:
                d = inf
            f = s2
            if ss >= 0:
                ch1[ss] = 0
        if f > inf:
            f = inf
        if not c:
            break
        if p != q:
            # q's run of children is over
            if q >= 0:
                x = q % w
                r0[x] = k0
                r1[x] = k1
                r2[x] = k2
                rb[x] = best
                rs[x] = swap
            q = p
            qk = kind[p]
            k0 = k1 = k2 = 0
            best = inf
            swap = -1
        # parent in state 0 (IN, or SELECTED): the child may be anything
        if i <= d and i <= f:
            v = i
        elif d <= f:
            v = d
            ch0[c] = 1
        else:
            v = f
            ch0[c] = 2
        k0 += v
        k2 += d
        if qk:
            # SELECTED by option B forces one child cut to 0
            if v == i:
                best = 0
                swap = -1
            elif i - v <= best:
                best = i - v
                swap = c
            # NONE_PENDING: the child must not be selected
            if d <= f:
                k1 += d
                ch1[c] = 1
            else:
                k1 += f
                ch1[c] = 2
        # parent OUT_DOM: the child must be dominated inside its own subtree
        elif i <= d:
            k1 += i
            best = 0
            swap = -1
        else:
            k1 += d
            ch1[c] = 1
            if i - d <= best:
                best = i - d
                swap = c

    # the root has no parent to need it, so it takes state 0 or 1
    root_key = i if i <= d else d
    # ch0[c] is read at c alone, so the forward scan overwrites it with c's
    # state; under a parent in state 0 that state is ch0[c] and stays in place
    state = ch0
    state[0] = 0 if i <= d else 1
    for c, p in zip(range(1, n), islice(up, 1, None)):
        s = state[p]
        if s:
            if kind[p]:
                # NONE_SAT has every cut DOMINATED; NONE_PENDING passes ch1
                state[c] = 1 if s == 1 else ch1[c]
            else:
                # OUT_DOM passes ch1; OUT_FREE needs every child dominated
                state[c] = ch1[c] if s == 1 else 1
    selected = [
        noncut[x][0] if k else x for x, s, k in zip(order, state, kind) if s == 0 and k != 1
    ]
    return _decode(objective, root_key, scale, selected)


def tree_cover_extrema(tree: RootedTree):
    """Both objectives in one report (see oracle.DominationReport)."""
    from .oracle import DominationReport

    lo = solve_tree(tree, "min")
    hi = solve_tree(tree, "max")
    return DominationReport("plain", lo.size, lo.cover, hi.cover, lo.witness, hi.witness)
