"""Linear-time cover extrema on block graphs (every block a clique).

The solver runs over the cut-tree: a bipartite tree with one node per block
and one per cut vertex, rooted at a block.  Within a clique any selected
vertex dominates the whole block, which keeps the state space small:

  cut vertex:  SELECTED / DOMINATED (from below, unselected) / FREE
               (unselected, undominated; its parent block must select);
  block:       SELECTED  - some member besides the parent cut is selected,
                           so the parent cut is dominated here;
               NONE_SAT  - nothing selected besides the parent cut, yet all
                           other members are dominated (forces no non-cut
                           members and every child cut DOMINATED);
               NONE_PENDING - nothing selected and some member still needs
                           the parent cut to be selected.

Each state carries the tree solver's integer key, size*K + sign*cover (see
treedp._keys): size strictly first, covers being whole-graph degree sums,
negated for the max objective.  Non-cut members of one block are
interchangeable, so "one non-cut selected" is a single option and the
witness materializes the smallest id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph, blocks_and_cut_vertices, blocks_are_cliques
from .treedp import CoverSolution, _decode, _keys


@dataclass(frozen=True)
class CutTree:
    """Blocks and cut vertices of a connected graph, rooted at a designated block.

    Implicit bipartite edges: block i is adjacent to cut vertex v exactly when
    v is a member of blocks[i].  The rooting is held as parent links (-1 at the
    root block and at vertices that are not cuts) and a post_order of
    (is_block, index) nodes in which children precede their parent.
    """

    graph: Graph
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    noncut_members: tuple[tuple[int, ...], ...]
    root_block: int
    cuts_in_block: tuple[tuple[int, ...], ...]
    blocks_of_cut: tuple[tuple[int, ...], ...]  # indexed by vertex id
    parent_cut: tuple[int, ...]  # of each block
    parent_block: tuple[int, ...]  # of each vertex
    post_order: tuple[tuple[bool, int], ...]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(block index, cut vertex) pairs, lexicographic."""
        return tuple((i, v) for i, cuts in enumerate(self.cuts_in_block) for v in cuts)


def build_cut_tree(g: Graph) -> CutTree:
    """Cut-tree of a connected block graph, rooted at the first block."""
    blocks, cuts = blocks_and_cut_vertices(g)
    if not blocks_are_cliques(g, blocks):
        raise DomainError("not a block graph: some block is not a clique")
    is_cut = bytearray(g.n)
    for v in cuts:
        is_cut[v] = 1
    noncut = tuple(tuple(v for v in block if not is_cut[v]) for block in blocks)
    cuts_in_block = tuple(tuple(v for v in block if is_cut[v]) for block in blocks)
    blocks_of_cut: list[list[int]] = [[] for _ in range(g.n)]
    for i, members in enumerate(cuts_in_block):
        for v in members:
            blocks_of_cut[v].append(i)

    # Root the bipartite tree at block 0; order is breadth-first.
    parent_cut = [-1] * len(blocks)
    parent_block = [-1] * g.n
    bfs: list[tuple[bool, int]] = [(True, 0)]
    i = 0
    while i < len(bfs):
        is_block, x = bfs[i]
        i += 1
        if is_block:
            for v in cuts_in_block[x]:
                if v != parent_cut[x]:
                    parent_block[v] = x
                    bfs.append((False, v))
        else:
            for b in blocks_of_cut[x]:
                if b != parent_block[x]:
                    parent_cut[b] = x
                    bfs.append((True, b))
    return CutTree(
        g, blocks, cuts, noncut, 0, cuts_in_block, tuple(map(tuple, blocks_of_cut)),
        tuple(parent_cut), tuple(parent_block), tuple(reversed(bfs)),
    )


def solve_block_graph(g: Graph, objective: str) -> CoverSolution:
    """Cover extremum over all minimum dominating sets of a block graph.

    Bottom-up over the cut-tree, O(n + m).  Ties break toward the earlier-
    listed state and, for swaps, the smaller child, so witnesses are
    deterministic.
    """
    if objective not in ("min", "max"):
        raise DomainError(f"objective must be 'min' or 'max', got {objective!r}")
    return _solve_cut_tree(build_cut_tree(g), objective)


def _solve_cut_tree(tree: CutTree, objective: str) -> CoverSolution:
    """solve_block_graph's DP on a cut-tree that is already built."""
    g = tree.graph
    sign, scale, inf = _keys(g, objective)
    n = g.n
    adj = g.adjacency
    nblocks = len(tree.blocks)
    cuts_in_block = tree.cuts_in_block
    blocks_of_cut = tree.blocks_of_cut
    parent_cut = tree.parent_cut
    parent_block = tree.parent_block

    # Block keys by state: 0 SELECTED, 1 NONE_SAT, 2 NONE_PENDING.
    bk0, bk1, bk2 = [0] * nblocks, [0] * nblocks, [0] * nblocks
    # Cut keys by state: 0 SELECTED, 1 DOMINATED, 2 FREE (indexed by vertex id).
    ck0, ck1, ck2 = [0] * n, [0] * n, [0] * n
    # Witness bookkeeping.
    sel_choice = [0] * n   # cut child's state when its block is SELECTED
    pend_choice = [0] * n  # cut child's state when its block is NONE_PENDING
    opta = [False] * nblocks
    bswap = [-1] * nblocks
    selp_choice = [0] * nblocks  # block child's state when its cut is SELECTED
    dom_choice = [0] * nblocks   # block child's state when its cut is DOMINATED
    cswap = [-1] * n

    for is_block, x in tree.post_order:
        # bd: least cost of forcing a child SELECTED; 0 once one already is
        bd, sw = inf, -1
        if is_block:
            base = pen = sat = 0
            pc = parent_cut[x]
            for v in cuts_in_block[x]:
                if v == pc:
                    continue
                s, d, f = ck0[v], ck1[v], ck2[v]
                # block provides a selected member: child may be anything
                st, val = 0, s
                if d < val:
                    st, val = 1, d
                if f < val:
                    st, val = 2, f
                base += val
                sel_choice[v] = st
                if st == 0:
                    bd, sw = 0, -1
                elif s - val < bd:
                    bd, sw = s - val, v
                # no selection in the block: child must not demand it
                if d <= f:
                    pen += d
                    pend_choice[v] = 1
                else:
                    pen += f
                    pend_choice[v] = 2
                sat += d
            # SELECTED option A: pick one non-cut member (smallest id in witness)
            nb_noncut = len(tree.noncut_members[x])
            key_a = base + scale + sign * (len(tree.blocks[x]) - 1) + (0 if nb_noncut else inf)
            # option B: no non-cut selected, force a selected child cut
            key_b = base + bd
            opta[x] = key_a <= key_b
            bswap[x] = sw
            bk0[x] = min(key_a, key_b, inf)
            bk1[x] = inf if nb_noncut else min(sat, inf)
            bk2[x] = min(pen, inf)
        else:
            v = x
            sel = scale + sign * len(adj[v])
            dom = fr = 0
            pb = parent_block[v]
            for b in blocks_of_cut[v]:
                if b == pb:
                    continue
                e, t, p = bk0[b], bk1[b], bk2[b]
                # this cut selected: every child block state is compatible
                st, val = 0, e
                if t < val:
                    st, val = 1, t
                if p < val:
                    st, val = 2, p
                sel += val
                selp_choice[b] = st
                # this cut unselected but dominated: needs a SELECTED child block
                if e <= t:
                    dom += e
                    dom_choice[b] = 0
                    bd, sw = 0, -1
                else:
                    dom += t
                    dom_choice[b] = 1
                    if e - t < bd:
                        bd, sw = e - t, b
                fr += t
            ck0[v] = sel
            ck1[v] = min(dom + bd, inf)
            cswap[v] = sw
            ck2[v] = min(fr, inf)

    r = tree.root_block
    state = 0 if bk0[r] <= bk1[r] else 1
    selected: list[int] = []
    stack: list[tuple[bool, int, int]] = [(True, r, state)]
    while stack:
        is_block, x, st = stack.pop()
        if is_block:
            pc = parent_cut[x]
            if st == 0:
                if opta[x]:
                    selected.append(tree.noncut_members[x][0])
                    for v in cuts_in_block[x]:
                        if v != pc:
                            stack.append((False, v, sel_choice[v]))
                else:
                    sw = bswap[x]
                    for v in cuts_in_block[x]:
                        if v != pc:
                            stack.append((False, v, 0 if v == sw else sel_choice[v]))
            elif st == 1:
                for v in cuts_in_block[x]:
                    if v != pc:
                        stack.append((False, v, 1))
            else:
                for v in cuts_in_block[x]:
                    if v != pc:
                        stack.append((False, v, pend_choice[v]))
        else:
            v = x
            pb = parent_block[v]
            if st == 0:
                selected.append(v)
                for b in blocks_of_cut[v]:
                    if b != pb:
                        stack.append((True, b, selp_choice[b]))
            elif st == 1:
                sw = cswap[v]
                for b in blocks_of_cut[v]:
                    if b != pb:
                        stack.append((True, b, 0 if b == sw else dom_choice[b]))
            else:
                for b in blocks_of_cut[v]:
                    if b != pb:
                        stack.append((True, b, 1))
    return _decode(objective, min(bk0[r], bk1[r]), scale, selected)


def block_cover_extrema(g: Graph):
    """Both objectives in one report (see oracle.DominationReport)."""
    from .oracle import DominationReport

    tree = build_cut_tree(g)
    lo = _solve_cut_tree(tree, "min")
    hi = _solve_cut_tree(tree, "max")
    return DominationReport("plain", lo.size, lo.cover, hi.cover, lo.witness, hi.witness)
