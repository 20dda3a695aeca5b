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

Values are (size, cover) pairs with size strictly first, covers being whole-
graph degree sums; the max objective negates covers internally.  Non-cut
members of one block are interchangeable, so "one non-cut selected" is a
single option and the witness materializes the smallest id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph, blocks_and_cut_vertices, blocks_are_cliques
from .treedp import CoverSolution

_INF = 1 << 40


@dataclass(frozen=True)
class CutTree:
    """Blocks and cut vertices of a connected graph, with a designated root block.

    Implicit bipartite edges: block i is adjacent to cut vertex v exactly when
    v is a member of blocks[i].
    """

    graph: Graph
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    noncut_members: tuple[tuple[int, ...], ...]
    root_block: int

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(block index, cut vertex) pairs, lexicographic."""
        cuts = set(self.cut_vertices)
        out = []
        for i, block in enumerate(self.blocks):
            for v in block:
                if v in cuts:
                    out.append((i, v))
        return tuple(out)


def build_cut_tree(g: Graph) -> CutTree:
    """Cut-tree of a connected block graph, rooted at the first block."""
    blocks, cuts = blocks_and_cut_vertices(g)
    if not blocks_are_cliques(g, blocks):
        raise DomainError("not a block graph: some block is not a clique")
    cutset = set(cuts)
    noncut = tuple(tuple(v for v in block if v not in cutset) for block in blocks)
    return CutTree(g, blocks, cuts, noncut, 0)


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
    sign = 1 if objective == "min" else -1
    n = g.n
    adj = g.adjacency
    blocks = tree.blocks
    nblocks = len(blocks)
    cutset = set(tree.cut_vertices)
    cuts_in_block = [tuple(v for v in block if v in cutset) for block in blocks]
    blocks_of_cut: dict[int, list[int]] = {v: [] for v in cutset}
    for i, members in enumerate(cuts_in_block):
        for v in members:
            blocks_of_cut[v].append(i)

    # Root the bipartite tree at block 0; order is breadth-first.
    parent_cut = [-1] * nblocks        # parent cut vertex of a block
    parent_block: dict[int, int] = {}  # parent block index of a cut vertex
    bfs: list[tuple[bool, int]] = [(True, tree.root_block)]
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

    # Block states: 0 SELECTED, 1 NONE_SAT, 2 NONE_PENDING.
    bs = [[0] * nblocks, [0] * nblocks, [0] * nblocks]
    bc = [[0] * nblocks, [0] * nblocks, [0] * nblocks]
    # Cut states: 0 SELECTED, 1 DOMINATED, 2 FREE (indexed by vertex id).
    cs = [[0] * n, [0] * n, [0] * n]
    cc = [[0] * n, [0] * n, [0] * n]
    # Witness bookkeeping.
    sel_choice = [0] * n   # cut child's state when its block is SELECTED
    pend_choice = [0] * n  # cut child's state when its block is NONE_PENDING
    opta = [False] * nblocks
    bswap = [-1] * nblocks
    selp_choice = [0] * nblocks  # block child's state when its cut is SELECTED
    dom_choice = [0] * nblocks   # block child's state when its cut is DOMINATED
    cswap = [-1] * n

    for is_block, x in reversed(bfs):
        if is_block:
            members = blocks[x]
            nb_noncut = len(tree.noncut_members[x])
            dnc = len(members) - 1
            base_s = 0
            base_c = 0
            has_sel = False
            bd_s, bd_c, sw = _INF, 0, -1
            pen_s = 0
            pen_c = 0
            sat_s = 0
            sat_c = 0
            for v in cuts_in_block[x]:
                if v == parent_cut[x]:
                    continue
                ss, sc = cs[0][v], cc[0][v]
                ds, dc = cs[1][v], cc[1][v]
                fs, fc = cs[2][v], cc[2][v]
                # block provides a selected member: child may be anything
                st, vs, vc = 0, ss, sc
                if ds < vs or (ds == vs and dc < vc):
                    st, vs, vc = 1, ds, dc
                if fs < vs or (fs == vs and fc < vc):
                    st, vs, vc = 2, fs, fc
                base_s += vs
                base_c += vc
                sel_choice[v] = st
                if st == 0:
                    has_sel = True
                else:
                    es, ec = ss - vs, sc - vc
                    if es < bd_s or (es == bd_s and ec < bd_c):
                        bd_s, bd_c, sw = es, ec, v
                # no selection in the block: child must not demand it
                if ds < fs or (ds == fs and dc <= fc):
                    pen_s += ds
                    pen_c += dc
                    pend_choice[v] = 1
                else:
                    pen_s += fs
                    pen_c += fc
                    pend_choice[v] = 2
                sat_s += ds
                sat_c += dc
            # SELECTED option A: pick one non-cut member (smallest id in witness)
            a_s = base_s + 1 + (0 if nb_noncut else _INF)
            a_c = base_c + sign * dnc
            # option B: no non-cut selected, force a selected child cut
            if has_sel:
                b_s, b_c = base_s, base_c
            elif sw >= 0:
                b_s, b_c = base_s + bd_s, base_c + bd_c
            else:
                b_s, b_c = _INF, 0
            if a_s < b_s or (a_s == b_s and a_c <= b_c):
                opta[x] = True
                bs[0][x], bc[0][x] = (a_s, a_c) if a_s < _INF else (_INF, 0)
            else:
                opta[x] = False
                bswap[x] = -1 if has_sel else sw
                bs[0][x], bc[0][x] = (b_s, b_c) if b_s < _INF else (_INF, 0)
            if nb_noncut or sat_s >= _INF:
                bs[1][x], bc[1][x] = _INF, 0
            else:
                bs[1][x], bc[1][x] = sat_s, sat_c
            if pen_s >= _INF:
                bs[2][x], bc[2][x] = _INF, 0
            else:
                bs[2][x], bc[2][x] = pen_s, pen_c
        else:
            v = x
            deg = len(adj[v])
            sel_s = 1
            sel_c = sign * deg
            dom_s = 0
            dom_c = 0
            has_sel = False
            bd_s, bd_c, sw = _INF, 0, -1
            fr_s = 0
            fr_c = 0
            for b in blocks_of_cut[v]:
                if b == parent_block[v]:
                    continue
                es, ec = bs[0][b], bc[0][b]
                ts, tc = bs[1][b], bc[1][b]
                ps, pc = bs[2][b], bc[2][b]
                # this cut selected: every child block state is compatible
                st, vs, vc = 0, es, ec
                if ts < vs or (ts == vs and tc < vc):
                    st, vs, vc = 1, ts, tc
                if ps < vs or (ps == vs and pc < vc):
                    st, vs, vc = 2, ps, pc
                sel_s += vs
                sel_c += vc
                selp_choice[b] = st
                # this cut unselected but dominated: needs a SELECTED child block
                if es < ts or (es == ts and ec <= tc):
                    dom_s += es
                    dom_c += ec
                    dom_choice[b] = 0
                    has_sel = True
                else:
                    dom_s += ts
                    dom_c += tc
                    dom_choice[b] = 1
                    ds2, dc2 = es - ts, ec - tc
                    if ds2 < bd_s or (ds2 == bd_s and dc2 < bd_c):
                        bd_s, bd_c, sw = ds2, dc2, b
                fr_s += ts
                fr_c += tc
            cs[0][v], cc[0][v] = sel_s, sel_c
            if not has_sel:
                dom_s += bd_s
                dom_c += bd_c
                cswap[v] = sw
            cs[1][v], cc[1][v] = (dom_s, dom_c) if dom_s < _INF else (_INF, 0)
            cs[2][v], cc[2][v] = (fr_s, fr_c) if fr_s < _INF else (_INF, 0)

    r = tree.root_block
    if bs[0][r] < bs[1][r] or (bs[0][r] == bs[1][r] and bc[0][r] <= bc[1][r]):
        state, size, scov = 0, bs[0][r], bc[0][r]
    else:
        state, size, scov = 1, bs[1][r], bc[1][r]

    selected: list[int] = []
    stack: list[tuple[bool, int, int]] = [(True, r, state)]
    while stack:
        is_block, x, st = stack.pop()
        if is_block:
            if st == 0:
                if opta[x]:
                    selected.append(tree.noncut_members[x][0])
                    for v in cuts_in_block[x]:
                        if v != parent_cut[x]:
                            stack.append((False, v, sel_choice[v]))
                else:
                    sw = bswap[x]
                    for v in cuts_in_block[x]:
                        if v != parent_cut[x]:
                            stack.append((False, v, 0 if v == sw else sel_choice[v]))
            elif st == 1:
                for v in cuts_in_block[x]:
                    if v != parent_cut[x]:
                        stack.append((False, v, 1))
            else:
                for v in cuts_in_block[x]:
                    if v != parent_cut[x]:
                        stack.append((False, v, pend_choice[v]))
        else:
            v = x
            if st == 0:
                selected.append(v)
                for b in blocks_of_cut[v]:
                    if b != parent_block[v]:
                        stack.append((True, b, selp_choice[b]))
            elif st == 1:
                sw = cswap[v]
                for b in blocks_of_cut[v]:
                    if b != parent_block[v]:
                        stack.append((True, b, 0 if b == sw else dom_choice[b]))
            else:
                for b in blocks_of_cut[v]:
                    if b != parent_block[v]:
                        stack.append((True, b, 1))
    return CoverSolution(objective, size, sign * scov, tuple(sorted(selected)))


def block_cover_extrema(g: Graph):
    """Both objectives in one report (see oracle.DominationReport)."""
    from .oracle import DominationReport

    tree = build_cut_tree(g)
    lo = _solve_cut_tree(tree, "min")
    hi = _solve_cut_tree(tree, "max")
    return DominationReport("plain", lo.size, lo.cover, hi.cover, lo.witness, hi.witness)
