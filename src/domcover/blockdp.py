"""Linear-time cover extrema on block graphs (every block a clique).

The solver runs over the cut-tree: a bipartite tree with one node per block
and one per cut vertex, rooted at block 0.  Within a clique any selected
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

A cut vertex's states are the tree vertex's IN, OUT_DOM and OUT_FREE, and
its rules are the tree rules with its child blocks as children.  So
build_cut_tree roots the cut tree into breadth-first positions, as
treedp.root_tree roots a tree, and the tree DP's two position scans
(treedp._solve_positions) solve it; block positions add the block states.
Each state carries the tree solver's integer key, size*K + sign*cover (see
treedp._keys).  Non-cut members of one block are interchangeable, so "one
non-cut selected" is a single option, and the smallest is the vertex the
block's position adds, as a tree position adds its own vertex.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph, blocks_and_cut_vertices, blocks_are_cliques
from .treedp import CoverSolution, _solve_positions


@dataclass(frozen=True)
class CutTree:
    """Blocks and cut vertices of a connected graph, rooted into DP positions.

    Block i is adjacent to cut vertex v exactly when v is a member of
    blocks[i].  The rooting is a breadth-first walk from block 0 that reads
    a block's members and a cut vertex's blocks in ascending order, so
    siblings take consecutive positions in ascending id, and every parent
    comes before its children.  The positions are flat arrays, of the
    graph's own int type, and mean what a treedp.RootedTree's mean:

      order     order[i] is the vertex position i adds to a witness: the
                cut vertex, or the block's smallest non-cut member (-1
                when it has none);
      is_block  is_block[i] is 1 for a block and 0 for a cut vertex, in an
                array('b') that the DP copies into its bytearray of kinds;
      up        up[i] is the position of i's parent, -1 at the root block;
      degree    degree[i] is the degree of order[i], 0 where it is -1.

    up never decreases along the positions, as in a RootedTree, and the DP
    relies on it (see treedp._solve_positions).
    """

    graph: Graph
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    order: array
    is_block: array
    up: array
    degree: array


def build_cut_tree(g: Graph) -> CutTree:
    """Cut-tree of a connected block graph, rooted at the first block."""
    blocks, cuts = blocks_and_cut_vertices(g)
    if not blocks_are_cliques(g, blocks):
        raise DomainError("not a block graph: some block is not a clique")
    is_cut = bytearray(g.n)
    for v in cuts:
        is_cut[v] = 1
    code = g._targets.typecode
    # one pass over the blocks: each cut vertex's blocks, and each block's
    # smallest non-cut member (members are sorted), -1 when it has none
    blocks_of_cut: dict[int, list[int]] = {v: [] for v in cuts}
    adds = array(code, [-1]) * len(blocks)
    for i, block in enumerate(blocks):
        for v in block:
            if is_cut[v]:
                blocks_of_cut[v].append(i)
            elif adds[i] < 0:
                adds[i] = v

    order = array(code, [0])
    is_block = array("b", [1])
    up = array(code, [-1])
    # the array iterator reads the length afresh, so it walks the growing queue
    for i, x in enumerate(order):
        parent = order[up[i]] if i else -1
        block = is_block[i]
        for y in blocks[x] if block else blocks_of_cut[x]:
            if y != parent and (is_cut[y] or not block):
                order.append(y)
                is_block.append(not block)
                up.append(i)
    # the walk needed block indices; a block position holds its vertex
    order = array(code, (adds[x] if b else x for x, b in zip(order, is_block)))
    o = g._offsets
    degree = array(code, (o[x + 1] - o[x] if x >= 0 else 0 for x in order))
    return CutTree(g, blocks, cuts, order, is_block, up, degree)


def solve_block_graph(g: Graph, objective: str) -> CoverSolution:
    """Cover extremum over all minimum dominating sets of a block graph.

    The tree DP's two position scans over the cut-tree, O(n + m).  Ties
    break toward the earlier-listed state and, for swaps, the smaller child,
    so witnesses are deterministic.  An objective other than "min" or "max"
    raises DomainError once the cut-tree is built (see treedp._keys).
    """
    return _solve_cut_tree(build_cut_tree(g), objective)


def _solve_cut_tree(tree: CutTree, objective: str) -> CoverSolution:
    """solve_block_graph's DP on a cut-tree that is already built."""
    return _solve_positions(tree.graph, objective, tree.order, tree.up, tree.degree, tree.is_block)


def block_cover_extrema(g: Graph):
    """Both objectives in one report (see oracle.DominationReport)."""
    from .oracle import DominationReport

    tree = build_cut_tree(g)
    lo = _solve_cut_tree(tree, "min")
    hi = _solve_cut_tree(tree, "max")
    return DominationReport("plain", lo.size, lo.cover, hi.cover, lo.witness, hi.witness)
