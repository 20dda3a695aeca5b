import tracemalloc

import pytest

import corpus
from domcover import (
    DomainError,
    Graph,
    block_cover_extrema,
    build_cut_tree,
    complete,
    corona,
    cover_extrema,
    cover_number,
    cycle,
    is_dominating,
    path,
    random_block_graph,
    root_tree,
    solve_block_graph,
    solve_tree,
)
from domcover.blockdp import _solve_cut_tree
from domcover.treedp import _decode, _keys


def brute(g):
    r = cover_extrema(g)
    return r.size, r.cover_min, r.cover_max


def dp(g):
    lo = solve_block_graph(g, "min")
    hi = solve_block_graph(g, "max")
    assert lo.size == hi.size
    return lo.size, lo.cover, hi.cover


def reference_solve(g, objective):
    """The cut-tree DP by block index and vertex id: a post-order fold over
    child lists built here from the blocks and cut vertices, swap ties by
    strict < in ascending child id, and a stack walk for the witness.  Same
    keys and tie rules as solve_block_graph, so its result must match
    exactly."""
    ct = build_cut_tree(g)  # for the decomposition and its errors alone
    blocks, cuts = ct.blocks, set(ct.cut_vertices)
    sign, scale, inf = _keys(g, objective)
    n = g.n
    nblocks = len(blocks)
    # root the cut tree at block 0: child cut vertices of each block, child
    # blocks of each cut vertex, both ascending
    blocks_of = [[] for _ in range(n)]
    for i, block in enumerate(blocks):
        for v in block:
            if v in cuts:
                blocks_of[v].append(i)
    cut_kids = [[] for _ in range(nblocks)]
    block_kids = [[] for _ in range(n)]
    walk = [(True, 0)]
    parent_of_block, parent_of_cut = {0: -1}, {}
    for is_block, x in walk:
        if is_block:
            for v in blocks[x]:
                if v in cuts and v != parent_of_block[x]:
                    parent_of_cut[v] = x
                    cut_kids[x].append(v)
                    walk.append((False, v))
        else:
            for b in blocks_of[x]:
                if b != parent_of_cut[x]:
                    parent_of_block[b] = x
                    block_kids[x].append(b)
                    walk.append((True, b))

    bk0, bk1, bk2 = [0] * nblocks, [0] * nblocks, [0] * nblocks
    ck0, ck1, ck2 = [0] * n, [0] * n, [0] * n
    sel_choice, pend_choice, cswap = [0] * n, [0] * n, [-1] * n
    selp_choice, dom_choice, bswap = [0] * nblocks, [0] * nblocks, [-1] * nblocks
    opta = [False] * nblocks
    for is_block, x in reversed(walk):
        bd, sw = inf, -1
        if is_block:
            base = pen = sat = 0
            for v in cut_kids[x]:
                s, d, f = ck0[v], ck1[v], ck2[v]
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
                if d <= f:
                    pen += d
                    pend_choice[v] = 1
                else:
                    pen += f
                    pend_choice[v] = 2
                sat += d
            has_noncut = any(v not in cuts for v in blocks[x])
            key_a = base + scale + sign * (len(blocks[x]) - 1) + (0 if has_noncut else inf)
            key_b = base + bd
            opta[x] = key_a <= key_b
            bswap[x] = sw
            bk0[x] = min(key_a, key_b, inf)
            bk1[x] = inf if has_noncut else min(sat, inf)
            bk2[x] = min(pen, inf)
        else:
            sel = scale + sign * g.degree(x)
            dom = fr = 0
            for b in block_kids[x]:
                e, t, p = bk0[b], bk1[b], bk2[b]
                st, val = 0, e
                if t < val:
                    st, val = 1, t
                if p < val:
                    st, val = 2, p
                sel += val
                selp_choice[b] = st
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
            ck0[x] = sel
            ck1[x] = min(dom + bd, inf)
            cswap[x] = sw
            ck2[x] = min(fr, inf)

    selected = []
    stack = [(True, 0, 0 if bk0[0] <= bk1[0] else 1)]
    while stack:
        is_block, x, st = stack.pop()
        if is_block:
            if st == 0 and opta[x]:
                selected.append(min(v for v in blocks[x] if v not in cuts))
            for v in cut_kids[x]:
                if st == 0:
                    stack.append((False, v, 0 if v == bswap[x] and not opta[x] else sel_choice[v]))
                else:
                    stack.append((False, v, 1 if st == 1 else pend_choice[v]))
        else:
            if st == 0:
                selected.append(x)
            for b in block_kids[x]:
                if st == 0:
                    stack.append((True, b, selp_choice[b]))
                elif st == 1:
                    stack.append((True, b, 0 if b == cswap[x] else dom_choice[b]))
                else:
                    stack.append((True, b, 1))
    return _decode(objective, min(bk0[0], bk1[0]), scale, selected)


def _triangle(a, b, c):
    return (a, b), (a, c), (b, c)


def outcome(solve, g, objective):
    try:
        return solve(g, objective)
    except DomainError as e:
        return str(e)


class TestCutTree:
    def test_corona_structure(self):
        g = corona(3)
        ct = build_cut_tree(g)
        assert len(ct.blocks) == 4  # the triangle plus three pendant edges
        assert set(ct.cut_vertices) == {0, 1, 2}
        # every cut tree edge pairs a block with a cut vertex it contains
        for block, cut in ct.edges():
            assert cut in ct.blocks[block]
        # edges() comes from the rooting; it must list each membership once
        for g in (corona(3), *corpus.random_block_graphs(60, 14)):
            ct = build_cut_tree(g)
            cuts = set(ct.cut_vertices)
            members = sorted((i, v) for i, b in enumerate(ct.blocks) for v in b if v in cuts)
            assert list(ct.edges()) == members

    def test_up_never_decreases(self):
        # _solve_positions parks parents in a ring that relies on it
        for g in corpus.random_block_graphs(60, 14) + corpus.glued_cliques():
            ct = build_cut_tree(g)
            assert list(ct.up) == sorted(ct.up)

    def test_clique_is_single_block(self):
        ct = build_cut_tree(complete(5))
        assert len(ct.blocks) == 1 and ct.cut_vertices == ()

    def test_rejects_non_block_graphs(self):
        with pytest.raises(DomainError):
            build_cut_tree(cycle(4))
        with pytest.raises(DomainError):
            solve_block_graph(Graph(4, ((0, 1), (2, 3))), "min")

    def test_rejects_an_unknown_objective(self):
        with pytest.raises(DomainError, match=r"^objective must be 'min' or 'max', got 'mid'$"):
            solve_block_graph(corona(3), "mid")


class TestAgainstOracle:
    def test_random_block_graphs(self):
        for g in corpus.random_block_graphs(150, 13):
            assert dp(g) == brute(g)

    def test_glued_cliques(self):
        for g in corpus.glued_cliques():
            assert dp(g) == brute(g)

    def test_coronas(self):
        for p in range(2, 7):
            assert dp(corona(p)) == (p, p, p * p)

    def test_cliques_and_paths(self):
        for n in range(1, 8):
            assert dp(complete(n)) == brute(complete(n))
            assert dp(path(n)) == brute(path(n))


class TestAgainstTreeDP:
    def test_all_small_trees(self, trees10):
        for g in trees10:
            t = root_tree(g, 0)
            ref = cover_extrema(g)
            for objective in ("min", "max"):
                a = solve_block_graph(g, objective)
                b = solve_tree(t, objective)
                assert (a.size, a.cover) == (b.size, b.cover)
                # on trees both witnesses are the oracle's lexicographically first
                want = ref.witness_min if objective == "min" else ref.witness_max
                assert a.witness == b.witness == want


class TestAgainstReference:
    def test_reference_graphs(self, trees10):
        sample = corpus.random_block_graphs(400, 14) + corpus.glued_cliques() + trees10
        sample += tuple(
            random_block_graph(n, seed, max_clique)
            for n in (30, 60, 200)
            for seed in range(20)
            for max_clique in (2, 3, 5, 7)
        )
        # most of these are not block graphs: both must raise the same error
        sample += corpus.connected_graphs(6)
        assert len(sample) == 988
        for g in sample:
            for objective in ("min", "max"):
                assert outcome(solve_block_graph, g, objective) == outcome(
                    reference_solve, g, objective
                )

    def test_ring_wraps_and_wide_levels(self):
        # A chain of triangles gives the cut tree a ring of few slots that
        # wraps many times; triangles and edges all sharing vertex 0 give one
        # cut vertex with a wide level of blocks under it.
        chain = Graph(201, [e for i in range(100) for e in _triangle(2 * i, 2 * i + 1, 2 * i + 2)])
        fan = Graph(
            61,
            [e for i in range(20) for e in _triangle(0, 2 * i + 1, 2 * i + 2)]
            + [(0, v) for v in range(41, 61)],
        )
        for g in (chain, fan, corona(30)):
            for objective in ("min", "max"):
                assert solve_block_graph(g, objective) == reference_solve(g, objective)


class TestWitnesses:
    def test_witness_attains_objective(self):
        sample = corpus.random_block_graphs(60, 14) + corpus.glued_cliques()
        for g in sample:
            for objective in ("min", "max"):
                sol = solve_block_graph(g, objective)
                assert is_dominating(g, sol.witness)
                assert len(sol.witness) == sol.size
                assert cover_number(g, sol.witness) == sol.cover

    def test_extrema_report(self):
        g = corpus.glued_cliques()[0]
        mine = block_cover_extrema(g)
        ref = cover_extrema(g)
        assert (mine.size, mine.cover_min, mine.cover_max) == (ref.size, ref.cover_min, ref.cover_max)

    def test_extrema_report_matches_single_objective_solves(self):
        for g in corpus.random_block_graphs(150, 13) + corpus.glued_cliques():
            mine = block_cover_extrema(g)
            lo, hi = solve_block_graph(g, "min"), solve_block_graph(g, "max")
            assert (mine.size, mine.cover_min, mine.cover_max) == (lo.size, lo.cover, hi.cover)
            assert (mine.witness_min, mine.witness_max) == (lo.witness, hi.witness)


class TestScale:
    def test_long_clique_chain(self):
        # chain of triangles glued at shared vertices: 2k+1 vertices
        k = 2000
        edges = []
        for i in range(k):
            a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
            edges += [(a, b), (a, c), (b, c)]
        g = Graph(2 * k + 1, tuple(edges))
        lo = solve_block_graph(g, "min")
        hi = solve_block_graph(g, "max")
        assert lo.size == hi.size
        assert is_dominating(g, lo.witness) and is_dominating(g, hi.witness)
        assert lo.cover <= hi.cover


class TestMemoryShape:
    @pytest.mark.parametrize("shape", ["random", "fan", "spider"])
    def test_scans_hold_at_most_96_bytes_per_position(self, shape):
        # The ring of waiting parents has one slot per position under a
        # fan's one cut vertex, and a spider of two-vertex legs keeps nearly
        # every leg's middle vertex in it at once: 43 and 48-59 B, and
        # 16-20 B on a random block graph.
        if shape == "random":
            g = random_block_graph(10**5, 1)
        elif shape == "fan":
            g = Graph(
                10**5 + 1, [e for i in range(10**5 // 2) for e in _triangle(0, 2 * i + 1, 2 * i + 2)]
            )
        else:
            g = corpus.spider((2,) * (10**5 // 2))
        ct = build_cut_tree(g)
        for objective in ("min", "max"):
            tracemalloc.start()
            try:
                _solve_cut_tree(ct, objective)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 96 * len(ct.order)
