import tracemalloc

import pytest

import corpus
from corpus import spider
from domcover import (
    DomainError,
    Graph,
    cover_extrema,
    cover_number,
    cycle,
    gamma,
    is_dominating,
    path,
    random_tree,
    root_tree,
    solve_tree,
    star,
    tree_cover_extrema,
)
from domcover.treedp import _decode, _keys


def brute(g):
    r = cover_extrema(g)
    return r.size, r.cover_min, r.cover_max


def dp(g, root=0):
    t = root_tree(g, root)
    lo = solve_tree(t, "min")
    hi = solve_tree(t, "max")
    assert lo.size == hi.size
    return lo.size, lo.cover, hi.cover


def reference_solve(tree, objective):
    """The vertex-id form of solve_tree: one post-order walk over the
    adjacency, swap ties by strict < in ascending child id.  Same keys and
    tie rules, so its (size, cover, witness) must match exactly."""
    g = tree.graph
    sign, scale, inf = _keys(g, objective)
    n = g.n
    adj = g.adjacency
    order = tree.order
    parent = [None] * n
    for i in range(1, n):
        parent[order[i]] = order[tree.up[i]]
    in_k = [0] * n
    dom_k = [0] * n
    fr_k = [0] * n
    ch_in = [0] * n
    ch_out = [0] * n
    swap = [-1] * n
    for v in reversed(order):
        pv = parent[v]
        row = adj[v]
        k_in = scale + sign * len(row)
        k_dom = 0
        k_fr = 0
        bd = inf
        sw = -1
        for u in row:
            if u == pv:
                continue
            iu = in_k[u]
            du = dom_k[u]
            fu = fr_k[u]
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
    selected = []
    stack = [(r, 0 if in_k[r] <= dom_k[r] else 1)]
    while stack:
        v, st = stack.pop()
        pv = parent[v]
        if st == 0:
            selected.append(v)
            for u in adj[v]:
                if u != pv:
                    stack.append((u, ch_in[u]))
        elif st == 1:
            for u in adj[v]:
                if u != pv:
                    stack.append((u, 0 if u == swap[v] else ch_out[u]))
        else:
            for u in adj[v]:
                if u != pv:
                    stack.append((u, 1))
    return _decode(objective, min(in_k[r], dom_k[r]), scale, selected)


def three_roots(g):
    return sorted({0, g.n // 2, g.n - 1})


class TestRooting:
    def test_parent_and_order(self):
        t = root_tree(path(4), 0)
        assert tuple(t.order) == (0, 1, 2, 3) and tuple(t.up) == (-1, 0, 1, 2)
        t = root_tree(path(4), 2)
        assert tuple(t.order) == (2, 1, 3, 0) and tuple(t.up) == (-1, 0, 0, 1)
        rooted = [root_tree(path(4), 0), root_tree(star(6), 3)]
        rooted += [root_tree(g, r) for g in corpus.random_trees(60, 13) for r in three_roots(g)]
        for t in rooted:
            g, n = t.graph, t.graph.n
            assert t.order[0] == t.root and t.up[0] == -1
            assert sorted(t.order) == list(range(n))
            for i in range(1, n):
                assert t.up[i] < i
                assert g.has_edge(t.order[t.up[i]], t.order[i])
            assert tuple(t.degree) == tuple(g.degree(v) for v in t.order)
            # parents' positions never fall, so siblings are consecutive, in ascending id
            assert list(t.up) == sorted(t.up)
            for i in range(1, n - 1):
                if t.up[i] == t.up[i + 1]:
                    assert t.order[i] < t.order[i + 1]

    def test_single_vertex(self):
        t = root_tree(Graph(1, ()), 0)
        sol = solve_tree(t, "min")
        assert (sol.size, sol.cover, sol.witness) == (1, 0, (0,))

    def test_rejects_non_trees(self):
        with pytest.raises(DomainError):
            root_tree(cycle(4), 0)
        with pytest.raises(DomainError):
            root_tree(Graph(4, ((0, 1), (2, 3))), 0)
        triangle_plus_isolated = Graph(4, ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(DomainError, match="vertex 3 is not reachable from 0"):
            root_tree(triangle_plus_isolated, 0)
        # the error names the smallest vertex the walk did not reach
        edge_plus_triangle = Graph(5, ((0, 1), (2, 3), (2, 4), (3, 4)))
        with pytest.raises(DomainError, match="vertex 0 is not reachable from 4"):
            root_tree(edge_plus_triangle, 4)
        with pytest.raises(DomainError):
            root_tree(path(3), 5)

    def test_walk_stops_on_a_cycle(self):
        # With m = n - 1 a graph that is not a tree holds a cycle, which a walk
        # that skips only each vertex's parent would circle without end.
        g = Graph(4, ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(DomainError, match=r"^not a tree: vertex 3 is not reachable from 0$"):
            root_tree(g, 0)
        with pytest.raises(DomainError, match=r"^not a tree: vertex 0 is not reachable from 3$"):
            root_tree(g, 3)
        big = Graph(10**4, [(0, 1), (0, 10**4 - 2)] + [(i, i + 1) for i in range(1, 10**4 - 2)])
        with pytest.raises(DomainError, match=r"^not a tree: vertex 9999 is not reachable from 0$"):
            root_tree(big, 0)

    def test_walk_stops_early_on_a_dense_cycle(self):
        # K_100 plus 4,851 isolated vertices has m = n - 1.  Each position of a
        # walk bounded only by n positions would add 98 entries, about 485,000
        # in all; bounded by n entries it holds about 12 B per vertex.
        k = 100
        n = k * (k - 1) // 2 + 1
        g = Graph(n, [(u, v) for u in range(k) for v in range(u + 1, k)])
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"^not a tree: vertex {k} is not reachable from 0$"):
                root_tree(g, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n


class TestAgainstOracle:
    def test_all_small_trees_every_root(self, trees10):
        for g in trees10:
            if g.n > 8:
                continue
            want = brute(g)
            for root in range(g.n):
                assert dp(g, root) == want

    def test_remaining_small_trees_root_zero(self, trees10):
        for g in trees10:
            if g.n > 8:
                assert dp(g) == brute(g)

    def test_random_trees(self):
        for g in corpus.random_trees(120, 13):
            assert dp(g) == brute(g)

    def test_spiders_sample(self):
        for g in corpus.spiders(12):
            assert dp(g) == brute(g)


class TestAgainstReference:
    @staticmethod
    def same(g, root):
        t = root_tree(g, root)
        for objective in ("min", "max"):
            assert solve_tree(t, objective) == reference_solve(t, objective)

    def test_small_trees_every_root(self, trees10):
        for g in trees10:
            if g.n <= 9:
                for root in range(g.n):
                    self.same(g, root)

    def test_random_trees_three_roots(self):
        for g in corpus.random_trees(120, 13):
            for root in three_roots(g):
                self.same(g, root)

    def test_ring_wraps_and_wide_levels(self):
        # The scan parks parents in a ring of max(c - up[c]) + 1 slots: two on
        # a path, so slots wrap n / 2 times; n on a star, one wide level.
        # Spiders and a caterpillar mix long runs of single children with
        # wide levels of parents.
        spine = 20
        caterpillar = Graph(
            2 * spine + 1,
            [(i, i + 1) for i in range(spine - 1)]
            + [(i, spine + i) for i in range(spine)]
            + [(0, 2 * spine)],
        )
        for g in (path(1000), star(60), caterpillar, spider((2,) * 30), *corpus.spiders(15)):
            for root in three_roots(g):
                self.same(g, root)


class TestWitnesses:
    def test_witness_attains_objective(self):
        for g in corpus.random_trees(80, 15):
            ref = cover_extrema(g)
            k = None
            for objective in ("min", "max"):
                sol = solve_tree(root_tree(g, 0), objective)
                # the oracle's lexicographically first attaining set
                assert sol.witness == (ref.witness_min if objective == "min" else ref.witness_max)
                assert is_dominating(g, sol.witness)
                assert len(sol.witness) == sol.size
                assert cover_number(g, sol.witness) == sol.cover
                k = sol.size if k is None else k
                assert sol.size == k
            assert k == gamma(g)

    def test_star_witness(self):
        sol = solve_tree(root_tree(star(6), 3), "min")
        assert sol.witness == (0,) and sol.cover == 6 and sol.size == 1


class TestReport:
    def test_extrema_report_matches_oracle(self):
        g = corpus.spider((3, 2, 2, 1))
        mine = tree_cover_extrema(root_tree(g, 0))
        ref = cover_extrema(g)
        assert (mine.size, mine.cover_min, mine.cover_max) == (ref.size, ref.cover_min, ref.cover_max)
        assert mine.mode == "plain"
        assert is_dominating(g, mine.witness_min) and is_dominating(g, mine.witness_max)

    def test_long_path_closed_form(self):
        # n = 3k exact value, no oracle needed at this size
        for k in (50, 333):
            size, lo, hi = dp(path(3 * k))
            assert (size, lo, hi) == (k, 2 * k, 2 * k)


@pytest.fixture(scope="module", params=["path", "random_tree"])
def big_tree(request):
    g = path(10**5) if request.param == "path" else random_tree(10**5, 1)
    return root_tree(g, 0)


class TestMemoryShape:
    @pytest.mark.parametrize("objective", ["min", "max"])
    def test_solve_holds_at_most_96_bytes_per_position(self, big_tree, objective):
        # Keeping every position's sums to the end of the scan took 141 B or
        # more per position on these trees.
        tracemalloc.start()
        try:
            solve_tree(big_tree, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * len(big_tree.order)

    @pytest.mark.parametrize("objective", ["min", "max"])
    def test_solve_holds_at_most_32_bytes_per_position(self, big_tree, objective):
        # Sums only for the parents the scan has begun and not finished:
        # 19-26 B per position on these trees, against 65-83 B with sums for
        # every position.
        tracemalloc.start()
        try:
            solve_tree(big_tree, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * len(big_tree.order)

    @pytest.mark.parametrize("shape", ["star", "spider"])
    def test_widest_rings_hold_at_most_96_bytes_per_position(self, shape):
        # A star's ring has one slot per position; a spider of two-vertex legs
        # has half as many, nearly all holding a parent at once.  44 and 58 B.
        g = star(10**5 - 1) if shape == "star" else spider((2,) * (10**5 // 2))
        t = root_tree(g, 0)
        for objective in ("min", "max"):
            tracemalloc.start()
            try:
                solve_tree(t, objective)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 96 * g.n

    def test_rooted_tree_holds_at_most_16_bytes_per_vertex(self, big_tree):
        # Tuples of the walk's lists held 38-52 B per vertex, and the walk
        # peaked at 63-77 B.
        g = big_tree.graph
        tracemalloc.start()
        try:
            t = root_tree(g, 0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t == big_tree
        assert held <= 16 * g.n and peak <= 16 * g.n
