import pytest

import corpus
from domcover import (
    DomainError,
    Graph,
    cover_extrema,
    cover_number,
    cycle,
    gamma,
    is_dominating,
    path,
    root_tree,
    solve_tree,
    star,
    tree_cover_extrema,
)


def brute(g):
    r = cover_extrema(g)
    return r.size, r.cover_min, r.cover_max


def dp(g, root=0):
    t = root_tree(g, root)
    lo = solve_tree(t, "min")
    hi = solve_tree(t, "max")
    assert lo.size == hi.size
    return lo.size, lo.cover, hi.cover


class TestRooting:
    def test_parent_and_order(self):
        t = root_tree(path(4), 0)
        assert t.parent == (None, 0, 1, 2)
        seen = set()
        for v in t.post_order:
            assert all(u in seen for u in t.graph.neighbors(v) if u != t.parent[v])
            seen.add(v)
        assert seen == {0, 1, 2, 3}

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
        with pytest.raises(DomainError):
            root_tree(triangle_plus_isolated, 0)
        with pytest.raises(DomainError):
            root_tree(path(3), 5)


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
