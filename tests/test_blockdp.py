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
    root_tree,
    solve_block_graph,
    solve_tree,
)


def brute(g):
    r = cover_extrema(g)
    return r.size, r.cover_min, r.cover_max


def dp(g):
    lo = solve_block_graph(g, "min")
    hi = solve_block_graph(g, "max")
    assert lo.size == hi.size
    return lo.size, lo.cover, hi.cover


class TestCutTree:
    def test_corona_structure(self):
        g = corona(3)
        ct = build_cut_tree(g)
        assert len(ct.blocks) == 4  # the triangle plus three pendant edges
        assert set(ct.cut_vertices) == {0, 1, 2}
        # every cut tree edge pairs a block with a cut vertex it contains
        for block, cut in ct.edges():
            assert cut in ct.blocks[block]

    def test_clique_is_single_block(self):
        ct = build_cut_tree(complete(5))
        assert len(ct.blocks) == 1 and ct.cut_vertices == ()

    def test_rejects_non_block_graphs(self):
        with pytest.raises(DomainError):
            build_cut_tree(cycle(4))
        with pytest.raises(DomainError):
            solve_block_graph(Graph(4, ((0, 1), (2, 3))), "min")


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
