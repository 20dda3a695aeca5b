import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from domcover import (
    CapacityError,
    DomainError,
    Graph,
    complete,
    cycle,
    gamma,
    gamma_lex_product,
    lex_product,
    pair_to_vertex,
    path,
    product_cover_extrema,
    star,
    validate_product_theorem,
    vertex_to_pair,
)

SMALL_G = [path(2), path(3), path(4), cycle(3), cycle(4), star(3)]
SMALL_H = [complete(2), complete(3), path(3), Graph(2, ()), Graph(3, ())]


class TestConstruction:
    def test_order_and_size_laws(self):
        for g, h in itertools.product(SMALL_G, SMALL_H):
            p = lex_product(g, h)
            assert p.n == g.n * h.n
            assert p.m == g.m * h.n * h.n + g.n * h.m

    def test_degree_law(self):
        g, h = cycle(4), path(3)
        p = lex_product(g, h)
        for a in range(g.n):
            for x in range(h.n):
                v = pair_to_vertex(a, x, h.n)
                assert p.degree(v) == g.degree(a) * h.n + h.degree(x)

    def test_pair_vertex_bijection(self):
        hn = 4
        seen = set()
        for a in range(3):
            for x in range(hn):
                v = pair_to_vertex(a, x, hn)
                assert vertex_to_pair(v, hn) == (a, x)
                seen.add(v)
        assert seen == set(range(12))

    def test_adjacency_rule(self):
        g, h = path(2), path(2)  # product of two edges
        p = lex_product(g, h)
        # different G coordinate: always adjacent; same coordinate: H edge
        assert p.has_edge(pair_to_vertex(0, 0, 2), pair_to_vertex(1, 1, 2))
        assert p.has_edge(pair_to_vertex(0, 0, 2), pair_to_vertex(0, 1, 2))
        assert p.m == 6  # K4


class TestGammaFormula:
    def test_matches_oracle_on_grid(self):
        for g, h in itertools.product(SMALL_G, SMALL_H):
            if g.n * h.n <= 20:
                assert gamma_lex_product(g, h) == gamma(lex_product(g, h))

    def test_dominating_vertex_case(self):
        # H has a dominating vertex, so fibers are self-sufficient
        assert gamma_lex_product(cycle(4), complete(3)) == gamma(cycle(4))

    def test_total_case(self):
        from domcover import gamma_total

        assert gamma_lex_product(path(4), Graph(2, ())) == gamma_total(path(4))


class TestCoverFormulas:
    def test_known_values(self):
        r = product_cover_extrema(path(3), complete(2), "min")
        assert (r.value, r.case) == (5, "gammaH_1")
        r = product_cover_extrema(path(3), Graph(2, ()), "max")
        assert (r.value, r.case) == (8, "mixed_case")
        r = product_cover_extrema(cycle(4), Graph(3, ()), "min")
        assert (r.value, r.case) == (12, "total_case")

    def test_matches_naive_reference(self, corpus7):
        # The naive scan shares no search with the package, unlike the
        # oracle side of validate_product_theorem.
        for g in corpus7:
            for h in (complete(1), complete(2), Graph(2, ())):
                size, lo, hi, _, _ = naive.extrema(lex_product(g, h))
                got = (
                    gamma_lex_product(g, h),
                    product_cover_extrema(g, h, "min").value,
                    product_cover_extrema(g, h, "max").value,
                )
                assert got == (size, lo, hi), (tuple(g.edges()), tuple(h.edges()))

    def test_ingredients_are_recorded(self):
        r = product_cover_extrema(star(3), complete(3), "max")
        ing = r.ingredients
        assert ing["gamma_H"] == 1 and ing["order_H"] == 3
        assert ing["cover_min_G"] == 3 and ing["gamma_G"] == 1

    def test_guards(self):
        with pytest.raises(DomainError):
            product_cover_extrema(Graph(1, ()), complete(2), "min")
        with pytest.raises(DomainError):
            product_cover_extrema(Graph(4, ((0, 1), (2, 3))), complete(2), "min")
        with pytest.raises(DomainError):
            product_cover_extrema(path(3), Graph(0, ()), "min")
        with pytest.raises(DomainError):
            product_cover_extrema(path(3), complete(2), "median")


class TestValidation:
    def test_agreeing_pair(self):
        v = validate_product_theorem(path(3), complete(2))
        assert v.agree and v.gamma_agree
        assert v.min_formula == v.min_oracle == 5
        assert v.max_formula == v.max_oracle == 5

    def test_adjacent_members_sit_on_low_degree_h_vertices(self):
        # C4 has a minimum dominating set of two adjacent vertices; each
        # dominates the other's layer, so both product picks may sit on
        # low-degree H vertices, and the projection form takes that into account.
        v = validate_product_theorem(cycle(4), path(3))
        assert v.case == "gammaH_1"
        assert v.gamma_agree and v.max_agree
        assert (v.min_formula, v.min_oracle) == (14, 14)
        assert v.min_agree and v.agree

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            validate_product_theorem(path(9), complete(3))

    @settings(deadline=None, max_examples=25)
    @given(
        st.sampled_from(SMALL_G),
        st.sampled_from(SMALL_H),
    )
    def test_gamma_formula_never_disagrees(self, g, h):
        v = validate_product_theorem(g, h)
        assert v.gamma_agree
