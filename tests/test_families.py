import pytest

from domcover import (
    DomainError,
    FamilySpec,
    Graph,
    audit_bounds,
    barbell,
    book,
    complete,
    corona,
    cycle,
    generate,
    is_block_graph,
    is_connected,
    is_p4_free,
    path,
    random_block_graph,
    random_gnp,
    random_tree,
    star,
)


class TestGenerators:
    def test_orders_and_sizes(self):
        assert (path(5).n, path(5).m) == (5, 4)
        assert (cycle(5).n, cycle(5).m) == (5, 5)
        assert (star(4).n, star(4).m) == (5, 4)
        assert (complete(5).n, complete(5).m) == (5, 10)
        assert (corona(4).n, corona(4).m) == (8, 10)
        assert (barbell(5).n, barbell(5).m) == (10, 21)
        assert (book(4).n, book(4).m) == (10, 13)

    def test_shape_details(self):
        assert path(2).has_edge(0, 1)
        assert cycle(3) == complete(3)
        assert star(3).degrees() == (3, 1, 1, 1)
        # corona: clique vertex i supports exactly pendant p + i
        g = corona(3)
        for i in range(3):
            assert g.has_edge(i, 3 + i)
            assert g.degree(3 + i) == 1
        # barbell: one bridge between the two cliques
        g = barbell(3)
        assert g.has_edge(2, 3) and not g.has_edge(0, 3)
        # book: both hubs touch every page, pages are four-cycles
        g = book(2)
        assert g.degree(0) == g.degree(1) == 3

    def test_degenerate_sizes_rejected(self):
        for bad in (lambda: path(0), lambda: cycle(2), lambda: corona(1),
                    lambda: barbell(2), lambda: book(0), lambda: star(0),
                    lambda: complete(0)):
            with pytest.raises(DomainError):
                bad()

    def test_seeded_generators_are_reproducible(self):
        assert random_tree(12, seed=5) == random_tree(12, seed=5)
        assert random_gnp(10, 1, 3, seed=9) == random_gnp(10, 1, 3, seed=9)
        assert random_block_graph(13, seed=2) == random_block_graph(13, seed=2)

    def test_seeded_generators_have_promised_shape(self):
        for seed in range(10):
            t = random_tree(9, seed=seed)
            assert t.m == t.n - 1 and is_connected(t)
            b = random_block_graph(11, seed=seed)
            assert b.n == 11 and is_block_graph(b)
            g = random_gnp(8, 1, 2, seed=seed)
            assert g.n == 8


class TestFamilySpec:
    def test_dispatch(self):
        assert generate(FamilySpec("path", {"n": 4})) == path(4)
        assert generate(FamilySpec("corona", {"p": 3})) == corona(3)
        assert generate(FamilySpec("random_tree", {"n": 6}, seed=1)) == random_tree(6, seed=1)

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            (FamilySpec("nope", {"n": 3}), "unknown family"),
            (FamilySpec("path", {}), "requires parameter 'n'"),
            (FamilySpec("path", {"n": 3, "x": 1}), "does not take parameter 'x'"),
            (FamilySpec("path", {"n": 3}, seed=5), "takes no seed"),
            (FamilySpec("random_tree", {"n": 3}), "requires a seed"),
        ],
    )
    def test_rejects_bad_specs(self, spec, fragment):
        with pytest.raises(DomainError, match=fragment):
            generate(spec)


class TestAuditBounds:
    def test_path_seven(self):
        a = audit_bounds(path(7))
        assert (a.n, a.gamma, a.cover_min, a.cover_max) == (7, 3, 4, 6)
        assert a.gamma_set_count == 8 and not a.unique_gamma_set
        by_name = {c.name: c for c in a.checks}
        low = by_name["path_cover_bracket_low"]
        high = by_name["path_cover_bracket_high"]
        assert low.applicable and low.holds and (low.lhs, low.rhs) == (4, 4)
        assert high.applicable and high.holds and (high.lhs, high.rhs) == (6, 6)

    def test_multiple_of_three_path_is_unique(self):
        a = audit_bounds(path(9))
        assert a.unique_gamma_set and a.gamma_set_count == 1
        assert a.cover_min == a.cover_max == 6

    def test_corona_attains_both_ends(self):
        a = audit_bounds(corona(4))
        by_name = {c.name: c for c in a.checks}
        assert by_name["cover_at_least_half_order"].tight
        assert by_name["cover_at_most_half_order_squared"].tight
        assert (a.gamma, a.cover_min, a.cover_max) == (4, 4, 16)

    def test_p4_free_checks_apply_exactly_when_p4_free(self):
        for g in (star(3), complete(4), cycle(4)):
            assert is_p4_free(g)
            checks = {c.name: c for c in audit_bounds(g).checks}
            assert checks["p4_free_cover_floor"].applicable
            assert checks["p4_free_cover_floor"].holds
            assert checks["p4_free_cover_ceiling"].holds
        checks = {c.name: c for c in audit_bounds(path(5)).checks}
        assert not checks["p4_free_cover_floor"].applicable

    def test_path_checks_apply_to_paths_only(self):
        checks = {c.name: c for c in audit_bounds(star(4)).checks}
        assert not checks["path_cover_bracket_low"].applicable
        checks = {c.name: c for c in audit_bounds(path(6)).checks}
        assert checks["path_cover_bracket_low"].applicable

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError, match="disconnected"):
            audit_bounds(Graph(4, ((0, 1), (2, 3))))
        with pytest.raises(
            DomainError, match=r"^graph is disconnected: vertex 2 is not reachable from 0$"
        ):
            audit_bounds(Graph(5, ((0, 1), (3, 4), (0, 3))))

    def test_every_check_reports_both_sides_when_applicable(self, corpus7):
        for g in corpus7[:200]:
            for c in audit_bounds(g).checks:
                if c.applicable:
                    assert c.holds == (c.lhs <= c.rhs)
                    assert c.tight == (c.lhs == c.rhs)
                else:
                    assert c.lhs is c.rhs is c.holds is c.tight is None
