"""The oracle against the naive combination scan in naive.py, on random graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from domcover import (
    DomainError,
    Graph,
    cover_extrema,
    enumerate_gamma_sets,
    gamma,
    gamma_total,
    has_efficient_dominating_set,
    total_cover_extrema,
)
from domcover.families import audit_bounds
from domcover.graph import is_connected


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, tuple(picked))


def _fields(r):
    return r.size, r.cover_min, r.cover_max, r.witness_min, r.witness_max


@settings(deadline=None, max_examples=200)
@given(graphs())
def test_oracle_matches_naive_scan(g):
    sets = naive.minimum_covering_sets(g)
    assert gamma(g) == len(sets[0])
    assert enumerate_gamma_sets(g) == tuple(sets)
    r = cover_extrema(g)
    assert r.mode == "plain"
    assert _fields(r) == naive.extrema(g)
    assert has_efficient_dominating_set(g) == naive.efficient_dominating_set(g)
    if g.has_isolated_vertex():
        with pytest.raises(DomainError):
            gamma_total(g)
        with pytest.raises(DomainError):
            total_cover_extrema(g)
        return
    t = total_cover_extrema(g)
    assert t.mode == "total"
    assert gamma_total(g) == t.size
    assert _fields(t) == naive.extrema(g, total=True)


@settings(deadline=None, max_examples=100)
@given(graphs())
def test_audit_matches_naive_scan(g):
    if not is_connected(g):
        return
    a = audit_bounds(g)
    size, cover_min, cover_max, _, _ = naive.extrema(g)
    count = len(naive.minimum_covering_sets(g))
    assert (a.gamma, a.cover_min, a.cover_max) == (size, cover_min, cover_max)
    assert (a.gamma_set_count, a.unique_gamma_set) == (count, count == 1)
