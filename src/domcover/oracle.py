"""Exhaustive ground truth for domination invariants on small graphs.

Everything here searches vertex-subset bitmaps and is intentionally
exponential; a hard cap keeps calls at desk scale.  One branching search
serves every query: it branches on the lowest uncovered vertex over its
dominators in ascending order and bans each dominator once its branch is
done, so every covering set comes out exactly once.  Each mask has a cost
(1 for every query here; the product module weighs its own tokens).  The
domination numbers are the least budget at which it yields a set;
enumeration, cover extrema and efficient domination stream over its sets at
that budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DomainError
from .graph import Graph

ORACLE_CAP = 26

Cover = tuple[int, ...]  # a sorted vertex set


@dataclass(frozen=True)
class DominationReport:
    """Extrema of the degree-sum cover over all minimum (total) dominating sets."""

    mode: str  # "plain" or "total"
    size: int
    cover_min: int
    cover_max: int
    witness_min: tuple[int, ...]
    witness_max: tuple[int, ...]


def _check(g: Graph) -> None:
    if g.n == 0:
        raise DomainError("empty graph")
    if g.n > ORACLE_CAP:
        raise CapacityError(f"n={g.n} exceeds the exhaustive cap of {ORACLE_CAP}")


def _covering_sets(
    masks: list[int], costs: list[int], dominators: Sequence, n: int
) -> tuple[int, Iterator[Cover]]:
    """The least total cost of indices whose masks union to the full n-bit
    set, and a stream of every index set of that cost, once each, sorted.

    Every cost is a positive integer.  dominators[v] lists, ascending, the
    indices whose mask covers v.
    """
    full = (1 << n) - 1
    # no index covers more than num / den vertices per unit of its cost
    num, den = max(((m.bit_count(), c) for m, c in zip(masks, costs)), key=lambda r: r[0] / r[1])
    chosen: list[int] = []

    def search(covered: int, banned: int, budget: int) -> Iterator[Cover]:
        if budget < 0:  # the last index chosen cost more than was left
            return
        if covered == full:
            yield tuple(sorted(chosen))
            return
        remaining = full & ~covered
        if remaining.bit_count() * den > budget * num:
            return
        v = (remaining & -remaining).bit_length() - 1
        for w in dominators[v]:
            if banned >> w & 1:
                continue
            chosen.append(w)
            yield from search(covered | masks[w], banned, budget - costs[w])
            chosen.pop()
            banned |= 1 << w

    for budget in range(-(-n * den // num), sum(costs) + 1):
        sets = search(0, 0, budget)
        first = next(sets, None)
        if first is not None:
            return budget, chain((first,), sets)
    raise AssertionError("the masks must cover every vertex together")


def _plain(g: Graph) -> tuple[int, Iterator[Cover]]:
    _check(g)
    dominators = [tuple(sorted((v, *g.adjacency[v]))) for v in range(g.n)]
    return _covering_sets(g.closed_masks(), [1] * g.n, dominators, g.n)


def _total(g: Graph) -> tuple[int, Iterator[Cover]]:
    _check(g)
    if g.has_isolated_vertex():
        raise DomainError("total domination is undefined with isolated vertices")
    return _covering_sets(g.open_masks(), [1] * g.n, g.adjacency, g.n)


def gamma(g: Graph) -> int:
    """Domination number, by increasing-cardinality exhaustive search."""
    return _plain(g)[0]


def gamma_total(g: Graph) -> int:
    """Total domination number: every vertex needs a neighbor in the set."""
    return _total(g)[0]


def enumerate_gamma_sets(g: Graph) -> tuple[Cover, ...]:
    """Every minimum dominating set, lexicographically ordered."""
    return tuple(sorted(_plain(g)[1]))


def extrema_report(g: Graph, mode: str, size: int, sets: Iterable[Cover]) -> DominationReport:
    """Min and max degree-sum cover over sorted vertex sets in any order.

    Ties go to the lexicographically smallest attaining set.
    """
    degs = g.degrees()
    cover_min = cover_max = -1
    wit_min: Cover = ()
    wit_max: Cover = ()
    for s in sets:
        c = sum(degs[i] for i in s)
        if cover_min < 0 or c < cover_min or (c == cover_min and s < wit_min):
            cover_min, wit_min = c, s
        if c > cover_max or (c == cover_max and s < wit_max):
            cover_max, wit_max = c, s
    return DominationReport(mode, size, cover_min, cover_max, wit_min, wit_max)


def cover_extrema(g: Graph) -> DominationReport:
    """Min and max degree-sum cover over all minimum dominating sets.

    Ties go to the lexicographically smallest attaining set.
    """
    return extrema_report(g, "plain", *_plain(g))


def total_cover_extrema(g: Graph) -> DominationReport:
    """Min and max cover over all minimum total dominating sets."""
    return extrema_report(g, "total", *_total(g))


def has_efficient_dominating_set(g: Graph) -> tuple[int, ...] | None:
    """An efficient dominating set (closed neighborhoods partition V), or None.

    Every efficient dominating set is a minimum one (Bange, Barkauskas &
    Slater, 1988): this is the lexicographically smallest gamma-set whose
    closed neighborhoods sum to n vertices, hence are disjoint.
    """
    size, sets = _plain(g)
    degs = g.degrees()
    return min((s for s in sets if sum(degs[d] for d in s) + size == g.n), default=None)
