"""Deterministic graph generators and the empirical bound audit.

Every generator is pure: the same family, parameters, and seed produce the
identical edge list.  Random families draw from random.Random(seed) only.

audit_bounds evaluates the classical cover brackets on one graph, over every
minimum dominating set, and reports each as data (holds / tight / not
applicable) rather than asserting, so sweeps can log violations and keep
going.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from . import oracle
from .errors import DomainError
from .graph import Graph, first_unreachable, is_p4_free


def path(n: int) -> Graph:
    if n < 1:
        raise DomainError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    """K_{1,leaves}: hub 0 joined to each leaf."""
    if leaves < 1:
        raise DomainError("star needs leaves >= 1")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise DomainError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def corona(p: int) -> Graph:
    """K_p with one pendant vertex hung off each clique vertex (2p vertices).

    Clique ids 0..p-1; pendant p+i attaches to i.
    """
    if p < 2:
        raise DomainError("corona needs p >= 2")
    edges = list(combinations(range(p), 2))
    edges.extend((i, p + i) for i in range(p))
    return Graph(2 * p, edges)


def barbell(n: int) -> Graph:
    """Two disjoint K_n joined by a single bridge edge (2n vertices).

    Cliques 0..n-1 and n..2n-1; the bridge joins n-1 to n.
    """
    if n < 3:
        raise DomainError("barbell needs n >= 3")
    edges = list(combinations(range(n), 2))
    edges.extend(combinations(range(n, 2 * n), 2))
    edges.append((n - 1, n))
    return Graph(2 * n, edges)


def book(m: int) -> Graph:
    """m quadrilateral pages glued along the hub edge {0, 1} (2m + 2 vertices).

    Page i contributes vertices 2i+2, 2i+3 and the path 0, 2i+2, 2i+3, 1.
    """
    if m < 1:
        raise DomainError("book needs m >= 1")
    edges = [(0, 1)]
    for i in range(m):
        a, b = 2 * i + 2, 2 * i + 3
        edges.extend([(0, a), (a, b), (b, 1)])
    return Graph(2 * m + 2, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-attachment tree: vertex i joins a uniformly random earlier vertex."""
    if n < 1:
        raise DomainError("random_tree needs n >= 1")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_block_graph(n: int, seed: int, max_clique: int = 4) -> Graph:
    """Random cliques glued along a random tree skeleton.

    Repeatedly attaches a fresh clique of random size (2..max_clique) at a
    uniformly random existing vertex; the final clique is truncated to land
    on exactly n vertices.
    """
    if n < 1:
        raise DomainError("random_block_graph needs n >= 1")
    if max_clique < 2:
        raise DomainError("random_block_graph needs max_clique >= 2")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    count = 1
    while count < n:
        attach = rng.randrange(count)
        size = rng.randint(2, max_clique)
        new = list(range(count, min(count + size - 1, n)))
        edges.extend(combinations([attach] + new, 2))
        count += len(new)
    return Graph(n, edges)


def random_gnp(n: int, num: int, den: int, seed: int) -> Graph:
    """Each pair independently becomes an edge with rational probability num/den."""
    if n < 1:
        raise DomainError("random_gnp needs n >= 1")
    if den < 1 or not 0 <= num <= den:
        raise DomainError("random_gnp needs 0 <= num <= den with den >= 1")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randrange(den) < num]
    return Graph(n, edges)


@dataclass(frozen=True)
class FamilySpec:
    """A generator invocation: family name, integer parameters, optional seed."""

    family: str
    params: dict[str, int] = field(default_factory=dict)
    seed: int | None = None


_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...], tuple[str, ...], bool]] = {
    # name: (builder, required params, optional params, takes a seed); every
    # parameter and the seed are passed to the builder by keyword
    "path": (path, ("n",), (), False),
    "cycle": (cycle, ("n",), (), False),
    "star": (star, ("leaves",), (), False),
    "complete": (complete, ("n",), (), False),
    "corona": (corona, ("p",), (), False),
    "barbell": (barbell, ("n",), (), False),
    "book": (book, ("m",), (), False),
    "random_tree": (random_tree, ("n",), (), True),
    "random_block_graph": (random_block_graph, ("n",), ("max_clique",), True),
    "random_gnp": (random_gnp, ("n", "num", "den"), (), True),
}


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a FamilySpec describes, validating names and parameters."""
    if spec.family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise DomainError(f"unknown family {spec.family!r} (known: {known})")
    builder, required, optional, seeded = _FAMILIES[spec.family]
    for key in required:
        if key not in spec.params:
            raise DomainError(f"family {spec.family!r} requires parameter {key!r}")
    for key in spec.params:
        if key not in required and key not in optional:
            raise DomainError(f"family {spec.family!r} does not take parameter {key!r}")
    if seeded and spec.seed is None:
        raise DomainError(f"family {spec.family!r} requires a seed")
    if not seeded and spec.seed is not None:
        raise DomainError(f"family {spec.family!r} takes no seed")
    if seeded:
        return builder(**spec.params, seed=spec.seed)
    return builder(**spec.params)


# ---------------------------------------------------------------------------
# Bound audit


@dataclass(frozen=True)
class BoundCheck:
    """One inequality lhs <= rhs evaluated on a graph; None when not applicable."""

    name: str
    applicable: bool
    lhs: int | None
    rhs: int | None
    holds: bool | None
    tight: bool | None


@dataclass(frozen=True)
class BoundAudit:
    """Cover extrema of one graph plus every bracket check, reported as data."""

    n: int
    gamma: int
    cover_min: int
    cover_max: int
    gamma_set_count: int
    unique_gamma_set: bool
    checks: tuple[BoundCheck, ...]


def _check(name: str, lhs: int, rhs: int) -> BoundCheck:
    return BoundCheck(name, True, lhs, rhs, lhs <= rhs, lhs == rhs)


def _skip(name: str) -> BoundCheck:
    return BoundCheck(name, False, None, None, None, None)


def _path_bracket(n: int) -> tuple[int, int]:
    k, r = divmod(n, 3)
    if r == 0:
        return 2 * k, 2 * k
    if r == 1:
        return 2 * k, 2 * k + 2
    return 2 * k + 1, 2 * k + 2


def audit_bounds(g: Graph) -> BoundAudit:
    """Evaluate the cover brackets on one connected graph.

    Covered brackets:
      * cover_floor: n - gamma <= every cover (equivalently <= cover_min);
      * half_order bracket: ceil(n/2) <= cover and cover <= ceil(n/2)^2,
        needing no isolated vertex, so skipped only for the 1-vertex graph;
      * the tighter p4_free bracket n - gamma .. 2n - gamma when no induced
        4-path exists;
      * the path bracket by n mod 3 when the graph is a path.
    Every check lands in the report; nothing raises on a violation.
    """
    w = first_unreachable(g)
    if w is not None:
        raise DomainError(f"graph is disconnected: vertex {w} is not reachable from 0")
    sets = oracle.enumerate_gamma_sets(g)
    rep = oracle.extrema_report(g, "plain", len(sets[0]), sets)
    n = g.n
    half = (n + 1) // 2
    checks = [_check("cover_floor_order_minus_gamma", n - rep.size, rep.cover_min)]
    if g.has_isolated_vertex():
        checks.append(_skip("cover_at_least_half_order"))
        checks.append(_skip("cover_at_most_half_order_squared"))
    else:
        checks.append(_check("cover_at_least_half_order", half, rep.cover_min))
        checks.append(_check("cover_at_most_half_order_squared", rep.cover_max, half * half))
    if is_p4_free(g):
        checks.append(_check("p4_free_cover_floor", n - rep.size, rep.cover_min))
        checks.append(_check("p4_free_cover_ceiling", rep.cover_max, 2 * n - rep.size))
    else:
        checks.append(_skip("p4_free_cover_floor"))
        checks.append(_skip("p4_free_cover_ceiling"))
    if g.m == n - 1 and max(g.degrees()) <= 2:
        lo, hi = _path_bracket(n)
        checks.append(_check("path_cover_bracket_low", lo, rep.cover_min))
        checks.append(_check("path_cover_bracket_high", rep.cover_max, hi))
    else:
        checks.append(_skip("path_cover_bracket_low"))
        checks.append(_skip("path_cover_bracket_high"))
    return BoundAudit(
        n=n,
        gamma=rep.size,
        cover_min=rep.cover_min,
        cover_max=rep.cover_max,
        gamma_set_count=len(sets),
        unique_gamma_set=len(sets) == 1,
        checks=tuple(checks),
    )
