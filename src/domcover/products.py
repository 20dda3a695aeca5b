"""Lexicographic products and the exact cover extrema they admit.

In G o H, vertex (g, h) is adjacent to (g', h') when {g, g'} is an edge of G,
or g = g' and {h, h'} is an edge of H.  Pairs are flattened to single ids by
(g, h) -> g * |V(H)| + h, so layer g occupies a contiguous id range.

A minimum dominating set of G o H projects onto a dominating set P of G.  A
member of P with a neighbour in P (the set J) holds one vertex of its layer,
of any H-degree; one with none (the set I) must dominate its own layer, so it
holds a gamma-set of H.  So gamma(G o H) is the least |J| + gamma(H) * |I|,
and the cover extrema range over the P attaining it.  validate_product_theorem
checks all three against the oracle on the built product, as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError, DomainError
from .graph import Graph, is_connected
from . import oracle


def lex_product(g: Graph, h: Graph) -> Graph:
    """The lexicographic product G o H on |V(G)| * |V(H)| vertices."""
    if g.n == 0 or h.n == 0:
        raise DomainError("lexicographic product needs two non-empty graphs")
    hn = h.n
    h_edges = list(h.edges())
    edges: list[tuple[int, int]] = []
    for a, b in g.edges():
        abase = a * hn
        bbase = b * hn
        for x in range(hn):
            for y in range(hn):
                edges.append((abase + x, bbase + y))
    for a in range(g.n):
        abase = a * hn
        for x, y in h_edges:
            edges.append((abase + x, abase + y))
    return Graph(g.n * hn, edges)


def _check_base(g: Graph, h: Graph) -> None:
    if g.n == 0 or h.n == 0:
        raise DomainError("product formulas need two non-empty graphs")
    if g.has_isolated_vertex() or not is_connected(g):
        raise DomainError("first factor must be connected without isolated vertices")


def gamma_lex_product(g: Graph, h: Graph) -> int:
    """Domination number of G o H without building the product.

    It is the least |J| + gamma(H) * |I| over the dominating sets P of G (see
    the module docstring); only gamma(H) and the first budget of one search
    on G are needed.
    """
    _check_base(g, h)
    oracle._check(g)  # the search on G is exhaustive
    return _projection_search(g.open_masks(), oracle.gamma(h))[0]


@dataclass(frozen=True)
class ProductCoverResult:
    """An exact cover extremum for G o H with its audit trail.

    case names the regime of the gamma(G o H) theorem of Nowakowski & Rall
    (1996) that the factors fall in; no value depends on it.
    """

    mode: str  # "min" or "max"
    value: int
    gamma: int
    case: str  # "gammaH_1", "total_case", or "mixed_case"
    ingredients: dict[str, int]


def _ingredients(g: Graph, h: Graph) -> dict[str, int]:
    cov_g = oracle.cover_extrema(g)
    cov_tg = oracle.total_cover_extrema(g)
    cov_h = oracle.cover_extrema(h)
    h_degs = h.degrees()
    return {
        "gamma_G": cov_g.size,
        "gamma_total_G": cov_tg.size,
        "gamma_H": cov_h.size,
        "cover_min_G": cov_g.cover_min,
        "cover_max_G": cov_g.cover_max,
        "total_cover_min_G": cov_tg.cover_min,
        "total_cover_max_G": cov_tg.cover_max,
        "cover_min_H": cov_h.cover_min,
        "cover_max_H": cov_h.cover_max,
        "min_degree_H": min(h_degs),
        "max_degree_H": max(h_degs),
        "order_H": h.n,
    }


def _case(ing: dict[str, int]) -> str:
    if ing["gamma_H"] == 1:
        return "gammaH_1"
    if ing["gamma_H"] > 2 or ing["gamma_total_G"] < 2 * ing["gamma_G"]:
        return "total_case"
    return "mixed_case"


def _projection_search(nbrs: list[int], gamma_h: int) -> tuple[int, Iterator[oracle.Cover]]:
    """gamma(G o H) and a stream of the least-cost token covers of G, given
    G's open neighbourhood masks.

    Vertex v of G offers token 2v (mask N(v), cost 1, v in J) and token
    2v + 1 (mask N[v], cost gamma(H), v in I).  Each least-cost cover projects
    onto an optimal P.
    """
    # with gamma(H) = 1 token 2w + 1 covers more than token 2w at the same
    # cost, so token 2w gets the empty mask and each optimal P comes out once
    masks = [m for v, nv in enumerate(nbrs) for m in (nv if gamma_h > 1 else 0, nv | 1 << v)]
    return oracle._covering_sets(masks, [1, gamma_h] * len(nbrs), len(nbrs))


def _projection(g: Graph, ing: dict[str, int]) -> tuple[int, int, int]:
    """gamma(G o H) and the least and greatest cover of its minimum dominating sets.

    I and J are read off each optimal P, not off the tokens that cover it.
    """
    hn, gamma_h = ing["order_H"], ing["gamma_H"]
    nbrs, degs = g.open_masks(), g.degrees()
    size, covers = _projection_search(nbrs, gamma_h)
    lows, highs = [], []
    for cover in covers:
        members = {t >> 1 for t in cover}
        inside = sum(1 << v for v in members)
        i = [v for v in members if not nbrs[v] & inside]
        j = [v for v in members if nbrs[v] & inside]
        base = hn * (gamma_h * sum(degs[v] for v in i) + sum(degs[v] for v in j))
        lows.append(base + len(i) * ing["cover_min_H"] + len(j) * ing["min_degree_H"])
        highs.append(base + len(i) * ing["cover_max_H"] + len(j) * ing["max_degree_H"])
    return size, min(lows), max(highs)


def product_cover_extrema(g: Graph, h: Graph, mode: str) -> ProductCoverResult:
    """Exact cover extremum over minimum dominating sets of G o H, never built."""
    if mode not in ("min", "max"):
        raise DomainError(f"mode must be 'min' or 'max', got {mode!r}")
    _check_base(g, h)
    ing = _ingredients(g, h)
    size, low, high = _projection(g, ing)
    return ProductCoverResult(mode, low if mode == "min" else high, size, _case(ing), ing)


@dataclass(frozen=True)
class ProductValidation:
    """Formula-vs-oracle comparison on one product; disagreement is data."""

    case: str
    gamma_formula: int
    gamma_oracle: int
    gamma_agree: bool
    min_formula: int
    min_oracle: int
    min_agree: bool
    max_formula: int
    max_oracle: int
    max_agree: bool

    @property
    def agree(self) -> bool:
        return self.gamma_agree and self.min_agree and self.max_agree


def validate_product_theorem(g: Graph, h: Graph) -> ProductValidation:
    """Build G o H, solve it exhaustively, and compare with the product forms."""
    if g.n * h.n > oracle.ORACLE_CAP:
        raise CapacityError(
            f"product order {g.n * h.n} exceeds the exhaustive cap of {oracle.ORACLE_CAP}"
        )
    _check_base(g, h)
    ing = _ingredients(g, h)
    size, low, high = _projection(g, ing)
    rep = oracle.cover_extrema(lex_product(g, h))
    return ProductValidation(
        case=_case(ing),
        gamma_formula=size,
        gamma_oracle=rep.size,
        gamma_agree=size == rep.size,
        min_formula=low,
        min_oracle=rep.cover_min,
        min_agree=low == rep.cover_min,
        max_formula=high,
        max_oracle=rep.cover_max,
        max_agree=high == rep.cover_max,
    )
