"""Lexicographic products and the closed-form cover extrema they admit.

In G o H, vertex (g, h) is adjacent to (g', h') when {g, g'} is an edge of G,
or g = g' and {h, h'} is an edge of H.  Pairs are flattened to single ids by
(g, h) -> g * |V(H)| + h, so layer g occupies a contiguous id range.

The closed forms split on gamma(H) and on whether gamma_t(G) reaches 2 *
gamma(G); case selection uses the strict comparison so exactly one case
applies.  validate_product_theorem recomputes everything with the exhaustive
oracle and reports agreement as data, never asserting: the formulas are under
audit here, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .graph import Graph, is_connected
from . import oracle


def pair_to_vertex(g_id: int, h_id: int, h_order: int) -> int:
    """Flatten a (g, h) pair to a product vertex id."""
    if h_order <= 0:
        raise DomainError("h_order must be positive")
    if not 0 <= h_id < h_order:
        raise DomainError(f"h id {h_id} out of range for order {h_order}")
    if g_id < 0:
        raise DomainError(f"g id {g_id} out of range")
    return g_id * h_order + h_id


def vertex_to_pair(v: int, h_order: int) -> tuple[int, int]:
    """Inverse of pair_to_vertex."""
    if h_order <= 0:
        raise DomainError("h_order must be positive")
    if v < 0:
        raise DomainError(f"vertex {v} out of range")
    return divmod(v, h_order)


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

    Equals gamma(G) when H has a dominating vertex, else gamma_t(G): a layer
    dominated from outside is dominated entirely, so only factor invariants
    matter.
    """
    _check_base(g, h)
    if oracle.gamma(h) == 1:
        return oracle.gamma(g)
    return oracle.gamma_total(g)


@dataclass(frozen=True)
class ProductCoverResult:
    """A closed-form cover extremum for G o H with its audit trail."""

    mode: str  # "min" or "max"
    value: int
    case: str  # "gammaH_1", "total_case", or "mixed_case"
    ingredients: dict[str, int]
    alpha: int | None = None  # mixed case only
    beta: int | None = None


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


def _dominating_vertex_min(g: Graph, ing: dict[str, int]) -> int:
    """Exact minimum cover of G o H when H has a dominating vertex.

    A minimum dominating set of G o H projects one-to-one onto a gamma-set D
    of G.  A member of D with no neighbour in D sits on a universal vertex of
    H to dominate its own layer; the others may sit on a minimum-degree one.
    """
    hn, degs, nbrs = ing["order_H"], g.degrees(), g.open_masks()

    def value(d: tuple[int, ...]) -> int:
        members = sum(1 << v for v in d)
        iso = sum(1 for v in d if not nbrs[v] & members)
        cov = sum(degs[v] for v in d)
        return hn * cov + (hn - 1) * iso + ing["min_degree_H"] * (len(d) - iso)

    return min(value(d) for d in oracle.enumerate_gamma_sets(g))


def _closed_form(g: Graph, ing: dict[str, int], mode: str) -> ProductCoverResult:
    hn = ing["order_H"]
    if ing["gamma_H"] == 1:
        if mode == "min":
            value = _dominating_vertex_min(g, ing)
        else:
            value = ing["cover_max_G"] * hn + ing["gamma_G"] * (hn - 1)
        return ProductCoverResult(mode, value, "gammaH_1", ing)
    alpha = ing[f"total_cover_{mode}_G"] * hn + ing["gamma_total_G"] * ing[f"{mode}_degree_H"]
    if ing["gamma_H"] > 2 or ing["gamma_total_G"] < 2 * ing["gamma_G"]:
        return ProductCoverResult(mode, alpha, "total_case", ing)
    beta = 2 * ing[f"cover_{mode}_G"] * hn + ing[f"cover_{mode}_H"]
    pick = min if mode == "min" else max
    return ProductCoverResult(mode, pick(alpha, beta), "mixed_case", ing, alpha, beta)


def product_cover_extrema(g: Graph, h: Graph, mode: str) -> ProductCoverResult:
    """Closed-form cover extremum over minimum dominating sets of G o H.

    Case selection: gamma(H) = 1 uses the gamma-sets of G; gamma(H) > 2,
    or gamma(H) = 2 with gamma_t(G) strictly below 2 * gamma(G), uses total
    cover extrema of G; the remaining boundary case takes the better of the
    two candidate forms (alpha from the total route, beta from doubling a
    plain minimum dominating set).
    """
    if mode not in ("min", "max"):
        raise DomainError(f"mode must be 'min' or 'max', got {mode!r}")
    _check_base(g, h)
    return _closed_form(g, _ingredients(g, h), mode)


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
    """Build G o H, solve it exhaustively, and compare with the closed forms."""
    if g.n * h.n > oracle.ORACLE_CAP:
        raise CapacityError(
            f"product order {g.n * h.n} exceeds the exhaustive cap of {oracle.ORACLE_CAP}"
        )
    _check_base(g, h)
    ing = _ingredients(g, h)
    lo = _closed_form(g, ing, "min")
    hi = _closed_form(g, ing, "max")
    gamma_formula = ing["gamma_G"] if ing["gamma_H"] == 1 else ing["gamma_total_G"]
    rep = oracle.cover_extrema(lex_product(g, h))
    return ProductValidation(
        case=lo.case,
        gamma_formula=gamma_formula,
        gamma_oracle=rep.size,
        gamma_agree=gamma_formula == rep.size,
        min_formula=lo.value,
        min_oracle=rep.cover_min,
        min_agree=lo.value == rep.cover_min,
        max_formula=hi.value,
        max_oracle=rep.cover_max,
        max_agree=hi.value == rep.cover_max,
    )
