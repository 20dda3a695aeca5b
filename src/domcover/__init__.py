"""Exact tools for degree sums over minimum dominating sets.

The quantity of interest is the cover number of a dominating set: the sum
of the degrees of its members.  Everything here is exact integer work; the
oracle enumerates, the tree and block solvers run linear-time dynamic
programs, and the product module runs the oracle's search over projections
onto the first factor.
"""

from .blockdp import CutTree, block_cover_extrema, build_cut_tree, solve_block_graph
from .errors import CapacityError, DomainError, GraphParseError
from .families import (
    BoundAudit,
    BoundCheck,
    FamilySpec,
    audit_bounds,
    barbell,
    book,
    complete,
    corona,
    cycle,
    generate,
    path,
    random_block_graph,
    random_gnp,
    random_tree,
    star,
)
from .graph import (
    Graph,
    as_vertex_set,
    blocks_and_cut_vertices,
    cover_number,
    is_block_graph,
    is_connected,
    is_dominating,
    is_efficient_dominating,
    is_p4_free,
    is_total_dominating,
    parse_graph,
    private_neighbors,
    write_graph,
)
from .oracle import (
    ORACLE_CAP,
    DominationReport,
    cover_extrema,
    enumerate_gamma_sets,
    gamma,
    gamma_total,
    has_efficient_dominating_set,
    total_cover_extrema,
)
from .products import (
    ProductCoverResult,
    ProductValidation,
    gamma_lex_product,
    lex_product,
    pair_to_vertex,
    product_cover_extrema,
    validate_product_theorem,
    vertex_to_pair,
)
from .treedp import CoverSolution, RootedTree, root_tree, solve_tree, tree_cover_extrema

__version__ = "0.1.0"

__all__ = [
    "BoundAudit",
    "BoundCheck",
    "CapacityError",
    "CoverSolution",
    "CutTree",
    "DomainError",
    "DominationReport",
    "FamilySpec",
    "Graph",
    "GraphParseError",
    "ORACLE_CAP",
    "ProductCoverResult",
    "ProductValidation",
    "RootedTree",
    "as_vertex_set",
    "audit_bounds",
    "barbell",
    "block_cover_extrema",
    "blocks_and_cut_vertices",
    "book",
    "build_cut_tree",
    "complete",
    "corona",
    "cover_extrema",
    "cover_number",
    "cycle",
    "enumerate_gamma_sets",
    "gamma",
    "gamma_lex_product",
    "gamma_total",
    "generate",
    "has_efficient_dominating_set",
    "is_block_graph",
    "is_connected",
    "is_dominating",
    "is_efficient_dominating",
    "is_p4_free",
    "is_total_dominating",
    "lex_product",
    "pair_to_vertex",
    "parse_graph",
    "path",
    "private_neighbors",
    "product_cover_extrema",
    "random_block_graph",
    "random_gnp",
    "random_tree",
    "root_tree",
    "solve_block_graph",
    "solve_tree",
    "star",
    "total_cover_extrema",
    "tree_cover_extrema",
    "validate_product_theorem",
    "vertex_to_pair",
    "write_graph",
]
