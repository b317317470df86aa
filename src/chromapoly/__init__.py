"""Exact generalized chromatic polynomials for coloring properties.

The package computes counting polynomials chi(G; X) for a family of vertex
and edge coloring properties, builds the reduction gadgets that relate those
counts to satisfiability and cut counting, and ships an identity suite that
checks every supported polynomial identity exactly.
"""

from .counting import (
    AuditReport, brute_count_at, chi_polynomial, convex_fast,
    count_clique_partitions, exact_color_count, harmonious_fast,
    interpolation_chain, polynomiality_audit, proper_fast, pruned_count_at,
)
from .cnf import CnfInstance, count_models, parse_cnf
from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, ChromapolyError, NotPolynomialError,
    budget,
)
from .gadgets import (
    alpha_sat_to_du, certify_alpha_du, certify_maxcut_cocircuits,
    certify_monotone_maxcut, certify_nae_mcc, gaussian_recover,
    maxcut_to_cocircuits, monotone2sat_to_maxcut, nae_to_mcc,
    stretch_identity_check,
)
from .graphs import (
    CocircuitSummary, Graph, box_join, build_graph, complete_graph,
    connected_components, cycle_graph, disjoint_union, edgeless_graph,
    enumerate_cocircuits, harmonious_gadget, induced_subgraph, is_connected,
    is_isomorphic, join, line_graph, mcc_extension, path_graph,
    standard_graph, star_graph, strip_isolated, stretch, t_pendant,
)
from .graphio import (
    emit_edge_list, emit_graph6, load_graph, parse_edge_list, parse_graph6,
)
from .identities import Bounds, IdentityResult, run_all, run_identity
from .polynomials import (
    Poly, binomial, falling_factorial, from_binomial, from_monomial,
    lagrange_interpolate, multinomial,
)
from .properties import (
    Coloring, ColoringProperty, PairProperty, check, induces_copy_union,
    pair_check, parse_property,
)

__version__ = "0.1.0"
