"""Exact toolkit for 2-rainbow and Roman domination on small graphs.

Exact solvers for both parameters, weight-aware conversions between the
two kinds of dominating function, the satisfiability gadget tying their
gap to 3-CNF satisfiability, forbidden-family recognizers with direct
hereditary cross-checks, the structural audit of extremal graphs, the
gap-shifting constructions, and a deterministic small-graph scan.
"""

from .catalog import GapReport, enumerate_graphs, random_graphs, scan
from .constructions import add_c4, gap_instance, star_link
from .domination import (RainbowAssignment, RomanAssignment, SolveResult,
                         VerificationError, all_min_2rdf, format_rainbow,
                         format_roman, gamma_r2, gamma_roman,
                         is_2rainbow_dominating, is_roman_dominating,
                         parse_rainbow, parse_roman)
from .graph import (EdgeListError, Graph, canonical_form, complete_graph,
                    components, connected, cycle_graph, diamond_graph,
                    disjoint_union, empty_graph, graph_from_edges,
                    induced_subgraph, is_k4_free, make_named, parse_edge_list,
                    path_graph, relabel, serialize_edge_list, star_graph)
from .hereditary import (EQUALITY_FAMILY, PRESET_FAMILIES,
                         THREE_HALVES_FAMILY, find_induced_member,
                         has_induced, hereditary_equality_direct,
                         hereditary_three_halves_direct, is_free)
from .reduction import (CnfFormula, DimacsError, ReductionGraph,
                        ReductionReport, build_reduction, extract_assignment,
                        format_dimacs, parse_dimacs, random_formula,
                        sat_brute_force, verify_reduction)
from .rng import SplitMix64
from .structure import (StructureAudit, audit_extremal, audit_function,
                        audit_summary, is_extremal)
from .transfer import rainbow_to_roman, roman_to_rainbow, swap_colors

__version__ = "0.1.0"

__all__ = [
    "CnfFormula", "DimacsError", "EQUALITY_FAMILY", "EdgeListError",
    "GapReport", "Graph", "PRESET_FAMILIES", "RainbowAssignment",
    "ReductionGraph", "ReductionReport", "RomanAssignment", "SolveResult",
    "SplitMix64", "StructureAudit", "THREE_HALVES_FAMILY",
    "VerificationError", "add_c4", "all_min_2rdf", "audit_extremal",
    "audit_function", "audit_summary", "build_reduction", "canonical_form",
    "complete_graph", "components", "connected",
    "cycle_graph", "diamond_graph", "disjoint_union", "empty_graph",
    "enumerate_graphs", "extract_assignment", "find_induced_member",
    "format_dimacs", "format_rainbow", "format_roman", "gamma_r2",
    "gamma_roman", "gap_instance",
    "graph_from_edges", "has_induced", "hereditary_equality_direct",
    "hereditary_three_halves_direct", "induced_subgraph",
    "is_2rainbow_dominating", "is_extremal", "is_free", "is_k4_free",
    "is_roman_dominating", "make_named", "parse_dimacs", "parse_edge_list",
    "parse_rainbow", "parse_roman", "path_graph", "rainbow_to_roman",
    "random_formula", "random_graphs", "relabel", "roman_to_rainbow",
    "sat_brute_force", "scan", "serialize_edge_list", "star_graph",
    "star_link", "swap_colors", "verify_reduction",
]
