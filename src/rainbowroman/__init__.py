"""Exact toolkit for 2-rainbow and Roman domination on small graphs.

Exact solvers for both parameters, weight-aware conversions between the
two kinds of dominating function, the satisfiability gadget tying their
gap to 3-CNF satisfiability, forbidden-family recognizers with direct
hereditary cross-checks, the structural audit of extremal graphs, the
gap-shifting constructions, and a deterministic small-graph scan.

Submodules load on first use.  Importing the package places each of them
in ``sys.modules`` unexecuted (``importlib.util.LazyLoader``); a submodule
runs when one of its attributes is first read, and a public name such as
``rainbowroman.gamma_r2`` is resolved from its submodule when asked for.
So a command that needs only the solver never runs the catalogue, the
recognizers or the reduction.  ``cli`` is not registered, so that
``python -m rainbowroman.cli`` runs it as a fresh ``__main__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "catalog": ("GapReport", "enumerate_graphs", "random_graphs", "scan"),
    "constructions": ("add_c4", "gap_instance", "star_link"),
    "domination": ("RainbowAssignment", "RomanAssignment", "SolveResult",
                   "VerificationError", "all_min_2rdf", "format_rainbow",
                   "format_roman", "gamma_r2", "gamma_roman",
                   "is_2rainbow_dominating", "is_roman_dominating",
                   "parse_rainbow", "parse_roman"),
    "graph": ("EdgeListError", "Graph", "canonical_form", "complete_graph",
              "components", "connected", "cycle_graph", "diamond_graph",
              "disjoint_union", "empty_graph", "graph_from_edges",
              "induced_subgraph", "is_k4_free", "parse_edge_list",
              "path_graph", "relabel", "serialize_edge_list", "star_graph"),
    "hereditary": ("EQUALITY_FAMILY", "PRESET_FAMILIES", "THREE_HALVES_FAMILY",
                   "find_induced_member", "has_induced",
                   "hereditary_equality_direct",
                   "hereditary_three_halves_direct", "is_free"),
    "record": (),
    "reduction": ("CnfFormula", "DimacsError", "ReductionGraph",
                  "ReductionReport", "build_reduction", "extract_assignment",
                  "format_dimacs", "parse_dimacs", "random_formula",
                  "sat_brute_force", "verify_reduction"),
    "rng": ("SplitMix64",),
    "structure": ("StructureAudit", "audit_extremal", "audit_function",
                  "audit_summary", "is_extremal"),
    "transfer": ("rainbow_to_roman", "roman_to_rainbow", "swap_colors"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register(module: str):
    """Place a submodule in ``sys.modules`` and bind it here, unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
