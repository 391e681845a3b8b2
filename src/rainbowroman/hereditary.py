"""Forbidden-induced-subgraph recognition and hereditary parameter checks.

Two characterizations drive this module.  A graph and all of its induced
subgraphs have equal 2-rainbow and Roman weights exactly when the graph
contains no induced P5, C5, or C4.  And every induced subgraph H with
2-rainbow weight at least 3 attains the extreme ratio 2*gamma_R = 3*gamma_r2
exactly when the graph contains no induced empty triple or K2 + K1; the
non-complete graphs in that family all have 2-rainbow weight exactly 2.
The *_direct functions check the defining property by sheer enumeration
of induced subgraphs, so they are the oracle side of each equivalence.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .domination import SolveResult, gamma_r2, gamma_roman
from .graph import (Graph, complete_graph, cycle_graph, disjoint_union,
                    edge_mask, empty_graph, from_edge_mask, path_graph)

HAS_INDUCED_PATTERN_CAP = 6
HAS_INDUCED_HOST_CAP = 30  # C(30, 6) = 593,775 subsets for an order-6 pattern
DIRECT_CHECK_ORDER_CAP = 8

# Hereditary equality of the two parameters <=> none of these induced.
EQUALITY_FAMILY: tuple[tuple[str, Graph], ...] = (
    ("P5", path_graph(5)),
    ("C5", cycle_graph(5)),
    ("C4", cycle_graph(4)),
)

# Hereditary 3/2 ratio above weight 2 <=> none of these induced.
THREE_HALVES_FAMILY: tuple[tuple[str, Graph], ...] = (
    ("K3bar", empty_graph(3)),
    ("K2+K1", disjoint_union(complete_graph(2), complete_graph(1))),
)

PRESET_FAMILIES = {
    "theorem2": EQUALITY_FAMILY,
    "theorem3": THREE_HALVES_FAMILY,
}


@lru_cache(maxsize=None)
def _solved_by_mask(order: int, mask: int) -> tuple[SolveResult, SolveResult]:
    g = from_edge_mask(order, mask)
    return gamma_r2(g), gamma_roman(g)


def solve_both_cached(g: Graph) -> tuple[SolveResult, SolveResult]:
    """(2-rainbow, Roman) solves memoized by labelled structure.

    The cache pays off when many graphs share induced subgraphs, as in
    the exhaustive scans.  Every call goes through the memo; a caller
    that wants none calls :func:`gamma_r2` and :func:`gamma_roman`, as
    the CLI's ``solve`` does.
    """
    return _solved_by_mask(g.order, edge_mask(g, range(g.order)))


@lru_cache(maxsize=None)
def _labelled_copies(order: int, mask: int) -> frozenset[int]:
    """Edge masks of every relabelling of the graph (order, mask): at most
    6! = 720 for a pattern under the cap."""
    h = from_edge_mask(order, mask)
    return frozenset(edge_mask(h, p) for p in itertools.permutations(range(order)))


def has_induced(g: Graph, h: Graph) -> bool:
    """True iff some induced subgraph of g is isomorphic to h.

    Each order(h)-subset of g, read in ascending vertex order, induces an
    edge mask; it is a copy of h exactly when that mask is one of h's
    labelled copies.  Every subset may be tried, so h is capped at order
    6 and g at order 30.
    """
    k = h.order
    if k > HAS_INDUCED_PATTERN_CAP:
        raise ValueError(f"pattern order is capped at {HAS_INDUCED_PATTERN_CAP}")
    if g.order > HAS_INDUCED_HOST_CAP:
        raise ValueError(f"host graph order is capped at {HAS_INDUCED_HOST_CAP}")
    if k > g.order:
        return False
    copies = _labelled_copies(k, edge_mask(h, range(k)))
    for subset in itertools.combinations(range(g.order), k):
        if edge_mask(g, subset) in copies:
            return True
    return False


def is_free(g: Graph, family) -> bool:
    """True iff g has no induced copy of any pattern in the family.

    ``family`` is an iterable of (name, Graph) pairs or bare Graphs.
    """
    return find_induced_member(g, family) is None


def find_induced_member(g: Graph, family) -> str | None:
    """Name of the first family pattern appearing induced in g, else None."""
    for entry in family:
        name, h = entry if isinstance(entry, tuple) else (None, entry)
        if has_induced(g, h):
            return name if name is not None else f"order-{h.order} pattern"
    return None


def _every_induced(g: Graph, holds) -> bool:
    """True iff ``holds(gamma_r2, gamma_R)`` for every induced subgraph.

    All 2^n vertex subsets are solved, smallest first, so the order is
    capped at 8; the walk stops at the first subgraph that fails.
    """
    n = g.order
    if n > DIRECT_CHECK_ORDER_CAP:
        raise ValueError(f"direct hereditary check is capped at order {DIRECT_CHECK_ORDER_CAP}")
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            r2, roman = _solved_by_mask(size, edge_mask(g, subset))
            if not holds(r2.value, roman.value):
                return False
    return True


def hereditary_equality_direct(g: Graph) -> bool:
    """True iff every induced subgraph has equal 2-rainbow and Roman weights.
    Order capped at 8."""
    return _every_induced(g, lambda r2, roman: r2 == roman)


def hereditary_three_halves_direct(g: Graph, k: int) -> bool:
    """True iff every induced subgraph with 2-rainbow weight >= k attains
    the extreme ratio 2*gamma_R == 3*gamma_r2.  Order capped at 8."""
    return _every_induced(g, lambda r2, roman: r2 < k or 2 * roman == 3 * r2)
