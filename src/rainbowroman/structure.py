"""Structural audit of graphs attaining the extreme 3/2 parameter ratio.

A graph is extremal when 2*gamma_R = 3*gamma_r2.  On such graphs every
minimum 2-rainbow function f is rigidly shaped; with V_c denoting the
vertices of code c the audited properties are

  (i)   |V_{1}| = |V_{2}| and V_{1,2} is empty,
  (ii)  no edge joins V_{1} to V_{2},
  (iii) each of V_{1} and V_{2} induces maximum degree at most 1,
  (iv)  every empty vertex has one or two neighbours in each of V_{1}
        and V_{2},
  (v)   every colored vertex u has at least two private empty
        neighbours: empty vertices whose only neighbour in u's color
        class is u itself.

The audit enumerates every minimum function and reports the five
properties per function, so failures point at a concrete witness.
Every property is symmetric in the two colors, so a function passes
exactly when its color swap does.
"""

from __future__ import annotations

from typing import NamedTuple

from .domination import (RainbowAssignment, _all_min_at, _check_all_min_order,
                         _check_order, _each_min_2rdf, format_rainbow)
from .graph import Graph, bits
from .hereditary import solve_both_cached

PROPERTY_KEYS = ("i", "ii", "iii", "iv", "v")


def is_extremal(g: Graph) -> bool:
    """True iff 2*gamma_R == 3*gamma_r2."""
    r2, roman = solve_both_cached(g)
    return 2 * roman.value == 3 * r2.value


class StructureAudit(NamedTuple):
    """One minimum function's partition, property verdicts, and private counts."""

    assignment: RainbowAssignment
    empty_set: int
    ones_set: int
    twos_set: int
    both_set: int
    properties: dict[str, bool]
    private_counts: dict[int, dict[int, int]]  # color -> vertex -> count

    def all_pass(self) -> bool:
        return all(self.properties.values())

    def to_json_dict(self) -> dict:
        return {
            "assignment": format_rainbow(self.assignment),
            "properties": {k: self.properties[k] for k in PROPERTY_KEYS},
            "private_counts": {
                str(color): {str(v): c for v, c in sorted(counts.items())}
                for color, counts in sorted(self.private_counts.items())
            },
        }


def audit_function(g: Graph, f: RainbowAssignment) -> StructureAudit:
    """Evaluate the five structural properties for one assignment, which
    must have the graph's order (ValueError otherwise)."""
    _check_order(g, f)
    sets = {0: 0, 1: 0, 2: 0, 3: 0}
    for v, c in enumerate(f.codes):
        sets[c] |= 1 << v
    empty, ones, twos, both = sets[0], sets[1], sets[2], sets[3]

    prop_i = ones.bit_count() == twos.bit_count() and both == 0

    prop_ii = all(g.adjacency[v] & twos == 0 for v in bits(ones))

    def max_inner_degree(cls: int) -> int:
        return max(((g.adjacency[v] & cls).bit_count() for v in bits(cls)),
                   default=0)

    prop_iii = max_inner_degree(ones) <= 1 and max_inner_degree(twos) <= 1

    prop_iv = True
    for v in bits(empty):
        for cls in (ones, twos):
            if not 1 <= (g.adjacency[v] & cls).bit_count() <= 2:
                prop_iv = False

    private: dict[int, dict[int, int]] = {1: {}, 2: {}}
    prop_v = True
    for color, cls in ((1, ones), (2, twos)):
        for u in bits(cls):
            count = 0
            for x in bits(g.adjacency[u] & empty):
                if g.adjacency[x] & cls == 1 << u:
                    count += 1
            private[color][u] = count
            if count < 2:
                prop_v = False

    props = {"i": prop_i, "ii": prop_ii, "iii": prop_iii,
             "iv": prop_iv, "v": prop_v}
    return StructureAudit(f, empty, ones, twos, both, props, private)


def audit_extremal(g: Graph) -> list[StructureAudit]:
    """Audit every minimum 2-rainbow function of an extremal graph, in
    lexicographic code order.

    Rejects input above order 16 before any solve, and non-extremal input
    so a missing precondition never masquerades as a structural finding.
    The functions are enumerated at the memoized gamma_r2.
    """
    _check_all_min_order(g)
    if not is_extremal(g):
        raise ValueError("graph is not extremal: 2*gamma_R != 3*gamma_r2")
    value = solve_both_cached(g)[0].value
    return [audit_function(g, f) for f in _all_min_at(g, value)]


def audit_summary(g: Graph) -> tuple[int, bool]:
    """(number of minimum functions, all of them pass) for any graph.

    One search at the memoized gamma_r2 walks the minimum functions,
    one of each color-swapped pair; a function holding a {1} counts
    for itself and its swap, which passes exactly when it does.
    Auditing stops at the first function that fails; counting does not.

    gamma_r2 is read from :func:`solve_both_cached`: on a graph not yet
    in its memo, that solves both gamma_r2 and gamma_R and keeps them.
    Raises ValueError above order 16, before any solve.
    """
    _check_all_min_order(g)
    count = 0
    all_pass = True

    def visit(codes: list[int]) -> None:
        nonlocal count, all_pass
        count += 2 if 1 in codes else 1
        if all_pass:
            all_pass = audit_function(g, RainbowAssignment(tuple(codes))).all_pass()

    _each_min_2rdf(g, solve_both_cached(g)[0].value, visit)
    return count, all_pass
