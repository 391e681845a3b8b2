"""Constructions that move the two domination parameters in lockstep.

Appending a disjoint C4 adds exactly 2 to the 2-rainbow weight and 3 to
the Roman weight, widening their gap by one.  The star link restores
connectivity without touching the gap: attach a star with k + 2 leaves
(k = number of components), wire one leaf into the minimum-index vertex
of each component, and leave two leaves pendant; both parameters grow by
exactly 2.  Alternating the two yields a connected, K4-free graph whose
gap is any requested k, verified here by exact solves before returning.
"""

from __future__ import annotations

from .domination import VerificationError, gamma_r2, gamma_roman
from .graph import (Graph, complete_graph, components, connected, cycle_graph,
                    disjoint_union, graph_from_edges, is_k4_free)

GAP_INSTANCE_CAP = 8


def add_c4(g: Graph) -> Graph:
    """Disjoint union with a 4-cycle: parameters go up by (2, 3)."""
    return disjoint_union(g, cycle_graph(4))


def star_link(g: Graph) -> Graph:
    """Connect the components through a fresh star; parameters go up by (2, 2).

    With k components, the star K_{1,k+2} is appended (its centre first),
    leaf i is joined to the minimum-index vertex of component i, and the
    last two leaves stay pendant.
    """
    comps = components(g)
    k = len(comps)
    if k < 1:
        raise ValueError("star link needs a non-empty graph")
    n = g.order
    centre = n
    edges = list(g.edges())
    edges += [(centre, centre + 1 + i) for i in range(k + 2)]
    for i, comp in enumerate(comps):
        anchor = (comp & -comp).bit_length() - 1
        edges.append((anchor, centre + 1 + i))
    return graph_from_edges(n + k + 3, edges)


def gap_instance(k: int) -> Graph:
    """A connected K4-free graph with gamma_R - gamma_r2 == k (0 <= k <= 8).

    k = 0 is the single vertex; otherwise k disjoint 4-cycles hang off a
    star link.  The advertised parameters are re-solved before returning;
    a mismatch raises VerificationError because it can only mean a bug.
    """
    if k < 0 or k > GAP_INSTANCE_CAP:
        raise ValueError(f"gap is capped to 0..{GAP_INSTANCE_CAP}")
    if k == 0:
        return complete_graph(1)
    g = complete_graph(1)
    for _ in range(k):
        g = add_c4(g)
    g = star_link(g)
    r2 = gamma_r2(g).value
    roman = gamma_roman(g).value
    if roman - r2 != k or not connected(g) or not is_k4_free(g):
        raise VerificationError(
            f"gap instance check failed: gap {roman - r2}, wanted {k}")
    return g
