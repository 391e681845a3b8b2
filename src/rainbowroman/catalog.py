"""Small-graph enumeration, seeded sampling, and the scan report.

The enumerator streams every labeled graph of a given order in
ascending edge-mask order (bit i of the mask = i-th vertex pair in
lexicographic order).  With dedup it keeps exactly one representative
per isomorphism class, the least edge mask, built from the order-(n-1)
representatives by adding vertex 0 and keeping the least mask per
canonical form (vertex augmentation as in McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Swapping two twins
of a parent is an automorphism, so a new vertex's neighbourhood that
takes a parent vertex without its lower twins (:func:`graph.lower_twins`)
repeats a smaller one and is skipped.  Each class keeps its canonical
form, which the scan reports.

The scan solves both parameters over the deduplicated catalogue up to a
requested order, plus an optional seeded random sample at a larger
order, and emits one record per graph: the two parameters, their gap,
membership in the two named forbidden families, extremality, and the
minimum-function audit.  A disconnected class's exhaustive record is
composed from the records of its components, smaller classes scanned
before it.  Reports are deterministic down to the byte for fixed
arguments.
"""

from __future__ import annotations

import io
import json
import math
from functools import lru_cache
from typing import Iterator, NamedTuple

from .domination import VerificationError
from .graph import (CANONICAL_ORDER_CAP, Graph, bits, canonical_form,
                    components, connected, edge_mask, from_edge_mask,
                    lower_twins)
from .hereditary import (EQUALITY_FAMILY, THREE_HALVES_FAMILY, is_free,
                         solve_both_cached)
from .rng import SplitMix64
from .structure import audit_summary

LABELED_ORDER_CAP = 6
DEDUP_ORDER_CAP = 7
SCAN_ORDER_CAP = 6
SAMPLE_COUNT_CAP = 10_000  # 10,000 order-10 samples took 10.7 s (2-CPU VM, Python 3.11.7)

CSV_COLUMNS = ("kind", "index", "order", "canonical", "edges", "connected",
               "gamma_r2", "gamma_R", "gap", "theorem2_free", "theorem3_free",
               "extremal", "min_functions", "audit_all_pass")


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[Graph, bytes], ...]:
    """(representative, canonical form) of every isomorphism class of
    order n, in ascending order of the representative's edge mask, which
    is the least mask in its class.

    The pairs (0, j) are the n - 1 lowest mask bits and the remaining
    pairs follow in the order-(n - 1) pair order, so a mask is
    ``high << (n - 1) | low`` with ``high`` the mask of the graph left
    after deleting vertex 0.  A least mask minimizes ``high`` first, so
    that ``high`` is itself a least mask of order n - 1.  Walking the
    ``low`` of every such ``high`` in ascending order therefore meets
    each class first at its least mask.  The candidate's rows come from
    its parent's: vertex 0 is adjacent to vertex j iff bit j - 1 of
    ``low`` is set, and vertex i + 1 is the parent's vertex i.

    The walk skips every ``low`` that takes a parent vertex v without
    each of its lower twins (:func:`graph.lower_twins`): for such a twin
    u, swapping u and v is an automorphism of the parent that keeps
    ``high`` and maps ``low`` to a smaller one, met earlier.  So a skipped
    ``low`` is never its class's least mask, and the classes, their forms
    and their order are those of a walk over every ``low``.
    """
    if n == 0:
        g = Graph(0, ())
        return ((g, canonical_form(g)),)
    least: dict[bytes, Graph] = {}
    for parent, _ in _classes(n - 1):
        needs = [(1 << v, twins) for v, twins in enumerate(lower_twins(parent)) if twins]
        shifted = [row << 1 for row in parent.adjacency]
        for low in range(1 << (n - 1)):
            if any(low & bit and twins & ~low for bit, twins in needs):
                continue
            rows = [low << 1]
            rows += [row | ((low >> i) & 1) for i, row in enumerate(shifted)]
            g = Graph(n, tuple(rows))
            least.setdefault(canonical_form(g), g)
    return tuple((g, form) for form, g in least.items())


def enumerate_graphs(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All order-n graphs in ascending edge-mask order.

    With dedup, one representative per isomorphism class (the least
    mask).  Labeled enumeration is capped at order 6, dedup at 7; the
    cap is checked on the first ``next``.  For connected graphs only,
    filter with :func:`connected`.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    cap = DEDUP_ORDER_CAP if dedup else LABELED_ORDER_CAP
    if n > cap:
        kind = "dedup" if dedup else "labeled"
        raise ValueError(f"{kind} enumeration is capped at order {cap}")
    if dedup:
        yield from (g for g, _ in _classes(n))
    else:
        yield from (from_edge_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2)))


def random_graphs(order: int, count: int, seed: int) -> Iterator[Graph]:
    """count seeded random graphs: every pair an independent fair coin."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = SplitMix64(seed)
    num_edges = order * (order - 1) // 2
    for _ in range(count):
        yield from_edge_mask(order, rng.next_bits(num_edges))


def _row(g: Graph, form: bytes, kind: str, index: int | None = None) -> dict:
    """One report record for g, whose canonical form is ``form``; audits
    run on every exhaustive row but only on extremal sample rows
    (non-extremal samples carry nulls)."""
    r2, roman = solve_both_cached(g)
    row = _record(g, form, kind, index, r2.value, roman.value, connected(g),
                  is_free(g, EQUALITY_FAMILY))
    if kind == "exhaustive" or row["extremal"]:
        row["min_functions"], row["audit_all_pass"] = audit_summary(g)
    return row


def _composed_row(g: Graph, form: bytes, parts: list[int],
                  rows: dict[tuple[int, int], dict]) -> dict:
    """The exhaustive row of g, whose components ``parts`` (two or more)
    have rows in ``rows``, keyed by (order, edge mask) of their classes'
    representatives; the row equals :func:`_row`'s.

    Each part is looked up by the edge mask of the subgraph it induces,
    relabelled in ascending order, which is its class representative's
    least mask.  Relabelling the vertices of one component among its own
    positions changes only the mask bits of pairs inside it, and pairs
    inside it keep their relative order under the ascending relabelling;
    so if that subgraph's mask were not the least of its class, the
    relabelling that makes it least would lower g's mask too, and g's is
    the least of its class.

    Both parameters and the edge count are sums over the components, and
    the minimum 2-rainbow functions of g are the combinations of each
    component's, so their number is the product of the counts.  P5, C5
    and C4 are connected, so g is free of them when every component is;
    K3bar and K2+K1 are not, so that check runs on g itself.

    g's minimum functions all pass the audit exactly when every
    component's do.  Properties (ii)-(v) and the emptiness of V_{1,2}
    look only at a vertex and its neighbours, inside one component.  If
    some component's minimum function has |V_1| - |V_2| = d != 0, then
    combining it, and then its color swap, with one fixed choice on the
    other components, whose |V_1| - |V_2| sum to D, gives totals D + d
    and D - d, which cannot both be 0; so g has a function failing (i).
    """
    found = [rows[part.bit_count(), edge_mask(g, list(bits(part)))] for part in parts]
    row = _record(g, form, "exhaustive", None,
                  sum(r["gamma_r2"] for r in found), sum(r["gamma_R"] for r in found),
                  False, all(r["theorem2_free"] for r in found))
    row["min_functions"] = math.prod(r["min_functions"] for r in found)
    row["audit_all_pass"] = all(r["audit_all_pass"] for r in found)
    return row


def _record(g: Graph, form: bytes, kind: str, index: int | None, r2: int,
            roman: int, is_connected: bool, theorem2_free: bool) -> dict:
    """A report record without its audit, after the sandwich check."""
    gap = roman - r2
    if gap < 0 or 2 * gap > r2:
        raise VerificationError(
            f"sandwich bound violated: gamma_r2={r2} gamma_R={roman}")
    extremal = 2 * roman == 3 * r2
    return {
        "kind": kind,
        "index": index,
        "order": g.order,
        "canonical": form.hex(),
        "edges": g.edge_count(),
        "connected": is_connected,
        "gamma_r2": r2,
        "gamma_R": roman,
        "gap": gap,
        "theorem2_free": theorem2_free,
        "theorem3_free": is_free(g, THREE_HALVES_FAMILY),
        "extremal": extremal,
        "min_functions": None,
        "audit_all_pass": None,
    }


class GapReport(NamedTuple):
    """Scan result: per-graph rows plus a trailing aggregate object."""

    rows: list[dict]
    aggregate: dict

    def to_jsonl(self) -> str:
        lines = [json.dumps(r, separators=(",", ":")) for r in self.rows]
        lines.append(json.dumps(self.aggregate, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        import csv  # here, so that a JSONL scan does not load it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([_csv_cell(r[c]) for c in CSV_COLUMNS])
        return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def scan(max_order: int, sample: tuple[int, int, int] | None = None) -> GapReport:
    """Exhaustive dedup scan of orders 1..max_order plus an optional
    (order, count, seed) random sample.

    Exhaustive rows are sorted by canonical form (the leading order byte
    makes that order-major); sample rows follow, sorted by canonical form
    with the draw index as tie-break.  Both the order and the sample
    are checked against their caps before any graph is solved.
    """
    if max_order < 0 or max_order > SCAN_ORDER_CAP:
        raise ValueError(f"exhaustive scan is capped at order {SCAN_ORDER_CAP}")
    if sample is not None:
        order, count, seed = sample
        if not 0 <= order <= CANONICAL_ORDER_CAP:
            raise ValueError(f"sample order is capped to 0..{CANONICAL_ORDER_CAP}")
        if not 0 <= count <= SAMPLE_COUNT_CAP:
            raise ValueError(f"sample count is capped to 0..{SAMPLE_COUNT_CAP}")
    # classes come in ascending order, so a disconnected class's components
    # are smaller classes whose rows are already here
    by_mask: dict[tuple[int, int], dict] = {}
    for n in range(1, max_order + 1):
        for g, form in _classes(n):
            parts = components(g)
            by_mask[n, edge_mask(g, range(n))] = (
                _row(g, form, "exhaustive") if len(parts) == 1
                else _composed_row(g, form, parts, by_mask))
    rows = sorted(by_mask.values(), key=lambda r: r["canonical"])
    if sample is not None:
        sample_rows = [_row(g, canonical_form(g), "sample", index=i)
                       for i, g in enumerate(random_graphs(order, count, seed))]
        sample_rows.sort(key=lambda r: (r["canonical"], r["index"]))
        rows.extend(sample_rows)

    histogram: dict[int, dict[int, int]] = {}
    for r in rows:
        histogram.setdefault(r["order"], {}).setdefault(r["gap"], 0)
        histogram[r["order"]][r["gap"]] += 1
    gap_by_order = {
        str(order): {str(gap): histogram[order][gap]
                     for gap in sorted(histogram[order])}
        for order in sorted(histogram)
    }
    aggregate = {
        "kind": "aggregate",
        "max_order": max_order,
        "sample": None if sample is None else
            {"order": sample[0], "count": sample[1], "seed": sample[2]},
        "rows": len(rows),
        "extremal": sum(1 for r in rows if r["extremal"]),
        "max_gap": max((r["gap"] for r in rows), default=0),
        "gap_by_order": gap_by_order,
    }
    return GapReport(rows=rows, aggregate=aggregate)
