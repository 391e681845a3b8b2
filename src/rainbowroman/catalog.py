"""Small-graph enumeration, seeded sampling, and the scan report.

The enumerator streams every labeled graph of a given order in
ascending edge-mask order (bit i of the mask = i-th vertex pair in
lexicographic order).  With dedup it keeps exactly one representative
per isomorphism class, the least edge mask, built from the order-(n-1)
representatives by adding vertex 0 with every possible neighbourhood
and keeping the least mask per canonical form (vertex augmentation as
in McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  Each class keeps its canonical form, which the scan reports.

The scan solves both parameters over the deduplicated catalogue up to a
requested order, plus an optional seeded random sample at a larger
order, and emits one record per graph: the two parameters, their gap,
membership in the two named forbidden families, extremality, and the
minimum-function audit.  Reports are deterministic down to the byte for
fixed arguments.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from typing import Iterator, NamedTuple

from .domination import VerificationError
from .graph import (CANONICAL_ORDER_CAP, Graph, canonical_form, connected,
                    from_edge_mask)
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
    that ``high`` is itself a least mask of order n - 1.  Trying every
    ``low`` on every such ``high`` in ascending order therefore meets
    each class first at its least mask.  The candidate's rows come from
    its parent's: vertex 0 is adjacent to vertex j iff bit j - 1 of
    ``low`` is set, and vertex i + 1 is the parent's vertex i.
    """
    if n == 0:
        g = Graph(0, ())
        return ((g, canonical_form(g)),)
    least: dict[bytes, Graph] = {}
    for parent, _ in _classes(n - 1):
        shifted = [row << 1 for row in parent.adjacency]
        for low in range(1 << (n - 1)):
            rows = [low << 1]
            rows += [row | ((low >> i) & 1) for i, row in enumerate(shifted)]
            g = Graph(n, tuple(rows))
            least.setdefault(canonical_form(g), g)
    return tuple((g, form) for form, g in least.items())


def enumerate_graphs(n: int, dedup: bool = False,
                     connected_only: bool = False) -> Iterator[Graph]:
    """All order-n graphs in ascending edge-mask order.

    With dedup, one representative per isomorphism class (the least
    mask).  Labeled enumeration is capped at order 6, dedup at 7.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    cap = DEDUP_ORDER_CAP if dedup else LABELED_ORDER_CAP
    if n > cap:
        kind = "dedup" if dedup else "labeled"
        raise ValueError(f"{kind} enumeration is capped at order {cap}")
    if dedup:
        graphs = (g for g, _ in _classes(n))
    else:
        graphs = (from_edge_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2)))
    for g in graphs:
        if connected_only and not connected(g):
            continue
        yield g


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
    gap = roman.value - r2.value
    if gap < 0 or 2 * gap > r2.value:
        raise VerificationError(
            f"sandwich bound violated: gamma_r2={r2.value} gamma_R={roman.value}")
    extremal = 2 * roman.value == 3 * r2.value
    row = {
        "kind": kind,
        "index": index,
        "order": g.order,
        "canonical": form.hex(),
        "edges": g.edge_count(),
        "connected": connected(g),
        "gamma_r2": r2.value,
        "gamma_R": roman.value,
        "gap": gap,
        "theorem2_free": is_free(g, EQUALITY_FAMILY),
        "theorem3_free": is_free(g, THREE_HALVES_FAMILY),
        "extremal": extremal,
        "min_functions": None,
        "audit_all_pass": None,
    }
    if kind == "exhaustive" or extremal:
        count, all_pass = audit_summary(g)
        row["min_functions"] = count
        row["audit_all_pass"] = all_pass
    return row


class GapReport(NamedTuple):
    """Scan result: per-graph rows plus a trailing aggregate object."""

    max_order: int
    sample: tuple[int, int, int] | None
    rows: list[dict]
    aggregate: dict

    def to_jsonl(self) -> str:
        lines = [json.dumps(r, separators=(",", ":")) for r in self.rows]
        lines.append(json.dumps(self.aggregate, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
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
    rows = []
    for n in range(1, max_order + 1):
        for g, form in _classes(n):
            rows.append(_row(g, form, "exhaustive"))
    rows.sort(key=lambda r: r["canonical"])
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
    return GapReport(max_order=max_order, sample=sample, rows=rows,
                     aggregate=aggregate)
