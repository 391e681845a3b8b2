"""Independent checks of every job's output.

No answer here comes from the package under test.  Values come from
closed forms (cycles, gap graphs, C4 unions), from the gadget theorem
with the benchmark's own brute-force satisfiability, from the forbidden
subgraph theorems with the benchmark's own induced-subgraph search, or
from values pinned in ``pinned.json``.  Every witness is re-validated
with the benchmark's own code and its weight compared with the value.
"""

from __future__ import annotations

import hashlib
import json

from graphs import (connected, first_forbidden, isomorphic, k4_free, parse_edge_list,
                    rainbow_weight_if_valid, roman_weight_if_valid)


def _sandwich(r2: int, roman: int) -> str | None:
    if not r2 <= roman <= 3 * r2 // 2:
        return f"sandwich bound fails: gamma_r2={r2} gamma_R={roman}"
    return None


def _solve(e: dict, out: dict) -> str | None:
    r2, roman = out["gamma_r2"], out["gamma_R"]
    if (r2, roman) != (e["gamma_r2"], e["gamma_R"]):
        return f"values {(r2, roman)}, expected {(e['gamma_r2'], e['gamma_R'])}"
    if e["witness"]:
        if rainbow_weight_if_valid(e["rows"], out["witness_r2"]) != r2:
            return "rainbow witness invalid or of the wrong weight"
        if roman_weight_if_valid(e["rows"], out["witness_roman"]) != roman:
            return "Roman witness invalid or of the wrong weight"
    return _sandwich(r2, roman)


def _gadget(e: dict, out: dict) -> str | None:
    base = 2 * e["num_vars"] + 2
    want = {"gamma_r2": base, "gamma_R": base + (not e["satisfiable"]),
            "satisfiable": e["satisfiable"], "consistent": True}
    if out != want:
        return f"gadget output {out}, expected {want}"
    return None


def _construct_gap(e: dict, out: dict) -> str | None:
    rows = parse_edge_list(out["graph"])
    flags = (out["k"], out["order"], out["connected"], out["k4_free"], out["verified"])
    if flags != (e["k"], len(rows), True, True, True):
        return f"gap-k flags {flags}"
    if not (connected(rows) and k4_free(rows)):
        return "gap graph is not connected and K4-free"
    if not isomorphic(rows, e["rows"]):
        return "gap graph is not the C4-units-plus-star construction"
    return None


def _recognize(e: dict, out: dict) -> str | None:
    witness = first_forbidden(e["rows"], e["family"])
    free = witness is None
    want = {"free": free, "witness": witness}
    if e["family"] == "theorem3":
        want["gk"] = 3
    want.update(hereditary_direct=free, consistent=True)
    if out != want:
        return f"recognize output {out}, expected {want}"
    return None


def _structure(e: dict, out: dict) -> str | None:
    t = e["copies"]
    rows = e["rows"]
    head = (out["order"], out["gamma_r2"], out["gamma_R"], out["extremal"])
    if head != (4 * t, 2 * t, 3 * t, True) or parse_edge_list(out["graph"]) != rows:
        return f"structure header {head}"
    funcs = out["functions"]
    # each C4 has exactly four minimum 2-rainbow functions: {1},{2} on a diagonal
    if len(funcs) != 4 ** t or len({f["assignment"] for f in funcs}) != 4 ** t:
        return f"{len(funcs)} minimum functions, expected {4 ** t}"
    for f in funcs:
        if rainbow_weight_if_valid(rows, f["assignment"]) != 2 * t:
            return f"function {f['assignment']} invalid or not minimum"
        if not all(f["properties"].values()) or len(f["properties"]) != 5:
            return f"audit of {f['assignment']} fails: {f['properties']}"
    return None


_JSON_CHECKS = {"solve": _solve, "gadget": _gadget, "construct-gap": _construct_gap,
                "recognize": _recognize, "structure": _structure}


def check(job, stdout: str) -> str | None:
    """None when the output is right, otherwise what is wrong with it."""
    if job.kind == "scan":
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return None if digest == job.expect["sha256"] else f"scan stdout sha256 {digest}"
    try:
        return _JSON_CHECKS[job.kind](job.expect, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
