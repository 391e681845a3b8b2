"""Command-line front end: every operation, JSON output, stable exit codes.

Exit codes: 0 = success, 1 = bad input (unparsable files, cap or usage
violations), 2 = internal inconsistency, meaning an identity that must
always hold failed on a concrete instance.  Exit 2 is the outcome the
test suite exists to rule out, so automation can tell "bad input" from
"bug or falsified identity".

Graphs are edge-list files, formulas are DIMACS CNF files, assignments
are comma-separated token strings ("1,.,2,." for rainbow, "2,0,1,0" for
Roman).  All results go to standard output as compact JSON; scan emits
JSON lines or CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

# the package registers its submodules lazily: bound as modules, these
# run only when a command calls into them, so `solve` never executes them
from . import catalog, constructions, hereditary, reduction, structure, transfer
from .domination import (VerificationError, _all_min_at, _check_all_min_order,
                         format_rainbow, format_roman, gamma_r2, gamma_roman,
                         parse_rainbow, parse_roman)
from .graph import Graph, connected, is_k4_free, parse_edge_list, serialize_edge_list


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2
    for violated identities, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.all_min:
        _check_all_min_order(g)  # before anything is solved
    want_r2 = args.param in ("r2", "both")
    out: dict = {}
    r2 = gamma_r2(g) if want_r2 or args.all_min else None
    roman = gamma_roman(g) if args.param in ("roman", "both") else None
    if want_r2:
        out["gamma_r2"] = r2.value
    if roman is not None:
        out["gamma_R"] = roman.value
    if args.witness:
        if want_r2:
            out["witness_r2"] = format_rainbow(r2.witness)
        if roman is not None:
            out["witness_roman"] = format_roman(roman.witness)
    if args.all_min:
        out["all_min_2rdf"] = [format_rainbow(f) for f in _all_min_at(g, r2.value)]
    _emit(out)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.direction == "roman-to-r2":
        conv = transfer.roman_to_rainbow(g, parse_roman(args.assignment))
        out = {"assignment": format_rainbow(conv), "weight": conv.weight()}
    else:
        conv = transfer.rainbow_to_roman(g, parse_rainbow(args.assignment))
        out = {"assignment": format_roman(conv), "weight": conv.weight()}
    _emit(out)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    formula = reduction.parse_dimacs(_read(args.cnf))
    gadget = reduction.build_reduction(formula)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialize_edge_list(gadget.graph))
    if args.check:
        report = reduction.verify_reduction(formula)
        _emit({
            "gamma_r2": report.gamma_r2,
            "gamma_R": report.gamma_roman,
            "satisfiable": report.satisfiable,
            "consistent": report.consistent,
        })
        return 0 if report.consistent else 2
    _emit({
        "n": formula.num_vars,
        "m": formula.num_clauses,
        "order": gadget.graph.order,
        "edges": gadget.graph.edge_count(),
    })
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    selector = args.family
    presets = hereditary.PRESET_FAMILIES
    preset = selector[0] if len(selector) == 1 and selector[0] in presets else None
    if preset is not None:
        family = presets[preset]
    else:
        if any(s in presets for s in selector):
            raise ValueError("preset families cannot be mixed with files")
        family = tuple((path, _load_graph(path)) for path in selector)
    if args.hereditary_direct and preset is None:
        raise ValueError("--hereditary-direct needs a preset family")
    if args.gk is not None:
        if not args.hereditary_direct:
            raise ValueError("--gk requires --hereditary-direct")
        if preset == "theorem2":
            raise ValueError("--gk only applies to the theorem3 family")
        if args.gk < 1:
            raise ValueError("--gk must be a positive integer")
    # the direct check runs before the pattern search, so its order cap
    # is checked before any search starts
    direct: dict = {}
    if args.hereditary_direct:
        if preset == "theorem2":
            direct["hereditary_direct"] = hereditary.hereditary_equality_direct(g)
        else:
            k = 3 if args.gk is None else args.gk
            direct["gk"] = k
            direct["hereditary_direct"] = hereditary.hereditary_three_halves_direct(g, k)
    witness = hereditary.find_induced_member(g, family)
    out: dict = {"free": witness is None, "witness": witness, **direct}
    # theorem2's equivalence always applies; theorem3's only at threshold 3
    if direct and direct.get("gk", 3) == 3:
        out["consistent"] = (witness is None) == direct["hereditary_direct"]
    _emit(out)
    return 0 if out.get("consistent", True) else 2


def _cmd_structure(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    r2, roman = hereditary.solve_both_cached(g)
    extremal = 2 * roman.value == 3 * r2.value
    out: dict = {
        "graph": serialize_edge_list(g),
        "order": g.order,
        "gamma_r2": r2.value,
        "gamma_R": roman.value,
        "extremal": extremal,
        "functions": None,
    }
    code = 0
    if extremal:
        audits = structure.audit_extremal(g)
        out["functions"] = [a.to_json_dict() for a in audits]
        if not all(a.all_pass() for a in audits):
            code = 2
    _emit(out)
    return code


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.op == "gap-k":
        if args.k is None:
            raise ValueError("--op gap-k requires --k")
        if args.graph is not None:
            raise ValueError("--op gap-k does not take a graph")
        built = constructions.gap_instance(args.k)
        _emit({
            "graph": serialize_edge_list(built),
            "order": built.order,
            "k": args.k,
            "connected": connected(built),
            "k4_free": is_k4_free(built),
            "verified": True,  # gap_instance re-solves before returning
        })
        return 0
    if args.graph is None:
        raise ValueError(f"--op {args.op} requires a graph")
    if args.k is not None:
        raise ValueError("--k only applies to --op gap-k")
    g = _load_graph(args.graph)
    built = constructions.add_c4(g) if args.op == "add-c4" else constructions.star_link(g)
    # the larger graph first, so that the solver's order cap is checked
    # before anything is solved
    after = (gamma_r2(built).value, gamma_roman(built).value)
    before = (gamma_r2(g).value, gamma_roman(g).value)
    expected = (2, 3) if args.op == "add-c4" else (2, 2)
    deltas = (after[0] - before[0], after[1] - before[1])
    consistent = deltas == expected
    _emit({
        "graph": serialize_edge_list(built),
        "order": built.order,
        "gamma_r2": after[0],
        "gamma_R": after[1],
        "delta_r2": deltas[0],
        "delta_R": deltas[1],
        "consistent": consistent,
    })
    return 0 if consistent else 2


def _cmd_scan(args: argparse.Namespace) -> int:
    sample = None
    if args.sample is not None:
        parts = args.sample.split(",")
        if len(parts) != 3:
            raise ValueError("--sample expects ORDER,COUNT,SEED")
        order, count, seed = (int(p) for p in parts)
        sample = (order, count, seed)
    report = catalog.scan(args.max_order, sample)
    sys.stdout.write(report.to_csv() if args.format == "csv"
                     else report.to_jsonl())
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rainbowroman",
                     description="Exact 2-rainbow and Roman domination toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one or both parameters exactly")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--param", choices=("r2", "roman", "both"), default="both")
    p.add_argument("--witness", action="store_true",
                   help="include an optimal assignment per parameter")
    p.add_argument("--all-min", action="store_true",
                   help="list every minimum 2-rainbow function")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convert", help="convert between the two assignments")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("assignment", help="comma-separated token string")
    p.add_argument("--direction", required=True,
                   choices=("roman-to-r2", "r2-to-roman"))
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("reduce", help="build the satisfiability gadget")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--out", help="write the gadget as an edge-list file")
    p.add_argument("--check", action="store_true",
                   help="solve the gadget and verify every identity")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("recognize", help="forbidden-family membership")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--family", nargs="+", required=True,
                   help="theorem2, theorem3, or edge-list files")
    p.add_argument("--hereditary-direct", action="store_true",
                   help="cross-check by solving every induced subgraph")
    p.add_argument("--gk", type=int, default=None,
                   help="threshold for the three-halves check (default 3)")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("structure", help="extremal check plus minimum-function audit")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("construct", help="gap-shifting constructions")
    p.add_argument("--op", required=True, choices=("add-c4", "star-link", "gap-k"))
    p.add_argument("--k", type=int, default=None, help="target gap for gap-k")
    p.add_argument("graph", nargs="?", default=None, help="edge-list file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan", help="exhaustive catalogue report")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--sample", default=None, metavar="ORDER,COUNT,SEED")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
