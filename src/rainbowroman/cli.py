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

The command line is declared once, in the table ``_COMMANDS``.  A plain
line (a command, then positionals and options spelled in full, each
value after its option or after "=") is read straight from the table;
any other (help, abbreviations, ``--``, values that start with "-",
usage errors) goes to argparse, built from the same table.  argparse
costs a short process 5-7 ms (its import pulls in ``gettext`` and
``locale``, and each argument queries the terminal size), and every
benchmark command line is plain.  Two readings depart from argparse:
"--name=--" is the value "--", where argparse stored none; and when
``--family``, spelled in full, takes the graph too, the "required"
error says so.  The tests check the result against the argparse front
end kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

# the package registers its submodules lazily: bound as modules, these
# run only when a command calls into them, so `solve` never executes them
from . import catalog, constructions, hereditary, reduction, structure
from .domination import (VerificationError, _all_min_at, _check_all_min_order, format_rainbow,
                         format_roman, gamma_r2, gamma_roman, parse_rainbow, parse_roman,
                         rainbow_to_roman, roman_to_rainbow)
from .graph import Graph, connected, is_k4_free, parse_edge_list, serialize_edge_list


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_convert(args: SimpleNamespace) -> int:
    g = _load_graph(args.graph)
    if args.direction == "roman-to-r2":
        conv = roman_to_rainbow(g, parse_roman(args.assignment))
        text = format_rainbow(conv)
    else:
        conv = rainbow_to_roman(g, parse_rainbow(args.assignment))
        text = format_roman(conv)
    _emit({"assignment": text, "weight": conv.weight()})
    return 0


def _cmd_reduce(args: SimpleNamespace) -> int:
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


def _cmd_recognize(args: SimpleNamespace) -> int:
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


def _cmd_structure(args: SimpleNamespace) -> int:
    g = _load_graph(args.graph)
    _check_all_min_order(g)  # before anything is solved
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


def _cmd_construct(args: SimpleNamespace) -> int:
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


def _cmd_scan(args: SimpleNamespace) -> int:
    sample = None
    if args.sample is not None:
        try:
            order, count, seed = map(int, args.sample.split(","))
        except ValueError:  # not three parts, or one not an integer
            raise ValueError("--sample expects ORDER,COUNT,SEED") from None
        sample = (order, count, seed)
    report = catalog.scan(args.max_order, sample)
    sys.stdout.write(report.to_csv() if args.format == "csv"
                     else report.to_jsonl())
    return 0


_REQUIRED = object()  # the default of an argument that must be given

# command -> (handler, help line, arguments).  An argument is
# (name, kind, default, help); a name that starts with "--" is an
# option, any other a positional, taken in the order listed.  kind is
# "flag" (no value), "int", "str", a tuple of the allowed str values,
# or "list" (one or more str values); a positional is a "str".
_COMMANDS = {
    "solve": (_cmd_solve, "solve one or both parameters exactly", (
        ("graph", "str", _REQUIRED, "edge-list file"),
        ("--param", ("r2", "roman", "both"), "both", "the parameters to solve (default both)"),
        ("--witness", "flag", False, "include an optimal assignment per parameter"),
        ("--all-min", "flag", False, "list every minimum 2-rainbow function"),
    )),
    "convert": (_cmd_convert, "convert between the two assignments", (
        ("graph", "str", _REQUIRED, "edge-list file"),
        ("assignment", "str", _REQUIRED, "comma-separated token string"),
        ("--direction", ("roman-to-r2", "r2-to-roman"), _REQUIRED,
         "the kind of function given and the kind wanted"),
    )),
    "reduce": (_cmd_reduce, "build the satisfiability gadget", (
        ("cnf", "str", _REQUIRED, "DIMACS CNF file"),
        ("--out", "str", None, "write the gadget as an edge-list file"),
        ("--check", "flag", False, "solve the gadget and verify every identity"),
    )),
    "recognize": (_cmd_recognize, "forbidden-family membership", (
        ("graph", "str", _REQUIRED, "edge-list file"),
        ("--family", "list", _REQUIRED, "theorem2, theorem3, or edge-list files"),
        ("--hereditary-direct", "flag", False,
         "cross-check by solving every induced subgraph"),
        ("--gk", "int", None, "threshold for the three-halves check (default 3)"),
    )),
    "structure": (_cmd_structure, "extremal check plus minimum-function audit", (
        ("graph", "str", _REQUIRED, "edge-list file"),
    )),
    "construct": (_cmd_construct, "gap-shifting constructions", (
        ("graph", "str", None, "edge-list file (add-c4 and star-link)"),
        ("--op", ("add-c4", "star-link", "gap-k"), _REQUIRED, "the construction"),
        ("--k", "int", None, "target gap for gap-k"),
    )),
    "scan": (_cmd_scan, "exhaustive catalogue report", (
        ("--max-order", "int", _REQUIRED, "largest order enumerated exhaustively"),
        ("--sample", "str", None, "ORDER,COUNT,SEED of a seeded random sample"),
        ("--format", ("jsonl", "csv"), "jsonl", "the report format (default jsonl)"),
    )),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _plain(argv: list[str]):
    """(handler, arguments) for a plain command line, else None.

    A plain line is a command, then its positionals and its options
    spelled in full, each value after its option or after "=", and no
    value that starts with "-" ("--name=--" is read as the value "--").
    A line that lacks a required argument is not plain either; where a
    list option took the positional that is missing, the result is then
    the note that argparse's error should end with."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments = _COMMANDS[argv[0]]
    kinds = {name: kind for name, kind, _, _ in arguments}
    positionals = [name for name in kinds if not name.startswith("--")]
    args = SimpleNamespace(**{_dest(name): None if default is _REQUIRED else default
                              for name, _, default, _ in arguments})
    rest = argv[:0:-1]  # the line after the command, read from the end
    took = None  # a list option and its values, once it takes more than one
    while rest:
        token = rest.pop()
        if token[:1] != "-":
            if not positionals:
                return None
            setattr(args, positionals.pop(0), token)
            continue
        name, eq, value = token.partition("=")
        kind = kinds.get(name) if name.startswith("--") else None
        if kind is None or kind == "flag" and eq or value[:1] == "-" and value != "--":
            return None
        if kind == "flag":
            setattr(args, _dest(name), True)
            continue
        values = [value] if eq else []
        # one value, or for a list every one up to the next option
        while not eq and rest and rest[-1][:1] != "-" and (not values or kind == "list"):
            values.append(rest.pop())
        if not values:
            return None
        if len(values) > 1:
            took = name, values
        if kind == "int":
            try:
                values = [int(values[0])]
            except ValueError:
                return None
        elif isinstance(kind, tuple) and values[0] not in kind:
            return None
        setattr(args, _dest(name), values if kind == "list" else values[0])
    missing = [name for name, _, default, _ in arguments
               if default is _REQUIRED and getattr(args, _dest(name)) is None]
    if not missing:
        return handler, args
    if took and positionals and positionals[0] in missing:
        name, values = took
        return (f" ({name} took all of {' '.join(values)}; "
                f"give the {positionals[0]} before {name})")
    return None


def _parse(argv: list[str]):
    """(handler, arguments) for a command line: a plain line as
    :func:`_plain` reads it, any other through argparse, built from
    ``_COMMANDS`` and imported only here.  Usage errors write a message
    to stderr and raise SystemExit(1); -h/--help prints help and raises
    SystemExit(0)."""
    note = _plain(argv)
    if isinstance(note, tuple):
        return note
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:
            # exit 2 is kept for violated identities
            if note and message.startswith("the following arguments are required"):
                message += note
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="rainbowroman",
                    description="Exact 2-rainbow and Roman domination toolkit")
    commands = parser.add_subparsers(dest="command", required=True)
    how = {"flag": {"action": "store_true"}, "int": {"type": int}, "list": {"nargs": "+"},
           "str": {}}
    for command, (_, about, arguments) in _COMMANDS.items():
        sub = commands.add_parser(command, help=about)
        for name, kind, default, text in arguments:
            spec = {"help": text, **(how[kind] if kind in how else {"choices": kind})}
            if default is not _REQUIRED:
                spec["default"] = default
                if not name.startswith("--"):
                    spec["nargs"] = "?"
            elif name.startswith("--"):
                spec["required"] = True
            sub.add_argument(name, **spec)
    args = parser.parse_args(argv)
    command = vars(args).pop("command")
    handler, _, arguments = _COMMANDS[command]
    for name, _, _, _ in arguments:
        # argparse reads "--name=--" as no value, skipping the choices check
        if getattr(args, _dest(name)) == []:
            commands.choices[command].error(f"argument {name}: expected a value, not '--'")
    return handler, args


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(args)
    except VerificationError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
