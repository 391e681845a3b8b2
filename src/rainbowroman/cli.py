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

The command line is read from one table, ``_COMMANDS``, by a small
parser rather than by argparse.  Every command runs as a short process,
and argparse cost 5-7 ms of each start-up: importing it pulls in
``gettext``, each parser it builds looks up its strings through
``gettext`` (which imports ``locale``), and each argument it adds
builds a help formatter that queries the terminal size.  That was the
largest share of a process's start-up that the package controls.  The
table parser accepts the command lines argparse accepted, with the same
values (options before, between or after positionals; ``--name value``
and ``--name=value``; unique prefixes of long options; negative numbers
as values; ``--`` ending the options); the test suite checks it against
the argparse front end, kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

# the package registers its submodules lazily: bound as modules, these
# run only when a command calls into them, so `solve` never executes them
from . import catalog, constructions, hereditary, reduction, structure, transfer
from .domination import (VerificationError, _all_min_at, _check_all_min_order,
                         format_rainbow, format_roman, gamma_r2, gamma_roman,
                         parse_rainbow, parse_roman)
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
        conv = transfer.roman_to_rainbow(g, parse_roman(args.assignment))
        out = {"assignment": format_rainbow(conv), "weight": conv.weight()}
    else:
        conv = transfer.rainbow_to_roman(g, parse_rainbow(args.assignment))
        out = {"assignment": format_roman(conv), "weight": conv.weight()}
    _emit(out)
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
        parts = args.sample.split(",")
        if len(parts) != 3:
            raise ValueError("--sample expects ORDER,COUNT,SEED")
        order, count, seed = (int(p) for p in parts)
        sample = (order, count, seed)
    report = catalog.scan(args.max_order, sample)
    sys.stdout.write(report.to_csv() if args.format == "csv"
                     else report.to_jsonl())
    return 0


_REQUIRED = object()  # the default of an argument that must be given
_HELP = ("-h", "--help")

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


def _word(name: str, kind) -> str:
    """An argument as usage and help show it."""
    if kind == "flag" or not name.startswith("--"):
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {_dest(name).upper()}{' ...' if kind == 'list' else ''}"


def _usage(prog: str, arguments) -> str:
    words = ["usage:", prog, "[-h]"]
    # options first, as argparse showed them
    for name, kind, default, _ in sorted(arguments, key=lambda a: not a[0].startswith("--")):
        word = _word(name, kind)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _exit_with_help(usage: str, about: str, title: str, rows) -> None:
    rows = [*rows, ("-h, --help", "show this help message and exit")]
    width = max(len(left) for left, _ in rows) + 2
    print(f"{usage}\n\n{about}\n\n{title}:")
    for left, right in rows:
        print(f"  {left:<{width}}{right}")
    raise SystemExit(0)


def _fail(usage: str, prog: str, message: str) -> None:
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(1)


def _classify(token: str, names, usage: str, prog: str):
    """What ``token`` is to a parser with option ``names``: None for a
    positional; (None, None) for an unknown option; else (name, value),
    where value is None unless the token carries it after "=" (or, for
    -h, right after the h).  A long option may be given by any prefix
    that no other option shares."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    if head in names:
        return head, value if eq else None
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _fail(usage, prog, f"ambiguous option: {head} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[:2] in names:
        return token[:2], token[2:]
    # as in argparse, a negative number or a string holding a space is a value
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        negative = fraction.isdecimal() and (not whole or whole.isdecimal())
    else:
        negative = whole.isdecimal()
    return None if negative or " " in token else (None, None)


def _is_help(name: str, value, usage: str, prog: str) -> bool:
    """Whether an option is -h/--help; refuses a value given to it, apart
    from more h's run together with -h ("-hh"), which argparse read as
    -h given twice."""
    if name not in _HELP:
        return False
    if value is not None and not (name == "-h" and value and not value.strip("h")):
        _fail(usage, prog, f"argument -h/--help: ignored explicit argument {value!r}")
    return True


def _parse(argv: list[str]):
    """(handler, arguments) for a command line, read through ``_COMMANDS``.

    Usage errors write a message to stderr and raise SystemExit(1);
    -h/--help prints help to stdout and raises SystemExit(0).  Errors
    about a value (an ambiguous prefix, a missing or bad value) stop the
    parse where they occur; unknown options, surplus positionals and
    missing arguments are reported once the whole line is read, so a
    later -h still shows help."""
    prog = "rainbowroman"
    usage = f"usage: {prog} [-h] {{{','.join(_COMMANDS)}}} ..."
    unknown = []
    for at, token in enumerate(argv):
        found = None if token == "--" else _classify(token, _HELP, usage, prog)
        if found is None:
            break
        if found[0] is None:
            unknown.append(token)
        elif _is_help(*found, usage, prog):
            _exit_with_help(usage, "Exact 2-rainbow and Roman domination toolkit",
                            "commands", [(name, entry[1]) for name, entry in _COMMANDS.items()])
    else:
        _fail(usage, prog, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(usage, prog, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, about, arguments = _COMMANDS[command]
    prog = f"{prog} {command}"
    usage = _usage(prog, arguments)
    options = {name: kind for name, kind, _, _ in arguments if name.startswith("--")}
    positionals = [name for name, _, _, _ in arguments if not name.startswith("--")]
    args = SimpleNamespace(**{_dest(name): None if default is _REQUIRED else default
                              for name, _, default, _ in arguments})
    rest = argv[at + 1:]
    end = rest.index("--") if "--" in rest else len(rest)
    # every token is classified before any is read, as argparse did, so an
    # ambiguous prefix is refused even after -h; past "--", all are positionals
    kinds = [_classify(token, (*_HELP, *options), usage, prog) for token in rest[:end]]
    kinds += ["--"] + [None] * (len(rest) - end - 1) if end < len(rest) else []
    filled = run = 0  # positionals filled, and filled since the last option
    swallowed = None  # (list option, its values) once one takes more than one
    i = 0
    while i < len(rest):
        token, found = rest[i], kinds[i]
        i += 1
        if found == "--":
            # argparse let "--" through only in a run of positionals that
            # could still take one
            if not run and filled == len(positionals):
                unknown.append(token)
            continue
        if found is None:
            if filled < len(positionals):
                setattr(args, _dest(positionals[filled]), token)
                filled += 1
                run += 1
            else:
                unknown.append(token)
            continue
        run = 0
        name, value = found
        if name is None:
            unknown.append(token)
            continue
        if _is_help(name, value, usage, prog):
            _exit_with_help(usage, about, "arguments",
                            [(_word(name, kind), text) for name, kind, _, text in arguments])
        kind = options[name]
        if kind == "flag":
            if value is not None:
                _fail(usage, prog, f"argument {name}: ignored explicit argument {value!r}")
            setattr(args, _dest(name), True)
            continue
        if value is not None:
            values = [value]
        else:
            # the positionals that follow, up to the next option or "--":
            # one, or for a list all of them
            stop = i
            while stop < len(rest) and kinds[stop] is None and (stop == i or kind == "list"):
                stop += 1
            values, i = rest[i:stop], stop
            if not values:
                _fail(usage, prog, f"argument {name}: expected "
                      f"{'at least one argument' if kind == 'list' else 'one argument'}")
            if len(values) > 1:
                swallowed = name, values
        if kind == "int":
            try:
                values = [int(values[0])]
            except ValueError:
                _fail(usage, prog, f"argument {name}: invalid int value: {values[0]!r}")
        elif isinstance(kind, tuple) and values[0] not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(usage, prog, f"argument {name}: invalid choice: {values[0]!r} "
                  f"(choose from {choices})")
        setattr(args, _dest(name), values if kind == "list" else values[0])
    # a required argument that was given holds a value that is not None
    missing = [name for name, _, default, _ in arguments
               if default is _REQUIRED and getattr(args, _dest(name)) is None]
    if missing:
        message = f"the following arguments are required: {', '.join(missing)}"
        lost = [name for name in missing if name in positionals]
        if lost and swallowed:
            # a list option takes every positional after it, the one missing too
            name, values = swallowed
            message += (f" ({name} took all of {' '.join(values)}; "
                        f"give the {lost[0]} before {name})")
        _fail(usage, prog, message)
    if unknown:
        _fail(usage, prog, f"unrecognized arguments: {' '.join(unknown)}")
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
