"""The command table's parser against the argparse front end it replaced.

Every command line here goes through ``oracles.argparse_parser()`` and
through ``cli._parse``.  Where argparse accepted it, both must name the
same handler and the same values; where argparse refused it, the table
parser must exit 1 with an error on stderr and nothing on stdout; where
argparse showed help, both must exit 0.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
import shlex
from pathlib import Path

import pytest

from oracles import argparse_parser
from rainbowroman import cli

README = Path(__file__).resolve().parent.parent / "README.md"
ORACLE = argparse_parser()


def readme_command_lines() -> list[list[str]]:
    """Every command line in the README's "Command line" section."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("rainbowroman ")]


def outcome(parse, argv):
    """(result or ("exit", code), stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = parse(list(argv))
    except SystemExit as event:
        result = ("exit", event.code)
    return result, out.getvalue(), err.getvalue()


def by_argparse(argv):
    values = vars(ORACLE.parse_args(argv))
    del values["command"]
    return values.pop("func").__name__, values


def by_table(argv):
    handler, args = cli._parse(argv)
    return handler.__name__, vars(args)


def assert_same(argv):
    expected, _, _ = outcome(by_argparse, argv)
    got, out, err = outcome(by_table, argv)
    assert got == expected, argv
    if got == ("exit", 1):
        assert out == "" and "error:" in err, argv


def arguments(command):
    return {name: kind for name, kind, _, _ in cli._COMMANDS[command][2]}


def units(argv):
    """A command line after its command, split into options with their
    values and single positionals."""
    kinds = arguments(argv[0])
    found, rest = [], list(argv[1:])
    while rest:
        unit = [rest.pop(0)]
        kind = kinds.get(unit[0], "str")
        if unit[0].startswith("--") and kind != "flag":
            unit.append(rest.pop(0))
            while kind == "list" and rest and not rest[0].startswith("-"):
                unit.append(rest.pop(0))
        found.append(unit)
    return found


def other_value(name, kind):
    if isinstance(kind, tuple):
        return kind[-1]
    return {"int": "5", "list": "theorem2"}.get(kind, f"{name[2:]}.txt")


def derived(seed):
    """The seed and the command lines derived from it."""
    command, parts = seed[0], units(seed)
    kinds = arguments(command)

    def line(*groups):
        return [command, *itertools.chain(*groups)]

    yield seed
    for order in itertools.permutations(parts):
        yield line(*order)
    options = [p for p in parts if p[0].startswith("--")]
    positionals = [p for p in parts if not p[0].startswith("--")]
    yield line(*options, ["--"], *positionals)
    yield line(["--"], *parts)
    yield line(*parts, ["--"])
    yield line(*parts, ["extra.el"])
    yield line(*parts, ["--bogus"])
    yield line(["--bogus"], *parts)
    for at, part in enumerate(parts):
        before, after = parts[:at], parts[at + 1:]
        yield line(*before, *after)  # a missing argument
        name = part[0]
        if not name.startswith("--"):
            continue
        kind, values = kinds[name], part[1:]
        for cut in range(3, len(name) + 1):
            prefix = name[:cut]
            yield line(*before, [prefix, *values], *after)
            yield line(*before, [f"{prefix}={values[0] if values else 'yes'}", *values[1:]],
                       *after)
        yield line(*before, part, *after, part)
        if kind != "flag":
            yield line(*before, part, *after, [name, other_value(name, kind)])
        if isinstance(kind, tuple):
            yield line(*before, [name, "bogus"], *after)
        if kind == "int":
            for value in ("x", "1.5", "-1"):
                yield line(*before, [name, value], *after)
                yield line(*before, [f"{name}={value}"], *after)
        if kind == "str":
            for value in ("-1,5,1", "-1"):
                yield line(*before, [name, value], *after)
                yield line(*before, [f"{name}={value}"], *after)


def corpus():
    seen = set()
    lines = [line for seed in readme_command_lines() for line in derived(seed)]
    lines += [[], ["frobnicate"], ["--", "solve", "c4.el"], ["--bogus", "solve", "c4.el"],
              ["recognize", "g.el", "--h", "theorem2"], ["-h"], ["--help"], ["--he"], ["-hx"],
              ["recognize", "--help", "--h"], ["solve", "c4.el", "extra.el", "--help"]]
    lines += [[command, flag] for command in cli._COMMANDS for flag in ("-h", "--help")]
    for line in lines:
        if tuple(line) not in seen:
            seen.add(tuple(line))
            yield line


def shuffled(seed: int, count: int):
    """Seeded command lines made from the corpus: random tokens after a
    command, or a corpus line with one token added or moved."""
    rng = random.Random(seed)
    lines = list(corpus())
    tokens = sorted({token for line in lines for token in line} | {"", "-", "-hh", "--=x"})
    commands = list(cli._COMMANDS)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            line = [rng.choice(commands)] + rng.sample(tokens, rng.randint(0, 5))
        else:
            line = rng.choice(lines)[:]
            # one more token, or one token moved elsewhere
            token = rng.choice(tokens) if roll < 0.6 or len(line) < 2 \
                else line.pop(rng.randrange(1, len(line)))
            line.insert(rng.randint(0, len(line)), token)
        yield line


def test_readme_has_every_command():
    assert {line[0] for line in readme_command_lines()} == set(cli._COMMANDS)


def test_corpus_outcomes_match_argparse():
    lines = list(corpus())
    for line in lines:
        assert_same(line)
    results = [outcome(by_argparse, line)[0] for line in lines]
    accepted = sum(result[0] != "exit" for result in results)
    # the corpus must exercise all three outcomes
    assert accepted >= 200 and results.count(("exit", 1)) >= 100
    assert results.count(("exit", 0)) >= 10


def test_mixed_lines_match_argparse():
    for line in shuffled(15, 3000):
        assert_same(line)


@pytest.mark.parametrize("argv,values", [
    (["construct", "--op", "gap-k", "--k", "-1"], {"op": "gap-k", "k": -1, "graph": None}),
    (["construct", "--k=-1", "--o", "gap-k"], {"op": "gap-k", "k": -1, "graph": None}),
    (["scan", "--max-order", "4", "--sample=-1,5,1"],
     {"max_order": 4, "sample": "-1,5,1", "format": "jsonl"}),
    (["recognize", "--fam", "theorem2", "p.el", "--", "g.el"],
     {"graph": "g.el", "family": ["theorem2", "p.el"], "hereditary_direct": False, "gk": None}),
    (["solve", "--param", "r2", "c4.el", "--par=roman"],
     {"graph": "c4.el", "param": "roman", "witness": False, "all_min": False}),
])
def test_values(argv, values):
    assert by_table(argv)[1] == values
    assert_same(argv)


@pytest.mark.parametrize("argv", [
    ["scan", "--max-order", "4", "--sample", "-1,5,1"],
    ["recognize", "g.el", "--h", "theorem2"],
    ["recognize", "g.el", "--family", "theorem2", "--gk", "x"],
    ["construct", "--op", "gap-k", "--k", "1.5"],
    ["convert", "g.el", "1,0"],
])
def test_refusals(argv):
    got, out, err = outcome(by_table, argv)
    assert got == ("exit", 1) and out == "" and "error:" in err
    assert_same(argv)


def test_a_list_option_that_took_the_graph_is_named():
    # --family takes every positional after it, the graph too
    argv = ["recognize", "--family", "theorem2", "g.el"]
    got, out, err = outcome(by_table, argv)
    assert got == ("exit", 1) and out == ""
    assert "required: graph (--family took all of theorem2 g.el; " \
           "give the graph before --family)" in err
    assert_same(argv)
    # one value taken: the graph was left out, not swallowed
    got, _, err = outcome(by_table, ["recognize", "--family", "theorem2"])
    assert got == ("exit", 1) and err.endswith("required: graph\n")


def test_a_value_given_as_a_double_dash_is_kept():
    # argparse stripped it and stored an empty list, skipping the choices
    # check (so that `scan --sample=--` crashed in the handler)
    assert by_table(["reduce", "f.cnf", "--out=--"])[1]["out"] == "--"
    assert outcome(by_table, ["solve", "c4.el", "--param=--"])[0] == ("exit", 1)


def option_names(text: str) -> set[str]:
    return set(re.findall(r"--[a-z][a-z-]*", text))


@pytest.mark.parametrize("argv", [[]] + [[command] for command in cli._COMMANDS])
def test_help_names_every_command_and_option(argv):
    expected, oracle_help, _ = outcome(ORACLE.parse_args, argv + ["--help"])
    got, table_help, err = outcome(by_table, argv + ["--help"])
    assert got == expected == ("exit", 0) and err == ""
    assert table_help.startswith("usage: rainbowroman")
    assert option_names(oracle_help) <= option_names(table_help)
    if not argv:
        assert all(command in table_help for command in cli._COMMANDS)
