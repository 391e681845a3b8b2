"""The outputs the README shows are what the package prints."""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

from rainbowroman import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FIXTURES = Path(__file__).parent / "fixtures"


def section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_prints_its_comments():
    code = section("Library example").split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.split("# ", 1)[1] for line in code.splitlines() if "# " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert shown == ["2 (1, 0, 2, 0)", "3"]
    assert out.getvalue().splitlines() == shown


def test_command_line_examples_print_the_shown_line(capsys, monkeypatch):
    lines = section("Command line").splitlines()
    examples = [(line, shown) for line, shown in zip(lines, lines[1:])
                if line.startswith("rainbowroman ") and shown.startswith("{")]
    assert [line for line, _ in examples] == [
        "rainbowroman solve c4.el",
        "rainbowroman convert c4.el 2,0,1,0 --direction roman-to-r2",
        "rainbowroman reduce unsat1.cnf --check",
        "rainbowroman recognize p5.el --family theorem2",
    ]
    monkeypatch.chdir(FIXTURES)
    for line, shown in examples:
        assert cli.main(shlex.split(line)[1:]) == 0
        assert capsys.readouterr().out == shown + "\n"
