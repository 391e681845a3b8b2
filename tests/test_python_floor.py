"""The package and its tests keep to the Python floor that pyproject.toml declares."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def test_pyproject_declares_the_floor():
    # read as text: tomllib arrived only in Python 3.11
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.MULTILINE)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    # raises SyntaxError on syntax newer than the floor, such as except*
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_the_floor_check_rejects_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # Python 3.11
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)
