"""The immutable records: equality, hashing, read-only fields, validation."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowroman
from rainbowroman.domination import RainbowAssignment, RomanAssignment
from rainbowroman.graph import Graph
from rainbowroman.reduction import CnfFormula

# (one record, an equal one built separately, one that differs)
RECORDS = [
    (Graph(3, (2, 5, 2)), Graph(3, (2, 5, 2)), Graph(3, (0, 0, 0))),
    (Graph(2, (2, 1)), Graph(2, (2, 1)), Graph(3, (2, 1, 0))),
    (RainbowAssignment((1, 0)), RainbowAssignment((1, 0)), RainbowAssignment((2, 0))),
    (RomanAssignment((1, 0)), RomanAssignment((1, 0)), RomanAssignment((2, 0))),
    (CnfFormula(2, ((1, -2), (2,))), CnfFormula(2, ((1, -2), (2,))),
     CnfFormula(2, ((1, 2), (2,)))),
]


@pytest.mark.parametrize("record,twin,other", RECORDS)
class TestRecord:
    def test_equal_instances_hash_equal(self, record, twin, other):
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert record != other
        assert len({record, twin, other}) == 2

    def test_fields_are_read_only(self, record, twin, other):
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == twin

    def test_repr_names_every_field(self, record, twin, other):
        fields = ", ".join(f"{name}={getattr(record, name)!r}"
                           for name in record.__slots__)
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_pickle_round_trip(self, record, twin, other):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


def test_equality_needs_the_same_class():
    assert RainbowAssignment((1, 0)) != RomanAssignment((1, 0))
    assert RomanAssignment((1, 0)) != RainbowAssignment((1, 0))
    assert RainbowAssignment((1, 0)) != (1, 0)


@pytest.mark.parametrize("build,twin", [
    (lambda seq: Graph(2, seq), Graph(2, (2, 1))),
    (RainbowAssignment, RainbowAssignment((2, 1))),
    (RomanAssignment, RomanAssignment((2, 1))),
])
def test_a_list_argument_is_stored_as_a_tuple(build, twin):
    seq = [2, 1]
    record = build(seq)
    assert record == twin and hash(record) == hash(twin)
    assert len({record, twin}) == 1
    field = getattr(record, record.__slots__[-1])
    assert type(field) is tuple
    seq[0] = 0  # changing the argument afterwards leaves the record alone
    assert field == (2, 1) and record == twin


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(2, [2]), "adjacency must have one row per vertex"),
    (lambda: Graph(2, [2, 0]), "asymmetric adjacency between 1 and 0"),
    (lambda: RainbowAssignment([4]), "rainbow codes must be 0, 1, 2, or 3"),
    (lambda: RomanAssignment([3]), "Roman values must be 0, 1, or 2"),
])
def test_a_bad_list_argument_keeps_the_message(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_formula_clauses_are_cleaned():
    f = CnfFormula(2, [[1, 1, -2]])
    assert f.clauses == ((1, -2),)
    assert f == CnfFormula(2, ((1, -2),))


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(-1, ()), "graph order must be non-negative"),
    (lambda: Graph(2, (2,)), "adjacency must have one row per vertex"),
    (lambda: Graph(2, (4, 0)), "adjacency row 0 references a vertex >= order"),
    (lambda: Graph(2, (1, 0)), "self-loop at vertex 0"),
    (lambda: Graph(2, (2, 0)), "asymmetric adjacency between 1 and 0"),
    (lambda: RainbowAssignment((4,)), "rainbow codes must be 0, 1, 2, or 3"),
    (lambda: RomanAssignment((3,)), "Roman values must be 0, 1, or 2"),
    (lambda: CnfFormula(0, ()), "formula needs at least one variable"),
    (lambda: CnfFormula(1, ((),)), "empty clause"),
    (lambda: CnfFormula(4, ((1, 2, 3, 4),)), "clause has more than three literals"),
    (lambda: CnfFormula(1, ((2,),)), "literal 2 out of range"),
    (lambda: CnfFormula(1, ((1, -1),)), "tautological clause"),
])
def test_bad_input_is_rejected(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


# the modules that argparse brought into every CLI process
ARGPARSE = ("argparse", "gettext", "locale")


def test_cli_import_is_lean_and_eager():
    # perfbench's traced replay wraps functions in these modules, so
    # importing the CLI must load them all
    wrapped = ("catalog", "cli", "constructions", "domination", "graph",
               "hereditary", "reduction", "structure")
    src = str(Path(rainbowroman.__file__).resolve().parents[1])
    script = ("import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "before = set(sys.modules)\n"
              "import rainbowroman.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", *ARGPARSE}
    assert {f"rainbowroman.{m}" for m in wrapped} <= added


def test_solve_runs_without_argparse(tmp_path):
    # -S keeps .pth hooks from importing these before the package does
    k1 = tmp_path / "k1.el"
    k1.write_text("1 0\n")
    src = str(Path(rainbowroman.__file__).resolve().parents[1])
    script = ("import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "from rainbowroman.cli import main\n"
              f"code = main(['solve', {str(k1)!r}])\n"
              f"print(sorted(set({ARGPARSE!r}) & set(sys.modules)))\n"
              "raise SystemExit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"gamma_r2":1,"gamma_R":1}\n[]\n'


def test_jsonl_scan_runs_without_csv():
    # only the CSV report needs the csv module; -S as above
    src = str(Path(rainbowroman.__file__).resolve().parents[1])
    script = ("import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "from rainbowroman.cli import main\n"
              "code = main(['scan', '--max-order', '3'])\n"
              "print('csv' in sys.modules)\n"
              "raise SystemExit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("}\nFalse\n")
