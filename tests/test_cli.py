"""Command-line interface: golden outputs, exit codes, file round trips."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from rainbowroman import (catalog, cli, constructions, domination, hereditary,
                          reduction, structure)
from rainbowroman.catalog import scan
from rainbowroman.domination import (RomanAssignment, is_2rainbow_dominating,
                                     parse_rainbow)
from rainbowroman.graph import (cycle_graph, disjoint_union, parse_edge_list,
                                path_graph, serialize_edge_list)

FIXTURES = Path(__file__).parent / "fixtures"
C4 = str(FIXTURES / "c4.el")
P5 = str(FIXTURES / "p5.el")
K2BAR = str(FIXTURES / "k2bar.el")
UNSAT1 = str(FIXTURES / "unsat1.cnf")
SAT1 = str(FIXTURES / "sat1.cnf")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_search(monkeypatch, module, name):
    """Make ``module.name`` fail the test if a command reaches it."""
    def search(*args, **kwargs):
        raise AssertionError(f"{name} ran before a check")

    monkeypatch.setattr(module, name, search)


def count_calls(monkeypatch, module, name):
    """Record every call of ``module.name``, from whichever package module
    binds it; returns the list of calls."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").startswith("rainbowroman"):
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counted)
    return calls


def four_squares(tmp_path):
    """Four disjoint C4s (order 16, 256 minimum functions) as an edge list."""
    g = cycle_graph(4)
    for _ in range(3):
        g = disjoint_union(g, cycle_graph(4))
    path = tmp_path / "four_squares.el"
    path.write_text(serialize_edge_list(g))
    return str(path)


def edgeless(tmp_path, order):
    path = tmp_path / f"e{order}.el"
    path.write_text(f"{order} 0\n")
    return str(path)


class TestGolden:
    def test_solve_square(self, capsys):
        assert run(capsys, "solve", C4) == \
            (0, '{"gamma_r2":2,"gamma_R":3}\n', "")

    def test_reduce_check_unsat(self, capsys):
        assert run(capsys, "reduce", UNSAT1, "--check") == \
            (0, '{"gamma_r2":4,"gamma_R":5,"satisfiable":false,'
                '"consistent":true}\n', "")

    def test_recognize_path(self, capsys):
        assert run(capsys, "recognize", P5, "--family", "theorem2") == \
            (0, '{"free":false,"witness":"P5"}\n', "")


class TestSolve:
    def test_single_parameter(self, capsys):
        assert run(capsys, "solve", C4, "--param", "r2")[1] == \
            '{"gamma_r2":2}\n'
        assert run(capsys, "solve", C4, "--param", "roman")[1] == \
            '{"gamma_R":3}\n'

    def test_witness_is_valid(self, capsys):
        code, out, _ = run(capsys, "solve", C4, "--witness")
        assert code == 0
        payload = json.loads(out)
        g = parse_edge_list(Path(C4).read_text())
        f = parse_rainbow(payload["witness_r2"])
        assert is_2rainbow_dominating(g, f)
        assert f.weight() == payload["gamma_r2"] == 2
        assert payload["witness_roman"].split(",").count("2") >= 1

    def test_all_min(self, capsys):
        code, out, _ = run(capsys, "solve", C4, "--all-min")
        assert code == 0
        assert json.loads(out)["all_min_2rdf"] == \
            [".,1,.,2", ".,2,.,1", "1,.,2,.", "2,.,1,."]

    def test_all_min_with_roman_prints_gamma_roman_only(self, capsys):
        # gamma_r2 is solved for the enumeration but not printed
        assert run(capsys, "solve", C4, "--param", "roman", "--all-min") == \
            (0, '{"gamma_R":3,"all_min_2rdf":[".,1,.,2",".,2,.,1",'
                '"1,.,2,.","2,.,1,."]}\n', "")

    def test_all_min_solves_gamma_r2_once(self, capsys, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, domination, "gamma_r2")
        code, out, _ = run(capsys, "solve", four_squares(tmp_path), "--all-min")
        assert code == 0
        assert len(calls) == 1
        assert len(json.loads(out)["all_min_2rdf"]) == 256
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "4bf4f87d0dd7b3858f55021176b5725aa05101c55aae0a994ea1505bf06a362c"

    def test_all_min_cap_checked_before_solving(self, capsys, monkeypatch, tmp_path):
        refuse_search(monkeypatch, domination, "_search")
        big = edgeless(tmp_path, domination.ALL_MIN_ORDER_CAP + 1)
        code, out, err = run(capsys, "solve", big, "--all-min")
        assert code == 1 and out == ""
        assert "minimum-function enumeration is capped at order 16" in err


class TestConvert:
    def test_roman_to_rainbow(self, capsys):
        assert run(capsys, "convert", C4, "2,0,1,0",
                   "--direction", "roman-to-r2")[1] == \
            '{"assignment":"12,.,1,.","weight":3}\n'

    def test_rainbow_to_roman_swaps_colors(self, capsys):
        assert run(capsys, "convert", C4, "12,.,2,.",
                   "--direction", "r2-to-roman")[1] == \
            '{"assignment":"2,0,1,0","weight":3}\n'

    def test_invalid_assignment(self, capsys):
        code, out, err = run(capsys, "convert", C4, "0,0,0,0",
                             "--direction", "r2-to-roman")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("direction", ["roman-to-r2", "r2-to-roman"])
    def test_order_0(self, capsys, tmp_path, direction):
        # the blank witness that solve prints for the order-0 graph
        code, out, _ = run(capsys, "convert", edgeless(tmp_path, 0), "",
                           "--direction", direction)
        assert (code, out) == (0, '{"assignment":"","weight":0}\n')

    def test_bad_token(self, capsys):
        code, _, err = run(capsys, "convert", C4, "1,0,x,0",
                           "--direction", "roman-to-r2")
        assert code == 1 and "error:" in err


class TestReduce:
    def test_build_only(self, capsys):
        assert run(capsys, "reduce", UNSAT1)[1] == \
            '{"n":1,"m":2,"order":9,"edges":13}\n'

    def test_check_sat(self, capsys):
        code, out, _ = run(capsys, "reduce", SAT1, "--check")
        assert code == 0
        assert json.loads(out) == {"gamma_r2": 4, "gamma_R": 4,
                                   "satisfiable": True, "consistent": True}

    def test_out_round_trips(self, capsys, tmp_path):
        target = tmp_path / "gadget.el"
        code, out, _ = run(capsys, "reduce", UNSAT1, "--out", str(target))
        assert code == 0
        g = parse_edge_list(target.read_text())
        assert g.order == 9 and g.edge_count() == 13

    def test_out_with_check(self, capsys, tmp_path):
        target = tmp_path / "gadget.el"
        assert run(capsys, "reduce", SAT1, "--out", str(target), "--check") == \
            (0, '{"gamma_r2":4,"gamma_R":4,"satisfiable":true,'
                '"consistent":true}\n', "")
        assert target.read_text().splitlines()[0] == "9 13"

    def test_inconsistent_check_exits_2(self, capsys, monkeypatch):
        fake = types.SimpleNamespace(gamma_r2=4, gamma_roman=5,
                                     satisfiable=True, consistent=False)
        monkeypatch.setattr(reduction, "verify_reduction", lambda f: fake)
        code, out, _ = run(capsys, "reduce", UNSAT1, "--check")
        assert code == 2
        assert json.loads(out)["consistent"] is False

    def test_non_dominating_witness_exits_2(self, capsys, monkeypatch):
        # the solver's weight-(2n + 2) Roman witness fails the report's check
        def ones_witness(g, real=reduction.gamma_roman):
            result = real(g)
            values = (1,) * result.value + (0,) * (g.order - result.value)
            return result._replace(witness=RomanAssignment(values))

        monkeypatch.setattr(reduction, "gamma_roman", ones_witness)
        code, out, err = run(capsys, "reduce", SAT1, "--check")
        assert (code, err) == (2, "")
        assert json.loads(out) == {"gamma_r2": 4, "gamma_R": 4,
                                   "satisfiable": True, "consistent": False}
        formula = reduction.parse_dimacs(Path(SAT1).read_text())
        assert reduction.verify_reduction(formula).assignment is None

    def test_bad_dimacs(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1\n")
        code, _, err = run(capsys, "reduce", str(bad))
        assert code == 1 and "error:" in err

    def test_gadget_above_order_64_writes_nothing(self, capsys, tmp_path):
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 16 2\n1 2 3 0\n-1 -2 16 0\n")
        target = tmp_path / "gadget.el"
        code, out, err = run(capsys, "reduce", str(cnf), "--out", str(target))
        assert code == 1 and out == ""
        assert "line 1: the gadget would have order 69" in err
        assert not target.exists()

    def test_huge_header_exits_fast(self, capsys, tmp_path):
        cnf = tmp_path / "huge.cnf"
        cnf.write_text("p cnf 1000000000 1\n1 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", str(cnf), "--check")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "capped at order 64" in err


class TestRecognize:
    def test_hereditary_direct_square(self, capsys):
        code, out, _ = run(capsys, "recognize", C4, "--family", "theorem2",
                           "--hereditary-direct")
        assert code == 0
        assert out == ('{"free":false,"witness":"C4",'
                       '"hereditary_direct":false,"consistent":true}\n')

    def test_hereditary_direct_three_halves(self, capsys):
        code, out, _ = run(capsys, "recognize", K2BAR, "--family", "theorem3",
                           "--hereditary-direct")
        assert code == 0
        assert out == ('{"free":true,"witness":null,"gk":3,'
                       '"hereditary_direct":true,"consistent":true}\n')

    def test_nondefault_threshold_is_not_decisive(self, capsys):
        code, out, _ = run(capsys, "recognize", K2BAR, "--family", "theorem3",
                           "--hereditary-direct", "--gk", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["gk"] == 2
        assert "consistent" not in payload

    def test_custom_family_files(self, capsys):
        code, out, _ = run(capsys, "recognize", P5, "--family", C4)
        assert code == 0
        assert json.loads(out) == {"free": True, "witness": None}
        code, out, _ = run(capsys, "recognize", C4, "--family", C4)
        assert code == 0
        assert json.loads(out) == {"free": False, "witness": C4}

    @pytest.mark.parametrize("argv", [
        ("recognize", C4, "--family", "theorem2", "theorem3"),
        ("recognize", C4, "--family", "theorem2", "--gk", "3"),
        ("recognize", C4, "--family", "theorem2", "--hereditary-direct",
         "--gk", "3"),
        ("recognize", C4, "--family", C4, "--hereditary-direct"),
        ("recognize", C4, "--family", "theorem3", "--hereditary-direct",
         "--gk", "0"),
    ])
    def test_flag_misuse(self, capsys, monkeypatch, argv):
        # flags are checked before the pattern search starts
        refuse_search(monkeypatch, hereditary, "has_induced")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "error:" in err

    @pytest.mark.parametrize("family", ("theorem2", "theorem3"))
    def test_direct_cap_checked_before_search(self, capsys, monkeypatch,
                                              tmp_path, family):
        refuse_search(monkeypatch, hereditary, "has_induced")
        big = edgeless(tmp_path, hereditary.DIRECT_CHECK_ORDER_CAP + 1)
        code, out, err = run(capsys, "recognize", big, "--family", family,
                             "--hereditary-direct")
        assert code == 1 and out == ""
        assert "direct hereditary check is capped at order 8" in err

    def test_host_order_cap(self, capsys, monkeypatch, tmp_path):
        refuse_search(monkeypatch, hereditary, "edge_mask")
        big = edgeless(tmp_path, hereditary.HAS_INDUCED_HOST_CAP + 1)
        code, out, err = run(capsys, "recognize", big, "--family", "theorem2")
        assert code == 1 and out == "" and "capped" in err

    def test_every_pattern_cap_checked_before_search(self, capsys, monkeypatch,
                                                      tmp_path):
        # the order-6 pattern comes first and is within the cap, but no
        # subset is tried for it before the order-7 pattern is refused
        p6 = tmp_path / "p6.el"
        p6.write_text(serialize_edge_list(path_graph(6)))
        refuse_search(monkeypatch, hereditary, "edge_mask")
        code, out, err = run(capsys, "recognize", edgeless(tmp_path, 30), "--family",
                             str(p6), edgeless(tmp_path, 7))
        assert (code, out, err) == (1, "", "error: pattern order is capped at 6\n")

    def test_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(hereditary, "hereditary_equality_direct", lambda g: True)
        code, out, _ = run(capsys, "recognize", C4, "--family", "theorem2",
                           "--hereditary-direct")
        assert code == 2
        assert json.loads(out)["consistent"] is False


class TestStructure:
    def test_extremal_square(self, capsys):
        code, out, _ = run(capsys, "structure", C4)
        assert code == 0
        payload = json.loads(out)
        assert payload["extremal"] is True
        assert (payload["gamma_r2"], payload["gamma_R"]) == (2, 3)
        assert len(payload["functions"]) == 4
        assert payload["functions"][2]["assignment"] == "1,.,2,."
        assert parse_edge_list(payload["graph"]).order == 4

    def test_four_squares_solve_gamma_r2_once(self, capsys, monkeypatch, tmp_path):
        hereditary._solved_by_mask.cache_clear()
        calls = count_calls(monkeypatch, domination, "gamma_r2")
        code, out, _ = run(capsys, "structure", four_squares(tmp_path))
        assert code == 0
        assert len(calls) == 1
        assert len(json.loads(out)["functions"]) == 256
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "e93933453e3d516fd17cf984068899dcb60d2c6f31912d934d1468e61c6bfd67"

    def test_non_extremal(self, capsys):
        code, out, _ = run(capsys, "structure", P5)
        assert code == 0
        payload = json.loads(out)
        assert payload["extremal"] is False
        assert payload["functions"] is None

    def test_cap_checked_before_solving(self, capsys, monkeypatch, tmp_path):
        refuse_search(monkeypatch, hereditary, "solve_both_cached")
        code, out, err = run(capsys, "structure", edgeless(tmp_path, 17))
        assert code == 1 and out == ""
        assert "capped at order 16" in err

    def test_failed_audit_exits_2(self, capsys, monkeypatch):
        fake = types.SimpleNamespace(to_json_dict=lambda: {"assignment": "x"},
                                     all_pass=lambda: False)
        monkeypatch.setattr(structure, "audit_extremal", lambda g: [fake])
        code, out, _ = run(capsys, "structure", C4)
        assert code == 2


class TestConstruct:
    def test_gap_k(self, capsys):
        code, out, _ = run(capsys, "construct", "--op", "gap-k", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["connected"] and payload["k4_free"]
        assert payload["verified"] is True
        assert parse_edge_list(payload["graph"]).order == payload["order"]

    def test_add_c4(self, capsys):
        code, out, _ = run(capsys, "construct", "--op", "add-c4", C4)
        assert code == 0
        payload = json.loads(out)
        assert (payload["delta_r2"], payload["delta_R"]) == (2, 3)
        assert payload["consistent"] is True
        assert payload["order"] == 8

    def test_add_c4_up_to_order_64(self, capsys, tmp_path):
        # both graphs split into squares, so the order cap is reached in
        # milliseconds
        g = cycle_graph(4)
        for _ in range(14):
            g = disjoint_union(g, cycle_graph(4))
        path = tmp_path / "fifteen_squares.el"
        path.write_text(serialize_edge_list(g))
        code, out, _ = run(capsys, "construct", "--op", "add-c4", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["order"], payload["gamma_r2"], payload["gamma_R"]) == (64, 32, 48)
        assert payload["consistent"] is True

    def test_star_link(self, capsys):
        code, out, _ = run(capsys, "construct", "--op", "star-link", K2BAR)
        assert code == 0
        payload = json.loads(out)
        assert (payload["delta_r2"], payload["delta_R"]) == (2, 2)
        assert payload["order"] == 7

    @pytest.mark.parametrize("argv", [
        ("construct", "--op", "gap-k"),
        ("construct", "--op", "gap-k", "--k", "2", C4),
        ("construct", "--op", "add-c4"),
        ("construct", "--op", "add-c4", "--k", "1", C4),
        ("construct", "--op", "gap-k", "--k", "99"),
    ])
    def test_flag_misuse(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "error:" in err

    @pytest.mark.parametrize("op", ("add-c4", "star-link"))
    def test_solver_cap_checked_before_solving(self, capsys, monkeypatch,
                                               tmp_path, op):
        # an order-61 input builds a graph over the order-64 solver cap
        refuse_search(monkeypatch, domination, "_search")
        code, out, err = run(capsys, "construct", "--op", op, edgeless(tmp_path, 61))
        assert code == 1 and out == ""
        assert "solver is capped at order 64" in err

    @pytest.mark.parametrize("k", ("-1", "9"))
    def test_gap_out_of_range(self, capsys, k):
        code, out, err = run(capsys, "construct", "--op", "gap-k", "--k", k)
        assert (code, out, err) == (1, "", "error: gap is capped to 0..8\n")

    def test_verification_failure_exits_2(self, capsys, monkeypatch):
        from rainbowroman.domination import VerificationError

        def boom(k):
            raise VerificationError("gap instance check failed")

        monkeypatch.setattr(constructions, "gap_instance", boom)
        code, out, err = run(capsys, "construct", "--op", "gap-k", "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("inconsistency:")

    def test_wrong_gap_exits_2(self, capsys, monkeypatch):
        # gap_instance's own check fails: gamma_roman reports one too many
        def one_too_many(g, real=constructions.gamma_roman):
            result = real(g)
            return result._replace(value=result.value + 1)

        monkeypatch.setattr(constructions, "gamma_roman", one_too_many)
        for k in ("0", "2"):
            code, out, err = run(capsys, "construct", "--op", "gap-k", "--k", k)
            assert code == 2 and out == ""
            assert err.startswith("inconsistency:")


class TestScan:
    def test_jsonl_matches_library(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-order", "3")
        assert code == 0
        assert out == scan(3).to_jsonl()

    def test_csv_matches_library(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-order", "3",
                           "--sample", "5,10,3", "--format", "csv")
        assert code == 0
        assert out == scan(3, sample=(5, 10, 3)).to_csv()

    def test_bad_sample_spec(self, capsys):
        for spec in ("5,10", "5,x,3"):
            code, _, err = run(capsys, "scan", "--max-order", "3", "--sample", spec)
            assert code == 1 and "error: --sample expects ORDER,COUNT,SEED" in err, spec

    def test_order_cap(self, capsys):
        code, _, err = run(capsys, "scan", "--max-order", "9")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("spec", [
        "10,100000000,1", f"10,{catalog.SAMPLE_COUNT_CAP + 1},1", "10,-1,1",
        "11,5,1", "-1,5,1",
    ])
    def test_sample_caps_checked_first(self, capsys, monkeypatch, spec):
        def enumerated(*args, **kwargs):
            raise AssertionError("enumeration started before the cap check")

        monkeypatch.setattr(catalog, "enumerate_graphs", enumerated)
        monkeypatch.setattr(catalog, "random_graphs", enumerated)
        code, out, err = run(capsys, "scan", "--max-order", "6", f"--sample={spec}")
        assert code == 1 and out == "" and "capped" in err

    def test_runs_without_numpy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        script = ("import sys\n"
                  "sys.modules['numpy'] = None\n"
                  f"sys.path.insert(0, {src!r})\n"
                  "from rainbowroman.cli import main\n"
                  "raise SystemExit(main(['scan', '--max-order', '5']))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestUsageAndErrors:
    @pytest.mark.parametrize("argv", [
        (),
        ("solve",),
        ("solve", "nope.el", "--param", "bogus"),
        ("frobnicate",),
        ("convert", "x.el", "1,0", "--direction", "sideways"),
    ])
    def test_usage_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as event:
            cli.main(list(argv))
        assert event.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", "/nonexistent/g.el")
        assert code == 1 and out == "" and "error:" in err

    def test_bad_edge_list(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 0\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1 and "self-loop" in err

    @pytest.mark.parametrize("argv", [
        ("solve",),
        ("convert", "1", "--direction", "roman-to-r2"),
    ])
    def test_huge_header_order(self, capsys, tmp_path, argv):
        huge = tmp_path / "huge.el"
        huge.write_text("1000000 0\n")
        code, out, err = run(capsys, argv[0], str(huge), *argv[1:])
        assert code == 1 and out == ""
        assert "line 1: edge lists are capped at order 64" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as event:
            cli.main(["--help"])
        assert event.value.code == 0
        assert "solve" in capsys.readouterr().out


class TestInstalledScript:
    @pytest.mark.skipif(shutil.which("rainbowroman") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["rainbowroman", "solve", C4],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"gamma_r2":2,"gamma_R":3}\n'

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "rainbowroman.cli",
                               "recognize", P5, "--family", "theorem2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"free":false,"witness":"P5"}\n'

    def test_module_invocation_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "rainbowroman.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
