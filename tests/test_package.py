"""The package namespace: public names resolved on demand, submodules loaded on first use."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowroman

SRC = str(Path(rainbowroman.__file__).resolve().parents[1])

# the public API; loading submodules lazily must neither add nor drop a name
PUBLIC = [
    "CnfFormula", "DimacsError", "EQUALITY_FAMILY", "EdgeListError",
    "GapReport", "Graph", "PRESET_FAMILIES", "RainbowAssignment",
    "ReductionGraph", "ReductionReport", "RomanAssignment", "SolveResult",
    "SplitMix64", "StructureAudit", "THREE_HALVES_FAMILY",
    "VerificationError", "add_c4", "all_min_2rdf", "audit_extremal",
    "audit_function", "audit_summary", "build_reduction", "canonical_form",
    "complete_graph", "components", "connected",
    "cycle_graph", "diamond_graph", "disjoint_union", "empty_graph",
    "enumerate_graphs", "extract_assignment", "find_induced_member",
    "format_dimacs", "format_rainbow", "format_roman", "gamma_r2",
    "gamma_roman", "gap_instance",
    "graph_from_edges", "has_induced", "hereditary_equality_direct",
    "hereditary_three_halves_direct", "induced_subgraph",
    "is_2rainbow_dominating", "is_extremal", "is_free", "is_k4_free",
    "is_roman_dominating", "parse_dimacs", "parse_edge_list",
    "parse_rainbow", "parse_roman", "path_graph", "rainbow_to_roman",
    "random_formula", "random_graphs", "relabel", "roman_to_rainbow",
    "sat_brute_force", "scan", "serialize_edge_list", "star_graph",
    "star_link", "swap_colors", "verify_reduction",
]
# the submodule that defines each public name
HOMES = {
    "catalog": ("GapReport", "enumerate_graphs", "random_graphs", "scan"),
    "constructions": ("add_c4", "gap_instance", "star_link"),
    "domination": ("RainbowAssignment", "RomanAssignment", "SolveResult",
                   "VerificationError", "all_min_2rdf", "format_rainbow",
                   "format_roman", "gamma_r2", "gamma_roman",
                   "is_2rainbow_dominating", "is_roman_dominating",
                   "parse_rainbow", "parse_roman"),
    "graph": ("EdgeListError", "Graph", "canonical_form", "complete_graph",
              "components", "connected", "cycle_graph", "diamond_graph",
              "disjoint_union", "empty_graph", "graph_from_edges",
              "induced_subgraph", "is_k4_free", "parse_edge_list",
              "path_graph", "relabel", "serialize_edge_list", "star_graph"),
    "hereditary": ("EQUALITY_FAMILY", "PRESET_FAMILIES", "THREE_HALVES_FAMILY",
                   "find_induced_member", "has_induced",
                   "hereditary_equality_direct",
                   "hereditary_three_halves_direct", "is_free"),
    "reduction": ("CnfFormula", "DimacsError", "ReductionGraph",
                  "ReductionReport", "build_reduction", "extract_assignment",
                  "format_dimacs", "parse_dimacs", "random_formula",
                  "sat_brute_force", "verify_reduction"),
    "rng": ("SplitMix64",),
    "structure": ("StructureAudit", "audit_extremal", "audit_function",
                  "audit_summary", "is_extremal"),
    "transfer": ("rainbow_to_roman", "roman_to_rainbow", "swap_colors"),
}
# modules that only some commands need
DEFERRED = ("catalog", "constructions", "hereditary", "reduction", "structure",
            "transfer")


def python(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd)


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert len(PUBLIC) == 66
        assert rainbowroman.__all__ == PUBLIC
        assert sorted(n for names in HOMES.values() for n in names) == PUBLIC

    @pytest.mark.parametrize("module", sorted(HOMES))
    def test_names_are_their_homes_objects(self, module):
        home = importlib.import_module(f"rainbowroman.{module}")
        for name in HOMES[module]:
            assert getattr(rainbowroman, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from rainbowroman import *", namespace)
        assert {n: namespace[n] for n in PUBLIC} == \
            {n: getattr(rainbowroman, n) for n in PUBLIC}

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) | set(HOMES) <= set(dir(rainbowroman))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rainbowroman.no_such_name  # noqa: B018
        assert not hasattr(rainbowroman, "_all_min_at")


class TestLazyLoading:
    def test_solve_leaves_other_modules_unexecuted(self, tmp_path):
        graph = tmp_path / "k1.el"
        graph.write_text("1 0\n")
        script = ("import sys, types\n"
                  "import rainbowroman.cli\n"
                  f"code = rainbowroman.cli.main(['solve', {str(graph)!r}])\n"
                  f"for m in {DEFERRED!r}:\n"
                  "    module = sys.modules['rainbowroman.' + m]\n"
                  "    print(m, type(module) is types.ModuleType)\n"
                  "print('exit', code)\n")
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            '{"gamma_r2":1,"gamma_R":1}',
            *(f"{m} False" for m in DEFERRED),
            "exit 0",
        ]

    def test_first_use_executes_a_module(self):
        script = ("import sys, types\n"
                  "import rainbowroman\n"
                  "module = sys.modules['rainbowroman.catalog']\n"
                  "print(type(module) is types.ModuleType)\n"
                  "print(rainbowroman.scan is module.scan)\n"
                  "print(type(module) is types.ModuleType)\n")
        proc = python("-c", script)
        assert (proc.returncode, proc.stdout) == (0, "False\nTrue\nTrue\n"), proc.stderr

    def test_module_run_is_silent_under_warnings_as_errors(self, tmp_path):
        # runpy warns when the package import has already placed the
        # module it is asked to run in sys.modules
        (tmp_path / "k1.el").write_text("1 0\n")
        proc = python("-W", "error", "-m", "rainbowroman.cli", "solve", "k1.el",
                      cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, '{"gamma_r2":1,"gamma_R":1}\n', "")
