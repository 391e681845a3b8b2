"""The satisfiability gadget: structure, parameters, and extraction."""

from __future__ import annotations

import itertools

import pytest

from rainbowroman.domination import (RainbowAssignment, RomanAssignment,
                                     gamma_roman, is_2rainbow_dominating,
                                     is_roman_dominating)
from rainbowroman.graph import (connected, is_k4_free, parse_edge_list,
                                serialize_edge_list)
from rainbowroman.reduction import (SAT_BRUTE_FORCE_CAP, CnfFormula,
                                    DimacsError, build_reduction,
                                    extract_assignment, format_dimacs,
                                    parse_dimacs, random_formula,
                                    sat_brute_force, verify_reduction)

from oracles import naive_sat

UNSAT1 = CnfFormula(1, ((1,), (-1,)))
SAT1 = CnfFormula(1, ((1,), (1,)))


class TestCnfFormula:
    def test_dedup_and_validation(self):
        f = CnfFormula(2, ((1, 1, 2), (-2, -2, -2)))
        assert f.clauses == ((1, 2), (-2,))
        assert f.num_clauses == 2

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least one variable"):
            CnfFormula(0, ())
        with pytest.raises(ValueError, match="empty clause"):
            CnfFormula(1, ((),))
        with pytest.raises(ValueError, match="more than three"):
            CnfFormula(4, ((1, 2, 3, 4),))
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula(1, ((2,),))
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula(1, ((0,),))
        with pytest.raises(ValueError, match="tautological"):
            CnfFormula(1, ((1, -1),))


class TestDimacs:
    def test_round_trip(self):
        f = CnfFormula(3, ((1, -2, 3), (-1, 2), (3,)))
        assert parse_dimacs(format_dimacs(f)) == f

    def test_comments_and_multiline_clauses(self):
        text = "c header comment\np cnf 2 2\n1 -2 0 2\n0\n"
        f = parse_dimacs(text)
        assert f.clauses == ((1, -2), (2,))

    @pytest.mark.parametrize("text,pattern", [
        ("1 0\n", "clause before"),
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate header"),
        ("p dnf 1 1\n1 0\n", "header must be"),
        ("p cnf one 1\n1 0\n", "header must be"),
        ("p cnf 1 1\nx 0\n", "bad literal"),
        ("c empty\n", "missing 'p cnf' header"),
        ("p cnf 1 1\n1\n", "not 0-terminated"),
        ("p cnf 1 2\n1 0\n", "announces 2 clauses but 1"),
        ("p cnf 1 1\n0\n", "empty clause"),
        ("p cnf 1 1\n1 -1 0\n", "tautological"),
        ("p cnf 1 1\n2 0\n", "out of range"),
    ])
    def test_errors(self, text, pattern):
        with pytest.raises(DimacsError, match=pattern):
            parse_dimacs(text)

    @pytest.mark.parametrize("header,order", [
        ("p cnf 16 2", 69), ("p cnf 15 2", 65), ("p cnf 1 59", 66),
        ("p cnf 1000000000 1", 4000000004),
    ])
    def test_gadget_order_cap_at_header(self, header, order):
        # the bad clause after the header is never reached
        with pytest.raises(DimacsError,
                           match=f"line 2: the gadget would have order {order}"):
            parse_dimacs(f"c comment\n{header}\nnot a clause\n")

    @pytest.mark.parametrize("header", [
        "p cnf 1000000000 -3999999990", "p cnf 30 -100", "p cnf 0 1", "p cnf -2 3",
    ])
    def test_bad_counts_at_header(self, header):
        # the bad clause after the header is never reached
        with pytest.raises(DimacsError, match="line 2: header needs n >= 1 and m >= 0"):
            parse_dimacs(f"c comment\n{header}\nnot a clause\n")

    def test_largest_gadget_passes(self):
        f = parse_dimacs("p cnf 14 5\n1 0\n2 0\n3 0\n4 0\n5 0\n")
        assert build_reduction(f).graph.order == 64


GADGET_FORMULAS = [
    UNSAT1, SAT1,
    CnfFormula(2, ((1, 2), (-1, 2), (-2,))),
    CnfFormula(3, ((1, 2, 3), (-1, -2, -3))),
    random_formula(4, 6, seed=7),
]


class TestGadgetStructure:
    @pytest.mark.parametrize("f", GADGET_FORMULAS)
    def test_shape(self, f):
        r = build_reduction(f)
        g = r.graph
        n, m = f.num_vars, f.num_clauses
        assert g.order == 4 * n + m + 3
        assert connected(g)
        assert is_k4_free(g)
        assert g.degree(r.v) == 2
        assert g.has_edge(r.u, r.v) and g.has_edge(r.v, r.w)
        assert not g.has_edge(r.u, r.w)
        for j, clause in enumerate(f.clauses):
            cj = r.clause_vertex(j)
            assert g.degree(cj) == len(clause) + 2
            assert g.has_edge(r.u, cj) and g.has_edge(r.w, cj)
            for lit in clause:
                assert g.has_edge(r.literal_vertex(lit), cj)
        for i in range(1, n + 1):
            p, q = r.pos_vertex(i), r.neg_vertex(i)
            f1, f2 = r.filler_vertices(i)
            assert g.has_edge(p, q)
            assert not g.has_edge(f1, f2)
            for d in (p, q):
                assert g.has_edge(d, f1) and g.has_edge(d, f2)
            assert r.literal_vertex(i) == p and r.literal_vertex(-i) == q
        # the accessors lay out diamonds, then clauses, then u, v, w
        layout = [x for i in range(1, n + 1)
                  for x in (r.pos_vertex(i), r.neg_vertex(i), *r.filler_vertices(i))]
        layout += [r.clause_vertex(j) for j in range(m)] + [r.u, r.v, r.w]
        assert layout == list(range(g.order))

    @pytest.mark.parametrize("f", GADGET_FORMULAS + [
        random_formula(3, 5, seed=21), random_formula(14, 5, seed=3)])
    def test_edge_list_round_trip(self, f):
        g = build_reduction(f).graph
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_explicit_rainbow_function_has_weight_2n_plus_2(self):
        # {1} on u and every positive literal, {2} on w and every negative
        for f in (UNSAT1, SAT1, random_formula(3, 5, seed=21),
                  random_formula(4, 6, seed=22)):
            r = build_reduction(f)
            codes = [0] * r.graph.order
            codes[r.u] = 1
            codes[r.w] = 2
            for i in range(1, f.num_vars + 1):
                codes[r.pos_vertex(i)] = 1
                codes[r.neg_vertex(i)] = 2
            witness = RainbowAssignment(tuple(codes))
            assert witness.weight() == 2 * f.num_vars + 2
            assert is_2rainbow_dominating(r.graph, witness)

    def test_needs_two_clauses(self):
        with pytest.raises(ValueError, match="at least two clauses"):
            build_reduction(CnfFormula(1, ((1,),)))

    def test_order_cap(self):
        with pytest.raises(ValueError, match="capped at order 64"):
            build_reduction(CnfFormula(16, ((1, 2, 3), (-1, -2, 16))))


class TestSatBruteForce:
    def test_examples(self):
        assert sat_brute_force(UNSAT1) is None
        assert sat_brute_force(SAT1) == (True,)
        f = CnfFormula(2, ((1, 2), (-1, 2)))
        assert sat_brute_force(f) == (False, True)

    def test_agrees_with_oracle_on_all_small_formulas(self):
        lits1 = (1, -1)
        for c1, c2 in itertools.product(lits1, repeat=2):
            f = CnfFormula(1, ((c1,), (c2,)))
            assert sat_brute_force(f) == naive_sat(1, f.clauses)
        lits2 = [(a,) for a in (1, -1, 2, -2)] + \
            [(a, b) for a in (1, -1) for b in (2, -2)]
        for c1, c2 in itertools.product(lits2, repeat=2):
            f = CnfFormula(2, (c1, c2))
            assert sat_brute_force(f) == naive_sat(2, f.clauses)

    def test_agrees_on_random_3cnf(self):
        for seed in range(25):
            f = random_formula(4, 6, seed=seed)
            assert sat_brute_force(f) == naive_sat(4, f.clauses)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            sat_brute_force(CnfFormula(SAT_BRUTE_FORCE_CAP + 1, ((1,), (2,))))


class TestVerifyReduction:
    def test_unsat_single_variable(self):
        report = verify_reduction(UNSAT1)
        assert (report.gamma_r2, report.gamma_roman) == (4, 5)
        assert report.gap == 1
        assert not report.satisfiable
        assert report.assignment is None
        assert report.consistent

    def test_sat_single_variable(self):
        report = verify_reduction(SAT1)
        assert (report.gamma_r2, report.gamma_roman) == (4, 4)
        assert report.gap == 0
        assert report.satisfiable
        assert report.assignment == (True,)
        assert report.consistent

    def test_random_formulas_are_consistent(self):
        for seed in (1, 2, 3):
            f = random_formula(3, 4, seed=seed)
            report = verify_reduction(f)
            assert report.consistent
            assert report.gamma_r2 == 2 * f.num_vars + 2
            assert report.gamma_roman - report.gamma_r2 in (0, 1)


class TestExtractAssignment:
    def test_sat_witness_round_trip(self):
        f = CnfFormula(2, ((1, 2), (-1, 2)))
        r = build_reduction(f)
        roman = gamma_roman(r.graph)
        assert roman.value == 2 * f.num_vars + 2
        assignment = extract_assignment(r, roman.witness)
        for clause in f.clauses:
            assert any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)

    def test_rejects_wrong_weight(self):
        r = build_reduction(SAT1)
        heavy = RomanAssignment((2,) * r.graph.order)
        assert is_roman_dominating(r.graph, heavy)
        with pytest.raises(ValueError, match="weight 4"):
            extract_assignment(r, heavy)

    def test_rejects_non_dominating(self):
        r = build_reduction(SAT1)
        with pytest.raises(ValueError, match="not a Roman dominating"):
            extract_assignment(r, RomanAssignment((0,) * r.graph.order))


class TestRandomFormula:
    def test_deterministic_and_well_formed(self):
        f1 = random_formula(4, 6, seed=99)
        f2 = random_formula(4, 6, seed=99)
        assert f1 == f2
        assert f1.num_clauses == 6
        for clause in f1.clauses:
            assert len(clause) == 3
            assert len({abs(lit) for lit in clause}) == 3

    def test_clause_size_bound(self):
        with pytest.raises(ValueError, match="clause size"):
            random_formula(2, 3, seed=0)
        f = random_formula(2, 3, seed=0, clause_size=2)
        assert all(len(c) == 2 for c in f.clauses)
