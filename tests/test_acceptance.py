"""End-to-end acceptance run: nine criteria, one verdict line each.

Each test prints `CRITERION k PASS|FAIL - ...` straight to the terminal
(bypassing capture) and then asserts, so a full `pytest` run always
shows the nine verdicts in order.
"""

from __future__ import annotations

import pytest

from rainbowroman.catalog import enumerate_graphs, random_graphs, scan
from rainbowroman.constructions import add_c4, gap_instance, star_link
from rainbowroman.domination import (gamma_r2, gamma_roman,
                                     is_2rainbow_dominating,
                                     is_roman_dominating, rainbow_to_roman,
                                     roman_to_rainbow)
from rainbowroman.graph import (complete_graph, connected, cycle_graph,
                                empty_graph, from_edge_mask, is_k4_free,
                                path_graph)
from rainbowroman.hereditary import (EQUALITY_FAMILY, THREE_HALVES_FAMILY,
                                     hereditary_equality_direct,
                                     hereditary_three_halves_direct, is_free,
                                     solve_both_cached)
from rainbowroman.reduction import (CnfFormula, build_reduction,
                                    random_formula, verify_reduction)
from rainbowroman.rng import SplitMix64
from rainbowroman.structure import audit_summary

from oracles import (naive_gamma_r2, naive_gamma_roman, naive_sat,
                     rainbow_valid, roman_valid)

SAMPLE8 = (8, 10000, 808)
SAMPLE7 = (7, 5000, 707)


def _verdict(capsys, num, label, violations, detail):
    ok = not violations
    with capsys.disabled():
        print(f"CRITERION {num} {'PASS' if ok else 'FAIL'} - {label}: {detail}")
    assert ok, f"criterion {num}: first violations {violations[:5]}"


@pytest.fixture(scope="module")
def labeled_corpus():
    """(graph, rainbow solve, Roman solve) for every labeled graph of
    order <= 6."""
    corpus = []
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            r2, roman = solve_both_cached(g)
            corpus.append((g, r2, roman))
    return corpus


@pytest.fixture(scope="module")
def sample8_corpus():
    corpus = []
    for g in random_graphs(*SAMPLE8[:2], seed=SAMPLE8[2]):
        r2, roman = solve_both_cached(g)
        corpus.append((g, r2, roman))
    return corpus


@pytest.fixture(scope="module")
def sample7_corpus():
    corpus = []
    for g in random_graphs(*SAMPLE7[:2], seed=SAMPLE7[2]):
        r2, roman = solve_both_cached(g)
        corpus.append((g, r2, roman))
    return corpus


def test_criterion_1_sandwich_bounds(capsys, labeled_corpus, sample8_corpus):
    violations = []
    for g, r2, roman in labeled_corpus + sample8_corpus:
        if not r2.value <= roman.value <= (3 * r2.value) // 2:
            violations.append((g, r2.value, roman.value))
    total = len(labeled_corpus) + len(sample8_corpus)
    _verdict(capsys, 1, "sandwich bounds",
             violations,
             f"gamma_r2 <= gamma_R <= floor(3*gamma_r2/2) on "
             f"{len(labeled_corpus)} labeled graphs of order <= 6 "
             f"and {len(sample8_corpus)} random graphs of order 8 "
             f"({total} total, {len(violations)} violations)")


def test_criterion_2_conversions(capsys, labeled_corpus, sample8_corpus):
    violations = []
    for g, r2, roman in labeled_corpus + sample8_corpus:
        rb = roman_to_rainbow(g, roman.witness)
        if not (is_2rainbow_dominating(g, rb)
                and rb.weight() == roman.value):
            violations.append((g, "roman-to-rainbow"))
        rm = rainbow_to_roman(g, r2.witness)
        if not (is_roman_dominating(g, rm)
                and rm.weight() <= (3 * r2.value) // 2):
            violations.append((g, "rainbow-to-roman"))
    total = len(labeled_corpus) + len(sample8_corpus)
    _verdict(capsys, 2, "conversion contracts",
             violations,
             f"both directions checked on {total} graphs "
             f"({len(violations)} violations)")


def test_criterion_3_known_values(capsys):
    cases = [
        ("K1", complete_graph(1), 1, 1),
        ("K2bar", empty_graph(2), 2, 2),
        ("C4", cycle_graph(4), 2, 3),
        ("P5", path_graph(5), 3, 4),
        ("C5", cycle_graph(5), 3, 4),
    ]
    violations = []
    for name, g, want_r2, want_roman in cases:
        got = (gamma_r2(g).value, gamma_roman(g).value)
        naive = (naive_gamma_r2(g), naive_gamma_roman(g))
        if got != (want_r2, want_roman) or naive != got:
            violations.append((name, got, naive))
    _verdict(capsys, 3, "known values",
             violations,
             "(gamma_r2,gamma_R) = K1 (1,1), K2bar (2,2), C4 (2,3), "
             "P5 (3,4), C5 (3,4), all confirmed by naive enumeration")


def _formula_fixture():
    one_var = [
        CnfFormula(1, ((1,), (1,))),
        CnfFormula(1, ((1,), (-1,))),
        CnfFormula(1, ((-1,), (-1,))),
        CnfFormula(1, ((1,), (1,), (1,))),
        CnfFormula(1, ((1,), (1,), (-1,))),
        CnfFormula(1, ((1,), (-1,), (-1,))),
        CnfFormula(1, ((-1,), (-1,), (-1,))),
    ]
    two_var = [
        CnfFormula(2, ((1, 2), (-1, 2))),
        CnfFormula(2, ((1, 2), (-1, 2), (1, -2))),
        CnfFormula(2, ((1,), (-1,), (2,))),
    ]
    randoms = [_covering_formula(3 + i % 2, 2 + i % 5, seed=4000 + i)
               for i in range(40)]
    return one_var + two_var + randoms


def _covering_formula(n, m, seed):
    # connectivity of the gadget needs every variable in some clause
    while True:
        f = random_formula(n, m, seed=seed)
        if len({abs(lit) for c in f.clauses for lit in c}) == n:
            return f
        seed += 100000


def test_criterion_4_reduction_equivalence(capsys):
    formulas = _formula_fixture()
    assert len(formulas) == 50
    violations = []
    for f in formulas:
        n, m = f.num_vars, f.num_clauses
        g = build_reduction(f).graph
        report = verify_reduction(f)
        oracle = naive_sat(n, f.clauses)
        checks = (
            g.order == 4 * n + m + 3
            and connected(g)
            and is_k4_free(g)
            and report.consistent
            and report.gamma_r2 == 2 * n + 2
            and report.gamma_roman in (2 * n + 2, 2 * n + 3)
            and (report.gamma_roman == 2 * n + 2) == (oracle is not None)
            and report.satisfiable == (oracle is not None)
        )
        if checks and report.satisfiable:
            checks = all(
                any(report.assignment[abs(lit) - 1] == (lit > 0)
                    for lit in clause)
                for clause in f.clauses)
        if not checks:
            violations.append((n, f.clauses))
    _verdict(capsys, 4, "reduction equivalence",
             violations,
             f"order 4n+m+3, connected, K4-free, gamma_r2 = 2n+2, "
             f"gap 0 iff satisfiable, extraction satisfies, on "
             f"{len(formulas)} formulas ({len(violations)} inconsistencies)")


def test_criterion_5_equality_characterization(capsys, labeled_corpus):
    violations = []
    for g, r2, roman in labeled_corpus:
        if is_free(g, EQUALITY_FAMILY) != hereditary_equality_direct(g):
            violations.append(g)
    _verdict(capsys, 5, "hereditary equality",
             violations,
             f"direct check agrees with P5/C5/C4-freeness on all "
             f"{len(labeled_corpus)} labeled graphs of order <= 6 "
             f"({len(violations)} mismatches)")


def test_criterion_6_three_halves_characterization(capsys, labeled_corpus):
    violations = []
    for g, r2, roman in labeled_corpus:
        if is_free(g, THREE_HALVES_FAMILY) != \
                hereditary_three_halves_direct(g, 3):
            violations.append(("equivalence", g))
    free_non_complete = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, dedup=True):
            if not is_free(g, THREE_HALVES_FAMILY):
                continue
            if g.edge_count() == n * (n - 1) // 2:
                continue
            free_non_complete += 1
            if gamma_r2(g).value != 2:
                violations.append(("weight", g))
    _verdict(capsys, 6, "hereditary three-halves",
             violations,
             f"direct check at threshold 3 agrees with K3bar/K2+K1-freeness "
             f"on {len(labeled_corpus)} labeled graphs; "
             f"{free_non_complete} non-complete free classes of order <= 7 "
             f"all have gamma_r2 = 2 ({len(violations)} mismatches)")


def test_criterion_7_extremal_audit(capsys, labeled_corpus, sample7_corpus,
                                    sample8_corpus):
    violations = []
    audited = functions = 0
    for g, r2, roman in labeled_corpus + sample7_corpus + sample8_corpus:
        if 2 * roman.value != 3 * r2.value:
            continue
        audited += 1
        count, all_pass = audit_summary(g)
        functions += count
        if not all_pass:
            violations.append(g)
    _verdict(capsys, 7, "extremal structure",
             violations,
             f"{audited} extremal graphs (order <= 6 exhaustive plus "
             f"order-7/8 samples), {functions} minimum functions, "
             f"properties i-v all hold ({len(violations)} failures)")


def test_criterion_8_constructions(capsys):
    violations = []
    rng = SplitMix64(606)
    for _ in range(100):
        n = 1 + rng.next_below(6)
        g = from_edge_mask(n, rng.next_below(1 << (n * (n - 1) // 2)))
        base = (gamma_r2(g).value, gamma_roman(g).value)
        grown = add_c4(g)
        if (gamma_r2(grown).value - base[0],
                gamma_roman(grown).value - base[1]) != (2, 3):
            violations.append(("add-c4", g))
        linked = star_link(g)
        if (gamma_r2(linked).value - base[0],
                gamma_roman(linked).value - base[1]) != (2, 2) \
                or not connected(linked):
            violations.append(("star-link", g))
    for k in range(5):
        g = gap_instance(k)
        if gamma_roman(g).value - gamma_r2(g).value != k \
                or not connected(g) or not is_k4_free(g):
            violations.append(("gap-k", k))
    _verdict(capsys, 8, "gap constructions",
             violations,
             f"add-c4 (+2,+3) and star-link (+2,+2) on 100 seeded graphs "
             f"of order <= 6; gap instances for k = 0..4 "
             f"({len(violations)} failures)")


def test_criterion_9_determinism(capsys):
    violations = []
    first = scan(4, sample=(7, 200, 99))
    second = scan(4, sample=(7, 200, 99))
    if first.to_jsonl() != second.to_jsonl():
        violations.append("jsonl")
    if first.to_csv() != second.to_csv():
        violations.append("csv")
    if scan(3).to_jsonl() != scan(3).to_jsonl():
        violations.append("exhaustive-only")
    _verdict(capsys, 9, "scan determinism",
             violations,
             "repeated scans (order <= 4 plus 200 order-7 samples, and "
             "order <= 3) are byte-identical in JSONL and CSV")
