"""Exact solvers against the brute-force oracles and the known values."""

from __future__ import annotations

import itertools
import math
import sys
import time

import pytest

from rainbowroman import domination
from rainbowroman.catalog import enumerate_graphs
from rainbowroman.constructions import add_c4, star_link
from rainbowroman.domination import (ALL_MIN_ORDER_CAP, RainbowAssignment,
                                     RomanAssignment, all_min_2rdf,
                                     format_rainbow, format_roman, gamma_r2,
                                     gamma_roman, is_2rainbow_dominating,
                                     is_roman_dominating, parse_rainbow,
                                     parse_roman)
from rainbowroman.graph import (MAX_ORDER, complete_graph, components,
                                connected, cycle_graph, disjoint_union,
                                empty_graph, from_edge_mask, graph_from_edges,
                                induced_subgraph, path_graph, relabel,
                                star_graph)
from rainbowroman.reduction import build_reduction, random_formula
from rainbowroman.rng import SplitMix64

from oracles import (PRODUCT_CHECK_ORDER_CAP, RAINBOW_BRANCH_ORDER,
                     ROMAN_BRANCH_ORDER, completes_brute, first_optimum,
                     gamma_r2_product_check, gamma_roman_subsets, mask_of,
                     minimise_descending, minimise_unsplit, naive_gamma_r2,
                     naive_gamma_roman, naive_min_2rdfs,
                     prism_bound_unbudgeted, rainbow_valid, rainbow_weight,
                     ratio_bound_exact, roman_valid, search_by_mask)
from test_reduction import GADGET_FORMULAS

TABLES = {"rainbow": (domination._RAINBOW_LABELS, gamma_r2),
          "roman": (domination._ROMAN_LABELS, gamma_roman)}


def all_labeled(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(
            n, (pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def random_graph(rng, n):
    return from_edge_mask(n, rng.next_bits(n * (n - 1) // 2))


def random_permutation(rng, n):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def gap_graph(k):
    """``constructions.gap_instance(k)`` without its re-solve: k C4s on a star link."""
    g = complete_graph(1)
    for _ in range(k):
        g = add_c4(g)
    return star_link(g) if k else g


def density_graphs(rng, count, orders):
    """``count`` graphs at each edge density 15%, 30% and 50%, cycling through ``orders``."""
    for percent in (15, 30, 50):
        for i in range(count):
            n = orders[i % len(orders)]
            yield graph_from_edges(n, (p for p in itertools.combinations(range(n), 2)
                                       if rng.next_below(100) < percent))


class TestAssignments:
    def test_weights(self):
        assert RainbowAssignment((0, 1, 2, 3)).weight() == 4
        assert RomanAssignment((0, 1, 2)).weight() == 3

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            RainbowAssignment((4,))
        with pytest.raises(ValueError):
            RomanAssignment((3,))

    def test_parse_format_round_trip(self):
        f = parse_rainbow("12, . ,1,2")
        assert f.codes == (3, 0, 1, 2)
        assert format_rainbow(f) == "12,.,1,2"
        g = parse_roman(" 2,0, 1 ")
        assert g.values == (2, 0, 1)
        assert format_roman(g) == "2,0,1"

    def test_witnesses_round_trip_to_order_4(self):
        # order 0 included: its witnesses format as blank text
        for n in range(5):
            for g in all_labeled(n):
                f, h = gamma_r2(g).witness, gamma_roman(g).witness
                assert parse_rainbow(format_rainbow(f)) == f
                assert parse_roman(format_roman(h)) == h

    def test_parse_rejects_bad_tokens(self):
        with pytest.raises(ValueError, match="bad rainbow token"):
            parse_rainbow("1,3")
        with pytest.raises(ValueError, match="bad Roman token"):
            parse_roman("1,12")

    def test_validity_predicates_match_oracle(self):
        g = cycle_graph(4)
        for codes in itertools.product((0, 1, 2, 3), repeat=4):
            assert is_2rainbow_dominating(g, RainbowAssignment(codes)) == \
                rainbow_valid(g, codes)
        for values in itertools.product((0, 1, 2), repeat=4):
            assert is_roman_dominating(g, RomanAssignment(values)) == \
                roman_valid(g, values)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            is_2rainbow_dominating(cycle_graph(4), RainbowAssignment((1,)))


class TestKnownValues:
    # frozen from the naive enumerators; the classic small cases
    @pytest.mark.parametrize("g,r2,roman", [
        (complete_graph(1), 1, 1),
        (empty_graph(2), 2, 2),
        (cycle_graph(4), 2, 3),
        (path_graph(5), 3, 4),
        (cycle_graph(5), 3, 4),
        (complete_graph(2), 2, 2),
        (empty_graph(0), 0, 0),
        (path_graph(2), 2, 2),
        (cycle_graph(6), 4, 4),
    ])
    def test_pairs(self, g, r2, roman):
        assert gamma_r2(g).value == r2
        assert gamma_roman(g).value == roman
        if g.order <= 5:
            assert naive_gamma_r2(g) == r2
            assert naive_gamma_roman(g) == roman


class TestSolverAgreement:
    def test_exhaustive_to_order_4(self):
        for n in range(0, 5):
            for g in all_labeled(n):
                res = gamma_r2(g)
                assert res.value == naive_gamma_r2(g)
                assert is_2rainbow_dominating(g, res.witness)
                assert res.witness.weight() == res.value
                rom = gamma_roman(g)
                assert rom.value == naive_gamma_roman(g)
                assert is_roman_dominating(g, rom.witness)
                assert rom.witness.weight() == rom.value

    def test_random_orders_5_to_7(self):
        rng = SplitMix64(555)
        for n in (5, 6, 7):
            for _ in range(12 if n < 7 else 4):
                g = random_graph(rng, n)
                assert gamma_r2(g).value == naive_gamma_r2(g)
                assert gamma_roman(g).value == naive_gamma_roman(g)

    def test_value_is_relabeling_invariant(self):
        rng = SplitMix64(77)
        for n in range(1, 7):
            g = random_graph(rng, n)
            h = relabel(g, random_permutation(rng, n))
            assert gamma_r2(g).value == gamma_r2(h).value
            assert gamma_roman(g).value == gamma_roman(h).value

    def test_witness_is_first_optimum_in_branch_order(self):
        for n in range(0, 6):
            for g in all_labeled(n):
                assert gamma_r2(g).witness.codes == first_optimum(
                    g, RAINBOW_BRANCH_ORDER, rainbow_weight, rainbow_valid)
                assert gamma_roman(g).witness.values == first_optimum(
                    g, ROMAN_BRANCH_ORDER, sum, roman_valid)

    def test_witness_is_deterministic(self):
        rng = SplitMix64(99)
        for n in range(1, 8):
            g = random_graph(rng, n)
            assert gamma_r2(g).witness == gamma_r2(g).witness
            assert gamma_roman(g).witness == gamma_roman(g).witness

    def test_prism_product_check_agrees(self):
        for n in range(0, 5):
            for g in all_labeled(n):
                assert gamma_r2_product_check(g) == gamma_r2(g).value
        rng = SplitMix64(13)
        for n in (5, 6, 7):
            for _ in range(6):
                g = random_graph(rng, n)
                assert gamma_r2_product_check(g) == gamma_r2(g).value

    def test_sandwich_on_random_graphs(self):
        rng = SplitMix64(321)
        for n in range(1, 9):
            for _ in range(10):
                g = random_graph(rng, n)
                r2 = gamma_r2(g).value
                roman = gamma_roman(g).value
                assert r2 <= roman <= 3 * r2 // 2


class TestRomanOracle:
    @staticmethod
    def graphs():
        for k in range(5):
            g = complete_graph(1)
            for _ in range(k):
                g = add_c4(g)
            yield star_link(g) if k else g
        rng = SplitMix64(2004)
        for n in range(20, 25):
            for _ in range(3):
                yield relabel(cycle_graph(n), random_permutation(rng, n))
        pairs = {n: list(itertools.combinations(range(n), 2)) for n in range(10, 21)}
        for percent in (15, 30, 50):
            for i in range(20):
                n = 10 + i % 11
                yield graph_from_edges(n, (p for p in pairs[n]
                                           if rng.next_below(100) < percent))

    def test_kernel_matches_subset_enumerator(self):
        for g in self.graphs():
            res = gamma_roman(g)
            assert res.value == gamma_roman_subsets(g).value
            assert is_roman_dominating(g, res.witness)
            assert res.witness.weight() == res.value


def relabelled_cycles():
    rng = SplitMix64(2008)
    return [relabel(cycle_graph(n), random_permutation(rng, n)) for n in range(20, 33)]


def classes_to_order_7():
    return [g for n in range(8) for g in enumerate_graphs(n, dedup=True)]


def paths_and_cycles():
    return [path_graph(n) for n in range(1, 65)] + [cycle_graph(n) for n in range(3, 65)]


def gadgets():
    formulas = GADGET_FORMULAS + [random_formula(3, 4, seed=s) for s in (1, 2, 3)]
    return [build_reduction(f).graph for f in formulas]


DESCENDING_CORPORA = {
    "relabelled-cycles": relabelled_cycles,
    "gap-0-to-6": lambda: [gap_graph(k) for k in range(7)],
    "classes-to-order-7": classes_to_order_7,
    "paths-and-cycles": paths_and_cycles,
    "random-10-to-24": lambda: list(density_graphs(SplitMix64(1985), 20, range(10, 25))),
    "gadgets": gadgets,
}


class TestDeepening:
    """The solvers deepen their limit from the search's root bound; the
    descending-incumbent search they replaced is the oracle."""

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("corpus", DESCENDING_CORPORA)
    def test_matches_descending_search(self, corpus, table):
        labels, solve = TABLES[table]
        for g in DESCENDING_CORPORA[corpus]():
            got, want = solve(g), minimise_descending(g, labels)
            assert (got.value, got.witness) == (want.value, want.witness)

    @pytest.mark.parametrize("table", TABLES)
    def test_root_bound_is_admissible(self, table):
        # a root bound above the optimum would be returned as the value
        labels, _ = TABLES[table]
        graphs = classes_to_order_7() + list(density_graphs(SplitMix64(1986), 10, range(8, 21)))
        for g in graphs:
            root, _ = domination._search(g, labels)
            assert root <= minimise_descending(g, labels).value

    # a graph without an edge is solved without a search: each vertex
    # takes code 1
    @pytest.mark.parametrize("g,value,codes", [
        (empty_graph(0), 0, ()),
        (complete_graph(1), 1, (1,)),
        (empty_graph(10), 10, (1,) * 10),
    ], ids=["order-0", "K1", "edgeless-10"])
    @pytest.mark.parametrize("table", TABLES)
    def test_edge_cases(self, g, value, codes, table, monkeypatch):
        def no_search(*args):
            raise AssertionError("a graph without an edge reached the search")

        monkeypatch.setattr(domination, "_search", no_search)
        res = TABLES[table][1](g)
        assert res.value == value
        assert res.witness == (RainbowAssignment(codes) if table == "rainbow"
                               else RomanAssignment(codes))
        assert res.nodes == 0

    @pytest.mark.parametrize("g,ceiling", [
        # the descending search took 2,815, 3,032 and 2,265 nodes
        (path_graph(64), 400),
        (cycle_graph(64), 400),
        (gap_graph(8), 300),
    ], ids=["P64", "C64", "gap-8"])
    def test_rainbow_node_ceilings(self, g, ceiling):
        assert gamma_r2(g).nodes <= ceiling


def squares_paths_and_points():
    """Disjoint unions of up to two each of C4, P3 and K1, the parts in a
    seeded order and the vertices relabelled."""
    rng = SplitMix64(2010)
    parts = {"C4": cycle_graph(4), "P3": path_graph(3), "K1": complete_graph(1)}
    out = []
    for counts in itertools.product(range(3), repeat=3):
        pool = [h for h, count in zip(parts.values(), counts) for _ in range(count)]
        g = empty_graph(0)
        while pool:
            g = disjoint_union(g, pool.pop(rng.next_below(len(pool))))
        out.append(relabel(g, random_permutation(rng, g.order)))
    return out


def sparse_8_to_16():
    rng = SplitMix64(2011)
    out = []
    for i in range(300):
        n = 8 + i % 9
        out.append(graph_from_edges(n, (p for p in itertools.combinations(range(n), 2)
                                        if rng.next_below(100) < 15)))
    return out


SPLIT_CORPORA = {
    "disconnected-classes-to-order-7":
        lambda: [g for g in classes_to_order_7() if not connected(g)],
    "squares-paths-and-points": squares_paths_and_points,
    "sparse-8-to-16": sparse_8_to_16,
}


def edged_parts(g):
    return [part for part in components(g) if part & (part - 1)]


class TestComponents:
    """The solvers search each component that holds an edge on its own and
    give each isolated vertex code 1; the whole-graph deepening they
    replaced is the oracle."""

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("corpus", SPLIT_CORPORA)
    def test_matches_unsplit_search(self, corpus, table):
        labels, solve = TABLES[table]
        for g in SPLIT_CORPORA[corpus]():
            got, want = solve(g), minimise_unsplit(g, labels)
            assert (got.value, got.witness) == (want.value, want.witness)
            assert got.nodes == sum(minimise_unsplit(induced_subgraph(g, part), labels).nodes
                                    for part in edged_parts(g))

    @pytest.mark.parametrize("table", TABLES)
    def test_connected_graphs_keep_their_whole_result(self, table):
        # K1, connected but without an edge, is not searched: see test_edge_cases
        labels, solve = TABLES[table]
        for g in classes_to_order_7() + sparse_8_to_16():
            if connected(g) and g.order > 1:
                assert solve(g) == minimise_unsplit(g, labels)

    def test_unions_of_squares_up_to_order_64(self):
        # the whole-graph search grew about 4x per square: 10 squares took 30 s
        start = time.perf_counter()
        g = empty_graph(0)
        for t in range(1, 17):
            g = add_c4(g)
            r2, roman = gamma_r2(g), gamma_roman(g)
            assert (r2.value, roman.value) == (2 * t, 3 * t)
            assert is_2rainbow_dominating(g, r2.witness)
            assert r2.witness.weight() == 2 * t
            assert is_roman_dominating(g, roman.witness)
            assert roman.witness.weight() == 3 * t
        assert g.order == 64
        assert time.perf_counter() - start < 2


def deepening_passes(search, g, labels):
    """The root bound, the nodes of each deepening pass and the first leaf's
    codes, running ``search``'s ``(root, run)`` at limits root, root + 1, ..."""
    root, run = search(g, labels)
    found = []

    def leaf(codes, weight):
        found.append(tuple(codes))
        return -1

    limit = root
    counts = [run(limit, leaf)]
    while not found:
        limit += 1
        counts.append(run(limit, leaf))
    return root, counts, found[0]


MASK_CORPORA = {
    "classes-to-order-7": classes_to_order_7,
    "sparse-8-to-16": sparse_8_to_16,
    "random-8-to-20": lambda: list(density_graphs(SplitMix64(1986), 10, range(8, 21))),
    "P64-and-C64": lambda: [path_graph(64), cycle_graph(64)],
    "gap-0-to-6": lambda: [gap_graph(k) for k in range(7)],
    "dense-28-to-30": lambda: [random_graph(SplitMix64(seed), n)
                               for seed, n in ((1, 28), (2, 29), (3, 30))],
}

UNREACHABLE = 1 << 20


def bound_corpus():
    # a child with 3 or fewer units left is finished without a ranking; the
    # last two graphs, G(24, 0.15), have many children with 4 or more, which
    # reuse theirs
    return (classes_to_order_7()
            + list(density_graphs(SplitMix64(1987), 4, range(8, 16)))
            + list(density_graphs(SplitMix64(1988), 2, range(16, 21)))
            + [gap_graph(k) for k in range(4)] + [path_graph(12), cycle_graph(13)]
            + [next(density_graphs(SplitMix64(seed), 1, [24])) for seed in (1, 3)])


@pytest.fixture(scope="module")
def bound_calls():
    """Every bound the solvers take on ``bound_corpus()``, as ``(arguments,
    result, optimum)`` per bound name.

    The search takes each ratio bound as a ``_sweep`` of a ranking: one that
    ``_rank`` has just made, or, at a child that leaves its vertex empty,
    the one its parent was given.  Each sweep is recorded under ``"_sweep"``
    as ``(offers[(depth + 1) * k:], demand, budget)``, the offers a fresh
    ranking would read, or the whole table and 4n at the root.  ``offers``,
    ``depth``, ``k`` and ``budget`` are read from the calling frame of
    ``_search``.  The sweeps of a parent's ranking are recorded under
    ``"reused"`` too."""
    calls = {"_prism_bound": [], "_sweep": [], "reused": []}
    current = {name: [] for name in calls}
    fresh = []

    def prism(*args, bound=domination._prism_bound):
        result = bound(*args)
        current["_prism_bound"].append((args, result))
        return result

    def rank(*args, real=domination._rank):
        fresh[:] = [real(*args)]
        return fresh[0]

    def sweep(ranked, demand, start=0, real=domination._sweep):
        result = real(ranked, demand, start)
        caller = sys._getframe(1).f_locals
        offers = caller["offers"]
        if "depth" in caller:
            offers = offers[(caller["depth"] + 1) * caller["k"]:]
        record = (offers, demand, caller.get("budget", 4 * caller["n"]))
        current["_sweep"].append((record, result))
        if not (fresh and ranked is fresh[0]):
            current["reused"].append((record, result))
        fresh.clear()
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domination, "_prism_bound", prism)
        patch.setattr(domination, "_rank", rank)
        patch.setattr(domination, "_sweep", sweep)
        for g in bound_corpus():
            for _, solve in TABLES.values():
                value = solve(g).value
                for name, made in current.items():
                    calls[name] += [(args, result, value) for args, result in made]
                    made.clear()
    return calls


def over(result, budget):
    return result is None or result > budget


def fresh_sweep(offers, demand):
    return domination._sweep(domination._rank(offers, demand), demand)


def assert_sweeps_exact(calls):
    """Each recorded sweep equals a fresh ranking's sweep and the exact
    oracle, ``math.inf`` where some demand has no supplier."""
    assert len(calls) > 1000
    assert sum(result > budget for (_, _, budget), result, _ in calls) > 100
    for (offers, demand, _), result, _ in calls:
        want = ratio_bound_exact(offers, demand)
        assert result == fresh_sweep(offers, demand)
        assert result == (math.inf if want is None else want)


class TestOfferTable:
    """The ratio bound reads a flat per-depth offer table and the packing
    count stops at a budget; the search that walked the undecided mask, with
    no budget, is the oracle."""

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("corpus", MASK_CORPORA)
    def test_matches_mask_walking_search(self, corpus, table):
        labels, _ = TABLES[table]
        for g in MASK_CORPORA[corpus]():
            assert (deepening_passes(domination._search, g, labels)
                    == deepening_passes(search_by_mask, g, labels))

    @pytest.mark.parametrize("table", TABLES)
    def test_empty_label_is_last(self, table):
        # a child that places label i on its vertex reads that vertex's offer i
        codes = [code for code, _, _ in TABLES[table][0]]
        assert codes.index(0) == len(codes) - 1

    def test_ratio_bound_is_exact(self, bound_calls):
        assert_sweeps_exact(bound_calls["_sweep"])

    def test_reused_ranking_sweeps_like_a_fresh_one(self, bound_calls):
        # a child that leaves its vertex empty keeps its parent's demand and
        # sweeps its parent's ranking past its own vertex's offers
        assert_sweeps_exact(bound_calls["reused"])

    def test_budget_changes_only_results_that_cut(self, bound_calls):
        calls = bound_calls["_prism_bound"]
        assert sum(over(result, args[-1]) for args, result, _ in calls) > 100
        for args, _, value in calls:
            rest = args[:-1]
            full = prism_bound_unbudgeted(*rest)
            for budget in range(max(value, full or 0) + 2):
                got = domination._prism_bound(*rest, budget)
                assert over(got, budget) == over(full, budget)
                if not over(full, budget):
                    assert got == full

    @pytest.mark.parametrize("budget", [0, UNREACHABLE])
    def test_hopeless_state_is_cut(self, budget):
        # P3 = 0 - 1 - 2 with 0 empty, 1 = {1} and 2 undecided: vertex 0
        # still misses color 2 and has no undecided neighbour
        n = 3
        adj = path_graph(3).adjacency
        rung = [(1 << v) | (1 << (n + v)) for v in range(n)]
        scan = [(1 << v, 1 << (n + v), rung[v], adj[v]) for v in (0, 2, 1)]
        row = adj[2]  # the offers of vertex 2: {1, 2}, {1} and {2}
        offers = [(2, rung[2] | row | row << n, 0), (1, rung[2] | row, 1),
                  (1, rung[2] | row << n, 2)]
        demand = 1 << n | 1 << (n + 2)
        prism = domination._prism_bound(n, scan, demand, 1 << 2, budget)
        assert over(prism, budget)
        assert fresh_sweep(offers, demand) == math.inf
        if budget == UNREACHABLE:
            assert prism == UNREACHABLE + 1


def finisher_for(g, labels, order):
    """``domination._finisher`` for ``g`` with the offer table in vertex
    order ``order``, and the demand bits ``reach[v, shows]`` that a label
    showing colors ``shows`` meets when placed on v."""
    n = g.order
    placed = [(weight, shows) for code, weight, shows in labels if code]
    reach = {(v, shows): 1 << v | 1 << (n + v) | (g.adjacency[v] if shows & 1 else 0)
             | (g.adjacency[v] << n if shows & 2 else 0)
             for v in range(n) for _, shows in placed}
    offers = [(weight, reach[v, shows], d * len(placed) + i) for d, v in enumerate(order)
              for i, (weight, shows) in enumerate(placed)]
    pivots = [1 << v | 1 << (n + v)
              for v in sorted(range(n), key=lambda v: g.adjacency[v].bit_count())]
    return domination._finisher(n, offers, pivots), reach


def finish_states(labels):
    """Inputs of ``domination._finisher``, as ``(g, completes, start,
    undecided, demand)``: one made by hand, then seeded random ones on
    graphs of order 4-10.

    The hand-made one, on 0 - 1 and 3 - 2 - 4, is completed within 3
    units only by a weight-1 label on 0 or 1, which meets the pivot (0, 1)
    and leaves 2 units, and the weight-2 label on 2, which meets the
    demands of 3 and 4, both colors; so skipping a rest with two demands
    of each color at 2 units left gets it wrong.

    For the random ones the vertices take a random order, which the offer
    table follows, k triples per vertex (see :func:`finisher_for`).  At
    each depth d the first d + 1 vertices take random labels, and the
    demand is what they leave unmet, or, every other time, a random part
    of it; ``start`` is (d + 1) * k."""
    g = graph_from_edges(5, [(0, 1), (2, 3), (2, 4)])
    completes, _ = finisher_for(g, labels, range(5))
    yield g, completes, 0, (1 << 5) - 1, 1 << 0 | (1 << 3 | 1 << 4) * (1 | 1 << 5)
    rng = SplitMix64(2020)
    k = len(labels) - 1
    for g in density_graphs(SplitMix64(2021), 150, range(4, 11)):
        n = g.order
        order = random_permutation(rng, n)
        completes, reach = finisher_for(g, labels, order)
        for depth in range(n):
            met = 0
            for v in order[:depth + 1]:
                code, _, shows = labels[rng.next_below(len(labels))]
                if code:
                    met |= reach[v, shows]
            demand = ((1 << 2 * n) - 1) & ~met
            if depth % 2:
                demand &= rng.next_bits(2 * n)
            if demand:
                yield g, completes, (depth + 1) * k, mask_of(order[depth + 1:]), demand


def two_of_each_color(demand, n):
    ones, twos = demand & ((1 << n) - 1), demand >> n
    return ones.bit_count() >= 2 and twos.bit_count() >= 2


class TestFinish:
    """A branch with at most 3 units of weight left is ended by an exact
    test; trying every set of placements within the budget is the oracle."""

    @pytest.mark.parametrize("table", TABLES)
    def test_matches_brute_force(self, table):
        labels, _ = TABLES[table]
        seen = {}
        for g, completes, start, undecided, demand in finish_states(labels):
            for budget in range(4):
                got = completes(demand, start, budget)
                assert got == completes_brute(g, labels, undecided, demand, budget)
                key = (budget, got, two_of_each_color(demand, g.order))
                seen[key] = seen.get(key, 0) + 1
        assert sum(seen.values()) > 4000
        # both answers at budgets 1 to 3, and the color rule's states at 2 and 3
        for budget in (1, 2, 3):
            assert seen.get((budget, True, False)) and seen.get((budget, False, False))
        for budget in (2, 3):
            assert seen.get((budget, True, True)) and seen.get((budget, False, True))

    @pytest.mark.parametrize("table,total", [("rainbow", 354), ("roman", 1310)])
    def test_dense_node_totals(self, table, total):
        # every child with at most 3 units left is finished; finishing only
        # those with at most 2 took 2,193 and 1,754 nodes
        solve = TABLES[table][1]
        assert sum(solve(g).nodes for g in MASK_CORPORA["dense-28-to-30"]()) == total

    def test_labels_show_no_more_colors_than_they_weigh(self):
        # the finish skips a weight-1 offer that leaves two demands of each color
        for labels in (domination._RAINBOW_LABELS, domination._ROMAN_LABELS):
            for _, weight, shows in labels:
                assert weight >= shows.bit_count()


class TestAllMin:
    def test_matches_naive_enumeration_to_order_4(self):
        for n in range(0, 5):
            for g in all_labeled(n):
                got = [f.codes for f in all_min_2rdf(g)]
                assert got == naive_min_2rdfs(g)

    def test_lex_order_and_validity_order_5_classes(self):
        rng = SplitMix64(17)
        for _ in range(10):
            g = random_graph(rng, 5)
            fns = all_min_2rdf(g)
            target = gamma_r2(g).value
            codes = [f.codes for f in fns]
            assert codes == sorted(codes)
            for f in fns:
                assert f.weight() == target
                assert is_2rainbow_dominating(g, f)

    def test_empty_graph(self):
        fns = all_min_2rdf(empty_graph(0))
        assert [f.codes for f in fns] == [()]


class TestCaps:
    def test_solver_cap(self):
        with pytest.raises(ValueError, match="capped"):
            gamma_r2(empty_graph(MAX_ORDER + 1))
        with pytest.raises(ValueError, match="capped"):
            gamma_roman(empty_graph(MAX_ORDER + 1))

    def test_all_min_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="capped"):
            all_min_2rdf(empty_graph(ALL_MIN_ORDER_CAP + 1))
        # the walk checks the cap itself, so a raised cap reaches it
        star = star_graph(ALL_MIN_ORDER_CAP)
        with pytest.raises(ValueError, match="capped at order 16"):
            domination._each_min_2rdf(star, 2, lambda codes, copies: None)
        monkeypatch.setattr(domination, "ALL_MIN_ORDER_CAP", ALL_MIN_ORDER_CAP + 1)
        only = (3,) + (0,) * ALL_MIN_ORDER_CAP
        assert [f.codes for f in all_min_2rdf(star)] == [only]

    def test_product_check_cap(self):
        with pytest.raises(ValueError, match="capped"):
            gamma_r2_product_check(empty_graph(PRODUCT_CHECK_ORDER_CAP + 1))

    @pytest.mark.parametrize("n", [*range(3, 31), 40, 48, 56, 63, 64])
    def test_large_sparse_graph_is_fine(self, n):
        # Bresar and Kraner Sumenjak (2007) for the rainbow values;
        # Cockayne et al., Discrete Math. 278 (2004) for the Roman ones
        roman = -(-2 * n // 3)
        for g, r2 in ((path_graph(n), n // 2 + 1),
                      (cycle_graph(n), n // 2 + -(-n // 4) - n // 4)):
            res = gamma_r2(g)
            assert res.value == r2
            assert is_2rainbow_dominating(g, res.witness)
            assert res.witness.weight() == r2
            res = gamma_roman(g)
            assert res.value == roman
            assert is_roman_dominating(g, res.witness)
            assert res.witness.weight() == roman
