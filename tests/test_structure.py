"""Structural audit of graphs with 2*gamma_R == 3*gamma_r2."""

from __future__ import annotations

import pytest

from rainbowroman import structure
from rainbowroman.catalog import enumerate_graphs
from rainbowroman.domination import (RainbowAssignment, all_min_2rdf,
                                     swap_colors)
from rainbowroman.graph import (complete_graph, cycle_graph, disjoint_union,
                                from_edge_mask, path_graph, star_graph)
from rainbowroman.hereditary import solve_both_cached
from rainbowroman.rng import SplitMix64
from rainbowroman.structure import (PROPERTY_KEYS, audit_extremal,
                                    audit_function, audit_summary,
                                    is_extremal)

from oracles import audit_summary_by_listing


class TestIsExtremal:
    @pytest.mark.parametrize("g,expected", [
        (cycle_graph(4), True),
        (disjoint_union(cycle_graph(4), cycle_graph(4)), True),
        (complete_graph(1), False),
        (complete_graph(3), False),
        (path_graph(5), False),
        (cycle_graph(6), False),
    ])
    def test_examples(self, g, expected):
        assert is_extremal(g) == expected


class TestAuditC4:
    def test_four_minimum_functions_all_pass(self):
        audits = audit_extremal(cycle_graph(4))
        assert len(audits) == 4
        assert [a.assignment.codes for a in audits] == [
            (0, 1, 0, 2), (0, 2, 0, 1), (1, 0, 2, 0), (2, 0, 1, 0)]
        for a in audits:
            assert a.all_pass()
            assert 3 not in a.assignment.codes
            for counts in a.private_counts.values():
                assert all(c == 2 for c in counts.values())

    def test_json_shape(self):
        d = audit_extremal(cycle_graph(4))[2].to_json_dict()
        assert d == {
            "assignment": "1,.,2,.",
            "properties": {"i": True, "ii": True, "iii": True,
                           "iv": True, "v": True},
            "private_counts": {"1": {"0": 2}, "2": {"2": 2}},
        }

    def test_disjoint_pair_of_squares(self):
        audits = audit_extremal(disjoint_union(cycle_graph(4), cycle_graph(4)))
        assert len(audits) == 16
        assert all(a.all_pass() for a in audits)


class TestAuditFunction:
    def test_partition_is_exact(self):
        g = path_graph(5)
        for f in all_min_2rdf(g):
            a = audit_function(g, f)
            assert set(a.properties) == set(PROPERTY_KEYS)

    def test_private_counts_cover_colored_vertices(self):
        g = cycle_graph(6)
        for f in all_min_2rdf(g):
            a = audit_function(g, f)
            assert set(a.private_counts) == {1, 2}
            for color in (1, 2):
                assert set(a.private_counts[color]) == \
                    {v for v, c in enumerate(a.assignment.codes) if c == color}

    def test_property_i_fails_without_balance(self):
        g = complete_graph(1)
        a = audit_function(g, RainbowAssignment((1,)))
        assert not a.properties["i"]
        assert not a.all_pass()

    @pytest.mark.parametrize("codes", [(1, 0, 2), (1, 0, 2, 0, 1)])
    def test_rejects_an_assignment_of_another_length(self, codes):
        with pytest.raises(ValueError, match="^assignment length differs from graph order$"):
            audit_function(cycle_graph(4), RainbowAssignment(codes))

    def test_both_codes_violate_property_i(self):
        g = cycle_graph(4)
        a = audit_function(g, RainbowAssignment((3, 0, 3, 0)))
        assert not a.properties["i"]


class TestAuditExtremal:
    def test_rejects_non_extremal(self):
        with pytest.raises(ValueError, match="not extremal"):
            audit_extremal(path_graph(5))

    def test_all_extremal_classes_to_order_6(self):
        found = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup=True):
                if not is_extremal(g):
                    continue
                found += 1
                r2, roman = solve_both_cached(g)
                assert r2.value % 2 == 0
                assert 2 * roman.value == 3 * r2.value
                count, all_pass = audit_summary(g)
                assert count == len(audit_extremal(g))
                assert all_pass
        assert found > 1

    def test_summary_cap(self):
        with pytest.raises(ValueError, match="capped at order 16"):
            audit_summary(star_graph(16))

    @pytest.mark.parametrize("audit", [audit_summary, audit_extremal])
    def test_cap_before_any_solve(self, audit, monkeypatch):
        def no_solve(g):
            raise AssertionError("solved before the order cap was checked")

        monkeypatch.setattr(structure, "solve_both_cached", no_solve)
        with pytest.raises(ValueError, match="capped at order 16"):
            audit(star_graph(16))

    def test_summary_on_non_extremal(self):
        count, all_pass = audit_summary(complete_graph(1))
        assert count == 2
        assert not all_pass

    def test_summary_stops_at_first_failure(self, monkeypatch):
        # the walk audits in search order, one function of each swapped
        # pair, so which failing function comes first is not pinned
        g = path_graph(6)
        audited = []

        def counting(h, f):
            audited.append(f)
            return audit_function(h, f)

        monkeypatch.setattr(structure, "audit_function", counting)
        count, all_pass = audit_summary(g)
        functions = all_min_2rdf(g)
        assert count == len(functions) > 1
        assert not all_pass
        assert len(audited) == 1
        assert audited[0] in functions


class TestSummaryAgainstListing:
    def test_every_class_to_order_7(self):
        for n in range(8):
            for g in enumerate_graphs(n, dedup=True):
                assert audit_summary(g) == audit_summary_by_listing(g)

    def test_unions_of_squares(self):
        g = cycle_graph(4)
        for t in range(1, 5):
            assert audit_summary(g) == audit_summary_by_listing(g) == (4 ** t, True)
            g = disjoint_union(g, cycle_graph(4))

    @pytest.mark.parametrize("n", range(8, 13))
    def test_seeded_random_graphs(self, n):
        rng = SplitMix64(400 + n)
        for _ in range(20):
            g = from_edge_mask(n, rng.next_bits(n * (n - 1) // 2))
            assert audit_summary(g) == audit_summary_by_listing(g)

    def test_swap_passes_exactly_when_the_function_does(self):
        # why auditing one function of each swapped pair is enough
        for n in range(1, 7):
            for g in enumerate_graphs(n, dedup=True):
                for f in all_min_2rdf(g):
                    assert audit_function(g, f).all_pass() == \
                        audit_function(g, swap_colors(f)).all_pass()
