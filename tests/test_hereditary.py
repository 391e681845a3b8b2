"""Forbidden-induced-subgraph tests against brute-force enumeration."""

from __future__ import annotations

import itertools

import pytest

from rainbowroman import hereditary
from rainbowroman.catalog import enumerate_graphs
from rainbowroman.domination import all_min_2rdf, is_2rainbow_dominating
from rainbowroman.graph import (complete_graph, cycle_graph, disjoint_union,
                                empty_graph, from_edge_mask,
                                graph_from_edges, path_graph, star_graph)
from rainbowroman.hereditary import (DIRECT_CHECK_ORDER_CAP, EQUALITY_FAMILY,
                                     HAS_INDUCED_PATTERN_CAP, PRESET_FAMILIES,
                                     THREE_HALVES_FAMILY, find_induced_member,
                                     hereditary_equality_direct,
                                     hereditary_three_halves_direct,
                                     has_induced, is_free, solve_both_cached)

from rainbowroman.rng import SplitMix64

from oracles import (canonical_min_2rdf, has_induced_brute,
                     has_induced_by_canonical, rainbow_as_roman_codes,
                     roman_valid)

K2_PLUS_K1 = disjoint_union(complete_graph(2), complete_graph(1))


def labeled_graphs(max_order):
    for n in range(max_order + 1):
        for mask in range(1 << (n * (n - 1) // 2)):
            yield from_edge_mask(n, mask)


class TestHasInduced:
    def test_examples(self):
        assert has_induced(path_graph(5), path_graph(3))
        assert has_induced(cycle_graph(6), path_graph(4))
        assert not has_induced(cycle_graph(5), path_graph(5))
        assert not has_induced(complete_graph(4), cycle_graph(4))
        assert has_induced(star_graph(3), empty_graph(3))
        assert not has_induced(path_graph(2), path_graph(3))

    def test_agrees_with_brute_force(self):
        patterns = [path_graph(3), cycle_graph(4), empty_graph(3), K2_PLUS_K1]
        for g in labeled_graphs(5):
            for h in patterns:
                assert has_induced(g, h) == has_induced_brute(g, h)

    def test_matches_canonical_oracle_on_small_patterns(self):
        rng = SplitMix64(1998)
        hosts = []
        for n in range(10):
            pairs = list(itertools.combinations(range(n), 2))
            for percent in (20, 50, 80):
                hosts.append(graph_from_edges(
                    n, (p for p in pairs if rng.next_below(100) < percent)))
        for h in labeled_graphs(4):
            for g in hosts:
                assert has_induced(g, h) == has_induced_by_canonical(g, h)

    def test_matches_canonical_oracle_on_presets_to_order_7(self):
        for n in range(8):
            for g in enumerate_graphs(n, dedup=True):
                for family in PRESET_FAMILIES.values():
                    first = None
                    for name, h in family:
                        hit = has_induced(g, h)
                        assert hit == has_induced_by_canonical(g, h)
                        if hit and first is None:
                            first = name
                    assert find_induced_member(g, family) == first

    def test_pattern_cap(self):
        with pytest.raises(ValueError, match="capped"):
            has_induced(complete_graph(8), path_graph(7))

    def test_family_caps_checked_before_any_search(self, monkeypatch):
        def no_subset(g, vertices):
            raise AssertionError("a pattern was searched before every cap was checked")

        monkeypatch.setattr(hereditary, "edge_mask", no_subset)
        family = [("P6", path_graph(6)), ("K7bar", empty_graph(7))]
        with pytest.raises(ValueError, match="pattern order is capped at 6"):
            find_induced_member(empty_graph(30), family)


class TestFamilies:
    def test_preset_names(self):
        assert set(PRESET_FAMILIES) == {"theorem2", "theorem3"}
        assert [name for name, _ in EQUALITY_FAMILY] == ["P5", "C5", "C4"]
        assert [name for name, _ in THREE_HALVES_FAMILY] == ["K3bar", "K2+K1"]

    def test_find_induced_member(self):
        assert find_induced_member(path_graph(5), EQUALITY_FAMILY) == "P5"
        assert find_induced_member(cycle_graph(4), EQUALITY_FAMILY) == "C4"
        assert find_induced_member(complete_graph(3), EQUALITY_FAMILY) is None
        assert find_induced_member(empty_graph(4), THREE_HALVES_FAMILY) == "K3bar"
        assert find_induced_member(path_graph(4), THREE_HALVES_FAMILY) == "K2+K1"

    def test_is_free_presets(self):
        for n in range(1, 6):
            assert is_free(complete_graph(n), EQUALITY_FAMILY)
            assert is_free(complete_graph(n), THREE_HALVES_FAMILY)
        assert is_free(path_graph(4), EQUALITY_FAMILY)
        assert not is_free(path_graph(5), EQUALITY_FAMILY)
        assert is_free(cycle_graph(4), THREE_HALVES_FAMILY)
        assert not is_free(disjoint_union(cycle_graph(3), cycle_graph(3)),
                           THREE_HALVES_FAMILY)


class TestEqualityCharacterization:
    def test_spot_values(self):
        assert hereditary_equality_direct(complete_graph(3))
        assert hereditary_equality_direct(star_graph(4))
        assert not hereditary_equality_direct(cycle_graph(4))
        assert not hereditary_equality_direct(path_graph(5))
        assert not hereditary_equality_direct(cycle_graph(5))

    def test_equivalence_exhaustive_to_order_5(self):
        for g in labeled_graphs(5):
            assert is_free(g, EQUALITY_FAMILY) == hereditary_equality_direct(g)

    def test_direct_cap(self):
        with pytest.raises(ValueError, match="capped"):
            hereditary_equality_direct(empty_graph(DIRECT_CHECK_ORDER_CAP + 1))


class TestThreeHalvesCharacterization:
    def test_spot_values(self):
        # vacuous when nothing reaches the threshold
        assert hereditary_three_halves_direct(empty_graph(0), 2)
        assert hereditary_three_halves_direct(complete_graph(1), 2)
        assert hereditary_three_halves_direct(cycle_graph(4), 3)
        # K2 has weights (2, 2): ratio 2/2, not 3/2
        assert not hereditary_three_halves_direct(complete_graph(2), 2)
        assert not hereditary_three_halves_direct(complete_graph(5), 2)
        assert not hereditary_three_halves_direct(complete_graph(1), 1)
        assert not hereditary_three_halves_direct(K2_PLUS_K1, 3)
        assert not hereditary_three_halves_direct(empty_graph(3), 3)

    def test_equivalence_at_threshold_3_exhaustive_to_order_5(self):
        for g in labeled_graphs(5):
            assert is_free(g, THREE_HALVES_FAMILY) == \
                hereditary_three_halves_direct(g, 3)

    def test_free_graphs_have_small_rainbow_weight(self):
        # free graphs are complete multipartite with parts of size <= 2,
        # so their 2-rainbow weight never exceeds 2
        seen_non_complete = 0
        for g in labeled_graphs(5):
            if g.order == 0 or not is_free(g, THREE_HALVES_FAMILY):
                continue
            r2, _ = solve_both_cached(g)
            assert r2.value <= 2
            if len(g.edges()) < g.order * (g.order - 1) // 2:
                seen_non_complete += 1
                assert g.order >= 2 and r2.value == 2
        assert seen_non_complete > 0

    def test_direct_cap(self):
        with pytest.raises(ValueError, match="capped"):
            hereditary_three_halves_direct(
                empty_graph(DIRECT_CHECK_ORDER_CAP + 1), 3)


class TestCanonicalMin2rdf:
    def test_examples(self):
        assert canonical_min_2rdf(complete_graph(1)).codes == (1,)
        assert canonical_min_2rdf(complete_graph(2)).codes == (3, 0)
        assert canonical_min_2rdf(cycle_graph(4)).codes == (1, 0, 2, 0)
        assert canonical_min_2rdf(star_graph(4)).codes == (3, 0, 0, 0, 0)

    def test_is_a_minimum_function_maximizing_full_codes(self):
        for g in labeled_graphs(4):
            if g.order == 0:
                continue
            funcs = all_min_2rdf(g)
            chosen = canonical_min_2rdf(g)
            assert chosen in funcs
            best = max(sum(1 for c in f.codes if c == 3) for f in funcs)
            assert sum(1 for c in chosen.codes if c == 3) == best

    def test_roman_reading_on_equality_free_graphs(self):
        # wherever the forbidden trio is absent, the distinguished minimum
        # rainbow function doubles as an optimal Roman function
        for g in labeled_graphs(5):
            if not is_free(g, EQUALITY_FAMILY):
                continue
            f = canonical_min_2rdf(g)
            assert is_2rainbow_dominating(g, f)
            codes = rainbow_as_roman_codes(f)
            r2, roman = solve_both_cached(g)
            assert r2.value == roman.value
            assert roman_valid(g, codes)
            assert sum(codes) == roman.value

    def test_roman_reading_code_map(self):
        assert rainbow_as_roman_codes(
            canonical_min_2rdf(cycle_graph(4))) == (1, 0, 1, 0)
