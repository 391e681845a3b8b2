"""Gap-shifting constructions: exact parameter increments."""

from __future__ import annotations

import pytest

from rainbowroman.constructions import (GAP_INSTANCE_CAP, add_c4,
                                        gap_instance, star_link)
from rainbowroman.domination import gamma_r2, gamma_roman
from rainbowroman.graph import (complete_graph, components, connected,
                                cycle_graph, disjoint_union, empty_graph,
                                from_edge_mask, is_k4_free, path_graph,
                                star_graph)
from rainbowroman.rng import SplitMix64


def random_corpus(count=30, max_order=6, seed=2024):
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = 1 + rng.next_below(max_order)
        mask = rng.next_below(1 << (n * (n - 1) // 2))
        out.append(from_edge_mask(n, mask))
    return out


class TestAddC4:
    def test_increments_on_random_graphs(self):
        for g in random_corpus():
            h = add_c4(g)
            assert h.order == g.order + 4
            assert gamma_r2(h).value == gamma_r2(g).value + 2
            assert gamma_roman(h).value == gamma_roman(g).value + 3

    def test_keeps_k4_freeness(self):
        for g in random_corpus(count=15):
            assert is_k4_free(add_c4(g)) == is_k4_free(g)

    def test_new_block_is_a_square(self):
        g = path_graph(2)
        h = add_c4(g)
        assert sorted(h.edges()) == [(0, 1), (2, 3), (2, 5), (3, 4), (4, 5)]


class TestStarLink:
    def test_increments_on_random_graphs(self):
        for g in random_corpus():
            h = star_link(g)
            assert connected(h)
            assert gamma_r2(h).value == gamma_r2(g).value + 2
            assert gamma_roman(h).value == gamma_roman(g).value + 2

    def test_shape_on_two_isolated_vertices(self):
        h = star_link(empty_graph(2))
        # centre 2 with four leaves, two of which anchor the components
        assert h.order == 7
        assert sorted(h.edges()) == [
            (0, 3), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6)]
        assert connected(h)
        assert (gamma_r2(h).value, gamma_roman(h).value) == (4, 4)

    def test_component_count_drives_star_size(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        h = star_link(g)
        assert h.order == g.order + 2 + 3
        assert len(components(h)) == 1
        assert h.degree(g.order) == 4

    def test_keeps_k4_freeness(self):
        assert is_k4_free(star_link(cycle_graph(4)))
        assert not is_k4_free(star_link(complete_graph(4)))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="non-empty"):
            star_link(empty_graph(0))


class TestGapInstance:
    @pytest.mark.parametrize("k", range(7))
    def test_requested_gap_is_attained(self, k):
        g = gap_instance(k)
        assert connected(g)
        assert is_k4_free(g)
        assert gamma_roman(g).value - gamma_r2(g).value == k
        if k > 0:
            assert g.order == 1 + 4 * k + (k + 1) + 3

    def test_gap_zero_is_trivial(self):
        assert gap_instance(0).order == 1

    def test_out_of_range(self):
        for k in (-1, GAP_INSTANCE_CAP + 1):
            with pytest.raises(ValueError) as error:
                gap_instance(k)
            assert str(error.value) == f"gap is capped to 0..{GAP_INSTANCE_CAP}"

    def test_star_anchor_layout(self):
        g = gap_instance(1)
        # single vertex + one square -> two components, star with 4 leaves
        assert g.order == 10
        assert g.degree(5) == 4
        assert {v for v in range(g.order) if g.has_edge(5, v)} == {6, 7, 8, 9}
        assert g.has_edge(0, 6) and g.has_edge(1, 7)
        assert g.degree(8) == 1 and g.degree(9) == 1
