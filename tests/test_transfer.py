"""Conversions between Roman and 2-rainbow functions, weights included."""

from __future__ import annotations

import itertools

import pytest

from rainbowroman.domination import (RainbowAssignment, RomanAssignment,
                                     gamma_r2, gamma_roman,
                                     is_2rainbow_dominating,
                                     is_roman_dominating, rainbow_to_roman,
                                     roman_to_rainbow, swap_colors)
from rainbowroman.graph import cycle_graph, from_edge_mask, graph_from_edges
from rainbowroman.rng import SplitMix64


def all_labeled(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(
            n, (pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def corpus():
    for n in range(0, 5):
        yield from all_labeled(n)
    rng = SplitMix64(2024)
    for n in (5, 6, 7):
        for _ in range(15):
            yield from_edge_mask(n, rng.next_bits(n * (n - 1) // 2))


class TestRomanToRainbow:
    def test_minimum_witness_converts_weight_preserving(self):
        for g in corpus():
            roman = gamma_roman(g).witness
            conv = roman_to_rainbow(g, roman)
            assert is_2rainbow_dominating(g, conv)
            assert conv.weight() == roman.weight()

    def test_every_valid_roman_converts(self):
        g = cycle_graph(5)
        for values in itertools.product((0, 1, 2), repeat=5):
            f = RomanAssignment(values)
            if is_roman_dominating(g, f):
                conv = roman_to_rainbow(g, f)
                assert is_2rainbow_dominating(g, conv)
                assert conv.weight() == f.weight()

    def test_code_mapping(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        conv = roman_to_rainbow(g, RomanAssignment((0, 2, 1)))
        assert conv.codes == (0, 3, 1)

    def test_rejects_non_dominating(self):
        with pytest.raises(ValueError, match="not a Roman dominating"):
            roman_to_rainbow(cycle_graph(4), RomanAssignment((1, 0, 0, 0)))


class TestRainbowToRoman:
    def test_minimum_witness_converts_within_bound(self):
        for g in corpus():
            res = gamma_r2(g)
            conv = rainbow_to_roman(g, res.witness)
            assert is_roman_dominating(g, conv)
            assert conv.weight() <= 3 * res.value // 2

    def test_every_valid_rainbow_converts(self):
        g = cycle_graph(5)
        for codes in itertools.product((0, 1, 2, 3), repeat=5):
            f = RainbowAssignment(codes)
            if is_2rainbow_dominating(g, f):
                conv = rainbow_to_roman(g, f)
                assert is_roman_dominating(g, conv)
                assert conv.weight() <= 3 * f.weight() // 2

    def test_swap_applied_only_when_twos_dominate(self):
        g = cycle_graph(4)
        # more {2} than {1}: swapping first turns the {2} into the cheap color
        conv = rainbow_to_roman(g, RainbowAssignment((3, 0, 2, 0)))
        assert conv.values == (2, 0, 1, 0)
        # all-{2} on a path swaps to all-{1}
        p3 = graph_from_edges(3, [(0, 1), (1, 2)])
        assert rainbow_to_roman(p3, RainbowAssignment((2, 2, 2))).values == (1, 1, 1)
        # tie: no swap, {1} maps to 1 and {2} to 2
        conv = rainbow_to_roman(g, RainbowAssignment((1, 0, 2, 0)))
        assert conv.values == (1, 0, 2, 0)

    def test_rejects_non_dominating(self):
        with pytest.raises(ValueError, match="not 2-rainbow dominating"):
            rainbow_to_roman(cycle_graph(4), RainbowAssignment((1, 0, 0, 0)))


class TestSwapColors:
    def test_involution_and_weight(self):
        for codes in itertools.product((0, 1, 2, 3), repeat=3):
            f = RainbowAssignment(codes)
            assert swap_colors(swap_colors(f)) == f
            assert swap_colors(f).weight() == f.weight()

    def test_mapping(self):
        assert swap_colors(RainbowAssignment((0, 1, 2, 3))).codes == (0, 2, 1, 3)
