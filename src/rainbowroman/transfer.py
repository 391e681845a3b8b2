"""Weight-controlled conversions between the two domination schemes.

A Roman dominating function becomes a 2-rainbow one of equal weight by
reading 0, 1, 2 as {}, {1}, {1,2}.  In the other direction a 2-rainbow
function becomes a Roman one of weight at most floor(3/2 of the input):
after swapping colors so that {1} is at least as frequent as {2}, read
{} as 0, {1} as 1, and anything containing color 2 as 2.  Both maps
reject inputs that do not dominate, so the bounds they certify are
always about genuine functions.
"""

from __future__ import annotations

from .domination import (_ROMAN_AS_RAINBOW, _SWAPPED, RainbowAssignment,
                         RomanAssignment, is_2rainbow_dominating)
from .graph import Graph


def roman_to_rainbow(g: Graph, f: RomanAssignment) -> RainbowAssignment:
    """Convert 0/1/2 to {}/{1}/{1,2}; weight is preserved exactly."""
    image = RainbowAssignment(tuple(_ROMAN_AS_RAINBOW[x] for x in f.values))
    if not is_2rainbow_dominating(g, image):
        raise ValueError("input is not a Roman dominating function")
    return image


def swap_colors(f: RainbowAssignment) -> RainbowAssignment:
    """Exchange colors 1 and 2 everywhere; an involution on assignments."""
    return RainbowAssignment(tuple(_SWAPPED[c] for c in f.codes))


def rainbow_to_roman(g: Graph, f: RainbowAssignment) -> RomanAssignment:
    """Convert a 2-rainbow function to a Roman one of weight <= floor(3w/2).

    The color swap is applied only when {2} is strictly more frequent
    than {1}; a tie is left alone.  Every empty vertex keeps a neighbour
    carrying color 2, which becomes its 2-neighbour.
    """
    if not is_2rainbow_dominating(g, f):
        raise ValueError("input is not 2-rainbow dominating")
    ones = sum(1 for c in f.codes if c == 1)
    twos = sum(1 for c in f.codes if c == 2)
    if ones < twos:
        f = swap_colors(f)
    return RomanAssignment(tuple(0 if c == 0 else 1 if c == 1 else 2
                                 for c in f.codes))
