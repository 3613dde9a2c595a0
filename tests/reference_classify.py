"""The rank-one formulas as they were written before they read one int row,
kept as independent oracles.

The slopes were the support minimum of each coefficient at the unit weight
(reference_pdiv.support_eval), each a Fraction, and deg1, the vanishing degree
from which the floor degrees exceed 2g - 2 (the h1 bound is its maximum with
1) and the Gorenstein canonical index were Fraction sums and quotients of
them. polydiv reads the slopes off the chamber fan's row of int minima and
computes the rest in int; the tests compare the two.
"""

from fractions import Fraction
from math import ceil

from polydiv.pdiv import unit_weight
from reference_pdiv import support_eval


def slopes(d) -> tuple:
    """(point, slope) per coefficient: its support minimum at the unit weight."""
    unit = unit_weight(d)
    return tuple((pt, support_eval(poly, unit)) for pt, poly in d.coefficients)


def deg1(values) -> Fraction:
    return sum(values, Fraction(0))


def vanishing_degree(values, genus: int) -> int:
    """max(ceil((count + 2g - 2) / deg1), 0)."""
    return max(ceil(Fraction(len(values) + 2 * genus - 2) / deg1(values)), 0)


def gorenstein_index(values, genus: int):
    """(canonical index, vertical multiplicities), the multiplicities None
    when the index is not an integer."""
    fractional = sum((Fraction(v.denominator - 1, v.denominator) for v in values), Fraction(0))
    index = (Fraction(2 * genus - 2) + fractional) / deg1(values)
    if index.denominator != 1:
        return index, None
    return index, tuple(Fraction(v.numerator * index + 1, v.denominator) - 1 for v in values)
