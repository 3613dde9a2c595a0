"""Membership of a combined weight in the dual of the toric cone, answered
from both sides, kept as independent oracles.

weight_in_dual pairs the weight with every ray of the toric cone, and
monomial_admissible asks the divisor instead: the weight m lies in the
weight cone and each hyperplane exponent r_i clears the i-th support
minimum. The tests check toric_cone by their agreement on grids of weights.
"""

from fractions import Fraction

from polydiv.errors import CurveDomainError, InternalError, RankMismatchError
from polydiv.linalg import dot
from polydiv.pdiv import AffineSpace
from reference_pdiv import MINUS_INFINITY, WeightError, check_weight, support_eval


def weight_in_dual(tc, weight) -> bool:
    """Does the weight pair nonnegatively with every ray of the toric cone?"""
    w = tuple(Fraction(x) for x in weight)
    if len(w) != tc.ambient_rank:
        raise RankMismatchError(
            f"weight has {len(w)} coordinates, cone ambient rank is {tc.ambient_rank}"
        )
    return all(dot(w, ray) >= 0 for ray in tc.rays)


def monomial_admissible(d, m, r) -> bool:
    """Divisor-side membership test for the combined weight (m, r).

    True when m lies in the weight cone and each hyperplane exponent r_i
    clears the i-th support minimum: r_i >= -min<m, coefficient_i>. For
    integer inputs this matches weight_in_dual on the toric cone.
    """
    if not isinstance(d.base, AffineSpace):
        raise CurveDomainError("the toric model needs an affine-space base")
    rr = tuple(Fraction(x) for x in r)
    if len(rr) != d.base.dim:
        raise RankMismatchError(
            f"{len(rr)} hyperplane exponents for a dimension-{d.base.dim} base"
        )
    try:
        mm = check_weight(d, m)
    except WeightError:
        return False
    for i in range(1, d.base.dim + 1):
        poly = d.coefficient(i)
        if poly is None:
            value = Fraction(0)
        else:
            value = support_eval(poly, mm)
            if value is MINUS_INFINITY:
                # check_weight placed mm in the weight cone
                raise InternalError(f"support minimum at hyperplane {i} is unbounded")
        if rr[i - 1] < -value:
            return False
    return True
