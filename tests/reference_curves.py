"""Rounded-down divisors and cohomology dimensions of one divisor, as they
were written before the classifiers read everything off degrees and slopes,
kept as independent oracles.

floor_divisor rounds every coefficient down, h1_dim_of_degree is dim H^1
of an integral divisor from its degree and, on an elliptic curve, its
principality, one case per curve model, h1_dim reads it for one divisor,
and h0_dim follows from it by Riemann-Roch. The tests rebuild the h1
report, the floor degrees and the section-ring dimensions from
h1_dim(floor_divisor(evaluate(d, m))) and h0_dim of the same divisor.

point_sort_key is the order of points as it was before P1 points compared
in int: a P1 point sorts by its affine value as a Fraction. The tests sort
point sets by it and by curves.point_sort_key alike.
"""

from collections.abc import Callable
from fractions import Fraction
from math import floor

from polydiv.curves import (
    AbstractProjectiveCurve,
    CurveModel,
    CurvePoint,
    EllipticCurveQ,
    EllipticOrigin,
    EllipticPoint,
    LabelPoint,
    P1Point,
    ProjectiveLine,
    QDivisor,
    RationalPoint,
    degree,
    divisor,
    is_integral,
    is_principal,
)
from polydiv.errors import CurveDomainError, NonIntegralError, PointError
from polydiv.verdicts import Verdict


def floor_divisor(d: QDivisor) -> QDivisor:
    return divisor(d.curve, {p: Fraction(floor(c)) for p, c in d.terms})


def h0_dim(d: QDivisor) -> int | None:
    """dim H^0 of the associated invertible sheaf, by Riemann-Roch from h1;
    None when undecidable."""
    if not d.curve.projective:
        raise CurveDomainError("global sections are infinite-dimensional on affine models")
    if not is_integral(d):
        raise NonIntegralError("cohomology dimensions need an integral divisor")
    deg = int(degree(d))
    h1 = h1_dim_of_degree(d.curve, deg, lambda: is_principal(d))
    return None if h1 is None else deg + 1 - d.curve.genus + h1


def h1_dim(d: QDivisor) -> int | None:
    """dim H^1; by duality the mirror of h0_dim, None when undecidable."""
    if not d.curve.projective:
        raise CurveDomainError("cohomology is only defined on projective models")
    if not is_integral(d):
        raise NonIntegralError("cohomology dimensions need an integral divisor")
    return h1_dim_of_degree(d.curve, int(degree(d)), lambda: is_principal(d))


def h1_dim_of_degree(
    curve: CurveModel, deg: int, principal: Callable[[], Verdict]
) -> int | None:
    """dim H^1 of an integral divisor of degree deg on curve, None when undecidable.

    The degree decides everything except a degree-zero divisor on an elliptic
    curve, where the answer is its principality: principal is a zero-argument
    callable returning that Verdict, and it is called in that case only.
    """
    if not curve.projective:
        raise CurveDomainError("cohomology is only defined on projective models")
    if isinstance(curve, ProjectiveLine) or (
        isinstance(curve, AbstractProjectiveCurve) and curve.genus == 0
    ):
        return max(0, -deg - 1)
    if isinstance(curve, EllipticCurveQ):
        if deg > 0:
            return 0
        if deg < 0:
            return -deg
        return 1 if principal() == Verdict.YES else 0
    g = curve.genus
    if deg > 2 * g - 2:
        return 0
    if deg < 0:
        return g - 1 - deg
    return None


_ZERO = Fraction(0)


def point_sort_key(pt: CurvePoint):
    if isinstance(pt, P1Point):
        if pt.is_infinity:
            return (1, _ZERO, _ZERO)
        return (0, pt.affine_value, _ZERO)
    if isinstance(pt, EllipticOrigin):
        return (0, _ZERO, _ZERO)
    if isinstance(pt, EllipticPoint):
        return (1, pt.x, pt.y)
    if isinstance(pt, RationalPoint):
        return (0, pt.value, _ZERO)
    if isinstance(pt, LabelPoint):
        return (0, pt.label, "")
    raise PointError(f"not a curve point: {pt!r}")
