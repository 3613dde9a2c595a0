"""Evaluation of a polyhedral divisor at any weight, as it was before every
evaluation was read off the chamber fan's table of minima, kept as an
independent oracle.

support_eval pairs a weight, scaled to an int vector, with the cleared
vertices of one polyhedron, and answers MINUS_INFINITY off the dual of its
tail. evaluate takes it at every coefficient and returns the Q-divisor at
any weight of the weight cone; check_weight raises WeightError outside it.
decide_properness is the properness check that took each degree, and each
degree-zero evaluation it tests for torsion, through evaluate. The tests
compare the fan's minima, the ray degrees, the slopes and is_proper against
them.

floor_columns and floor_degrees are the rank-one floor kernel as it was
before it streamed (m * p) // q: each column summed up from the steps of
one period's table, built up to a given m_max. The tests compare the
streamed floor degrees against them.
"""

from fractions import Fraction
from itertools import accumulate, cycle, islice, repeat
from operator import sub

from polydiv.curves import degree, denominator_lcm, divisor, is_torsion_class
from polydiv.errors import CurveDomainError, InternalError, PolydivError, RankMismatchError
from polydiv.geometry import ratvec
from polydiv.linalg import clear, dot
from polydiv.pdiv import AffineSpace, PropernessReport
from polydiv.verdicts import Verdict


class MinusInfinity:
    """Support value below every rational; deliberately not comparable."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MINUS_INFINITY"


MINUS_INFINITY = MinusInfinity()


class WeightError(PolydivError):
    """Evaluation weight lies outside the dual of the tail cone."""

    def __init__(self, message: str, weight=None, separating_ray=None):
        super().__init__(message)
        self.weight = weight
        self.separating_ray = separating_ray


def support_eval(poly, m):
    """min{<m, p> : p in the polyhedron}, or MINUS_INFINITY off the tail dual.

    The weight, scaled by the lcm of its denominators, is paired with the
    cleared vertices in int.
    """
    mm = ratvec(m)
    if len(mm) != poly.rank:
        raise RankMismatchError(f"weight {tuple(m)} does not have rank {poly.rank}")
    mm, scale = clear(mm)
    if any(dot(mm, r) < 0 for r in poly.tail.rays):
        return MINUS_INFINITY
    nums, den = poly.cleared
    return Fraction(min(dot(mm, n) for n in nums), den * scale)


def _is_curve_base(base) -> bool:
    return not isinstance(base, AffineSpace)


def check_weight(d, m) -> tuple[Fraction, ...]:
    """m as a vector, a bare scalar for rank-1 divisors and a length-rank
    vector otherwise, required to lie in the weight cone."""
    if isinstance(m, (int, Fraction)):
        if d.rank != 1:
            raise RankMismatchError(f"scalar weight given, but the lattice rank is {d.rank}")
        mm = (Fraction(m),)
    else:
        mm = ratvec(m)
        if len(mm) != d.rank:
            raise RankMismatchError(f"weight {tuple(m)} does not have rank {d.rank}")
    for r in d.tail.rays:
        if dot(mm, r) < 0:
            raise WeightError(
                f"weight {tuple(mm)} pairs negatively with tail ray {r}",
                weight=mm,
                separating_ray=r,
            )
    return mm


def evaluate(d, m):
    """The Q-divisor of support minima at weight m (curve bases only)."""
    if not _is_curve_base(d.base):
        raise CurveDomainError(
            "evaluation to a Q-divisor is defined over curve bases; over an "
            "affine space use the associated toric cone instead"
        )
    mm = check_weight(d, m)
    coeffs = {}
    for pt, poly in d.coefficients:
        value = support_eval(poly, mm)
        if value is MINUS_INFINITY:
            # check_weight already placed mm in the dual of the tail cone
            raise InternalError(f"support minimum at {pt} is unbounded inside the weight cone")
        coeffs[pt] = value
    return divisor(d.base, coeffs)


def decide_properness(d) -> PropernessReport:
    """The properness decision with every degree, and every degree-zero
    evaluation, taken through evaluate; the same reports as is_proper."""
    if not d.base.projective:
        return PropernessReport(Verdict.YES, "affine base: properness is automatic")
    if d.tail.is_trivial:
        return PropernessReport(
            Verdict.NO,
            "trivial tail cone: the weight cone is the whole space and the "
            "degree vanishes at the interior weight 0",
            witness=tuple(Fraction(0) for _ in range(d.rank)),
        )
    if not d.coefficients:
        rays = d.weight_cone.rays
        return PropernessReport(
            Verdict.NO,
            "no nontrivial coefficients: every evaluation has degree zero",
            witness=ratvec(tuple(map(sum, zip(*rays)))),
        )
    rays = [u for u, _ in d.fan.minima]
    zero = []
    for u in rays:
        deg_u = degree(evaluate(d, u))
        if deg_u < 0:
            return PropernessReport(
                Verdict.NO,
                f"evaluation at weight {u} has negative degree {deg_u}",
                witness=ratvec(u),
            )
        if deg_u == 0:
            zero.append(u)
    sample = tuple(map(sum, zip(*rays)))
    if degree(evaluate(d, sample)) <= 0:
        return PropernessReport(
            Verdict.NO,
            "the degree vanishes at an interior weight, hence everywhere",
            witness=ratvec(sample),
        )
    for u in zero:
        ev = evaluate(d, u)
        verdict, _ = is_torsion_class(denominator_lcm(ev) * ev)
        if verdict == Verdict.NO:
            return PropernessReport(
                Verdict.NO,
                f"degree-zero evaluation at weight {u} is not a torsion class",
                witness=ratvec(u),
            )
        if verdict == Verdict.UNKNOWN:
            return PropernessReport(
                Verdict.UNKNOWN,
                f"undecided: torsion of the degree-zero evaluation at weight {u} "
                "cannot be tested on an abstract curve model",
            )
    return PropernessReport(
        Verdict.YES,
        "positive degree on interior weights; degree-zero boundary evaluations "
        "are torsion",
    )


def floor_columns(slopes, m_max: int) -> list[list[int]]:
    """Per slope p/q, (m * p) // q at m = 0 .. m_max, summed up from the steps
    of one period's table (the step at m depends on m mod q only)."""
    m_max = max(m_max, 0)
    periods = (list(map(s.floor, range(min(s.q, m_max) + 1))) for s in slopes)
    return [list(accumulate(islice(cycle(map(sub, p[1:], p)), m_max), initial=0)) for p in periods]


def floor_degrees(slopes, m_max: int) -> tuple[int, ...]:
    """deg of the rounded-down evaluation at m = 0 .. m_max, the sum of the
    slopes' period-table columns."""
    return tuple(map(sum, zip(repeat(0, m_max + 1), *floor_columns(slopes, m_max))))
