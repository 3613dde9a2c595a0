"""Polyhedral divisors and their properness.

A polyhedral divisor of rank k over a base curve assigns to finitely many
points a polyhedron in Q^k, all sharing one pointed tail cone. Over an affine
space the same data is keyed by coordinate hyperplanes instead of points.
Evaluating at a weight m in the dual of the tail cone takes the support
minimum of each coefficient and produces an ordinary Q-divisor on the base.

A divisor stores its base, its tail cone and its coefficients; its rank and
its weight cone, the dual of the tail, are read off the tail, and the chamber
fan starts from the double description that dual is read from. Every
evaluation this package takes is at a fan ray, and is read off the fan's one
table of int minima, each over its coefficient's cleared denominator: the
degrees along the rays, the degree-zero evaluations the properness check
tests for torsion and, at rank one, the slopes, the evaluation at the unit
weight. A rank-one divisor also keeps its floor profile, the degrees of the
rounded-down evaluations up to the weight from which they exceed 2g - 2.

Properness is the condition that makes the graded ring of sections behave:
every evaluation must be semiample, and evaluations at interior weights must
additionally have positive degree. On affine bases this is automatic; on
projective curves it reduces to finitely many exact checks along a chamber
decomposition of the weight cone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, cycle, islice, repeat
from math import gcd, lcm
from operator import sub
from types import MappingProxyType

from .curves import (
    CurveModel,
    CurvePoint,
    denominator_lcm,
    divisor,
    is_torsion_class,
    point_sort_key,
    validate_point,
)
from .errors import (
    CurveDomainError,
    InvalidInputError,
    NotProperError,
    RankMismatchError,
    ShapeError,
    UnsupportedRankError,
)
from .geometry import ChamberFan, Cone, TailedPolyhedron, chamber_fan, make_cone, ratvec
from .linalg import dot
from .verdicts import Verdict


@dataclass(frozen=True)
class AffineSpace:
    """A^dim as a divisor base; coefficients attach to coordinate hyperplanes."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("affine space needs dimension at least 1")

    @property
    def projective(self) -> bool:
        return False


DivisorBase = CurveModel | AffineSpace


def _key_sort_key(base: DivisorBase, key):
    if isinstance(base, AffineSpace):
        return key
    return point_sort_key(key)


@dataclass(frozen=True)
class PolyhedralDivisor:
    """Finitely many tailed polyhedra attached to points (or hyperplanes).

    coefficients holds only the nontrivial attachments; a point carrying the
    plain tail cone contributes nothing to any evaluation and is dropped by
    the factory. rank and weight_cone are read off the tail; weight_cone is
    its dual, the set of weights where every evaluation is finite.

    The chamber fan, the degrees along its rays, the properness report, the
    rank-one slopes and the rank-one floor profile are derived once per
    divisor and kept on it (``fan``, ``ray_degrees``, ``properness``,
    ``slopes``, ``floor_profile``); they are not fields, so they take no part
    in equality or hashing. A failed derivation is not kept. The ray degrees,
    the slopes and the torsion test of the properness check read the fan's
    one table of int minima.
    """

    base: DivisorBase
    tail: Cone
    coefficients: tuple[tuple[object, TailedPolyhedron], ...]

    @property
    def rank(self) -> int:
        return self.tail.rank

    @property
    def weight_cone(self) -> Cone:
        return self.tail.dual

    def coefficient(self, key) -> TailedPolyhedron | None:
        for k, poly in self.coefficients:
            if k == key:
                return poly
        return None

    @property
    def support(self) -> tuple[object, ...]:
        return tuple(k for k, _ in self.coefficients)

    @cached_property
    def fan(self) -> ChamberFan:
        """Common linearity decomposition of the weight cone for all coefficients."""
        return chamber_fan([poly for _, poly in self.coefficients], self.tail)

    @cached_property
    def ray_degrees(self) -> Mapping[tuple[int, ...], Fraction]:
        """The degree of the evaluation at every ray u of the chamber fan, in fan order."""
        return MappingProxyType({u: _degree(self, mins) for u, mins in self.fan.minima})

    @cached_property
    def properness(self) -> PropernessReport:
        """The properness decision; see is_proper."""
        return _decide_properness(self)

    @cached_property
    def slopes(self) -> tuple[RaySlope, ...]:
        """The evaluation at the unit weight (rank one), the fan's one row of
        minima over each coefficient's cleared denominator; see ray_slopes."""
        unit = unit_weight(self)
        out = []
        for (pt, poly), x in zip(self.coefficients, dict(self.fan.minima)[unit]):
            g = gcd(x, poly.cleared[1])
            out.append(RaySlope(pt, x // g, poly.cleared[1] // g))
        return tuple(out)

    @cached_property
    def floor_profile(self) -> tuple[int, ...]:
        """The rounded-down degrees at m = 0 .. V of a proper rank-one divisor
        over a projective curve, V = max(ceil((count + 2g - 2) / deg1), 0)
        the vanishing degree: rounding down loses less than one unit per
        marked point, so from V on the degree exceeds m * deg1 - count >=
        2g - 2. deg1 is the ray degree at the unit weight."""
        if not self.base.projective:
            raise CurveDomainError("floor degrees need a projective base curve")
        require_proper(self)
        deg1 = self.ray_degrees[unit_weight(self)]
        excess = len(self.coefficients) + 2 * self.base.genus - 2
        return floor_degrees(self.slopes, max(-(-excess * deg1.denominator // deg1.numerator), 0))


def polyhedral_divisor(base: DivisorBase, rank: int, tail_rays, coefficients) -> PolyhedralDivisor:
    """Validate and canonicalize raw divisor data.

    tail_rays are the generators of the tail cone, or the Cone itself.
    coefficients maps points (curve bases) or hyperplane indices 1..dim
    (affine-space base) to TailedPolyhedron values. All violations are
    collected before anything is raised, so parse-layer callers can report
    them in one pass.
    """
    violations: list[str] = []
    if rank < 1:
        raise ShapeError("the lattice rank must be at least 1")
    tail = tail_rays if isinstance(tail_rays, Cone) else make_cone(tail_rays, rank)
    if tail.rank != rank:
        raise RankMismatchError(f"the tail cone has rank {tail.rank}, expected {rank}")
    if not tail.pointed:
        raise ShapeError("the tail cone must be pointed")

    items = coefficients.items() if isinstance(coefficients, dict) else list(coefficients)
    seen = []
    kept = []
    for key, poly in items:
        if isinstance(base, AffineSpace):
            if not isinstance(key, int) or not 1 <= key <= base.dim:
                violations.append(f"hyperplane index {key!r} is not in 1..{base.dim}")
                continue
        else:
            try:
                validate_point(base, key)
            except Exception as exc:
                violations.append(str(exc))
                continue
        if key in seen:
            violations.append(f"coefficient attached twice to {key}")
            continue
        seen.append(key)
        if not isinstance(poly, TailedPolyhedron):
            violations.append(f"coefficient at {key} is not a tailed polyhedron")
            continue
        if poly.rank != rank:
            violations.append(f"coefficient at {key} has rank {poly.rank}, expected {rank}")
            continue
        if poly.tail != tail:
            violations.append(f"coefficient at {key} does not have the common tail cone")
            continue
        if poly.vertices == ((0,) * rank,):
            continue  # the trivial coefficient: just the tail cone itself
        kept.append((key, poly))
    if violations:
        raise InvalidInputError(violations)
    kept.sort(key=lambda item: _key_sort_key(base, item[0]))
    return PolyhedralDivisor(base=base, tail=tail, coefficients=tuple(kept))


def unit_weight(d: PolyhedralDivisor) -> tuple[int, ...]:
    """The generator of the weight monoid of a rank-one divisor."""
    if d.rank != 1:
        raise ShapeError("this question is answered for rank-one divisors only")
    rays = d.weight_cone.rays
    if len(rays) != 1:
        raise ShapeError("rank-one classification needs a nontrivial tail ray")
    return rays[0]


@dataclass(frozen=True)
class RaySlope:
    """Evaluation of one coefficient at the weight-cone generator, in lowest terms."""

    point: CurvePoint
    p: int
    q: int

    def floor(self, m: int) -> int:
        """The coefficient of the rounded-down evaluation at the weight m."""
        return (m * self.p) // self.q


def ray_slopes(d: PolyhedralDivisor) -> tuple[RaySlope, ...]:
    """Coefficients of the evaluation at the unit weight (rank one).

    Support functions are positively homogeneous, so the evaluation at the
    weight m times the unit has coefficients m * p / q, and its rounding down
    has coefficients (m * p) // q. Read once per divisor off the chamber
    fan's minima at the unit weight (``d.slopes``).
    """
    return d.slopes


def floor_columns(slopes: tuple[RaySlope, ...], m_max: int) -> list[list[int]]:
    """Per slope p/q, (m * p) // q at m = 0 .. m_max, summed up from the steps
    of one period's table (the step at m depends on m mod q only)."""
    m_max = max(m_max, 0)
    periods = (list(map(s.floor, range(min(s.q, m_max) + 1))) for s in slopes)
    return [list(accumulate(islice(cycle(map(sub, p[1:], p)), m_max), initial=0)) for p in periods]


def floor_degrees(slopes: tuple[RaySlope, ...], m_max: int, columns=None) -> tuple[int, ...]:
    """deg of the rounded-down evaluation at m = 0 .. m_max, the sum of the
    slopes' floor columns (columns, when the caller has built them)."""
    columns = floor_columns(slopes, m_max) if columns is None else columns
    return tuple(map(sum, zip(repeat(0, m_max + 1), *columns)))


# ---------------------------------------------------------------------------
# properness


@dataclass(frozen=True)
class PropernessReport:
    verdict: Verdict
    reason: str
    witness: tuple[Fraction, ...] | None = None


def is_proper(d: PolyhedralDivisor) -> PropernessReport:
    """Decide properness, once per divisor.

    Affine bases: always proper. Projective curves: every evaluation within
    the weight cone must be semiample and evaluations at interior weights must
    have positive degree. The degree function is concave and piecewise linear
    on the chamber fan, so checking chamber rays plus one interior sample is
    exact; degree-zero boundary rays additionally need a torsion divisor
    class, which certifies the whole face they span.
    """
    return d.properness


def _decide_properness(d: PolyhedralDivisor) -> PropernessReport:
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
        return PropernessReport(
            Verdict.NO,
            "no nontrivial coefficients: every evaluation has degree zero",
            witness=ratvec(_interior_sample(d.weight_cone.rays, d.rank)),
        )

    try:
        ray_degrees = d.ray_degrees
    except UnsupportedRankError as exc:
        return PropernessReport(Verdict.UNKNOWN, f"undecided: {exc}")

    degree_zero_rays = []
    for u, deg_u in ray_degrees.items():
        if deg_u < 0:
            return PropernessReport(
                Verdict.NO,
                f"evaluation at weight {u} has negative degree {deg_u}",
                witness=ratvec(u),
            )
        if deg_u == 0:
            degree_zero_rays.append(u)

    sample = _interior_sample(ray_degrees, d.rank)
    # at rank one, or wherever the sum of the fan rays is itself a fan ray,
    # its degree is already known
    if (ray_degrees[sample] if sample in ray_degrees else _degree_at(d, sample)) <= 0:
        return PropernessReport(
            Verdict.NO,
            "the degree vanishes at an interior weight, hence everywhere",
            witness=ratvec(sample),
        )

    minima = dict(d.fan.minima)
    for u in degree_zero_rays:
        ev = divisor(
            d.base,
            {pt: Fraction(x, poly.cleared[1]) for (pt, poly), x in zip(d.coefficients, minima[u])},
        )
        cleared = denominator_lcm(ev) * ev
        verdict, _ = is_torsion_class(cleared)
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


def _interior_sample(rays, rank: int) -> tuple[int, ...]:
    return tuple(sum(r[i] for r in rays) for i in range(rank))


def _degree_at(d: PolyhedralDivisor, m: tuple[int, ...]) -> Fraction:
    """The degree of the evaluation at an integer weight m of the weight cone:
    the support minima taken in int on the cleared vertices."""
    return _degree(d, [min(dot(m, n) for n in poly.cleared[0]) for _, poly in d.coefficients])


def _degree(d: PolyhedralDivisor, minima) -> Fraction:
    """The degree of the evaluation whose coefficient at the i-th point is
    minima[i] over the i-th cleared denominator: one int sum over the lcm of
    those denominators."""
    if not d.base.projective:
        raise CurveDomainError("degree is undefined on an affine base")
    dens = [poly.cleared[1] for _, poly in d.coefficients]
    scale = lcm(*dens)
    return Fraction(sum(x * (scale // den) for x, den in zip(minima, dens)), scale)


def require_proper(d: PolyhedralDivisor) -> None:
    """Raise NotProperError unless is_proper says yes."""
    report = is_proper(d)
    if report.verdict == Verdict.NO:
        raise NotProperError(f"not a proper polyhedral divisor: {report.reason}", report.witness)
    if report.verdict == Verdict.UNKNOWN:
        raise NotProperError(f"properness undecided: {report.reason}")


def contraction_iso_codim1(d: PolyhedralDivisor) -> Verdict:
    """Is the natural contraction an isomorphism in codimension one?

    Over an affine base the contraction never collapses a divisor. Over a
    projective curve a ray rho of the tail cone gets contracted exactly when
    it meets the degree polyhedron, the Minkowski sum of the coefficients,
    so the answer is no iff some tail ray meets it. That is read off the
    degrees along the rays of the chamber fan: rho meets it iff the degree
    is <= 0 at every fan ray u with <u, rho> = 0.

    Proof: the degree polyhedron is {p : <u, p> >= deg D(u) for all u in
    the weight cone}, so t * rho lies in it iff t <u, rho> - deg D(u) >= 0
    on the weight cone. That function is linear on each chamber, so it is
    >= 0 iff it is at every fan ray. And <u, rho> >= 0 on the weight cone,
    so some t >= 0 works iff deg D(u) <= 0 wherever <u, rho> = 0.

    Where the chamber fan is unavailable (rank >= 4 with walls) the answer
    is Verdict.UNKNOWN.
    """
    if not d.base.projective or not d.tail.rays:
        return Verdict.YES
    try:
        degrees = d.ray_degrees
    except UnsupportedRankError:
        return Verdict.UNKNOWN
    for rho in d.tail.rays:
        if all(deg <= 0 for u, deg in degrees.items() if dot(u, rho) == 0):
            return Verdict.NO
    return Verdict.YES
