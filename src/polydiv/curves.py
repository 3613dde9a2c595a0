"""Smooth curve models, their rational points, and exact Q-divisors.

Five base models are supported. The projective line and elliptic curves in
short Weierstrass form over Q carry full arithmetic (principality, torsion,
cohomology dimensions). Abstract models only know their genus, so answers that
need actual point arithmetic degrade to Unknown there. Affine models exist as
bases for polyhedral divisors; global-section questions are undefined on them
and raise CurveDomainError.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm

from .errors import CurveDomainError, NonIntegralError, PointError, ShapeError
from .verdicts import Verdict


@dataclass(frozen=True)
class ProjectiveLine:
    @property
    def projective(self) -> bool:
        return True

    @property
    def genus(self) -> int:
        return 0


@dataclass(frozen=True)
class EllipticCurveQ:
    """y^2 = x^3 + a x + b with rational coefficients, smooth."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if 4 * self.a**3 + 27 * self.b**2 == 0:
            raise ShapeError("singular Weierstrass equation: 4a^3 + 27b^2 = 0")

    @property
    def projective(self) -> bool:
        return True

    @property
    def genus(self) -> int:
        return 1


@dataclass(frozen=True)
class AbstractProjectiveCurve:
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ShapeError("genus must be nonnegative")

    @property
    def projective(self) -> bool:
        return True


@dataclass(frozen=True)
class AffineLine:
    @property
    def projective(self) -> bool:
        return False


@dataclass(frozen=True)
class AbstractAffineCurve:
    @property
    def projective(self) -> bool:
        return False


CurveModel = (
    ProjectiveLine | EllipticCurveQ | AbstractProjectiveCurve | AffineLine | AbstractAffineCurve
)


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class P1Point:
    """Homogeneous (a : b), normalized primitive with b >= 0, and a = 1 at infinity."""

    a: int
    b: int

    def __str__(self) -> str:
        if self.b == 0:
            return "inf"
        if self.b == 1:
            return str(self.a)
        return f"{self.a}/{self.b}"

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

    @property
    def affine_value(self) -> Fraction:
        if self.b == 0:
            raise PointError("the point at infinity has no affine coordinate")
        return Fraction(self.a, self.b)


def p1_point(a, b=1) -> P1Point:
    a = Fraction(a)
    b = Fraction(b)
    num = a.numerator * b.denominator
    den = b.numerator * a.denominator
    if num == 0 and den == 0:
        raise PointError("(0 : 0) is not a point of the projective line")
    if den == 0:
        return P1Point(1, 0)
    g = gcd(abs(num), abs(den))
    num //= g
    den //= g
    if den < 0:
        num, den = -num, -den
    return P1Point(num, den)


P1_INFINITY = P1Point(1, 0)


@dataclass(frozen=True)
class EllipticPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class EllipticOrigin:
    """The point at infinity, identity of the group law."""

    def __str__(self) -> str:
        return "O"


EC_ORIGIN = EllipticOrigin()


@dataclass(frozen=True)
class LabelPoint:
    """Opaque named point on an abstract curve model."""

    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class RationalPoint:
    """Point of the affine line with exact coordinate."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def __str__(self) -> str:
        return str(self.value)


CurvePoint = P1Point | EllipticPoint | EllipticOrigin | LabelPoint | RationalPoint


def point_sort_key(pt: CurvePoint):
    if isinstance(pt, P1Point):
        if pt.is_infinity:
            return (1, Fraction(0), Fraction(0))
        return (0, pt.affine_value, Fraction(0))
    if isinstance(pt, EllipticOrigin):
        return (0, Fraction(0), Fraction(0))
    if isinstance(pt, EllipticPoint):
        return (1, pt.x, pt.y)
    if isinstance(pt, RationalPoint):
        return (0, pt.value, Fraction(0))
    if isinstance(pt, LabelPoint):
        return (0, pt.label, "")
    raise PointError(f"not a curve point: {pt!r}")


def validate_point(curve: CurveModel, pt: CurvePoint) -> None:
    """Raise PointError unless pt is a well-formed point of the given model."""
    if isinstance(curve, ProjectiveLine):
        if not isinstance(pt, P1Point):
            raise PointError(f"{pt} is not a point of the projective line")
        return
    if isinstance(curve, EllipticCurveQ):
        if isinstance(pt, EllipticOrigin):
            return
        if not isinstance(pt, EllipticPoint):
            raise PointError(f"{pt} is not a point of an elliptic curve")
        if pt.y**2 != pt.x**3 + curve.a * pt.x + curve.b:
            raise PointError(f"{pt} does not satisfy y^2 = x^3 + {curve.a} x + {curve.b}")
        return
    if isinstance(curve, (AbstractProjectiveCurve, AbstractAffineCurve)):
        if not isinstance(pt, LabelPoint):
            raise PointError(f"{pt} is not an opaque point label")
        return
    if isinstance(curve, AffineLine):
        if not isinstance(pt, RationalPoint):
            raise PointError(f"{pt} is not a rational point of the affine line")
        return
    raise PointError(f"unsupported curve model {curve!r}")


# ---------------------------------------------------------------------------
# divisors


@dataclass(frozen=True)
class QDivisor:
    """Formal Q-combination of points with nonzero exact coefficients."""

    curve: CurveModel
    terms: tuple[tuple[CurvePoint, Fraction], ...]

    def coeff(self, pt: CurvePoint) -> Fraction:
        for p, c in self.terms:
            if p == pt:
                return c
        return Fraction(0)

    @property
    def support(self) -> tuple[CurvePoint, ...]:
        return tuple(p for p, _ in self.terms)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        if self.curve != other.curve:
            raise ShapeError("divisors live on different curves")
        acc: dict[CurvePoint, Fraction] = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc.get(p, Fraction(0)) + c
        return divisor(self.curve, acc)

    def __neg__(self) -> "QDivisor":
        return divisor(self.curve, {p: -c for p, c in self.terms})

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self + (-other)

    def __rmul__(self, scalar) -> "QDivisor":
        s = Fraction(scalar)
        return divisor(self.curve, {p: s * c for p, c in self.terms})

    @property
    def is_zero(self) -> bool:
        return not self.terms


def divisor(curve: CurveModel, coefficients) -> QDivisor:
    """Build a QDivisor from a point -> coefficient mapping; zeros are dropped."""
    items = coefficients.items() if isinstance(coefficients, dict) else coefficients
    acc: dict[CurvePoint, Fraction] = {}
    for pt, c in items:
        validate_point(curve, pt)
        c = Fraction(c)
        if c == 0:
            continue
        if pt in acc:
            raise ShapeError(f"duplicate point {pt} in divisor data")
        acc[pt] = c
    ordered = tuple(sorted(acc.items(), key=lambda item: point_sort_key(item[0])))
    return QDivisor(curve=curve, terms=ordered)


def floor_divisor(d: QDivisor) -> QDivisor:
    return divisor(d.curve, {p: Fraction(floor(c)) for p, c in d.terms})


def is_integral(d: QDivisor) -> bool:
    return all(c.denominator == 1 for _, c in d.terms)


def denominator_lcm(d: QDivisor) -> int:
    out = 1
    for _, c in d.terms:
        out = lcm(out, c.denominator)
    return out


def degree(d: QDivisor) -> Fraction:
    if not d.curve.projective:
        raise CurveDomainError("degree is undefined on an affine curve model")
    return sum((c for _, c in d.terms), Fraction(0))


@dataclass(frozen=True)
class FormalClass:
    """A divisor class known only through its degree."""

    degree: Fraction


def canonical_divisor(curve: CurveModel):
    """Canonical divisor: exact on the line and on elliptic curves, formal otherwise."""
    if isinstance(curve, ProjectiveLine):
        return divisor(curve, {P1_INFINITY: Fraction(-2)})
    if isinstance(curve, EllipticCurveQ):
        return divisor(curve, {})
    if isinstance(curve, AbstractProjectiveCurve):
        return FormalClass(Fraction(2 * curve.genus - 2))
    raise CurveDomainError("canonical divisor is only provided on projective models")


# ---------------------------------------------------------------------------
# elliptic curve group law


def ec_neg(curve: EllipticCurveQ, p):
    validate_point(curve, p)
    if isinstance(p, EllipticOrigin):
        return EC_ORIGIN
    return EllipticPoint(p.x, -p.y)


def ec_add(curve: EllipticCurveQ, p, q):
    """Chord-tangent addition with exact rational slopes."""
    validate_point(curve, p)
    validate_point(curve, q)
    if isinstance(p, EllipticOrigin):
        return q
    if isinstance(q, EllipticOrigin):
        return p
    if p.x == q.x and p.y == -q.y:
        return EC_ORIGIN
    if p == q:
        slope = (3 * p.x**2 + curve.a) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope**2 - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return EllipticPoint(x3, y3)


def ec_multiple(curve: EllipticCurveQ, n: int, p):
    if n < 0:
        return ec_multiple(curve, -n, ec_neg(curve, p))
    acc = EC_ORIGIN
    base = p
    while n:
        if n & 1:
            acc = ec_add(curve, acc, base)
        base = ec_add(curve, base, base)
        n >>= 1
    return acc


def _class_sum(d: QDivisor):
    """Group-law sum of the points of an integral degree-zero divisor."""
    curve = d.curve
    acc = EC_ORIGIN
    for pt, c in d.terms:
        if isinstance(pt, EllipticOrigin):
            continue  # the origin contributes the identity
        acc = ec_add(curve, acc, ec_multiple(curve, int(c), pt))
    return acc


# ---------------------------------------------------------------------------
# principality, torsion, cohomology

# Rational torsion on an elliptic curve over Q has order at most 12, so a
# bounded multiple search decides the torsion question completely.
TORSION_ORDER_BOUND = 12


def is_principal(d: QDivisor) -> Verdict:
    if not d.curve.projective:
        raise CurveDomainError("principality is only defined on projective models")
    if not is_integral(d):
        raise NonIntegralError("principality needs an integral divisor")
    deg = degree(d)
    if isinstance(d.curve, ProjectiveLine):
        return Verdict.YES if deg == 0 else Verdict.NO
    if isinstance(d.curve, EllipticCurveQ):
        if deg != 0:
            return Verdict.NO
        return Verdict.YES if _class_sum(d) == EC_ORIGIN else Verdict.NO
    if deg != 0:
        return Verdict.NO
    if d.curve.genus == 0:
        return Verdict.YES  # a genus-zero smooth projective curve is the line
    return Verdict.UNKNOWN


def is_torsion_class(d: QDivisor) -> tuple[Verdict, int | None]:
    """Least order of the divisor class, searched up to the rational bound."""
    if not d.curve.projective:
        raise CurveDomainError("torsion is only defined on projective models")
    if not is_integral(d):
        raise NonIntegralError("torsion needs an integral divisor")
    if degree(d) != 0:
        raise ShapeError("torsion query needs a degree-zero divisor")
    if isinstance(d.curve, ProjectiveLine):
        return Verdict.YES, 1
    if isinstance(d.curve, EllipticCurveQ):
        s = _class_sum(d)
        acc = EC_ORIGIN
        for k in range(1, TORSION_ORDER_BOUND + 1):
            acc = ec_add(d.curve, acc, s)
            if acc == EC_ORIGIN:
                return Verdict.YES, k
        return Verdict.NO, None
    if d.curve.genus == 0:
        return Verdict.YES, 1
    return Verdict.UNKNOWN, None


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
