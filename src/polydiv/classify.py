"""Singularity classification of the section ring of a proper polyhedral divisor.

The spectrum of the graded ring of sections is a normal affine variety with a
torus action; the questions answered here are whether its singularities are
rational, Cohen-Macaulay, Gorenstein, elliptic, and minimally elliptic. Over a
projective base curve everything is controlled by the degrees of the rounded-
down evaluations and, in boundary cases, by principality of specific divisor
classes, so every criterion below reduces to finitely many exact checks.

Weight conventions: rank-one reports index weights by a nonnegative integer m
counting along the positive generator of the weight cone. Witnesses returned
for higher-rank questions are actual lattice weights (integer tuples).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from math import gcd, lcm
from operator import mul

from .curves import (
    AbstractProjectiveCurve,
    CurvePoint,
    QDivisor,
    canonical_divisor,
    divisor,
    h1_dims,
    is_principal,
)
from .errors import CurveDomainError, InternalError, NotProperError
from .geometry import ratvec
from .linalg import clear, dot
from .pdiv import (
    PolyhedralDivisor,
    PropernessReport,
    contraction_iso_codim1,
    is_proper,
    require_proper,
    unit_weight,
)
from .verdicts import Verdict


def _floor_at(d: PolyhedralDivisor, m: int) -> QDivisor:
    """The rounded-down evaluation at weight m along the unit weight, as a
    divisor: its coefficients are (m * p) // q, read off the slopes."""
    return divisor(d.base, {s.point: s.floor(m) for s in d.slopes})


def _h1_listing(d: PolyhedralDivisor) -> Iterator[int | None]:
    """dim H^1 of the rounded-down evaluation at m = 0 .. V, the vanishing
    degree, over the streamed floor degrees, as it is read: principality is
    tested at degree zero on an elliptic curve only, and only once the
    listing reaches that weight."""
    return h1_dims(
        d.base, d.floor_degrees(d.vanishing_degree), lambda m: is_principal(_floor_at(d, m))
    )


# ---------------------------------------------------------------------------
# the bounded search behind the rationality test


def decide_floor_bound(d: PolyhedralDivisor, c: int) -> tuple[int, ...] | None:
    """Does deg of the rounded-down evaluation stay >= c on the weight monoid?

    Returns None when the bound holds everywhere, otherwise a violating
    lattice weight: the lexicographically first one of the first chamber,
    in fan order, that holds one. The exception: without coefficients
    every degree is 0 and no chamber fan is built, so the answer is None for
    c <= 0 and the zero weight otherwise, though the search would find a
    lexicographically smaller one, (-1, 0), on the tail rays (-1, 0), (0, 1).

    The search runs in integers, chamber by chamber. On a chamber each
    coefficient is minimized by one vertex v_z = n_z / q_z
    (``Chamber.minimizers``), so the rounded-down degree at m is
    sum(<m, n_z> // q_z) and the degree is <D, m> for D = sum(n_z / q_z).
    Since a // q >= (a - q + 1) / q, a violator has <D, m> <= slack =
    c - 1 + sum((q_z - 1) / q_z); degrees are >= 0 on the chamber, so a
    negative slack rules it out at once. Otherwise every violator lies in
    the region cut out by the facet normals f_i of the chamber
    (0 <= <f_i, m>), the degree row <D, m> <= slack, and the period cap
    <f_i, m> <= cap_i <f_i, u_i> along each degree-zero ray u_i, where cap_i
    is the lcm over z of the denominators of <u_i, n_z> / q_z. The region
    is bounded; the search walks the first rank - 1 coordinates over its
    bounding box in lexicographic order and solves the rows for the range
    of the last coordinate, scanning it upward.
    """
    if not d.base.projective:
        raise CurveDomainError("floor-degree bounds need a projective base curve")
    if not d.coefficients:
        return None if c <= 0 else tuple(0 for _ in range(d.rank))
    for u, g in d.ray_degrees.items():
        if g < 0:
            raise NotProperError(
                f"degree {g} at weight {u}: the divisor is not semiample there",
                witness=ratvec(u),
            )
    for chamber in d.fan.chambers:
        witness = _search_chamber(chamber, c)
        if witness is not None:
            return witness
    return None


def _search_chamber(chamber, c: int) -> tuple[int, ...] | None:
    rays = chamber.rays
    k = len(rays)
    floors = [clear(v) for v in chamber.minimizers]
    # the degree row and the slack, cleared over the lcm of the q_z
    big = lcm(*(q for _, q in floors))
    slack = big * (c - 1) + sum(big - big // q for _, q in floors)
    if slack < 0:
        return None
    degree_row = tuple(sum(n[i] * (big // q) for n, q in floors) for i in range(k))
    # m = sum lam_i u_i, and the facet normal f_i is positive on u_i and zero
    # on the other rays, so lam_i = <f_i, m> / <f_i, u_i>
    rows = [(degree_row, slack)]
    # the bounding box: a box along the degree-zero rays, plus the simplex
    # of lam with sum lam_i g_i <= slack along the others
    box = [(0, 0)] * k
    tips = [(0, 0)] * k
    for u, f in zip(rays, chamber.facets):
        rows.append((tuple(-x for x in f), 0))
        g = dot(degree_row, u)
        if g > 0:
            tips = [
                (min(a, slack * x // g), max(b, -(-slack * x // g))) for (a, b), x in zip(tips, u)
            ]
            continue
        # period of the rounded-down evaluations along this ray: the
        # minimizers are minimal at u, so <u, v_z> = <n_z, u> / q_z
        cap = lcm(*(q // gcd(dot(n, u), q) for n, q in floors))
        rows.append((f, cap * dot(f, u)))
        box = [(a + min(0, cap * x), b + max(0, cap * x)) for (a, b), x in zip(box, u)]
    box = [(a + s, b + t) for (a, b), (s, t) in zip(box, tips)]
    for head in cartesian_product(*(range(a, b + 1) for a, b in box[:-1])):
        # the rows <a, m> <= b as an interval for the last coordinate
        low, high = box[-1]
        for a, b in rows:
            rest = b - sum(map(mul, a, head))
            if a[-1] > 0:
                high = min(high, rest // a[-1])
            elif a[-1] < 0:
                low = max(low, -(rest // -a[-1]))
            elif rest < 0:
                high = low - 1
        parts = [(sum(map(mul, n, head)), n[-1], q) for n, q in floors]
        for t in range(low, high + 1):
            if sum((b + x * t) // q for b, x, q in parts) < c:
                return (*head, t)
    return None


# ---------------------------------------------------------------------------
# rational singularities


@dataclass(frozen=True)
class RationalReport:
    verdict: Verdict
    criterion: str
    witness: tuple[int, ...] | None = None


def rational_singularities(d: PolyhedralDivisor) -> RationalReport:
    """Rationality of the singularities of the section-ring spectrum.

    Affine bases always qualify. Over a projective curve of positive genus
    the structure sheaf itself has cohomology, so the answer is no, witnessed
    at weight zero. In genus zero the criterion is that every rounded-down
    evaluation has degree at least -1; the bounded search decides it exactly.
    """
    require_proper(d)
    if not d.base.projective:
        return RationalReport(Verdict.YES, "affine-base")
    g = d.base.genus
    if g >= 1:
        return RationalReport(
            Verdict.NO,
            "positive-genus-base",
            witness=tuple(0 for _ in range(d.rank)),
        )
    witness = decide_floor_bound(d, -1)
    if witness is None:
        return RationalReport(Verdict.YES, "floor-degrees-at-least-minus-one")
    return RationalReport(Verdict.NO, "floor-degrees-at-least-minus-one", witness=witness)


# ---------------------------------------------------------------------------
# Cohen-Macaulay


@dataclass(frozen=True)
class CohenMacaulayReport:
    verdict: Verdict
    criterion: str


def cohen_macaulay(d: PolyhedralDivisor, isolated: bool = False) -> CohenMacaulayReport:
    """Cohen-Macaulay property of the section ring.

    Rational singularities suffice; rank one gives a normal surface, which is
    always Cohen-Macaulay. In higher rank with non-rational singularities the
    property matches rationality whenever the canonical contraction changes
    nothing in codimension one, or when the singular point is asserted to be
    isolated; otherwise the question is left open.
    """
    require_proper(d)
    return _cohen_macaulay(d, isolated)


def _cohen_macaulay(
    d: PolyhedralDivisor, isolated: bool, rational: RationalReport | None = None
) -> CohenMacaulayReport:
    """The decision for a proper divisor; rationality is decided here, unless
    given, and only for rank >= 2 over a projective curve."""
    if not d.base.projective:
        return CohenMacaulayReport(Verdict.YES, "affine-base")
    if d.rank == 1:
        return CohenMacaulayReport(Verdict.YES, "normal-surface")
    if rational is None:
        rational = rational_singularities(d)
    if rational.verdict == Verdict.YES:
        return CohenMacaulayReport(Verdict.YES, "rational-singularities")
    if contraction_iso_codim1(d) == Verdict.YES:
        return CohenMacaulayReport(Verdict.NO, "matches-rationality-small-contraction")
    if isolated:
        return CohenMacaulayReport(Verdict.NO, "matches-rationality-isolated-singularity")
    return CohenMacaulayReport(Verdict.UNKNOWN, "needs-isolatedness-assertion")


# ---------------------------------------------------------------------------
# Gorenstein


@dataclass(frozen=True)
class GorensteinReport:
    verdict: Verdict
    criterion: str
    canonical_index: Fraction | None = None
    vertical_multiplicities: tuple[tuple[CurvePoint, Fraction], ...] = ()
    canonical_difference: QDivisor | None = None


def gorenstein(d: PolyhedralDivisor) -> GorensteinReport:
    """Gorenstein property, decided through the canonical divisor class.

    Rank one over a projective curve: the canonical class of the section-ring
    spectrum is represented by one weight (the canonical index) together with
    one integer multiplicity per marked fiber. The ring is Gorenstein exactly
    when the index and all multiplicities are integers and the resulting
    divisor differs from the canonical divisor of the base by a principal one.
    """
    require_proper(d)
    if not d.base.projective:
        return GorensteinReport(Verdict.NOT_APPLICABLE, "affine-base")
    if d.rank != 1:
        return GorensteinReport(Verdict.NOT_APPLICABLE, "higher-rank-criteria-unavailable")

    slopes = d.slopes
    genus = d.base.genus
    deg1 = d.ray_degrees[unit_weight(d)]
    index = (2 * genus - 2 + sum(Fraction(s.q - 1, s.q) for s in slopes)) / deg1
    if index.denominator != 1:
        return GorensteinReport(Verdict.NO, "canonical-index-not-integral", canonical_index=index)
    multiplicities = tuple(
        (s.point, Fraction(s.p * index.numerator + 1 - s.q, s.q)) for s in slopes
    )
    if any(v.denominator != 1 for _, v in multiplicities):
        return GorensteinReport(
            Verdict.NO,
            "vertical-multiplicity-not-integral",
            canonical_index=index,
            vertical_multiplicities=multiplicities,
        )
    if isinstance(d.base, AbstractProjectiveCurve):
        # only the degree of the canonical class is known, and the
        # multiplicities sum to index * deg1 + sum(1 / q_z) - count = 2g - 2
        difference = None
        verdict = Verdict.YES if genus == 0 else Verdict.UNKNOWN
    else:
        difference = divisor(d.base, dict(multiplicities)) - canonical_divisor(d.base)
        verdict = is_principal(difference)
    criterion = {
        Verdict.YES: "canonical-difference-principal",
        Verdict.NO: "canonical-difference-not-principal",
        Verdict.UNKNOWN: "principality-undecided-on-abstract-base",
    }[verdict]
    return GorensteinReport(
        verdict,
        criterion,
        canonical_index=index,
        vertical_multiplicities=multiplicities,
        canonical_difference=difference,
    )


# ---------------------------------------------------------------------------
# elliptic singularities


@dataclass(frozen=True)
class EllipticReport:
    verdict: Verdict
    criterion: str
    witness_m: int | None = None


def elliptic_singularity(d: PolyhedralDivisor) -> EllipticReport:
    """Is the singular point of the section-ring spectrum elliptic?

    Genus zero: the rounded-down degrees must never drop below -2 and must
    hit -2 exactly once; that weight carries the one unit of cohomology.
    Genus one: every positive weight must have nonnegative rounded-down
    degree and the degree-zero ones must be non-principal, so the unit of
    cohomology sits at weight zero. Genus two or more always fails already
    at weight zero. Both scans read the h1 listing of h1_report, lazily:
    the genus-one scan tests no principality past its witness.

    Rounding down loses less than one unit per marked point, so the degree
    at m exceeds m * deg1 - count. From m >= (count - 2) / deg1 on it is at
    least -1 in genus zero, and from m >= count / deg1 on it is positive in
    genus one: both scans stop there, whatever the denominators of the
    slopes, and no later weight can change the verdict or the witness.
    """
    require_proper(d)
    return _elliptic_singularity(d)


def _elliptic_singularity(d: PolyhedralDivisor, h1: Iterable | None = None) -> EllipticReport:
    """The decision for a proper divisor; the h1 listing from weight zero on
    is read here, unless given. In genus zero an entry above 1 is a degree
    below -2 and an entry of 1 a degree of -2; in genus one a positive entry
    is a negative degree or a principal floor."""
    if not d.base.projective:
        return EllipticReport(Verdict.NO, "affine-base-rational")
    if d.rank != 1:
        return EllipticReport(Verdict.UNKNOWN, "higher-rank-criteria-unavailable")
    genus = d.base.genus
    if genus >= 2:
        return EllipticReport(Verdict.NO, "genus-at-least-two-base", witness_m=0)
    listing = enumerate(_h1_listing(d) if h1 is None else h1)
    next(listing)  # both scans read the positive weights only

    if genus == 0:
        hits = []  # the first two weights of degree -2, all the verdict reads
        for m, h in listing:
            if h > 1:
                return EllipticReport(Verdict.NO, "floor-degree-below-minus-two", witness_m=m)
            if h and len(hits) < 2:
                hits.append(m)
        if len(hits) == 1:
            return EllipticReport(Verdict.YES, "unique-floor-degree-minus-two", witness_m=hits[0])
        if not hits:
            return EllipticReport(Verdict.NO, "no-floor-degree-minus-two")
        return EllipticReport(Verdict.NO, "repeated-floor-degree-minus-two", witness_m=hits[1])

    undecided = None
    for m, h in listing:
        if h is None:
            undecided = m
        elif h:
            negative = sum(s.floor(m) for s in d.slopes) < 0
            slug = "negative-floor-degree" if negative else "principal-floor"
            return EllipticReport(Verdict.NO, f"{slug}-on-genus-one-base", witness_m=m)
    if undecided is not None:
        return EllipticReport(
            Verdict.UNKNOWN, "principality-undecided-on-abstract-base", witness_m=undecided
        )
    return EllipticReport(Verdict.YES, "genus-one-base-floors-never-principal", witness_m=0)


def minimal_elliptic_verdict(elliptic: EllipticReport, gor: GorensteinReport) -> Verdict:
    """Minimally elliptic = elliptic and Gorenstein."""
    if elliptic.verdict == Verdict.NO:
        return Verdict.NO
    if gor.verdict == Verdict.NO:
        return Verdict.NO
    if elliptic.verdict == Verdict.YES and gor.verdict == Verdict.YES:
        return Verdict.YES
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# cohomology report


@dataclass(frozen=True)
class H1Report:
    """First cohomology of the rounded-down evaluations, weight by weight.

    bound is max(V, 1), V the divisor's vanishing degree: every entry past V
    provably vanishes, and the default listing ends at bound. total sums the
    whole series and is None when some entry is undecidable.
    """

    bound: int
    entries: tuple[tuple[int, int | None], ...]
    total: int | None


def h1_report(d: PolyhedralDivisor, m_max: int | None = None) -> H1Report:
    """dim H^1 of the rounded-down evaluation at m = 0 .. bound (or m_max).

    Entries come from the integer floor-degree kernel: the degree at weight m
    is sum((m * p) // q) over the ray slopes, and on every base model the
    degree alone fixes dim H^1, except at degree zero on an elliptic curve
    (see h1_dims). Only there is the rounded-down divisor built, to test its
    principality.

    Rounding down loses less than one unit per marked point, so the degree
    at m exceeds m * deg1 - count, which is at least 2g - 2 once
    m >= V = max(ceil((count + 2g - 2) / deg1), 0). Past V, H^1 vanishes on
    every base model: these are the only nonzero summands of
    R^1 pi_* O = sum_m H^1(Y, O(floor D(m))). Entries are computed over the
    floor degrees streamed up to V, the total is their sum, and the listing
    ends at bound = max(V, 1); only that floor of 1, or an m_max beyond V,
    lists 0 past V. Nothing depends on the period lcm(q) of the slopes, so
    neither the work nor the listing grows with the denominators.
    """
    require_proper(d)
    if not d.base.projective:
        raise CurveDomainError("cohomology reports need a projective base curve")
    values = list(_h1_listing(d))
    total = None if None in values else sum(values)
    bound = max(d.vanishing_degree, 1)
    top = bound if m_max is None else m_max
    values += [0] * (top + 1 - len(values))
    return H1Report(bound=bound, entries=tuple(enumerate(values[: top + 1])), total=total)


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class ClassifyReport:
    properness: PropernessReport
    rational: RationalReport
    cohen_macaulay: CohenMacaulayReport
    gorenstein: GorensteinReport
    elliptic: EllipticReport
    minimal_elliptic: Verdict
    h1: H1Report | None


def _check_consistency(rational: RationalReport, ell: EllipticReport, h1: H1Report | None) -> None:
    """Raise InternalError unless the implications that hold by construction do.

    An elliptic singularity is not rational and carries exactly one unit of
    cohomology; rational singularities are exactly those with no cohomology.
    """
    total = h1.total if h1 is not None else None
    if ell.verdict == Verdict.YES:
        if rational.verdict != Verdict.NO:
            raise InternalError(
                f"elliptic singularity reported with rationality verdict {rational.verdict.value}"
            )
        if total is not None and total != 1:
            raise InternalError(f"elliptic singularity reported with h1 total {total}")
    if total is not None and rational.verdict != Verdict.UNKNOWN:
        if (rational.verdict == Verdict.YES) != (total == 0):
            raise InternalError(
                f"rationality verdict {rational.verdict.value} disagrees with h1 total {total}"
            )


def classify_report(d: PolyhedralDivisor, isolated: bool = False) -> ClassifyReport:
    """Run every classifier and cross-check the answers against each other."""
    prop = is_proper(d)
    # a divisor that is not proper is refused by rational_singularities below
    if prop.verdict == Verdict.UNKNOWN:
        pending = "properness-undecided"
        return ClassifyReport(
            properness=prop,
            rational=RationalReport(Verdict.UNKNOWN, pending),
            cohen_macaulay=CohenMacaulayReport(Verdict.UNKNOWN, pending),
            gorenstein=GorensteinReport(Verdict.UNKNOWN, pending),
            elliptic=EllipticReport(Verdict.UNKNOWN, pending),
            minimal_elliptic=Verdict.UNKNOWN,
            h1=None,
        )

    rational = rational_singularities(d)
    cm = _cohen_macaulay(d, isolated, rational)
    gor = gorenstein(d)
    h1 = None
    if d.rank == 1 and d.base.projective:
        h1 = h1_report(d)
    ell = _elliptic_singularity(d, None if h1 is None else (h for _, h in h1.entries))
    minimal = minimal_elliptic_verdict(ell, gor)

    _check_consistency(rational, ell, h1)

    return ClassifyReport(
        properness=prop,
        rational=rational,
        cohen_macaulay=cm,
        gorenstein=gor,
        elliptic=ell,
        minimal_elliptic=minimal,
        h1=h1,
    )
