from fractions import Fraction
from math import ceil
from random import Random

import pytest

import polydiv.classify as classify_module
import polydiv.pdiv as pdiv_module
from polydiv.classify import (
    EllipticReport,
    H1Report,
    classify_report,
    cohen_macaulay,
    decide_floor_bound,
    elliptic_singularity,
    floor_degree_profile,
    gorenstein,
    h1_report,
    minimal_elliptic_verdict,
    rational_singularities,
    ray_slopes,
)
from polydiv.curves import (
    EC_ORIGIN,
    P1_INFINITY,
    AbstractProjectiveCurve,
    AffineLine,
    EllipticCurveQ,
    EllipticPoint,
    LabelPoint,
    ProjectiveLine,
    RationalPoint,
    degree,
    denominator_lcm,
    floor_divisor,
    h1_dim,
    is_principal,
    p1_point,
)
from polydiv.errors import CurveDomainError, NotProperError, ShapeError
from polydiv.geometry import make_cone, make_polyhedron
from polydiv.pdiv import evaluate, is_proper, polyhedral_divisor
from polydiv.verdicts import Verdict

P1 = ProjectiveLine()
RAY = ((1,),)


def halfline(vertex):
    return make_polyhedron([(Fraction(vertex),)], make_cone(RAY, 1))


def rank1(base, coeffs):
    return polyhedral_divisor(base, 1, RAY, {pt: halfline(v) for pt, v in coeffs.items()})


def quadrant_poly(*vertices):
    tail = make_cone(((1, 0), (0, 1)), 2)
    return make_polyhedron([tuple(Fraction(x) for x in v) for v in vertices], tail)


GOLDEN = {
    "one": {
        p1_point(0): Fraction(-1, 4),
        p1_point(1): Fraction(-1, 4),
        P1_INFINITY: Fraction(3, 4),
    },
    "two": {
        p1_point(0): Fraction(-1, 3),
        p1_point(1): Fraction(-1, 3),
        P1_INFINITY: Fraction(3, 4),
    },
    "three": {
        p1_point(0): Fraction(-2, 3),
        p1_point(1): Fraction(-2, 3),
        P1_INFINITY: Fraction(17, 12),
    },
}


def golden(name):
    return rank1(P1, GOLDEN[name])


def test_ray_slopes_lowest_terms():
    slopes = ray_slopes(golden("one"))
    assert [(str(s.point), s.p, s.q) for s in slopes] == [
        ("0", -1, 4),
        ("1", -1, 4),
        ("inf", 3, 4),
    ]


def test_floor_degree_profile_golden_one():
    assert floor_degree_profile(golden("one"), 4) == (0, -2, -1, 0, 1)


def test_floor_degree_profile_golden_three():
    profile = floor_degree_profile(golden("three"), 12)
    assert profile == (0, -1, -2, 0, -1, -1, 0, -1, -1, 0, 0, -1, 1)


def test_profile_quasi_periodicity():
    d = golden("two")
    profile = floor_degree_profile(d, 36)
    period = 12
    step = 1  # period * degree = 12 * 1/12
    for m in range(0, 25):
        assert profile[m + period] == profile[m] + step


def test_decide_floor_bound_rank1():
    assert decide_floor_bound(golden("one"), -1) == (1,)
    assert decide_floor_bound(golden("three"), -1) == (2,)
    assert decide_floor_bound(golden("one"), -2) is None
    smooth = rank1(P1, {p1_point(0): 1})
    assert decide_floor_bound(smooth, 0) is None


def test_decide_floor_bound_rank2():
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {
            p1_point(0): quadrant_poly((Fraction(-1, 4), Fraction(-1, 4))),
            P1_INFINITY: quadrant_poly((1, 1)),
        },
    )
    assert decide_floor_bound(d, -1) is None
    assert decide_floor_bound(d, 0) is None
    assert decide_floor_bound(d, 1) == (0, 0)


def test_decide_floor_bound_rejects_nonproper():
    bad = rank1(P1, {p1_point(0): -1})
    with pytest.raises(NotProperError):
        decide_floor_bound(bad, -1)


def test_rational_golden_examples_are_not_rational():
    for name, witness in [("one", (1,)), ("two", (1,)), ("three", (2,))]:
        report = rational_singularities(golden(name))
        assert report.verdict == Verdict.NO
        assert report.witness == witness
        assert report.criterion == "floor-degrees-at-least-minus-one"


def test_rational_affine_and_quotient_cases():
    aff = rank1(AffineLine(), {RationalPoint(0): Fraction(-1, 4)})
    assert rational_singularities(aff).verdict == Verdict.YES
    quotient = rank1(P1, {p1_point(0): Fraction(-1, 2), P1_INFINITY: Fraction(3, 4)})
    assert rational_singularities(quotient).verdict == Verdict.YES


def test_rational_positive_genus_base():
    e = EllipticCurveQ(-1, 0)
    d = rank1(e, {EllipticPoint(0, 0): Fraction(1, 2)})
    report = rational_singularities(d)
    assert report.verdict == Verdict.NO
    assert report.witness == (0,)
    assert report.criterion == "positive-genus-base"


def test_cohen_macaulay_rank_one_is_surface():
    report = cohen_macaulay(golden("one"))
    assert report.verdict == Verdict.YES and report.criterion == "normal-surface"


def test_cohen_macaulay_rank_two_rational():
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {
            p1_point(0): quadrant_poly((Fraction(-1, 2), 0)),
            P1_INFINITY: quadrant_poly((1, Fraction(1, 2))),
        },
    )
    report = cohen_macaulay(d)
    assert report.verdict == Verdict.YES and report.criterion == "rational-singularities"


def test_cohen_macaulay_rank_two_genus_one_small_contraction():
    e = EllipticCurveQ(-1, 0)
    d = polyhedral_divisor(
        e,
        2,
        ((1, 0), (0, 1)),
        {EllipticPoint(0, 0): quadrant_poly((Fraction(1, 2), Fraction(1, 2)))},
    )
    report = cohen_macaulay(d)
    assert report.verdict == Verdict.NO
    assert report.criterion == "matches-rationality-small-contraction"


def test_cohen_macaulay_rank_two_needs_isolated_assertion():
    e = EllipticCurveQ(-1, 0)
    d = polyhedral_divisor(
        e,
        2,
        ((1, 0), (0, 1)),
        {EllipticPoint(0, 0): quadrant_poly((0, 1)), EC_ORIGIN: quadrant_poly((1, -1))},
    )
    assert cohen_macaulay(d).verdict == Verdict.UNKNOWN
    assert cohen_macaulay(d).criterion == "needs-isolatedness-assertion"
    forced = cohen_macaulay(d, isolated=True)
    assert forced.verdict == Verdict.NO
    assert forced.criterion == "matches-rationality-isolated-singularity"


def test_gorenstein_golden_one():
    report = gorenstein(golden("one"))
    assert report.verdict == Verdict.YES
    assert report.canonical_index == 1
    assert dict((str(p), v) for p, v in report.vertical_multiplicities) == {
        "0": -1,
        "1": -1,
        "inf": 0,
    }
    diff = report.canonical_difference
    assert diff.coeff(p1_point(0)) == -1
    assert diff.coeff(P1_INFINITY) == 2
    assert degree(diff) == 0


def test_gorenstein_golden_two():
    report = gorenstein(golden("two"))
    assert report.verdict == Verdict.YES and report.canonical_index == 1


def test_gorenstein_golden_three_fractional_multiplicity():
    report = gorenstein(golden("three"))
    assert report.verdict == Verdict.NO
    assert report.criterion == "vertical-multiplicity-not-integral"
    assert report.canonical_index == 3
    assert report.vertical_multiplicities[0][1] == Fraction(-8, 3)


def test_gorenstein_fractional_index():
    # degree = -1/4 + 1/3 + 1/2 = 7/12; index = (-2 + 3/4 + 2/3 + 1/2) / (7/12) = -1/7
    d = rank1(
        P1,
        {p1_point(0): Fraction(-1, 4), p1_point(1): Fraction(1, 3), P1_INFINITY: Fraction(1, 2)},
    )
    report = gorenstein(d)
    assert report.verdict == Verdict.NO
    assert report.criterion == "canonical-index-not-integral"
    assert report.canonical_index == Fraction(-1, 7)


def test_gorenstein_affine_and_higher_rank_not_applicable():
    aff = rank1(AffineLine(), {RationalPoint(0): Fraction(1, 2)})
    assert gorenstein(aff).verdict == Verdict.NOT_APPLICABLE
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {p1_point(0): quadrant_poly((Fraction(1, 2), Fraction(1, 2)))},
    )
    assert gorenstein(d).verdict == Verdict.NOT_APPLICABLE


def test_gorenstein_abstract_base_degree_test():
    g2 = AbstractProjectiveCurve(2)
    d = rank1(g2, {LabelPoint("p"): Fraction(1, 2)})
    report = gorenstein(d)
    # index (2 + 1/2)/(1/2) = 5, multiplicity (5 + 1)/2 - 1 = 2, degree matches 2g - 2
    assert report.canonical_index == 5
    assert report.verdict == Verdict.UNKNOWN
    assert report.criterion == "principality-undecided-on-abstract-base"
    shifted = rank1(g2, {LabelPoint("p"): Fraction(1, 2), LabelPoint("q"): 1})
    # index (2 + 1/2)/(3/2) = 5/3: fractional
    assert gorenstein(shifted).verdict == Verdict.NO


def test_elliptic_golden_examples():
    for name, witness in [("one", 1), ("two", 1), ("three", 2)]:
        report = elliptic_singularity(golden(name))
        assert report.verdict == Verdict.YES
        assert report.criterion == "unique-floor-degree-minus-two"
        assert report.witness_m == witness


def test_elliptic_rejects_rational_profile():
    smooth = rank1(P1, {p1_point(0): 1})
    report = elliptic_singularity(smooth)
    assert report.verdict == Verdict.NO and report.criterion == "no-floor-degree-minus-two"


def test_elliptic_below_minus_two():
    # floors at m = 3: 4 * floor(-9/4) + floor(37/4) = -12 + 9 = -3
    deep = rank1(
        P1,
        {
            p1_point(0): Fraction(-3, 4),
            p1_point(1): Fraction(-3, 4),
            p1_point(2): Fraction(-3, 4),
            p1_point(3): Fraction(-3, 4),
            P1_INFINITY: Fraction(37, 12),
        },
    )
    report = elliptic_singularity(deep)
    assert report.verdict == Verdict.NO
    assert report.criterion == "floor-degree-below-minus-two"
    assert report.witness_m == 3


def test_elliptic_repeated_minus_two():
    # floors hit -2 at m = 1 (-1 - 1 - 1 + 1) and again at m = 3 (-2 - 2 - 2 + 4)
    repeated = rank1(
        P1,
        {
            p1_point(0): Fraction(-1, 2),
            p1_point(1): Fraction(-1, 2),
            P1_INFINITY: Fraction(-1, 2),
            p1_point(2): Fraction(19, 12),
        },
    )
    report = elliptic_singularity(repeated)
    assert report.verdict == Verdict.NO
    assert report.criterion == "repeated-floor-degree-minus-two"
    assert report.witness_m == 3


def test_elliptic_genus_one_cone_over_curve():
    e = EllipticCurveQ(-1, 0)
    cone_over_curve = rank1(e, {EllipticPoint(0, 0): 1})
    report = elliptic_singularity(cone_over_curve)
    assert report.verdict == Verdict.YES
    assert report.criterion == "genus-one-base-floors-never-principal"
    assert report.witness_m == 0
    gor = gorenstein(cone_over_curve)
    assert gor.verdict == Verdict.YES
    assert minimal_elliptic_verdict(report, gor) == Verdict.YES


def test_elliptic_genus_one_principal_floor_fails():
    e = EllipticCurveQ(-1, 0)
    d = rank1(e, {EllipticPoint(0, 0): Fraction(1, 2)})
    report = elliptic_singularity(d)
    assert report.verdict == Verdict.NO
    assert report.criterion == "principal-floor-on-genus-one-base"
    assert report.witness_m == 1


def test_elliptic_genus_one_nonprincipal_degree_zero_floor():
    e = EllipticCurveQ(-1, 0)
    p = EllipticPoint(0, 0)
    q = EllipticPoint(1, 0)
    d = rank1(e, {p: 1, EC_ORIGIN: -1, q: Fraction(1, 2)})
    report = elliptic_singularity(d)
    assert report.verdict == Verdict.YES
    assert report.witness_m == 0
    gor = gorenstein(d)
    assert gor.verdict == Verdict.NO
    assert gor.criterion == "canonical-difference-not-principal"
    assert minimal_elliptic_verdict(report, gor) == Verdict.NO


def test_elliptic_genus_one_abstract_is_undecided():
    g1 = AbstractProjectiveCurve(1)
    d = rank1(g1, {LabelPoint("p"): 1, LabelPoint("q"): -1, LabelPoint("r"): Fraction(1, 2)})
    report = elliptic_singularity(d)
    assert report.verdict == Verdict.UNKNOWN
    assert report.witness_m == 1


def test_elliptic_genus_two_and_affine():
    g2 = AbstractProjectiveCurve(2)
    d = rank1(g2, {LabelPoint("p"): Fraction(1, 2)})
    assert elliptic_singularity(d).verdict == Verdict.NO
    aff = rank1(AffineLine(), {RationalPoint(0): Fraction(1, 2)})
    assert elliptic_singularity(aff).verdict == Verdict.NO


def test_h1_report_golden_examples():
    for name, witness in [("one", 1), ("two", 1), ("three", 2)]:
        report = h1_report(golden(name))
        assert report.total == 1
        as_dict = dict(report.entries)
        assert as_dict[witness] == 1
        assert all(v == 0 for m, v in report.entries if m != witness)


def test_h1_report_bound_and_override():
    report = h1_report(golden("one"))
    assert report.bound == 12
    assert report.entries[0] == (0, 0) and report.entries[-1][0] == 12
    short = h1_report(golden("one"), m_max=3)
    assert [m for m, _ in short.entries] == [0, 1, 2, 3]
    assert short.total == 1  # total still sums the full series


def test_h1_report_requires_projective_rank_one():
    aff = rank1(AffineLine(), {RationalPoint(0): Fraction(1, 2)})
    with pytest.raises(CurveDomainError):
        h1_report(aff)
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {p1_point(0): quadrant_poly((Fraction(1, 2), Fraction(1, 2)))},
    )
    with pytest.raises(ShapeError):
        h1_report(d)


def test_classify_report_golden_one():
    report = classify_report(golden("one"))
    assert report.properness.verdict == Verdict.YES
    assert report.rational.verdict == Verdict.NO
    assert report.cohen_macaulay.verdict == Verdict.YES
    assert report.gorenstein.verdict == Verdict.YES
    assert report.elliptic.verdict == Verdict.YES
    assert report.minimal_elliptic == Verdict.YES
    assert report.h1.total == 1


def test_classify_report_golden_three_not_minimal():
    report = classify_report(golden("three"))
    assert report.elliptic.verdict == Verdict.YES
    assert report.gorenstein.verdict == Verdict.NO
    assert report.minimal_elliptic == Verdict.NO


def test_classify_report_rejects_nonproper():
    bad = rank1(P1, {p1_point(0): -1})
    with pytest.raises(NotProperError):
        classify_report(bad)


def test_classify_report_rational_cone():
    smooth = rank1(P1, {p1_point(0): 1})
    report = classify_report(smooth)
    assert report.rational.verdict == Verdict.YES
    assert report.h1.total == 0
    assert report.elliptic.verdict == Verdict.NO
    assert report.minimal_elliptic == Verdict.NO


def test_classify_report_builds_one_fan_and_runs_one_search(monkeypatch):
    calls = {"fan": 0, "search": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pdiv_module, "chamber_fan", counted("fan", pdiv_module.chamber_fan))
    monkeypatch.setattr(
        classify_module, "decide_floor_bound", counted("search", decide_floor_bound)
    )
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {
            p1_point(0): quadrant_poly((Fraction(-1, 2), 0), (0, Fraction(-1, 3))),
            P1_INFINITY: quadrant_poly((1, Fraction(1, 2))),
        },
    )
    report = classify_report(d)
    assert report.cohen_macaulay.criterion == "rational-singularities"
    assert calls == {"fan": 1, "search": 1}
    assert is_proper(d) is report.properness  # later questions read the kept report
    assert calls["fan"] == 1


# ---------------------------------------------------------------------------
# the integer floor-degree kernel against the QDivisor reference path


def reference_bound(d):
    ev1 = evaluate(d, 1)
    excess = max(2 * d.base.genus - 2, 0)
    return max(ceil(Fraction(len(d.coefficients) + excess) / degree(ev1)), denominator_lcm(ev1), 1)


def reference_h1(d, m_max=None):
    """h1_report rebuilt from h1_dim(floor_divisor(evaluate(d, m))) at every m."""
    bound = reference_bound(d)
    top = bound if m_max is None else m_max
    values = [h1_dim(floor_divisor(evaluate(d, m))) for m in range(max(bound, top) + 1)]
    series = values[: bound + 1]
    total = None if None in series else sum(series)
    return H1Report(bound, tuple(enumerate(values[: top + 1])), total)


def reference_elliptic(d):
    """elliptic_singularity rebuilt from the rounded-down divisors themselves."""
    ev1 = evaluate(d, 1)
    count = len(d.coefficients)
    genus = d.base.genus
    if genus == 0:
        top = max(ceil(Fraction(count - 2) / degree(ev1)), denominator_lcm(ev1), 1)
        degs = {m: degree(floor_divisor(evaluate(d, m))) for m in range(1, top + 1)}
        below = [m for m, g in degs.items() if g < -2]
        hits = [m for m, g in degs.items() if g == -2]
        if below:
            return EllipticReport(Verdict.NO, "floor-degree-below-minus-two", below[0])
        if len(hits) == 1:
            return EllipticReport(Verdict.YES, "unique-floor-degree-minus-two", hits[0])
        if not hits:
            return EllipticReport(Verdict.NO, "no-floor-degree-minus-two")
        return EllipticReport(Verdict.NO, "repeated-floor-degree-minus-two", hits[1])
    if genus == 1:
        undecided = None
        for m in range(1, max(ceil(Fraction(count) / degree(ev1)), 1) + 1):
            fl = floor_divisor(evaluate(d, m))
            if degree(fl) < 0:
                return EllipticReport(Verdict.NO, "negative-floor-degree-on-genus-one-base", m)
            if degree(fl) == 0:
                principal = is_principal(fl)
                if principal == Verdict.YES:
                    return EllipticReport(Verdict.NO, "principal-floor-on-genus-one-base", m)
                if principal == Verdict.UNKNOWN:
                    undecided = m
        if undecided is not None:
            return EllipticReport(
                Verdict.UNKNOWN, "principality-undecided-on-abstract-base", undecided
            )
        return EllipticReport(Verdict.YES, "genus-one-base-floors-never-principal", 0)
    return EllipticReport(Verdict.NO, "genus-at-least-two-base", 0)


EC_TWO_TORSION = EllipticCurveQ(-1, 0)  # y^2 = x^3 - x: O and three points of order 2
EC_RANK_ONE = EllipticCurveQ(0, -2)  # y^2 = x^3 - 2: (3, +-5) has infinite order

KERNEL_BASES = (
    (P1, (P1_INFINITY, p1_point(0), p1_point(1), p1_point(-1), p1_point(1, 2))),
    (
        EC_TWO_TORSION,
        (EC_ORIGIN, EllipticPoint(0, 0), EllipticPoint(1, 0), EllipticPoint(-1, 0)),
    ),
    (EC_RANK_ONE, (EC_ORIGIN, EllipticPoint(3, 5), EllipticPoint(3, -5))),
    *(
        (AbstractProjectiveCurve(g), tuple(LabelPoint(x) for x in "pqrs"))
        for g in (0, 1, 2)
    ),
)


def random_kernel_family(rng, base, pool, count, scan_cap):
    """Proper rank-one divisors on base whose h1 scan stays below scan_cap."""
    out = []
    while len(out) < count:
        pts = rng.sample(pool, rng.randint(1, len(pool)))
        # slopes in [-1, 1/2], then the first one tops the degree up to a small
        # positive value, so the floors dip below zero in every pattern the
        # criteria tell apart
        slopes = [Fraction(rng.randint(-q, q // 2), q) for q in (rng.randint(1, 6) for _ in pts)]
        slopes[0] += max(0, -sum(slopes)) + Fraction(1, rng.randint(1, 8))
        d = rank1(base, dict(zip(pts, slopes)))
        if reference_bound(d) <= scan_cap:
            out.append(d)
    return out


def test_floor_degree_kernel_matches_divisor_reference():
    rng = Random(2024)
    seen = dict.fromkeys(
        ("principal-degree-zero", "nonprincipal-degree-zero", "none-entry", "beyond-bound"), 0
    )
    criteria = set()
    checked = 0
    for base, pool in KERNEL_BASES:
        for d in random_kernel_family(rng, base, pool, 40, 300):
            m_max = rng.choice((None, None, rng.randint(0, 400)))
            kernel = h1_report(d, m_max)
            assert kernel == reference_h1(d, m_max), d
            elliptic = elliptic_singularity(d)
            assert elliptic == reference_elliptic(d), d
            criteria.add(elliptic.criterion)
            checked += 1
            if m_max is not None and m_max > kernel.bound:
                seen["beyond-bound"] += 1
            if any(v is None for _, v in kernel.entries):
                seen["none-entry"] += 1
            if isinstance(base, EllipticCurveQ):
                for m, _ in kernel.entries[1:]:
                    fl = floor_divisor(evaluate(d, m))
                    if degree(fl) == 0:
                        key = "principal" if is_principal(fl) == Verdict.YES else "nonprincipal"
                        seen[f"{key}-degree-zero"] += 1
    assert checked == 40 * len(KERNEL_BASES)
    # every branch of the kernel must be exercised, not vacuously matched
    assert all(seen.values()), seen
    assert len(criteria) == 9, criteria  # every outcome of the elliptic criterion
