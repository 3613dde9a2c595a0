from collections import Counter
from fractions import Fraction
from math import ceil, gcd, lcm
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
    gorenstein,
    h1_report,
    minimal_elliptic_verdict,
    rational_singularities,
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
    is_principal,
    p1_point,
)
from polydiv.errors import (
    CurveDomainError,
    NotProperError,
    PolydivError,
    ShapeError,
    UnsupportedRankError,
)
from polydiv.geometry import TailedPolyhedron, make_cone, make_polyhedron
from polydiv.pdiv import AffineSpace, is_proper, polyhedral_divisor
from polydiv.verdicts import Verdict

import reference_classify
import reference_pdiv
from reference_curves import floor_divisor, h1_dim, h1_dim_of_degree
from reference_pdiv import evaluate

P1 = ProjectiveLine()
RAY = ((1,),)
ORTHANT3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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
    slopes = golden("one").slopes
    assert [(str(s.point), s.p, s.q) for s in slopes] == [
        ("0", -1, 4),
        ("1", -1, 4),
        ("inf", 3, 4),
    ]


def test_floor_degree_profile_golden_one():
    assert tuple(golden("one").floor_degrees(4)) == (0, -2, -1, 0, 1)


def test_floor_degree_profile_golden_three():
    profile = tuple(golden("three").floor_degrees(12))
    assert profile == (0, -1, -2, 0, -1, -1, 0, -1, -1, 0, 0, -1, 1)


def test_profile_quasi_periodicity():
    d = golden("two")
    profile = tuple(d.floor_degrees(36))
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


CM_BASES = {
    "P1": (P1, (P1_INFINITY, p1_point(0), p1_point(1), p1_point(-1), p1_point(2))),
    "genus 0": (AbstractProjectiveCurve(0), tuple(map(LabelPoint, "pqrs"))),
    "genus 1": (AbstractProjectiveCurve(1), tuple(map(LabelPoint, "pqrs"))),
    "elliptic": (
        EllipticCurveQ(-1, 0),
        (EC_ORIGIN, EllipticPoint(0, 0), EllipticPoint(1, 0), EllipticPoint(-1, 0)),
    ),
    "affine": (AffineLine(), tuple(RationalPoint(Fraction(k)) for k in range(4))),
}


def random_orthant_divisor(rng):
    """A divisor of rank 1 to 3 with an orthant tail over a random base; the
    first coefficient over a projective base leans into the orthant, so many
    samples are proper."""
    base, pool = CM_BASES[rng.choice(sorted(CM_BASES))]
    rank = rng.randint(1, 3)
    rays = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    tail = make_cone(rays, rank)
    coeffs = {}
    for i, pt in enumerate(rng.sample(pool, rng.randint(1, len(pool)))):
        lean = rng.randint(1, 3) if i == 0 and base.projective else 0
        verts = [
            tuple(lean + Fraction(rng.randint(-3, 2), rng.choice((1, 1, 2, 3))) for _ in rays)
            for _ in range(rng.randint(1, 2))
        ]
        coeffs[pt] = make_polyhedron(verts, tail)
    return polyhedral_divisor(base, rank, rays, coeffs)


def non_rational_p1_divisors():
    """The two rank-3 documents of the Cohen-Macaulay CI step: the degree
    vanishes along one axis (a small contraction) or on a face."""
    tail = make_cone(ORTHANT3, 3)
    half = make_polyhedron([(Fraction(-1, 2),) * 3], tail)
    low = make_polyhedron([(Fraction(-1, 2),) * 3, (-1, Fraction(-1, 3), Fraction(-1, 3))], tail)
    coeffs = {p1_point(0): low, **{p1_point(k): half for k in range(1, 5)}}
    return [
        polyhedral_divisor(P1, 3, ORTHANT3, {**coeffs, P1_INFINITY: make_polyhedron([top], tail)})
        for top in ((4, Fraction(5, 2), 3), (4, Fraction(5, 2), Fraction(5, 2)))
    ]


def test_classify_report_and_cohen_macaulay_give_the_same_answer():
    rng = Random(20261019)
    seen = {}
    for d in [random_orthant_divisor(rng) for _ in range(400)] + non_rational_p1_divisors():
        proper = is_proper(d).verdict
        if proper != Verdict.YES:
            # cohen_macaulay asks for properness first; an undecided one is a
            # classify report of unknowns
            with pytest.raises(NotProperError):
                cohen_macaulay(d)
            if proper == Verdict.NO:
                with pytest.raises(NotProperError):
                    classify_report(d)
            continue
        for isolated in (False, True):
            want = cohen_macaulay(d, isolated)
            assert classify_report(d, isolated).cohen_macaulay == want, (d, isolated)
            seen[want.criterion] = seen.get(want.criterion, 0) + 1
    assert set(seen) == {
        "affine-base",
        "normal-surface",
        "rational-singularities",
        "matches-rationality-small-contraction",
        "matches-rationality-isolated-singularity",
        "needs-isolatedness-assertion",
    }, seen


def test_cohen_macaulay_of_a_normal_surface_decides_no_rationality(monkeypatch):
    def forbidden(d):
        raise AssertionError("rationality computed for a rank-one divisor")

    monkeypatch.setattr(classify_module, "rational_singularities", forbidden)
    for isolated in (False, True):
        report = cohen_macaulay(golden("one"), isolated)
        assert report.verdict == Verdict.YES and report.criterion == "normal-surface"


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
    assert dict(diff.terms)[p1_point(0)] == -1
    assert dict(diff.terms)[P1_INFINITY] == 2
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


def test_gorenstein_abstract_genus_zero_base_with_integral_data_is_yes():
    # slopes -1/3, -1/3 and 1: index (-2 + 4/3)/(1/3) = -2 and multiplicities
    # 0, 0 and -2, whose sum -2 is the degree of the canonical class
    g0 = AbstractProjectiveCurve(0)
    points = map(LabelPoint, "pqr")
    d = rank1(g0, dict(zip(points, (Fraction(-1, 3), Fraction(-1, 3), Fraction(1)))))
    report = gorenstein(d)
    assert report.canonical_index == -2
    assert [v for _, v in report.vertical_multiplicities] == [0, 0, -2]
    assert report.verdict == Verdict.YES
    assert report.criterion == "canonical-difference-principal"
    assert report.canonical_difference is None


def test_integral_vertical_multiplicities_sum_to_the_canonical_degree():
    """The index is (2g - 2 + sum (q_z - 1)/q_z) / deg1 and the multiplicity
    at z is (p_z * index + 1)/q_z - 1, so the multiplicities sum to 2g - 2
    whenever they are defined: on an abstract base the degree of the vertical
    divisor always matches that of the canonical class."""
    bases = [
        (P1, (P1_INFINITY, p1_point(0), p1_point(1), p1_point(-1), p1_point(2))),
        (
            EllipticCurveQ(-1, 0),
            (EC_ORIGIN, EllipticPoint(0, 0), EllipticPoint(1, 0), EllipticPoint(-1, 0)),
        ),
    ] + [(AbstractProjectiveCurve(g), tuple(map(LabelPoint, "pqrst"))) for g in range(4)]
    rng = Random(20261020)
    seen = {}
    for _ in range(1200):
        base, pool = rng.choice(bases)
        points = rng.sample(pool, rng.randint(1, len(pool)))
        slopes = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in points]
        if sum(slopes) <= 0:
            continue
        report = gorenstein(rank1(base, dict(zip(points, slopes))))
        multiplicities = [v for _, v in report.vertical_multiplicities]
        if not multiplicities or any(v.denominator != 1 for v in multiplicities):
            continue  # the index or a multiplicity is not integral
        assert sum(multiplicities) == 2 * base.genus - 2, report
        key = (type(base).__name__, base.genus, report.verdict)
        seen[key] = seen.get(key, 0) + 1
    assert seen.get(("ProjectiveLine", 0, Verdict.YES), 0) >= 20, seen
    assert seen.get(("EllipticCurveQ", 1, Verdict.NO), 0) >= 10, seen
    assert seen.get(("AbstractProjectiveCurve", 0, Verdict.YES), 0) >= 20, seen
    for genus in (1, 2, 3):
        assert seen.get(("AbstractProjectiveCurve", genus, Verdict.UNKNOWN), 0) >= 20, seen


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
    assert report.bound == golden("one").vanishing_degree == 4
    assert report.entries[0] == (0, 0) and report.entries[-1][0] == 4
    short = h1_report(golden("one"), m_max=3)
    assert [m for m, _ in short.entries] == [0, 1, 2, 3]
    assert short.total == 1  # total still sums the full series
    long = h1_report(golden("one"), m_max=7)
    assert long.bound == 4 and long.entries == report.entries + ((5, 0), (6, 0), (7, 0))


def test_h1_bound_is_at_least_one():
    # two marked points on P1: V = max(ceil((count - 2) / deg1), 0) = 0, so
    # the floor degrees stop at m = 0 and the listing still reaches m = 1
    d = rank1(P1, {p1_point(0): Fraction(1, 2), p1_point(1): Fraction(1)})
    assert d.vanishing_degree == 0
    report = h1_report(d)
    assert report.bound == 1
    assert report.entries == ((0, 0), (1, 0)) and report.total == 0


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


def vanishing_degree(d):
    """The weight from which every h1 entry vanishes, by the Fraction formula
    over the reference slopes."""
    values = [v for _, v in reference_classify.slopes(d)]
    return reference_classify.vanishing_degree(values, d.base.genus)


def assert_h1_within_reference(got, want, d, m_max):
    """got stops listing at the vanishing degree; want is a period-length listing.

    The totals agree, got.bound is the vanishing degree (at least 1) and at
    most the reference's, got lists a prefix of the reference (all of it for
    an explicit m_max), and the reference itself is 0 past got.bound.
    """
    assert got.total == want.total, d
    assert got.bound == max(vanishing_degree(d), 1) <= want.bound, d
    if m_max is None:
        assert len(got.entries) == got.bound + 1, d
        assert got.entries == want.entries[: len(got.entries)], d
    else:
        assert got.entries == want.entries, d
    assert all(v == 0 for m, v in want.entries if m > got.bound), d


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
            assert_h1_within_reference(kernel, reference_h1(d, m_max), d, m_max)
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


def test_floor_at_matches_the_rounded_evaluation():
    """_floor_at reads (m * p) // q off the slopes; the reference rounds down
    the support minima of the evaluation at m times the unit weight."""
    rng = Random(20261019)
    seen = dict.fromkeys(("negative slope", "floors to 0", "m = 0", "tail (-1,)"), 0)
    # the projective line, y^2 = x^3 - x, and abstract curves of genus 0 and 1
    for base, pool in (*KERNEL_BASES[:2], *KERNEL_BASES[3:5]):
        for ray in ((1,), (-1,)):
            tail = make_cone((ray,), 1)
            for _ in range(8):
                pts = rng.sample(pool, rng.randint(1, len(pool)))
                slopes = [Fraction(rng.randint(-q, q), q) for q in (rng.randint(1, 9) for _ in pts)]
                slopes[0] += max(0, -sum(slopes)) + Fraction(1, rng.randint(1, 8))
                # the vertex s * ray pairs to s with the unit weight ray
                coeffs = {pt: make_polyhedron([(s * ray[0],)], tail) for pt, s in zip(pts, slopes)}
                d = polyhedral_divisor(base, 1, (ray,), coeffs)
                unit = pdiv_module.unit_weight(d)
                assert unit == ray
                for m in range(13):
                    want = floor_divisor(evaluate(d, tuple(m * u for u in unit)))
                    assert classify_module._floor_at(d, m) == want, (d, m)
                    seen["floors to 0"] += any(0 < m * s < 1 for s in slopes)
                seen["negative slope"] += min(slopes) < 0
                seen["m = 0"] += 1
                seen["tail (-1,)"] += ray == (-1,)
    assert all(n >= 10 for n in seen.values()), seen


# ---------------------------------------------------------------------------
# the scans as they were before they stopped at the vanishing degree: every
# weight up to the period lcm(q) of the slopes


def period_scan_h1(d, m_max=None):
    """h1_report with an entry computed at every weight up to max(bound, m_max)."""
    unit = pdiv_module.unit_weight(d)
    slopes = d.slopes
    deg1 = sum((Fraction(s.p, s.q) for s in slopes), Fraction(0))
    genus = d.base.genus
    period = lcm(*[s.q for s in slopes]) if slopes else 1
    bound = max(ceil(Fraction(len(slopes) + max(2 * genus - 2, 0)) / deg1), period, 1)
    top = bound if m_max is None else m_max

    def entry(m, deg):
        weight = tuple(m * u for u in unit)
        return h1_dim_of_degree(d.base, deg, lambda: is_principal(floor_divisor(evaluate(d, weight))))

    degrees = reference_pdiv.floor_degrees(slopes, max(bound, top))
    values = [entry(m, deg) for m, deg in enumerate(degrees)]
    series = values[: bound + 1]
    total = None if None in series else sum(series)
    return H1Report(bound=bound, entries=tuple(enumerate(values[: top + 1])), total=total)


def period_scan_elliptic(d):
    """elliptic_singularity with the genus-zero scan running up to the period."""
    slopes = d.slopes
    if d.base.genus != 0:
        return elliptic_singularity(d)
    deg1 = sum((Fraction(s.p, s.q) for s in slopes), Fraction(0))
    period = lcm(*[s.q for s in slopes]) if slopes else 1
    top = max(ceil(Fraction(len(slopes) - 2) / deg1), period, 1)
    profile = reference_pdiv.floor_degrees(slopes, top)
    hits = [m for m in range(1, top + 1) if profile[m] == -2]
    below = [m for m in range(1, top + 1) if profile[m] < -2]
    if below:
        return EllipticReport(Verdict.NO, "floor-degree-below-minus-two", witness_m=below[0])
    if len(hits) == 1:
        return EllipticReport(Verdict.YES, "unique-floor-degree-minus-two", witness_m=hits[0])
    if not hits:
        return EllipticReport(Verdict.NO, "no-floor-degree-minus-two")
    return EllipticReport(Verdict.NO, "repeated-floor-degree-minus-two", witness_m=hits[1])


PERIOD_BASES = (
    KERNEL_BASES[0],  # the projective line
    KERNEL_BASES[1],  # y^2 = x^3 - x
    *KERNEL_BASES[3:],  # abstract curves of genus 0, 1 and 2
)


def test_scans_stopping_at_the_vanishing_degree_match_the_period_scans():
    rng = Random(808)
    seen = dict.fromkeys(("below-bound", "beyond-bound", "skipped-weights", "none-entry"), 0)
    criteria = set()
    for base, pool in PERIOD_BASES:
        for _ in range(30):
            pts = rng.sample(pool, rng.randint(1, len(pool)))
            # coprime-ish denominators up to 40 make periods of hundreds to
            # tens of thousands, far past the vanishing degree
            slopes = [Fraction(rng.randint(-q, q // 2), q) for q in (rng.randint(1, 40) for _ in pts)]
            slopes[0] += max(0, -sum(slopes)) + Fraction(1, rng.randint(1, 8))
            d = rank1(base, dict(zip(pts, slopes)))
            want = period_scan_h1(d)
            if want.bound > 20000:
                continue
            m_max = rng.choice((None, rng.randint(0, want.bound), want.bound + rng.randint(1, 50)))
            got = h1_report(d, m_max)
            assert_h1_within_reference(got, period_scan_h1(d, m_max), d, m_max)
            ell = elliptic_singularity(d)
            assert ell == period_scan_elliptic(d), d
            criteria.add(ell.criterion)
            if m_max is not None:
                seen["below-bound" if m_max <= got.bound else "beyond-bound"] += 1
            seen["skipped-weights"] += vanishing_degree(d) < got.bound
            seen["none-entry"] += got.total is None
    assert all(seen.values()), seen
    assert {"unique-floor-degree-minus-two", "floor-degree-below-minus-two"} <= criteria, criteria


@pytest.mark.parametrize(
    "slopes, hit",
    [
        (("-56/61", "27/65", "39/67"), 12),
        (("-22/61", "23/64", "7/176"), 25),
        (("-79/81", "4/161", "194/199"), 40),
    ],
)
def test_elliptic_hit_one_weight_before_the_scan_bound(slopes, hit):
    # m * p_i = -1 mod q_i at the hit: each point loses almost a full unit
    # there, so the hit sits one weight below ceil((count - 2) / deg1)
    d = rank1(P1, dict(zip((p1_point(0), p1_point(1), P1_INFINITY), map(Fraction, slopes))))
    deg1 = degree(evaluate(d, 1))
    assert ceil(Fraction(1) / deg1) == hit + 1
    report = elliptic_singularity(d)
    assert report == EllipticReport(Verdict.YES, "unique-floor-degree-minus-two", witness_m=hit)
    if hit == 12:  # a period of 265,655; the others take seconds to scan
        assert report == period_scan_elliptic(d)
        assert_h1_within_reference(h1_report(d), period_scan_h1(d), d, None)


def test_h1_bound_does_not_depend_on_the_period():
    # the same count and deg1, with periods 10 * 97 * 101 * 103 and 7 times that
    points = (p1_point(0), p1_point(1), p1_point(2), P1_INFINITY)
    small = (Fraction(-1, 97), Fraction(-1, 101), Fraction(-1, 103), Fraction(1, 10))
    large = small[:2] + (small[2] - Fraction(1, 7), small[3] + Fraction(1, 7))
    a, b = (rank1(P1, dict(zip(points, slopes))) for slopes in (small, large))
    assert lcm(*(s.denominator for s in large)) == 7 * lcm(*(s.denominator for s in small))
    got_a, got_b = h1_report(a), h1_report(b)
    assert got_a.bound == got_b.bound == vanishing_degree(a) == 29
    assert len(got_a.entries) == len(got_b.entries) == 30


# ---------------------------------------------------------------------------
# one floor-degree stream per report


@pytest.mark.parametrize(
    "base, slopes",
    [
        (P1, {p1_point(0): Fraction(-1, 2), p1_point(1): Fraction(-1, 3), P1_INFINITY: Fraction(6, 7)}),
        (
            EC_TWO_TORSION,
            {
                EC_ORIGIN: Fraction(1, 2),
                EllipticPoint(0, 0): Fraction(-1, 3),
                EllipticPoint(1, 0): Fraction(1, 5),
            },
        ),
    ],
    ids=["P1", "y^2 = x^3 - x"],
)
def test_classify_report_builds_one_floor_profile(monkeypatch, base, slopes):
    # classify_report streams the floor degrees once, up to the vanishing
    # degree, and hands the h1 listing to the elliptic decision; asked on
    # their own, elliptic_singularity and h1_report stream them once each
    calls = []
    real = pdiv_module.PolyhedralDivisor.floor_degrees
    monkeypatch.setattr(
        pdiv_module.PolyhedralDivisor, "floor_degrees", lambda d, m: calls.append(m) or real(d, m)
    )
    d = rank1(base, slopes)
    report = classify_report(d)
    assert calls == [d.vanishing_degree] and d.vanishing_degree > 0
    assert elliptic_singularity(d) == report.elliptic and h1_report(d) == report.h1
    assert calls == [d.vanishing_degree] * 3


def test_principality_is_tested_once_per_degree_zero_weight(monkeypatch):
    """classify_report tests each degree-zero floor once, for h1 and elliptic
    together; elliptic alone reads the h1 listing up to its witness only."""
    calls = []
    real = classify_module.is_principal
    monkeypatch.setattr(classify_module, "is_principal", lambda x: calls.append(x) or real(x))
    rng = Random(20261020)
    seen = dict.fromkeys(("negative", "principal", "yes", "stopped early"), 0)
    for base, pool in KERNEL_BASES[1:3]:
        for d in random_kernel_family(rng, base, pool, 40, 300):

            def fresh():
                return polyhedral_divisor(base, 1, RAY, dict(d.coefficients))

            calls.clear()
            gorenstein(fresh())
            want = Counter(calls)  # the canonical difference, if it is tested
            calls.clear()
            report = classify_report(d)
            zero = [m for m, deg in enumerate(d.floor_degrees(d.vanishing_degree)) if deg == 0]
            want.update(classify_module._floor_at(d, m) for m in zero)
            assert Counter(calls) == want, d

            calls.clear()
            ell = elliptic_singularity(fresh())
            assert ell == report.elliptic
            stop = ell.witness_m if ell.verdict == Verdict.NO else d.vanishing_degree + 1
            assert calls == [classify_module._floor_at(d, m) for m in zero if m <= stop], d
            seen["yes" if ell.verdict == Verdict.YES else ell.criterion.split("-")[0]] += 1
            seen["stopped early"] += zero[-1] > stop
    assert all(n >= 3 for n in seen.values()), seen


def test_reports_do_not_depend_on_the_order_of_the_questions():
    # on a fresh divisor each time: elliptic then h1, h1 then elliptic, and
    # classify_report, which asks both
    rng = Random(2610)
    seen = dict.fromkeys(("tail (-1,)", "genus 0", "genus 1", "genus 2", "vanishing degree 0"), 0)
    for base, pool in PERIOD_BASES:
        for ray in ((1,), (-1,)):
            tail = make_cone((ray,), 1)
            for _ in range(6):
                pts = rng.sample(pool, rng.randint(1, len(pool)))
                slopes = [Fraction(rng.randint(-q, q // 2), q) for q in (rng.randint(1, 12) for _ in pts)]
                slopes[0] += max(0, -sum(slopes)) + Fraction(1, rng.randint(1, 8))

                def fresh():
                    coeffs = {pt: make_polyhedron([(s * ray[0],)], tail) for pt, s in zip(pts, slopes)}
                    return polyhedral_divisor(base, 1, (ray,), coeffs)

                a, b = fresh(), fresh()
                ell_a, h1_a = elliptic_singularity(a), h1_report(a)
                h1_b, ell_b = h1_report(b), elliptic_singularity(b)
                report = classify_report(fresh())
                assert ell_a == ell_b == report.elliptic, a
                assert h1_a == h1_b == report.h1, a
                seen["tail (-1,)"] += ray == (-1,)
                seen[f"genus {base.genus}"] += 1
                seen["vanishing degree 0"] += a.vanishing_degree == 0
    assert all(n >= 5 for n in seen.values()), seen


def test_floor_profile_refuses_a_divisor_it_does_not_apply_to():
    rays4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    tail4 = make_cone(rays4, 4)
    line = make_cone((), 1)
    cases = {
        "affine line": rank1(AffineLine(), {RationalPoint(Fraction(0)): Fraction(1, 2)}),
        "affine space": polyhedral_divisor(AffineSpace(1), 1, RAY, {1: halfline(Fraction(1, 2))}),
        "no coefficients": rank1(P1, {}),
        "degree zero": rank1(P1, {p1_point(0): Fraction(1, 2), P1_INFINITY: Fraction(-1, 2)}),
        "negative degree": rank1(P1, {p1_point(0): Fraction(-1, 2)}),
        "trivial tail": polyhedral_divisor(
            P1, 1, (), {p1_point(0): make_polyhedron([(Fraction(1, 2),)], line)}
        ),
        "rank two": polyhedral_divisor(
            P1, 2, ((1, 0), (0, 1)), {p1_point(0): quadrant_poly((1, 1))}
        ),
        "no chamber fan": polyhedral_divisor(
            P1,
            4,
            rays4,
            {
                p1_point(0): make_polyhedron([(0, 0, 0, 0), (1, -1, 0, 0)], tail4),
                P1_INFINITY: make_polyhedron([(1, 1, 1, 1)], tail4),
            },
        ),
    }
    assert is_proper(cases["rank two"]).verdict == Verdict.YES
    for name, d in cases.items():
        for _ in range(2):
            with pytest.raises(PolydivError):
                d.vanishing_degree
        assert "vanishing_degree" not in vars(d), name


# ---------------------------------------------------------------------------
# decide_floor_bound without coefficients, and off a projective base

# the cone over a square times a ray: its weight cone has five rays, so at
# rank 4 there is no chamber fan
SQUARE_TAIL4 = ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, 1, 0))


@pytest.mark.parametrize(
    "rank,tail",
    [(2, ((-1, 0), (0, 1))), (1, ((-1,),)), (3, ORTHANT3), (4, SQUARE_TAIL4)],
    ids=["half-plane", "one-ray", "orthant", "rank-4-no-fan"],
)
def test_decide_floor_bound_without_coefficients_answers_the_zero_weight(rank, tail):
    # every degree is 0, so the bound c fails exactly when c > 0, and the
    # answer is the zero weight without a chamber fan, not the search's
    # lexicographically first violator
    d = polyhedral_divisor(P1, rank, tail, {})
    assert decide_floor_bound(d, -1) is None
    assert decide_floor_bound(d, 0) is None
    assert decide_floor_bound(d, 1) == (0,) * rank
    assert decide_floor_bound(d, 5) == (0,) * rank
    if rank == 4:
        with pytest.raises(UnsupportedRankError):
            d.fan


def test_the_search_on_degree_zero_coefficients_answers_its_first_violator():
    # the same half-plane and one-ray tails, with coefficients that cancel:
    # the search runs, and its first violator is not the zero weight
    for rank, tail in ((2, ((-1, 0), (0, 1))), (1, ((-1,),))):
        cone = make_cone(tail, rank)
        e = (Fraction(1),) + (Fraction(0),) * (rank - 1)
        coeffs = {
            p1_point(0): make_polyhedron([e], cone),
            P1_INFINITY: make_polyhedron([tuple(-x for x in e)], cone),
        }
        d = polyhedral_divisor(P1, rank, tail, coeffs)
        assert decide_floor_bound(d, 0) is None
        assert decide_floor_bound(d, 1) == (-1,) + (0,) * (rank - 1)


def test_decide_floor_bound_needs_a_projective_base():
    poly = make_polyhedron([(Fraction(1),)], make_cone(RAY, 1))
    d = polyhedral_divisor(AffineSpace(1), 1, RAY, {1: poly})
    with pytest.raises(CurveDomainError):
        decide_floor_bound(d, 0)


# ---------------------------------------------------------------------------
# the int row against the Fraction formulas it replaced


def test_rank_one_int_row_matches_the_fraction_formulas():
    """Slopes off the fan's minima, and the vanishing degree, the h1 bound and
    the Gorenstein index in int, against support_eval at the unit weight and
    the Fraction formulas (tests/reference_classify.py), on every kernel base
    and an abstract curve of genus 3, with the tails (1,) and (-1,)."""
    rng = Random(20261020)
    bases = (*KERNEL_BASES, (AbstractProjectiveCurve(3), tuple(LabelPoint(x) for x in "pqrs")))
    seen = dict.fromkeys(
        ("tail (-1,)", "index not integral", "multiplicity not integral", "integral", "zero"), 0
    )
    for base, pool in bases:
        for ray in ((1,), (-1,)):
            tail = make_cone((ray,), 1)
            for _ in range(25):
                pts = rng.sample(pool, rng.randint(1, len(pool)))
                qs = [rng.choice((1, 1, 2, 3, rng.randint(1, 40))) for _ in pts]
                slopes = [Fraction(rng.randint(-3 * q, 3 * q), q) for q in qs]
                top_up = Fraction(1, rng.choice((1, 2, rng.randint(1, 60))))
                slopes[0] += max(0, -sum(slopes)) + top_up
                # the vertex s * ray pairs to s with the unit weight ray
                coeffs = {pt: make_polyhedron([(s * ray[0],)], tail) for pt, s in zip(pts, slopes)}
                d = polyhedral_divisor(base, 1, (ray,), coeffs)
                want = reference_classify.slopes(d)
                got = d.slopes
                assert [(s.point, Fraction(s.p, s.q)) for s in got] == list(want), d
                assert all(s.q > 0 and gcd(s.p, s.q) == 1 for s in got), got
                values = [v for _, v in want]
                genus = d.base.genus
                vanish = reference_classify.vanishing_degree(values, genus)
                assert d.vanishing_degree == vanish, d
                if base != EC_RANK_ONE:  # its degree-zero entries take long multiples
                    assert h1_report(d, 0).bound == max(vanish, 1), d
                index, multiplicities = reference_classify.gorenstein_index(values, genus)
                report = gorenstein(d)
                assert report.canonical_index == index, d
                assert type(report.canonical_index) is Fraction
                if multiplicities is None:
                    assert report.criterion == "canonical-index-not-integral"
                    assert report.vertical_multiplicities == ()
                    seen["index not integral"] += 1
                else:
                    assert [m for _, m in report.vertical_multiplicities] == list(multiplicities)
                    assert all(type(m) is Fraction for _, m in report.vertical_multiplicities)
                    integral = all(m.denominator == 1 for m in multiplicities)
                    seen["integral" if integral else "multiplicity not integral"] += 1
                seen["tail (-1,)"] += ray == (-1,)
                seen["zero"] += vanish == 0
    assert all(n >= 5 for n in seen.values()), seen


def test_slopes_are_in_lowest_terms_off_a_coefficient_with_two_vertices():
    # the factory keeps one vertex per rank-one coefficient, cleared in lowest
    # terms; a TailedPolyhedron built by hand may keep a dominated one, and its
    # cleared denominator is then shared: 1/2 and 3/4 clear to 2/4 and 3/4
    tail = make_cone(RAY, 1)
    poly = TailedPolyhedron(vertices=((Fraction(1, 2),), (Fraction(3, 4),)), tail=tail)
    d = polyhedral_divisor(P1, 1, RAY, {p1_point(0): poly, P1_INFINITY: halfline(Fraction(1, 3))})
    assert poly.cleared == (((2,), (3,)), 4)
    assert [(s.p, s.q) for s in d.slopes] == [(1, 2), (1, 3)]
    assert [v for _, v in reference_classify.slopes(d)] == [Fraction(1, 2), Fraction(1, 3)]
    # the index (-2 + 1/2 + 2/3) / (5/6) = -1 reads q = 2, not 4
    report = gorenstein(d)
    assert report.verdict == Verdict.YES
    assert report.canonical_index == -1 == reference_classify.gorenstein_index(
        [Fraction(1, 2), Fraction(1, 3)], 0
    )[0]
