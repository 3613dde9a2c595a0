from fractions import Fraction
from random import Random

import pytest

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
    p1_point,
)
from polydiv.errors import (
    CurveDomainError,
    InvalidInputError,
    NotProperError,
    RankMismatchError,
    ShapeError,
    UnsupportedRankError,
    WeightError,
)
from polydiv.geometry import make_cone, make_polyhedron, support_eval
from polydiv.linalg import dot
from polydiv.pdiv import (
    AffineSpace,
    _degree_at,
    contraction_iso_codim1,
    evaluate,
    is_proper,
    polyhedral_divisor,
    ray_slopes,
    require_proper,
)
from polydiv.verdicts import Verdict

from reference_geometry import contraction_iso_codim1 as reference_contraction
from reference_geometry import degree_polyhedron
from test_cone_kernels import solve

P1 = ProjectiveLine()
RAY = ((1,),)


def halfline(vertex) -> object:
    tail = make_cone(RAY, 1)
    return make_polyhedron([(Fraction(vertex),)], tail)


def rank1_divisor(base, coeffs):
    return polyhedral_divisor(base, 1, RAY, {pt: halfline(v) for pt, v in coeffs.items()})


def quadrant_poly(*vertices):
    tail = make_cone(((1, 0), (0, 1)), 2)
    return make_polyhedron([tuple(Fraction(x) for x in v) for v in vertices], tail)


GOLDEN_ONE = {
    p1_point(0): Fraction(-1, 4),
    p1_point(1): Fraction(-1, 4),
    P1_INFINITY: Fraction(3, 4),
}


def test_factory_sorts_and_drops_trivial_coefficients():
    d = polyhedral_divisor(
        P1,
        1,
        RAY,
        {P1_INFINITY: halfline(Fraction(3, 4)), p1_point(0): halfline(0)},
    )
    assert d.support == (P1_INFINITY,)
    assert d.coefficient(p1_point(0)) is None
    assert d.weight_cone.rays == RAY


def test_factory_rejects_unpointed_tail():
    with pytest.raises(ShapeError):
        polyhedral_divisor(P1, 1, ((1,), (-1,)), {})


def test_factory_collects_violations():
    tail = make_cone(RAY, 1)
    other_tail_poly = make_polyhedron([(0,)], make_cone((), 1))
    with pytest.raises(InvalidInputError) as info:
        polyhedral_divisor(
            P1,
            1,
            RAY,
            [
                (p1_point(0), other_tail_poly),
                (EllipticPoint(0, 0), make_polyhedron([(1,)], tail)),
            ],
        )
    text = "; ".join(info.value.violations)
    assert "tail cone" in text and "projective line" in text


def test_factory_rejects_duplicate_keys_and_bad_hyperplanes():
    with pytest.raises(InvalidInputError):
        polyhedral_divisor(P1, 1, RAY, [(p1_point(0), halfline(1)), (p1_point(0), halfline(2))])
    with pytest.raises(InvalidInputError):
        polyhedral_divisor(AffineSpace(2), 1, RAY, [(3, halfline(1))])
    with pytest.raises(InvalidInputError):
        polyhedral_divisor(AffineSpace(2), 1, RAY, [(0, halfline(1))])


def test_evaluate_golden_rank1():
    d = rank1_divisor(P1, GOLDEN_ONE)
    ev = evaluate(d, 1)
    assert ev.coeff(p1_point(0)) == Fraction(-1, 4)
    assert ev.coeff(P1_INFINITY) == Fraction(3, 4)
    assert degree(ev) == Fraction(1, 4)
    ev4 = evaluate(d, 4)
    assert ev4.coeff(p1_point(0)) == -1 and degree(ev4) == 1
    assert evaluate(d, 0).is_zero
    with pytest.raises(WeightError) as info:
        evaluate(d, -1)
    assert info.value.separating_ray == (1,)


def test_evaluate_scalar_only_for_rank_one():
    d = polyhedral_divisor(P1, 2, ((1, 0), (0, 1)), {p1_point(0): quadrant_poly((1, 2))})
    with pytest.raises(RankMismatchError):
        evaluate(d, 1)
    ev = evaluate(d, (1, 1))
    assert ev.coeff(p1_point(0)) == 3


def test_evaluate_needs_curve_base():
    d = polyhedral_divisor(AffineSpace(2), 1, RAY, {1: halfline(Fraction(1, 2))})
    with pytest.raises(CurveDomainError):
        evaluate(d, 1)


def test_degree_polyhedron_adds_coefficients():
    d = rank1_divisor(P1, GOLDEN_ONE)
    poly = degree_polyhedron(d)
    assert poly.vertices == ((Fraction(1, 4),),)
    empty = polyhedral_divisor(P1, 1, RAY, {})
    assert degree_polyhedron(empty).vertices == ((Fraction(0),),)
    with pytest.raises(CurveDomainError):
        degree_polyhedron(rank1_divisor(AffineLine(), {RationalPoint(0): Fraction(1, 2)}))


def test_proper_affine_base_automatic():
    d = rank1_divisor(AffineLine(), {RationalPoint(0): Fraction(-1, 4)})
    assert is_proper(d).verdict == Verdict.YES
    toric = polyhedral_divisor(AffineSpace(3), 1, RAY, {2: halfline(Fraction(1, 2))})
    assert is_proper(toric).verdict == Verdict.YES


def test_proper_golden_examples():
    for coeffs in [
        GOLDEN_ONE,
        {p1_point(0): Fraction(-1, 3), p1_point(1): Fraction(-1, 3), P1_INFINITY: Fraction(3, 4)},
        {p1_point(0): Fraction(-2, 3), p1_point(1): Fraction(-2, 3), P1_INFINITY: Fraction(17, 12)},
    ]:
        assert is_proper(rank1_divisor(P1, coeffs)).verdict == Verdict.YES


def test_not_proper_trivial_tail():
    d = polyhedral_divisor(P1, 1, (), {})
    report = is_proper(d)
    assert report.verdict == Verdict.NO
    assert report.witness == (Fraction(0),)


def test_not_proper_zero_total_degree():
    d = rank1_divisor(P1, {p1_point(0): Fraction(1, 2), P1_INFINITY: Fraction(-1, 2)})
    report = is_proper(d)
    assert report.verdict == Verdict.NO
    assert report.witness == (Fraction(1),)
    with pytest.raises(NotProperError):
        require_proper(d)


def test_not_proper_negative_degree_found_on_chamber_ray():
    # one compact edge in rank 2; the wall splits the halfplane weight cone
    tail = make_cone(((0, 1),), 2)
    edge = make_polyhedron([(0, 0), (1, 0)], tail)
    d = polyhedral_divisor(P1, 2, ((0, 1),), {p1_point(0): edge})
    report = is_proper(d)
    assert report.verdict == Verdict.NO
    assert report.witness == (Fraction(-1), Fraction(0))


def test_proper_rank2_positive_everywhere():
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {p1_point(0): quadrant_poly((Fraction(-1, 2), 0)), P1_INFINITY: quadrant_poly((1, Fraction(1, 2)))},
    )
    assert is_proper(d).verdict == Verdict.YES
    assert contraction_iso_codim1(d) == Verdict.YES


def test_proper_boundary_torsion_decides():
    # degree vanishes along the weight ray (0,1); the class there is [P] - [O]
    two_torsion = EllipticCurveQ(-1, 0)
    free_point = EllipticCurveQ(0, -2)

    def build(curve, pt):
        return polyhedral_divisor(
            curve,
            2,
            ((1, 0), (0, 1)),
            {pt: quadrant_poly((0, 1)), EC_ORIGIN: quadrant_poly((1, -1))},
        )

    good = build(two_torsion, EllipticPoint(0, 0))
    assert is_proper(good).verdict == Verdict.YES
    bad = build(free_point, EllipticPoint(3, 5))
    report = is_proper(bad)
    assert report.verdict == Verdict.NO
    assert report.witness == (Fraction(0), Fraction(1))
    assert "torsion" in report.reason


def test_proper_unknown_on_abstract_base_with_boundary_degree_zero():
    base = AbstractProjectiveCurve(2)
    d = polyhedral_divisor(
        base,
        2,
        ((1, 0), (0, 1)),
        {LabelPoint("p"): quadrant_poly((0, 1)), LabelPoint("q"): quadrant_poly((1, -1))},
    )
    report = is_proper(d)
    assert report.verdict == Verdict.UNKNOWN
    with pytest.raises(NotProperError):
        require_proper(d)


def test_rank_four_fan_failure_is_reported_and_not_kept():
    rays = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    tail = make_cone(rays, 4)
    d = polyhedral_divisor(
        P1,
        4,
        rays,
        {
            p1_point(0): make_polyhedron([(0, 0, 0, 0), (1, -1, 0, 0)], tail),
            P1_INFINITY: make_polyhedron([(1, 1, 1, 1)], tail),
        },
    )
    report = is_proper(d)
    assert report.verdict == Verdict.UNKNOWN
    assert "rank 3" in report.reason
    assert is_proper(d) is report
    for _ in range(2):
        with pytest.raises(UnsupportedRankError):
            d.fan


def test_slopes_are_kept_and_a_rank_two_failure_is_not():
    d = rank1_divisor(P1, GOLDEN_ONE)
    assert ray_slopes(d) is ray_slopes(d) is d.slopes
    assert [s.value for s in d.slopes] == [Fraction(-1, 4), Fraction(-1, 4), Fraction(3, 4)]
    quadrant = polyhedral_divisor(
        P1, 2, ((1, 0), (0, 1)), {p1_point(0): quadrant_poly((1, 0))}
    )
    for _ in range(2):
        with pytest.raises(ShapeError):
            ray_slopes(quadrant)
    assert "slopes" not in vars(quadrant)


EC_SMOOTH = EllipticCurveQ(0, 1)  # y^2 = x^3 + 1
DEGREE_BASES = (
    ("P1", P1, (P1_INFINITY, p1_point(0), p1_point(1), p1_point(-1), p1_point(1, 2))),
    (
        "elliptic",
        EC_SMOOTH,
        (EC_ORIGIN, EllipticPoint(-1, 0), EllipticPoint(0, 1), EllipticPoint(2, 3)),
    ),
)
DEGREE_TAILS = {
    1: (((1,),), ((-1,),)),
    2: (((1, 0), (0, 1)), ((1, 0), (1, 2)), ((2, 1), (-1, 3))),
    3: (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))),
}


def test_ray_degrees_match_the_evaluated_divisor():
    """ray_degrees and the interior-sample degree of the properness check
    take support minima in int; both must equal degree(evaluate(d, u))."""
    rng = Random(20261019)
    seen = {"P1": 0, "elliptic": 0, "rays": 0, "negative": 0, "rank-3": 0}
    for name, base, pool in DEGREE_BASES:
        for _ in range(30):
            rank = rng.randint(1, 3)
            tail_rays = rng.choice(DEGREE_TAILS[rank])
            tail = make_cone(tail_rays, rank)
            coeffs = {}
            for pt in rng.sample(pool, rng.randint(1, 3)):
                verts = [
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rank))
                    for _ in range(rng.randint(1, 3 if rank < 3 else 2))
                ]
                coeffs[pt] = make_polyhedron(verts, tail)
            d = polyhedral_divisor(base, rank, tail_rays, coeffs)
            for u, g in d.ray_degrees.items():
                assert g == degree(evaluate(d, u)), (d, u)
                seen["rays"] += 1
                seen["negative"] += g < 0
            sample = tuple(map(sum, zip(*d.ray_degrees)))
            assert _degree_at(d, sample) == degree(evaluate(d, sample)), d
            seen[name] += 1
            seen["rank-3"] += rank == 3
    assert all(n >= 10 for n in seen.values()), seen


def test_ray_degrees_need_a_projective_base():
    d = rank1_divisor(AffineLine(), {RationalPoint(Fraction(0)): Fraction(1, 2)})
    with pytest.raises(CurveDomainError):
        d.ray_degrees


def test_contraction_rank1_always_collapses():
    d = rank1_divisor(P1, GOLDEN_ONE)
    assert contraction_iso_codim1(d) == Verdict.NO


def test_contraction_affine_base():
    d = rank1_divisor(AffineLine(), {RationalPoint(0): Fraction(-1, 4)})
    assert contraction_iso_codim1(d) == Verdict.YES


def test_contraction_detects_meeting_ray():
    # degree polyhedron {(1/2, 1/2)} + quadrant misses both axes
    d = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {p1_point(0): quadrant_poly((Fraction(1, 2), Fraction(1, 2)))},
    )
    assert contraction_iso_codim1(d) == Verdict.YES
    shifted = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {p1_point(0): quadrant_poly((Fraction(-1, 2), Fraction(1, 2)))},
    )
    # the y-axis ray enters the shifted polyhedron at (0, 1/2)
    assert contraction_iso_codim1(shifted) == Verdict.NO


CONTRACTION_TAILS = {
    2: (((1, 0), (0, 1)), ((1, 0), (1, 2)), ((2, 1), (-1, 3)), ((1, 1),)),
    3: (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
        ((1, 2, 0), (2, -1, 1), (0, 1, 3)),
        ((1, 0, 0), (0, 1, 0)),
    ),
}


def test_contraction_matches_the_degree_polyhedron_reference():
    """The ray-degree rule against ray_meets on the Minkowski sum of the
    coefficients, over orthant, non-orthant and lower-dimensional tails,
    proper or not, with and without coefficients."""
    rng = Random(20261104)
    pool = (p1_point(0), p1_point(1), p1_point(-1))
    seen = {"yes": 0, "no": 0, "rank-3 no": 0, "non-orthant": 0, "empty": 0}
    seen.update({"proper yes": 0, "proper no": 0, "not proper": 0})
    for rank in (2, 3):
        for _ in range(100 if rank == 2 else 80):
            tail_rays = rng.choice(CONTRACTION_TAILS[rank])
            tail = make_cone(tail_rays, rank)
            coeffs = {}
            for pt in rng.sample(pool, rng.choice((0, 1, 2, 2, 3))):
                verts = [
                    tuple(Fraction(rng.randint(-4, 2), rng.randint(1, 3)) for _ in range(rank))
                    for _ in range(rng.randint(1, 3 if rank == 2 else 2))
                ]
                coeffs[pt] = make_polyhedron(verts, tail)
            if rng.random() < 0.7:
                # a large vertex at infinity makes many of these proper; half
                # of the time it is moved so that the degree vanishes at the
                # weight-cone rays on the face orthogonal to one tail ray
                vertex = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 2)) for _ in range(rank))
                rho = rng.choice(tail.rays)
                face = [u for u in tail.dual.rays if dot(u, rho) == 0]
                if tail.dual.pointed and rng.random() < 0.5:
                    rhs = [
                        -sum(support_eval(q, u) for q in coeffs.values()) - dot(u, vertex)
                        for u in face
                    ]
                    vertex = tuple(a + b for a, b in zip(vertex, solve(face, rhs)))
                coeffs[P1_INFINITY] = make_polyhedron([vertex], tail)
            d = polyhedral_divisor(P1, rank, tail, coeffs)
            got = contraction_iso_codim1(d)
            assert got == reference_contraction(d), d
            answer = "yes" if got == Verdict.YES else "no"
            proper = is_proper(d).verdict == Verdict.YES
            seen[answer] += 1
            seen[f"proper {answer}" if proper else "not proper"] += 1
            seen["rank-3 no"] += rank == 3 and got == Verdict.NO
            seen["non-orthant"] += set(tail.rays) != {
                tuple(int(i == j) for j in range(rank)) for i in range(rank)
            }
            seen["empty"] += not d.coefficients
    assert all(n >= 10 for n in seen.values()), seen


def test_contraction_is_unknown_without_a_chamber_fan():
    """At rank 4 with walls there is no chamber fan: the contraction is
    undecided, as is properness, so require_proper stops every command that
    asks first. Without walls the answer is exact."""
    tail = make_cone([tuple(int(i == j) for j in range(4)) for i in range(4)], 4)
    edge = make_polyhedron([(0, 0, 0, 0), (1, -1, 0, 0)], tail)
    corner = make_polyhedron([(1, 1, 1, 1)], tail)
    d = polyhedral_divisor(P1, 4, tail, {p1_point(0): edge, P1_INFINITY: corner})
    with pytest.raises(UnsupportedRankError):
        d.fan
    assert contraction_iso_codim1(d) == Verdict.UNKNOWN
    assert is_proper(d).verdict == Verdict.UNKNOWN
    with pytest.raises(NotProperError):
        require_proper(d)
    cases = (((1, 1, 1, 1), Verdict.YES), ((1, 1, 0, 1), Verdict.YES), ((1, 0, 0, 0), Verdict.NO))
    for vertex, want in cases:
        d = polyhedral_divisor(P1, 4, tail, {P1_INFINITY: make_polyhedron([vertex], tail)})
        assert contraction_iso_codim1(d) == reference_contraction(d) == want
    # no tail ray to contract: yes, with no chamber fan at all
    segment = make_polyhedron([(0, 1, 0, 0), (1, 0, 0, 0)], make_cone([], 4))
    trivial = polyhedral_divisor(P1, 4, (), {p1_point(0): segment})
    assert contraction_iso_codim1(trivial) == Verdict.YES
