from fractions import Fraction
from itertools import islice
from random import Random

import pytest

import polydiv.pdiv as pdiv_module
from polydiv.classify import cohen_macaulay, rational_singularities
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
)
from polydiv.geometry import make_cone, make_polyhedron
from polydiv.linalg import dot
from polydiv.pdiv import (
    AffineSpace,
    RaySlope,
    contraction_iso_codim1,
    floor_columns,
    is_proper,
    polyhedral_divisor,
    require_proper,
)
from polydiv.verdicts import Verdict

from reference_geometry import contraction_iso_codim1 as reference_contraction
from reference_geometry import degree_polyhedron
import reference_pdiv
from reference_pdiv import WeightError, check_weight, decide_properness, evaluate, support_eval
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
    assert [k for k, _ in d.coefficients] == [P1_INFINITY]
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
    assert dict(ev.terms)[p1_point(0)] == Fraction(-1, 4)
    assert dict(ev.terms)[P1_INFINITY] == Fraction(3, 4)
    assert degree(ev) == Fraction(1, 4)
    ev4 = evaluate(d, 4)
    assert dict(ev4.terms)[p1_point(0)] == -1 and degree(ev4) == 1
    assert not evaluate(d, 0).terms
    with pytest.raises(WeightError) as info:
        evaluate(d, -1)
    assert info.value.separating_ray == (1,)


def test_evaluate_scalar_only_for_rank_one():
    d = polyhedral_divisor(P1, 2, ((1, 0), (0, 1)), {p1_point(0): quadrant_poly((1, 2))})
    with pytest.raises(RankMismatchError):
        evaluate(d, 1)
    ev = evaluate(d, (1, 1))
    assert dict(ev.terms)[p1_point(0)] == 3


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


def test_properness_reads_the_interior_sample_off_the_ray_degrees(monkeypatch):
    # the degree is concave and >= 0 at every fan ray, so it vanishes at the
    # interior sample, the sum of the fan rays, iff at each of them: the
    # sample takes no degree of its own; the denominators' lcm is taken once
    # per divisor, not once per ray
    degrees, lcms = [], []
    real, real_lcm = pdiv_module._degree, pdiv_module.lcm
    monkeypatch.setattr(pdiv_module, "_degree", lambda *a: degrees.append(a[0]) or real(*a))
    monkeypatch.setattr(pdiv_module, "lcm", lambda *dens: lcms.append(dens) or real_lcm(*dens))
    quadrant = polyhedral_divisor(P1, 2, ((1, 0), (0, 1)), {p1_point(0): quadrant_poly((1, 0))})
    cancelled = polyhedral_divisor(
        P1,
        2,
        ((1, 0), (0, 1)),
        {p1_point(0): quadrant_poly((1, 2)), P1_INFINITY: quadrant_poly((-1, -2))},
    )
    assert is_proper(quadrant).verdict == Verdict.YES
    assert dict(quadrant.ray_degrees) == {(0, 1): 0, (1, 0): 1}
    assert degree(evaluate(quadrant, (1, 1))) == 1
    report = is_proper(cancelled)
    assert dict(cancelled.ray_degrees) == {(0, 1): 0, (1, 0): 0}
    assert degree(evaluate(cancelled, (1, 1))) == 0
    assert report.verdict == Verdict.NO and report.witness == (1, 1)
    assert report.reason == "the degree vanishes at an interior weight, hence everywhere"
    assert len(degrees) == 4  # one per fan ray of each divisor
    assert lcms == [(1,), (1, 1)]


def test_slopes_are_kept_and_a_rank_two_failure_is_not():
    d = rank1_divisor(P1, GOLDEN_ONE)
    assert d.slopes is d.slopes
    assert [(s.p, s.q) for s in d.slopes] == [(-1, 4), (-1, 4), (3, 4)]
    quadrant = polyhedral_divisor(
        P1, 2, ((1, 0), (0, 1)), {p1_point(0): quadrant_poly((1, 0))}
    )
    for _ in range(2):
        with pytest.raises(ShapeError):
            quadrant.slopes
    assert "slopes" not in vars(quadrant)


def test_streamed_floor_kernel_matches_the_period_table():
    """The lazy columns and floor degrees against the period-table kernel of
    tests/reference_pdiv.py, on seeded slopes with negative p, q = 1 and no
    slopes at all, at m_max = 0 and at m_max below and above each q."""
    rng = Random(3303)
    points = (P1_INFINITY, p1_point(0), p1_point(1), p1_point(-1), p1_point(2), p1_point(1, 2))
    seen = dict.fromkeys(("negative p", "q = 1", "no slopes", "m_max 0", "below q", "above q"), 0)
    for _ in range(120):
        pts = rng.sample(points, rng.randint(0, len(points)))
        qs = [rng.choice((1, rng.randint(2, 9), rng.randint(10, 60))) for _ in pts]
        slopes = tuple(RaySlope(pt, rng.randint(-3 * q, 3 * q), q) for pt, q in zip(pts, qs))
        m_max = rng.choice((0, rng.randint(1, 8), rng.randint(9, 200)))
        want = reference_pdiv.floor_columns(slopes, m_max)
        got = [list(islice(column, m_max + 1)) for column in floor_columns(slopes)]
        assert got == want, (slopes, m_max)
        # a divisor needs positive degree to be proper, not to stream its floors
        d = rank1_divisor(P1, {s.point: Fraction(s.p, s.q) for s in slopes if s.p})
        want = reference_pdiv.floor_degrees(d.slopes, m_max)
        assert tuple(d.floor_degrees(m_max)) == want, (d, m_max)
        assert len(want) == m_max + 1
        seen["negative p"] += any(s.p < 0 for s in slopes)
        seen["q = 1"] += 1 in qs
        seen["no slopes"] += not d.slopes
        seen["m_max 0"] += m_max == 0
        seen["below q"] += any(0 < m_max < q for q in qs)
        seen["above q"] += any(m_max > q for q in qs)
    assert all(n >= 3 for n in seen.values()), seen


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
    """ray_degrees take support minima in int and must equal
    degree(evaluate(d, u)). The degree at the interior sample, the sum of
    the fan rays, is at least the sum of the ray degrees (the degree is
    concave), and where those are >= 0 it is zero iff they all are, as the
    properness check reads it."""
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
            at_sample = degree(evaluate(d, sample))
            assert at_sample >= sum(d.ray_degrees.values()), d
            if min(d.ray_degrees.values()) >= 0:
                assert (at_sample == 0) == (not any(d.ray_degrees.values())), d
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
    # so no rank-4 fan is ever asked of the floor-degree search
    for ask in (require_proper, rational_singularities, cohen_macaulay):
        with pytest.raises(NotProperError):
            ask(d)
    cases = (((1, 1, 1, 1), Verdict.YES), ((1, 1, 0, 1), Verdict.YES), ((1, 0, 0, 0), Verdict.NO))
    for vertex, want in cases:
        d = polyhedral_divisor(P1, 4, tail, {P1_INFINITY: make_polyhedron([vertex], tail)})
        assert contraction_iso_codim1(d) == reference_contraction(d) == want
    # no tail ray to contract: yes, with no chamber fan at all
    segment = make_polyhedron([(0, 1, 0, 0), (1, 0, 0, 0)], make_cone([], 4))
    trivial = polyhedral_divisor(P1, 4, (), {p1_point(0): segment})
    assert contraction_iso_codim1(trivial) == Verdict.YES


# ---------------------------------------------------------------------------
# input guards


def test_affine_space_needs_a_positive_dimension():
    with pytest.raises(ShapeError):
        AffineSpace(0)


def test_polyhedral_divisor_needs_a_positive_rank():
    with pytest.raises(ShapeError):
        polyhedral_divisor(P1, 0, (), {})


def test_polyhedral_divisor_rejects_a_tail_of_the_wrong_rank():
    with pytest.raises(RankMismatchError):
        polyhedral_divisor(P1, 1, make_cone([(1, 0), (0, 1)], 2), {})


def test_polyhedral_divisor_rejects_a_coefficient_that_is_not_a_tailed_polyhedron():
    with pytest.raises(InvalidInputError) as info:
        polyhedral_divisor(P1, 1, [(1,)], {p1_point(0): [(Fraction(1),)]})
    assert info.value.violations == ["coefficient at 0 is not a tailed polyhedron"]


def test_polyhedral_divisor_rejects_a_coefficient_of_the_wrong_rank():
    poly = make_polyhedron([(Fraction(1), Fraction(0))], make_cone([(1, 0), (0, 1)], 2))
    with pytest.raises(InvalidInputError) as info:
        polyhedral_divisor(P1, 1, [(1,)], {p1_point(0): poly})
    assert info.value.violations == ["coefficient at 0 has rank 2, expected 1"]


def test_coerce_weight_rejects_a_weight_of_the_wrong_length():
    d = polyhedral_divisor(P1, 2, [(1, 0), (0, 1)], {})
    assert check_weight(d, (1, 2)) == (Fraction(1), Fraction(2))
    with pytest.raises(RankMismatchError):
        check_weight(d, (1, 2, 3))


# y^2 = x^3 - x, where every rational point is torsion, and y^2 = x^3 - 2,
# where (3, 5) has infinite order and no point but the origin is torsion
TORSION_BASES = (
    (EllipticCurveQ(-1, 0), (EllipticPoint(0, 0), EllipticPoint(1, 0), EllipticPoint(-1, 0))),
    (EllipticCurveQ(0, -2), (EllipticPoint(3, 5), EllipticPoint(3, -5))),
)


def test_properness_matches_the_torsion_test_through_evaluate():
    """is_proper reads each degree-zero evaluation off the fan's minima; the
    reference takes every degree and every evaluation through evaluate.

    On the simplicial tails of DEGREE_TAILS, a vertex at the origin sets the
    degree at each ray u_i of the weight cone: the tail ray f_i positive on
    u_i is zero on the others, so adding (t_i - deg u_i) f_i / <u_i, f_i>
    makes that degree t_i, and t_i = 0 puts a degree-zero ray on the
    boundary. On y^2 = x^3 - 2 the two points
    (3, 5) and (3, -5) sometimes carry one polyhedron, so that their classes
    cancel and the evaluation is torsion there too."""
    rng = Random(20261020)
    seen = dict.fromkeys(("rank 1", "degree-zero ray", "torsion", "not torsion", "negative"), 0)
    for base, pool in TORSION_BASES:
        for _ in range(100):
            rank = rng.randint(1, 3)
            tail_rays = rng.choice([t for t in DEGREE_TAILS[rank] if len(t) == rank])
            tail = make_cone(tail_rays, rank)
            coeffs = {}
            for pt in rng.sample(pool, rng.randint(1, len(pool))):
                verts = [
                    tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank))
                    for _ in range(rng.randint(1, 2))
                ]
                coeffs[pt] = make_polyhedron(verts, tail)
            if len(coeffs) == len(pool) == 2 and rng.random() < 0.5:
                coeffs[pool[1]] = coeffs[pool[0]]
            partial = polyhedral_divisor(base, rank, tail_rays, coeffs)
            w = [Fraction(0)] * rank
            for u in partial.weight_cone.rays:
                t = rng.choice((0, 0, rng.randint(1, 3), rng.randint(-1, 3)))
                f = next(f for f in tail.rays if dot(f, u) > 0)
                scale = Fraction(t - partial.ray_degrees[u], dot(f, u))
                w = [a + scale * b for a, b in zip(w, f)]
            coeffs[EC_ORIGIN] = make_polyhedron([w], tail)
            d = polyhedral_divisor(base, rank, tail_rays, coeffs)
            report = is_proper(d)
            assert report == decide_properness(d), d
            seen["rank 1"] += rank == 1
            if 0 in d.ray_degrees.values() and report.verdict == Verdict.YES:
                seen["degree-zero ray"] += 1
                seen["torsion"] += base == TORSION_BASES[1][0]
            seen["not torsion"] += "not a torsion class" in report.reason
            seen["negative"] += "negative degree" in report.reason
    assert all(n >= 5 for n in seen.values()), seen


LINEALITY_TAILS = {2: (((1, 0),),), 3: (((1, 0, 0), (0, 1, 0)), ((1, 0, 0),))}
ORACLE_BASES = (
    (P1, (P1_INFINITY, p1_point(0), p1_point(1), p1_point(-1))),
    (EC_SMOOTH, (EC_ORIGIN, EllipticPoint(-1, 0), EllipticPoint(0, 1), EllipticPoint(2, 3))),
    (AbstractProjectiveCurve(1), tuple(LabelPoint(x) for x in "pqrs")),
)


def test_properness_matches_the_reference_on_walls_and_lineality():
    """is_proper reads the all-zero test and every degree off the fan's
    minima; the reference takes the degree at the interior sample through
    evaluate. The tails include non-simplicial ones and ones whose weight
    cone has a lineality space; up to three vertices per coefficient make
    walls. A cancelled divisor, v at one point and -v at another, has
    degree zero everywhere; a lifted one, on a simplicial tail, has a last
    vertex setting each weight-cone ray's degree to some t_i >= 0 (as in
    the torsion test above), so every fan ray's degree is >= 0."""
    rng = Random(20261021)
    seen = dict.fromkeys(("all zero", "past it", "walls", "non-simplicial", "lineality"), 0)
    for base, pool in ORACLE_BASES:
        for _ in range(80):
            rank = rng.randint(1, 3)
            tail_rays = rng.choice(DEGREE_TAILS[rank] + LINEALITY_TAILS.get(rank, ()))
            tail = make_cone(tail_rays, rank)
            mode = rng.choice(("random", "cancelled", "lifted"))
            if mode == "cancelled":
                v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank))
                a, b = rng.sample(pool, 2)
                coeffs = {a: make_polyhedron([v], tail), b: make_polyhedron([[-x for x in v]], tail)}
            else:
                coeffs = {
                    pt: make_polyhedron(
                        [
                            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank))
                            for _ in range(rng.randint(1, 3))
                        ],
                        tail,
                    )
                    for pt in rng.sample(pool[1:], rng.randint(1, len(pool) - 1))
                }
            if mode == "lifted" and len(tail_rays) == rank:
                partial = polyhedral_divisor(base, rank, tail_rays, coeffs)
                w = [Fraction(0)] * rank
                for u in partial.weight_cone.rays:
                    f = next(f for f in tail.rays if dot(f, u) > 0)
                    t = rng.choice((0, rng.randint(0, 3)))
                    scale = Fraction(t - partial.ray_degrees[u], dot(f, u))
                    w = [a + scale * b for a, b in zip(w, f)]
                coeffs[pool[0]] = make_polyhedron([w], tail)
            d = polyhedral_divisor(base, rank, tail_rays, coeffs)
            report = is_proper(d)
            assert report == decide_properness(d), d
            if "vanishes at an interior weight" in report.reason:
                seen["all zero"] += 1
            elif "negative degree" not in report.reason:
                seen["past it"] += 1
            seen["walls"] += len(d.fan.chambers) > 1
            seen["non-simplicial"] += len(tail_rays) > rank
            seen["lineality"] += len(tail_rays) < rank
    assert all(n >= 10 for n in seen.values()), seen
