import random
from fractions import Fraction

import pytest

from polydiv.curves import (
    EC_ORIGIN,
    P1_INFINITY,
    AbstractProjectiveCurve,
    AffineLine,
    EllipticCurveQ,
    EllipticPoint,
    FormalClass,
    LabelPoint,
    ProjectiveLine,
    RationalPoint,
    canonical_divisor,
    degree,
    denominator_lcm,
    divisor,
    ec_add,
    ec_multiple,
    ec_neg,
    floor_divisor,
    h0_dim,
    h1_dim,
    h1_dim_of_degree,
    is_integral,
    is_principal,
    is_torsion_class,
    p1_point,
    validate_point,
)
from polydiv.errors import CurveDomainError, NonIntegralError, PointError, ShapeError
from polydiv.verdicts import Verdict

P1 = ProjectiveLine()
EC_TWO_TORSION = EllipticCurveQ(-1, 0)  # y^2 = x^3 - x
EC_RANK_ONE = EllipticCurveQ(0, -2)  # y^2 = x^3 - 2


def test_p1_point_normalization():
    assert p1_point(2, 4) == p1_point(1, 2)
    assert p1_point(1, -2).b == 2 and p1_point(1, -2).a == -1
    assert p1_point(5, 0) == P1_INFINITY
    assert p1_point(0) == p1_point(0, 1)
    assert str(p1_point(Fraction(1, 2))) == "1/2"
    assert str(p1_point(-2)) == "-2"
    assert str(P1_INFINITY) == "inf"
    with pytest.raises(PointError):
        p1_point(0, 0)


def test_elliptic_curve_must_be_smooth():
    with pytest.raises(ShapeError):
        EllipticCurveQ(-3, 2)  # 4*(-27) + 27*4 = 0


def test_validate_point_rejects_off_curve():
    with pytest.raises(PointError):
        validate_point(EC_TWO_TORSION, EllipticPoint(2, 2))
    validate_point(EC_TWO_TORSION, EllipticPoint(0, 0))
    validate_point(EC_TWO_TORSION, EC_ORIGIN)
    with pytest.raises(PointError):
        validate_point(P1, EllipticPoint(0, 0))


def test_divisor_drops_zeros_and_sorts():
    d = divisor(P1, {p1_point(1): Fraction(0), p1_point(0): Fraction(1, 2)})
    assert d.terms == ((p1_point(0), Fraction(1, 2)),)
    assert d.coeff(p1_point(1)) == 0
    assert d.coeff(p1_point(0)) == Fraction(1, 2)


def test_divisor_arithmetic():
    a = divisor(P1, {p1_point(0): Fraction(1, 2), p1_point(1): 1})
    b = divisor(P1, {p1_point(0): Fraction(-1, 2), P1_INFINITY: 2})
    s = a + b
    assert s.coeff(p1_point(0)) == 0
    assert s.coeff(p1_point(1)) == 1
    assert s.coeff(P1_INFINITY) == 2
    assert (-a).coeff(p1_point(1)) == -1
    assert (3 * a).coeff(p1_point(0)) == Fraction(3, 2)
    assert (a - a).is_zero


def test_floor_divisor_and_integrality():
    d = divisor(P1, {p1_point(0): Fraction(-1, 4), P1_INFINITY: Fraction(3, 4)})
    f = floor_divisor(d)
    assert f.coeff(p1_point(0)) == -1
    assert f.coeff(P1_INFINITY) == 0
    assert not is_integral(d)
    assert is_integral(f)
    assert denominator_lcm(d) == 4


def test_degree_and_affine_error():
    d = divisor(P1, {p1_point(0): Fraction(-1, 4), P1_INFINITY: Fraction(3, 4)})
    assert degree(d) == Fraction(1, 2)
    aff = divisor(AffineLine(), {RationalPoint(Fraction(1)): 1})
    with pytest.raises(CurveDomainError):
        degree(aff)


def test_canonical_divisors():
    k = canonical_divisor(P1)
    assert k.terms == ((P1_INFINITY, Fraction(-2)),)
    assert canonical_divisor(EC_TWO_TORSION).is_zero
    assert canonical_divisor(AbstractProjectiveCurve(3)) == FormalClass(Fraction(4))
    with pytest.raises(CurveDomainError):
        canonical_divisor(AffineLine())


def test_group_law_two_torsion_table():
    e = EC_TWO_TORSION
    p0 = EllipticPoint(0, 0)
    p1 = EllipticPoint(1, 0)
    pm = EllipticPoint(-1, 0)
    assert ec_add(e, p0, p0) == EC_ORIGIN
    assert ec_add(e, p0, p1) == pm
    assert ec_add(e, p1, pm) == p0
    assert ec_add(e, EC_ORIGIN, p1) == p1
    assert ec_neg(e, p0) == p0


def test_group_law_doubling_exact_value():
    # on y^2 = x^3 - 2, doubling (3, 5) lands on (129/100, -383/1000)
    p = EllipticPoint(3, 5)
    d = ec_multiple(EC_RANK_ONE, 2, p)
    assert d == EllipticPoint(Fraction(129, 100), Fraction(-383, 1000))
    validate_point(EC_RANK_ONE, d)
    assert ec_add(EC_RANK_ONE, d, ec_neg(EC_RANK_ONE, p)) == p


def test_is_principal_on_p1():
    d = divisor(P1, {p1_point(0): 1, P1_INFINITY: -1})
    assert is_principal(d) == Verdict.YES
    assert is_principal(divisor(P1, {p1_point(0): 1})) == Verdict.NO
    with pytest.raises(NonIntegralError):
        is_principal(divisor(P1, {p1_point(0): Fraction(1, 2)}))


def test_is_principal_on_elliptic_function_divisors():
    e = EC_TWO_TORSION
    p0 = EllipticPoint(0, 0)
    p1 = EllipticPoint(1, 0)
    pm = EllipticPoint(-1, 0)
    div_x = divisor(e, {p0: 2, EC_ORIGIN: -2})
    div_y = divisor(e, {p0: 1, p1: 1, pm: 1, EC_ORIGIN: -3})
    assert is_principal(div_x) == Verdict.YES
    assert is_principal(div_y) == Verdict.YES
    # degree zero but class nontrivial
    assert is_principal(divisor(e, {p0: 1, EC_ORIGIN: -1})) == Verdict.NO
    assert is_principal(divisor(e, {p0: 1})) == Verdict.NO


def test_is_principal_on_abstract_models():
    g2 = AbstractProjectiveCurve(2)
    d = divisor(g2, {LabelPoint("p"): 1, LabelPoint("q"): -1})
    assert is_principal(d) == Verdict.UNKNOWN
    assert is_principal(divisor(g2, {LabelPoint("p"): 1})) == Verdict.NO
    g0 = AbstractProjectiveCurve(0)
    assert is_principal(divisor(g0, {LabelPoint("p"): 1, LabelPoint("q"): -1})) == Verdict.YES


def test_torsion_subgroup_of_two_torsion_curve():
    e = EC_TWO_TORSION
    for pt in [EllipticPoint(0, 0), EllipticPoint(1, 0), EllipticPoint(-1, 0)]:
        verdict, order = is_torsion_class(divisor(e, {pt: 1, EC_ORIGIN: -1}))
        assert verdict == Verdict.YES and order == 2
    verdict, order = is_torsion_class(divisor(e, {}))
    assert verdict == Verdict.YES and order == 1


def test_non_torsion_point_detected():
    p = EllipticPoint(3, 5)
    verdict, order = is_torsion_class(divisor(EC_RANK_ONE, {p: 1, EC_ORIGIN: -1}))
    assert verdict == Verdict.NO and order is None


def test_torsion_requires_degree_zero():
    with pytest.raises(ShapeError):
        is_torsion_class(divisor(P1, {p1_point(0): 1}))


def test_h0_h1_line_formulas():
    d = divisor(P1, {p1_point(0): 3, P1_INFINITY: -1})
    assert h0_dim(d) == 3 and h1_dim(d) == 0
    neg = divisor(P1, {p1_point(0): -3})
    assert h0_dim(neg) == 0 and h1_dim(neg) == 2
    zero = divisor(P1, {})
    assert h0_dim(zero) == 1 and h1_dim(zero) == 0


def test_h0_h1_elliptic_degree_zero_splits_on_principality():
    e = EC_TWO_TORSION
    p0 = EllipticPoint(0, 0)
    principal = divisor(e, {p0: 2, EC_ORIGIN: -2})
    assert h0_dim(principal) == 1 and h1_dim(principal) == 1
    nontrivial = divisor(e, {p0: 1, EC_ORIGIN: -1})
    assert h0_dim(nontrivial) == 0 and h1_dim(nontrivial) == 0


def test_h1_dim_of_degree_asks_principality_only_at_elliptic_degree_zero():
    calls = []

    def principal():
        calls.append(True)
        return Verdict.NO

    for curve in (P1, EC_TWO_TORSION, *(AbstractProjectiveCurve(g) for g in range(3))):
        for deg in range(-3, 4):
            if not (curve == EC_TWO_TORSION and deg == 0):
                h1_dim_of_degree(curve, deg, principal)
    assert not calls
    assert h1_dim_of_degree(EC_TWO_TORSION, 0, principal) == 0
    assert calls == [True]
    assert h1_dim_of_degree(EC_TWO_TORSION, 0, lambda: Verdict.YES) == 1
    with pytest.raises(CurveDomainError):
        h1_dim_of_degree(AffineLine(), 0, principal)


def test_h0_h1_abstract_window_is_unknown():
    g2 = AbstractProjectiveCurve(2)
    mid = divisor(g2, {LabelPoint("p"): 1})  # 0 <= deg <= 2g-2
    assert h0_dim(mid) is None and h1_dim(mid) is None
    high = divisor(g2, {LabelPoint("p"): 5})
    assert h0_dim(high) == 4 and h1_dim(high) == 0
    low = divisor(g2, {LabelPoint("p"): -1})
    assert h0_dim(low) == 0 and h1_dim(low) == 2


def test_riemann_roch_on_p1_random():
    rng = random.Random(101)
    pool = [p1_point(0), p1_point(1), p1_point(-1), p1_point(Fraction(2, 3)), P1_INFINITY]
    for _ in range(300):
        coeffs = {pt: rng.randint(-4, 4) for pt in rng.sample(pool, rng.randint(1, 4))}
        d = divisor(P1, coeffs)
        deg = int(degree(d))
        assert h0_dim(d) - h1_dim(d) == deg + 1


def test_riemann_roch_on_elliptic_random():
    rng = random.Random(202)
    e = EC_TWO_TORSION
    pool = [EC_ORIGIN, EllipticPoint(0, 0), EllipticPoint(1, 0), EllipticPoint(-1, 0)]
    for _ in range(300):
        coeffs = {pt: rng.randint(-3, 3) for pt in rng.sample(pool, rng.randint(1, 4))}
        d = divisor(e, coeffs)
        deg = int(degree(d))
        assert h0_dim(d) - h1_dim(d) == deg  # genus one: deg + 1 - g


def reference_h0_dim(d):
    """h0_dim as it was, one case per curve model before it was read off
    h1_dim_of_degree by Riemann-Roch."""
    deg = degree(d)
    if isinstance(d.curve, ProjectiveLine) or (
        isinstance(d.curve, AbstractProjectiveCurve) and d.curve.genus == 0
    ):
        return max(0, int(deg) + 1)
    if isinstance(d.curve, EllipticCurveQ):
        if deg > 0:
            return int(deg)
        if deg < 0:
            return 0
        return 1 if is_principal(d) == Verdict.YES else 0
    g = d.curve.genus
    if deg < 0:
        return 0
    if deg > 2 * g - 2:
        return int(deg) + 1 - g
    return None


def test_h0_dim_matches_the_case_analysis():
    rng = random.Random(20261013)
    models = [
        (P1, [p1_point(0), p1_point(1), P1_INFINITY]),
        (EC_TWO_TORSION, [EC_ORIGIN, EllipticPoint(0, 0), EllipticPoint(1, 0)]),
        (EllipticCurveQ(0, 1), [EC_ORIGIN, EllipticPoint(-1, 0), EllipticPoint(2, 3)]),
    ] + [(AbstractProjectiveCurve(g), [LabelPoint(c) for c in "pqr"]) for g in range(5)]
    seen = {"principal": 0, "non-principal": 0, "unknown": 0}
    for curve, pool in models:
        for _ in range(150):
            coeffs = {pt: rng.randint(-4, 4) for pt in rng.sample(pool, rng.randint(1, 3))}
            d = divisor(curve, coeffs)
            want = reference_h0_dim(d)
            assert h0_dim(d) == want, d
            seen["unknown"] += want is None
            if isinstance(curve, EllipticCurveQ) and degree(d) == 0:
                seen["principal" if want == 1 else "non-principal"] += 1
    assert all(n >= 5 for n in seen.values()), seen
