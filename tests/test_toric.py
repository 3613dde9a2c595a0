from fractions import Fraction
from random import Random
from time import monotonic

import pytest

import polydiv.linalg as linalg
import polydiv.toric as toric
from polydiv.curves import ProjectiveLine, p1_point
from polydiv.errors import CurveDomainError, RankMismatchError
from polydiv.geometry import make_cone, make_polyhedron
from polydiv.pdiv import AffineSpace, polyhedral_divisor
from polydiv.toric import (
    cone_diagnostics,
    monomial_admissible,
    toric_cone,
    weight_in_dual,
)


def halfline():
    return make_cone([(1,)], 1)


def halfline_poly(*vertices):
    return make_polyhedron([(Fraction(v),) for v in vertices], halfline())


def test_toric_cone_of_half_shift():
    # coefficient -1/2 on the single hyperplane: vertex ray (-1/2, 1) -> (-1, 2)
    d = polyhedral_divisor(
        AffineSpace(1), 1, [(1,)], [(1, halfline_poly(Fraction(-1, 2)))]
    )
    tc = toric_cone(d)
    assert tc.ambient_rank == 2
    assert tc.divisor_rank == 1
    assert tc.hyperplane_count == 1
    assert tc.rays == ((-1, 2), (1, 0))
    diag = cone_diagnostics(tc)
    assert diag.simplicial
    assert diag.span_rank == 2
    assert diag.multiplicity == 2
    assert not diag.smooth


def test_trivial_coefficient_contributes_unit_ray():
    d = polyhedral_divisor(AffineSpace(1), 1, [(1,)], [(1, halfline_poly(0))])
    tc = toric_cone(d)
    assert tc.rays == ((0, 1), (1, 0))
    diag = cone_diagnostics(tc)
    assert diag.smooth
    assert diag.multiplicity == 1


def test_interval_coefficient_drops_interior_vertex_ray():
    # conv{0, 1} + tail: the ray through (1, 1) is a sum of the other two
    d = polyhedral_divisor(AffineSpace(1), 1, [(1,)], [(1, halfline_poly(0, 1))])
    tc = toric_cone(d)
    assert tc.rays == ((0, 1), (1, 0))


def test_unassigned_hyperplane_gets_default_ray():
    d = polyhedral_divisor(
        AffineSpace(2), 1, [(1,)], [(1, halfline_poly(Fraction(1, 3)))]
    )
    tc = toric_cone(d)
    assert tc.ambient_rank == 3
    assert tc.rays == ((0, 0, 1), (1, 0, 0), (1, 3, 0))
    diag = cone_diagnostics(tc)
    assert diag.simplicial
    assert diag.multiplicity == 3
    assert not diag.smooth


def test_tail_only_divisor_inherits_tail_multiplicity():
    # tail cone spanned by (1, 1) and (1, -1) has multiplicity 2
    d = polyhedral_divisor(AffineSpace(1), 2, [(1, 1), (1, -1)], [])
    tc = toric_cone(d)
    assert tc.rays == ((0, 0, 1), (1, -1, 0), (1, 1, 0))
    diag = cone_diagnostics(tc)
    assert diag.simplicial
    assert diag.multiplicity == 2
    assert not diag.smooth


def test_non_simplicial_cone_reported_without_multiplicity():
    quadrant = make_cone([(1, 0), (0, 1)], 2)
    coeff = make_polyhedron([(-1, 0), (0, -1)], quadrant)
    d = polyhedral_divisor(AffineSpace(1), 2, [(1, 0), (0, 1)], [(1, coeff)])
    tc = toric_cone(d)
    assert len(tc.rays) == 4
    diag = cone_diagnostics(tc)
    assert diag.span_rank == 3
    assert not diag.simplicial
    assert diag.multiplicity is None
    assert not diag.smooth


def test_compact_coefficient_with_trivial_tail_is_smooth():
    d = polyhedral_divisor(
        AffineSpace(1),
        1,
        [],
        [(1, make_polyhedron([(Fraction(1, 2),)], make_cone([], 1)))],
    )
    tc = toric_cone(d)
    assert tc.rays == ((1, 2),)
    diag = cone_diagnostics(tc)
    assert diag.span_rank == 1
    assert diag.simplicial
    assert diag.multiplicity == 1
    assert diag.smooth


def test_monomial_admissibility_hand_values():
    d = polyhedral_divisor(
        AffineSpace(1), 1, [(1,)], [(1, halfline_poly(Fraction(-1, 2)))]
    )
    # support minimum at m = 2 is -1, so the hyperplane exponent must be >= 1
    assert monomial_admissible(d, 2, (1,))
    assert not monomial_admissible(d, 2, (0,))
    assert monomial_admissible(d, (1,), (1,))
    assert not monomial_admissible(d, -1, (5,))
    assert monomial_admissible(d, 0, (0,))


def test_membership_matches_toric_dual_on_a_grid():
    d = polyhedral_divisor(
        AffineSpace(2),
        1,
        [(1,)],
        [
            (1, halfline_poly(Fraction(-1, 2))),
            (2, halfline_poly(Fraction(2, 3))),
        ],
    )
    tc = toric_cone(d)
    for m in range(-3, 7):
        for r1 in range(-3, 4):
            for r2 in range(-3, 4):
                assert monomial_admissible(d, m, (r1, r2)) == weight_in_dual(
                    tc, (m, r1, r2)
                )


def test_toric_model_rejects_curve_bases():
    t = ProjectiveLine()
    d = polyhedral_divisor(
        t, 1, [(1,)], [(p1_point(0), halfline_poly(Fraction(1, 2)))]
    )
    with pytest.raises(CurveDomainError):
        toric_cone(d)
    with pytest.raises(CurveDomainError):
        monomial_admissible(d, 1, (0,))


def test_weight_length_checks():
    d = polyhedral_divisor(
        AffineSpace(1), 1, [(1,)], [(1, halfline_poly(Fraction(-1, 2)))]
    )
    tc = toric_cone(d)
    with pytest.raises(RankMismatchError):
        weight_in_dual(tc, (1, 0, 0))
    with pytest.raises(RankMismatchError):
        monomial_admissible(d, 1, (0, 0))


def trivial_tail_model(rank, dim, seed):
    """Family (c): one random vertex per hyperplane over a trivial tail."""
    rng = Random(seed)
    tail = make_cone([], rank)
    coefficients = []
    for i in range(1, dim + 1):
        vertex = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rank))
        coefficients.append((i, make_polyhedron([vertex], tail)))
    return polyhedral_divisor(AffineSpace(dim), rank, [], coefficients)


def test_cone_diagnostics_takes_no_determinant(monkeypatch):
    def no_determinant(rows):
        raise AssertionError("cone_diagnostics computed a determinant")

    # wherever a caller may have imported it from
    monkeypatch.setattr(linalg, "determinant", no_determinant, raising=False)
    monkeypatch.setattr(toric, "determinant", no_determinant, raising=False)
    diag = cone_diagnostics(toric_cone(trivial_tail_model(6, 3, 11)))
    assert diag.simplicial
    assert diag.multiplicity >= 1


def test_trivial_tail_model_at_rank_16_over_dimension_8_is_fast():
    # C(24, 8) = 735,471 maximal minors: the gcd over all of them took minutes
    start = monotonic()
    d = trivial_tail_model(16, 8, 16)
    diag = cone_diagnostics(toric_cone(d))
    assert monotonic() - start < 10.0
    assert (diag.ambient_rank, diag.ray_count, diag.span_rank) == (24, 8, 8)
    assert diag.simplicial
