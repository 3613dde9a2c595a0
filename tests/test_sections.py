import time
from fractions import Fraction

import pytest

from polydiv.curves import (
    EC_ORIGIN,
    P1_INFINITY,
    AffineLine,
    EllipticCurveQ,
    ProjectiveLine,
    RationalPoint,
    p1_point,
)
import polydiv.pdiv as pdiv
from polydiv.errors import CurveDomainError, ShapeError
from polydiv.geometry import make_cone, make_polyhedron
from polydiv.pdiv import polyhedral_divisor
from polydiv.sections import ring_presentation

from reference_sections import graded_dimension, multiply_sections

P1 = ProjectiveLine()
RAY = ((1,),)


def halfline(vertex):
    return make_polyhedron([(Fraction(vertex),)], make_cone(RAY, 1))


def rank1(base, coeffs):
    return polyhedral_divisor(base, 1, RAY, {pt: halfline(v) for pt, v in coeffs.items()})


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


def test_dimension_series_of_golden_one():
    series = (1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 4)
    assert ring_presentation(golden("one"), 12).dimensions == series
    assert tuple(graded_dimension(golden("one"), m) for m in range(13)) == series


def test_dimension_series_of_golden_two_and_three():
    two = ring_presentation(golden("two"), 12).dimensions
    assert two == (1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 2)
    three = ring_presentation(golden("three"), 12).dimensions
    assert three == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 2)


def test_monomial_basis_is_the_canonical_identity():
    # piece 4 of golden one has no decomposable part: both of its
    # generators are the canonical basis vectors, and piece 1 is zero
    pres = ring_presentation(golden("one"), 4)
    assert pres.dimensions[1] == 0
    basis = tuple(g.coeffs for g in pres.generators if g.degree == 4)
    assert basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_multiplication_without_correction():
    d = golden("one")
    # both correction exponents vanish for degrees 3 and 4
    prod = multiply_sections(d, 3, (1,), 4, (2, 3))
    assert prod == (Fraction(2), Fraction(3))
    assert prod == multiply_sections(d, 4, (2, 3), 3, (1,))


def test_multiplication_inserts_the_correction_polynomial():
    d = golden("two")
    # both finite corrections are (t - z)^1, so the product is t^2 - t
    prod = multiply_sections(d, 16, (1,), 8, (1,))
    assert prod == (Fraction(0), Fraction(-1), Fraction(1))


def test_multiplication_validates_inputs():
    d = golden("one")
    with pytest.raises(ShapeError, match="^a degree-3 section has 1 coordinates, got 2$"):
        multiply_sections(d, 3, (1, 0), 4, (1, 0))
    with pytest.raises(ShapeError, match="^a degree-4 section has 2 coordinates, got 1$"):
        multiply_sections(d, 4, (1,), 4, (1, 0))
    with pytest.raises(ShapeError, match="^the ring has no sections in degree 1$"):
        multiply_sections(d, 1, (), 3, (1,))
    with pytest.raises(ShapeError):
        multiply_sections(d, -1, (1,), 3, (1,))


def test_multiplication_reads_only_the_three_degrees_involved():
    # the slopes of tests/golden/documents/ring_p1.json; the cost of one
    # product must not grow with m1 + m2
    d = rank1(
        P1,
        {p1_point(0): Fraction(-3, 7), p1_point(1): Fraction(-5, 11), P1_INFINITY: Fraction(1)},
    )
    big, small = 10**6, 2
    vec = (1,) + (0,) * (graded_dimension(d, big) - 1)
    start = time.perf_counter()
    prod = multiply_sections(d, big, vec, small, (1,))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    # 1 * 1 times a correction prod (t - z)^{e_z} with e_z in {0, 1}
    assert len(prod) == graded_dimension(d, big + small)
    assert prod[2] in (0, 1) and not any(prod[3:])


def test_generators_of_golden_one():
    gens = ring_presentation(golden("one"), 12).generators
    assert [(g.degree, g.coeffs) for g in gens] == [
        (3, (Fraction(1),)),
        (4, (Fraction(1), Fraction(0))),
        (4, (Fraction(0), Fraction(1))),
    ]
    assert [g.name for g in gens] == ["g1", "g2", "g3"]


def test_first_relation_of_golden_one():
    blocks = ring_presentation(golden("one"), 12).blocks
    by_degree = {b.degree: b for b in blocks}
    for deg, block in by_degree.items():
        if deg < 12:
            assert block.kernel_dim == 0, deg
    last = by_degree[12]
    assert last.monomials == ((4, 0, 0), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))
    assert last.target_dim == 4
    assert last.kernel_dim == 1
    assert len(last.relations) == 1
    rel = last.relations[0]
    scaled = tuple(c / rel[0] for c in rel)
    assert scaled == (1, 0, 1, -1, 0)


def test_generators_and_first_relation_of_golden_two():
    pres = ring_presentation(golden("two"), 24)
    assert [g.degree for g in pres.generators] == [3, 8, 12]
    blocks = pres.blocks
    nontrivial = [b for b in blocks if b.kernel_dim > 0]
    assert nontrivial[0].degree == 24
    assert nontrivial[0].monomials == ((8, 0, 0), (4, 0, 1), (0, 3, 0), (0, 0, 2))
    assert nontrivial[0].kernel_dim == 1
    rel = nontrivial[0].relations[0]
    first = next(c for c in rel if c != 0)
    assert tuple(c / first for c in rel) == (0, 1, 1, -1)


def test_generators_and_relations_of_golden_three():
    # the degree-17 piece is one-dimensional but has no decomposable part:
    # every complementary pair of degrees hits an empty piece
    pres = ring_presentation(golden("three"), 30)
    assert [g.degree for g in pres.generators] == [3, 10, 12, 17]
    blocks = pres.blocks
    by_degree = {b.degree: b for b in blocks}
    for deg, block in by_degree.items():
        if deg < 20:
            assert block.kernel_dim == 0, deg
    first_block = by_degree[20]
    assert first_block.monomials == ((1, 0, 0, 1), (0, 2, 0, 0))
    assert first_block.target_dim == 1
    assert first_block.kernel_dim == 1
    rel = first_block.relations[0]
    scaled = tuple(c / rel[0] for c in rel)
    assert scaled == (1, -1)


def test_shifted_relations_are_quotiented_out_in_golden_three():
    blocks = ring_presentation(golden("three"), 34).blocks
    by_degree = {b.degree: b for b in blocks}
    # degree 23 carries only the degree-20 relation multiplied by a generator
    assert by_degree[23].kernel_dim == 1
    assert by_degree[23].relations == ()
    # the degree-30 kernel is spanned by shifts of the 20 and 27 relations
    deep = by_degree[30]
    assert deep.monomials == (
        (10, 0, 0, 0),
        (6, 0, 1, 0),
        (2, 0, 2, 0),
        (1, 1, 0, 1),
        (0, 3, 0, 0),
    )
    assert deep.kernel_dim == 2
    assert deep.relations == ()
    # three minimal relations in total: a determinantal presentation
    assert {b.degree: len(b.relations) for b in blocks if b.relations} == {
        20: 1,
        27: 1,
        34: 1,
    }
    second = by_degree[27]
    assert second.monomials == ((9, 0, 0, 0), (5, 0, 1, 0), (1, 0, 2, 0), (0, 1, 0, 1))
    rel = second.relations[0]
    first = next(c for c in rel if c != 0)
    assert tuple(c / first for c in rel) == (0, 1, -1, 1)


def test_quotient_surface_ring_is_a_quadric_cone():
    d = rank1(P1, {p1_point(0): Fraction(-1, 2), P1_INFINITY: Fraction(3, 4)})
    pres = ring_presentation(d, 8)
    assert pres.dimensions[:7] == (1, 0, 1, 1, 2, 1, 2)
    assert [g.degree for g in pres.generators] == [2, 3, 4]
    nontrivial = [b for b in pres.blocks if b.kernel_dim > 0]
    assert nontrivial[0].degree == 6
    assert nontrivial[0].monomials == ((3, 0, 0), (1, 0, 1), (0, 2, 0))
    rel = nontrivial[0].relations[0]
    first = next(c for c in rel if c != 0)
    # the product of the degree-2 and degree-4 generators equals the square
    # of the degree-3 generator
    assert tuple(c / first for c in rel) == (0, 1, -1)


def test_integral_coefficient_gives_a_polynomial_ring():
    d = rank1(P1, {p1_point(0): 1})
    pres = ring_presentation(d, 6)
    assert pres.dimensions == (1, 2, 3, 4, 5, 6, 7)
    assert [g.degree for g in pres.generators] == [1, 1]
    assert all(b.kernel_dim == 0 for b in pres.blocks)


def test_empty_support_gives_one_polynomial_variable():
    d = polyhedral_divisor(P1, 1, RAY, {})
    pres = ring_presentation(d, 5)
    assert pres.dimensions == (1, 1, 1, 1, 1, 1)
    assert [g.degree for g in pres.generators] == [1]
    assert all(b.kernel_dim == 0 for b in pres.blocks)


def test_products_of_powers_agree_in_any_order():
    d = golden("one")
    u = (Fraction(1),)
    u2 = multiply_sections(d, 3, u, 3, u)
    left = multiply_sections(d, 6, u2, 3, u)
    right = multiply_sections(d, 3, u, 6, u2)
    assert left == right


def test_section_rings_need_a_projective_line_base():
    affine = rank1(AffineLine(), {RationalPoint(Fraction(0)): Fraction(1, 2)})
    with pytest.raises(CurveDomainError):
        ring_presentation(affine, 1)
    elliptic = rank1(EllipticCurveQ(-1, 0), {EC_ORIGIN: Fraction(1, 2)})
    with pytest.raises(CurveDomainError):
        ring_presentation(elliptic, 2)


def test_section_rings_need_rank_one():
    tail = make_cone(((1, 0), (0, 1)), 2)
    coeff = make_polyhedron([(Fraction(1, 2), Fraction(0))], tail)
    d = polyhedral_divisor(P1, 2, ((1, 0), (0, 1)), {p1_point(0): coeff})
    with pytest.raises(ShapeError):
        ring_presentation(d, 3)


def test_negative_truncation_degree_is_rejected():
    with pytest.raises(ShapeError):
        ring_presentation(golden("one"), -1)


def test_ring_presentation_evaluates_each_coefficient_once(monkeypatch):
    # the slopes are the chamber fan's one row of minima, built once per
    # divisor and kept on it (d.slopes), not again for every graded piece
    # and every product; the package has no other way to evaluate
    fans = []
    real_fan = pdiv.chamber_fan
    monkeypatch.setattr(pdiv, "chamber_fan", lambda *a: fans.append(a) or real_fan(*a))
    d = golden("three")
    ring_presentation(d, 30)
    assert len(fans) == 1
    assert d.slopes is d.slopes
    assert len(fans) == 1
