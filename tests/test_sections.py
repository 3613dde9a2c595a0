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
from polydiv.sections import (
    graded_dimension,
    hilbert_series,
    minimal_generators,
    monomial_basis,
    multiply_sections,
    relation_blocks,
    ring_presentation,
)

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
    assert hilbert_series(golden("one"), 12) == (1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 4)


def test_dimension_series_of_golden_two_and_three():
    assert hilbert_series(golden("two"), 12) == (1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 2)
    assert hilbert_series(golden("three"), 12) == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 2)


def test_monomial_basis_is_the_canonical_identity():
    basis = monomial_basis(golden("one"), 4)
    assert basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert monomial_basis(golden("one"), 1) == ()


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
    with pytest.raises(ShapeError):
        multiply_sections(d, 3, (1, 0), 4, (1, 0))
    with pytest.raises(ShapeError):
        multiply_sections(d, 1, (), 3, (1,))
    with pytest.raises(ShapeError):
        multiply_sections(d, -1, (1,), 3, (1,))


def test_generators_of_golden_one():
    gens = minimal_generators(golden("one"), 12)
    assert [(g.degree, g.coeffs) for g in gens] == [
        (3, (Fraction(1),)),
        (4, (Fraction(1), Fraction(0))),
        (4, (Fraction(0), Fraction(1))),
    ]
    assert [g.name for g in gens] == ["g1", "g2", "g3"]


def test_first_relation_of_golden_one():
    d = golden("one")
    blocks = relation_blocks(d, 12)
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
    d = golden("two")
    gens = minimal_generators(d, 24)
    assert [g.degree for g in gens] == [3, 8, 12]
    blocks = relation_blocks(d, 24, gens)
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
    d = golden("three")
    gens = minimal_generators(d, 30)
    assert [g.degree for g in gens] == [3, 10, 12, 17]
    blocks = relation_blocks(d, 30, gens)
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
    d = golden("three")
    blocks = relation_blocks(d, 34)
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
        graded_dimension(affine, 1)
    elliptic = rank1(EllipticCurveQ(-1, 0), {EC_ORIGIN: Fraction(1, 2)})
    with pytest.raises(CurveDomainError):
        hilbert_series(elliptic, 2)


def test_section_rings_need_rank_one():
    tail = make_cone(((1, 0), (0, 1)), 2)
    coeff = make_polyhedron([(Fraction(1, 2), Fraction(0))], tail)
    d = polyhedral_divisor(P1, 2, ((1, 0), (0, 1)), {p1_point(0): coeff})
    with pytest.raises(ShapeError):
        hilbert_series(d, 3)


def test_negative_truncation_degree_is_rejected():
    d = golden("one")
    with pytest.raises(ShapeError):
        hilbert_series(d, -1)
    with pytest.raises(ShapeError):
        graded_dimension(d, -2)
    gens = minimal_generators(d, 6)
    for call in (
        lambda: minimal_generators(d, -1),
        lambda: relation_blocks(d, -1),
        lambda: relation_blocks(d, -1, gens),
        lambda: ring_presentation(d, -1),
    ):
        with pytest.raises(ShapeError):
            call()


def test_ring_presentation_evaluates_each_coefficient_once(monkeypatch):
    # the slopes are derived once per divisor and kept on it (d.slopes), not
    # again for every graded piece and every product
    calls = []
    real = pdiv.support_eval

    def counting(poly, m):
        calls.append(m)
        return real(poly, m)

    monkeypatch.setattr(pdiv, "support_eval", counting)
    d = golden("three")
    ring_presentation(d, 30)
    assert 0 < len(calls) <= len(d.coefficients)
    assert pdiv.ray_slopes(d) is d.slopes
    assert len(calls) <= len(d.coefficients)
