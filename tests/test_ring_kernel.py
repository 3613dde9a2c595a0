"""The section-ring presentation against the code it replaced.

The references below are the computations as they were written before the
per-ring table, the closed-form monomials and the incrementally extended
echelon basis:

* a monomial is evaluated one generator factor at a time through
  multiply_sections;
* the generators of a degree are the non-pivot columns of one rref of every
  product row of lower pieces;
* the relations of a degree are the kernel of the monomial evaluation
  matrix, read off one dense rref of it (reference_linalg.kernel_basis);
* a kernel vector is a new relation when it raises the rref rank of the
  shifted lower relations and the relations chosen so far.

The new code must give the very same generators, blocks and presentations.
The divisors are seeded, so failures reproduce.
"""

from fractions import Fraction
from random import Random

import pytest

import polydiv.sections as sections
from polydiv.errors import InternalError
from polydiv.curves import P1_INFINITY, ProjectiveLine, p1_point
from polydiv.geometry import make_cone, make_polyhedron
from polydiv.pdiv import polyhedral_divisor
from polydiv.sections import (
    RelationBlock,
    RingGenerator,
    graded_dimension,
    hilbert_series,
    minimal_generators,
    multiply_sections,
    relation_blocks,
    ring_presentation,
)
from reference_linalg import kernel_basis, rref

RAY = ((1,),)
POINTS = ("0", "1", "-1", "2", "1/2", "-2/3", "3/4", "5/3", "-7/2")
MONOMIAL_CAP = 40


def rank1(coeffs):
    polys = {pt: make_polyhedron([(Fraction(v),)], make_cone(RAY, 1)) for pt, v in coeffs.items()}
    return polyhedral_divisor(ProjectiveLine(), 1, RAY, polys)


def unit(j, dim):
    return tuple(Fraction(int(i == j)) for i in range(dim))


def reference_minimal_generators(d, max_degree):
    """Non-pivot columns of one rref over every product row of lower pieces;
    each row is a product of two basis sections."""
    dims = [graded_dimension(d, m) for m in range(max_degree + 1)]
    gens = []
    for m in range(1, max_degree + 1):
        if dims[m] == 0:
            continue
        rows = []
        for i in range(1, m // 2 + 1):
            j = m - i
            if dims[i] == 0 or dims[j] == 0:
                continue
            # t^a * t^b depends on a + b only: every shift once
            pairs = [(a, 0) for a in range(dims[i])] + [(dims[i] - 1, b) for b in range(1, dims[j])]
            for a, b in pairs:
                rows.append(multiply_sections(d, i, unit(a, dims[i]), j, unit(b, dims[j])))
        _, pivots = rref(rows) if rows else ([], [])
        for j in range(dims[m]):
            if j not in pivots:
                gens.append(RingGenerator(name=f"g{len(gens) + 1}", degree=m, coeffs=unit(j, dims[m])))
    return tuple(gens)


def reference_monomial(d, gens, exponents):
    """A monomial as a chain of products, one generator factor at a time."""
    m, vec = 0, (Fraction(1),)
    for g, a in zip(gens, exponents):
        for _ in range(a):
            vec = multiply_sections(d, m, vec, g.degree, g.coeffs)
            m += g.degree
    return vec


def reference_relation_blocks(d, max_degree, gens):
    """Kernels per degree; a kernel vector is new when it raises the rref rank
    of the shifted lower relations together with the new ones so far."""
    degrees = [g.degree for g in gens]
    blocks = []
    for total in range(1, max_degree + 1):
        monos = sections._monomials(degrees, total)
        if not monos:
            continue
        vectors = [reference_monomial(d, gens, a) for a in monos]
        target = graded_dimension(d, total)
        kernel = kernel_basis([[v[i] for v in vectors] for i in range(target)], len(monos))
        index = {nu: k for k, nu in enumerate(monos)}
        span = []
        for block in blocks:
            for mu in sections._monomials(degrees, total - block.degree):
                for rel in block.relations:
                    vec = [Fraction(0)] * len(monos)
                    for k, c in enumerate(rel):
                        if c != 0:
                            vec[index[tuple(a + b for a, b in zip(block.monomials[k], mu))]] += c
                    span.append(tuple(vec))
        rank = len(rref(span)[1]) if span else 0
        new = []
        for kv in kernel:
            span.append(kv)
            r = len(rref(span)[1])
            if r > rank:
                rank = r
                new.append(kv)
            else:
                span.pop()
        blocks.append(RelationBlock(total, tuple(monos), target, len(kernel), tuple(new)))
    return tuple(blocks)


def random_divisor(rng):
    """Rank one on P1 with one to three finite marked points, some of them
    not integers, positive degree, and a coefficient at infinity or not."""
    points = rng.sample(POINTS, rng.randint(1, 3))
    coeffs = {p1_point(Fraction(z)): Fraction(-rng.randint(1, 6), rng.randint(2, 9)) for z in points}
    total = sum(coeffs.values())
    # raise the degree to a small positive number at infinity or at one point
    top = -total + Fraction(rng.randint(1, 3), rng.randint(6, 12))
    if rng.random() < 0.5:
        coeffs[P1_INFINITY] = top
    else:
        first = p1_point(Fraction(points[0]))
        coeffs[first] += top
    return rank1(coeffs)


def cases(seed, count, cap=MONOMIAL_CAP):
    """(divisor, N, reference generators) with N up to 30, lowered until no
    degree up to N has more than cap generator monomials: the reference takes
    one rref per kernel vector, which grows too fast to test beyond that."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        d, n = random_divisor(rng), rng.randint(4, 30)
        gens = reference_minimal_generators(d, n)
        degrees = [g.degree for g in gens]
        total = 1
        while total <= n and len(sections._monomials(degrees, total)) <= cap:
            total += 1
        n = max(4, total - 1)
        out.append((d, n, tuple(g for g in gens if g.degree <= n)))
    return out


def test_presentation_matches_the_old_code():
    seen = {"infinity": 0, "no infinity": 0, "non-integer point": 0, "relations": 0, "N>=25": 0}
    for d, n, gens in cases(20095, 100):
        blocks = reference_relation_blocks(d, n, gens)
        assert minimal_generators(d, n) == gens, (d, n)
        assert relation_blocks(d, n) == blocks, (d, n)
        assert relation_blocks(d, n, gens) == blocks, (d, n)
        expected = sections.RingPresentation(
            max_degree=n,
            dimensions=tuple(graded_dimension(d, m) for m in range(n + 1)),
            generators=gens,
            blocks=blocks,
        )
        assert ring_presentation(d, n) == expected, (d, n)
        assert hilbert_series(d, n) == expected.dimensions
        points = [s.point for s in d.slopes]
        has_inf = any(pt.is_infinity for pt in points)
        seen["infinity" if has_inf else "no infinity"] += 1
        seen["non-integer point"] += any(
            not pt.is_infinity and pt.affine_value.denominator > 1 for pt in points
        )
        seen["relations"] += any(b.relations for b in blocks)
        seen["N>=25"] += n >= 25
    assert all(k >= 10 for k in seen.values()), seen


def test_monomials_match_the_chain_of_products():
    # also for a last generator that is not a unit vector: a scalar multiple
    # of t^0 in a one-dimensional piece, a full polynomial otherwise
    full = 0
    for d, n, gens in cases(20096, 12):
        gens = list(gens)
        if not gens:
            continue
        g = gens[-1]
        full += len(g.coeffs) > 1
        coeffs = tuple(Fraction(k + 1, 2) for k in range(len(g.coeffs)))
        gens[-1] = RingGenerator(g.name, g.degree, coeffs)
        table = sections._RingTable(d, n)
        factors = sections._generator_factors(table, gens)
        degrees = [g.degree for g in gens]
        for total in range(1, n + 1):
            for a in sections._monomials(degrees, total):
                got = sections._eval_monomial(table, factors, a, total)
                assert got == reference_monomial(d, gens, a), (d, a)
    assert full >= 5


def test_presentation_never_multiplies_sections_and_reduces_once_per_degree(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("multiply_sections called")

    calls = []
    real = sections.relations

    def counting(vectors, width):
        calls.append(width)
        return real(vectors, width)

    d = rank1({
        p1_point(0): Fraction(-3, 7),
        p1_point(Fraction(1, 2)): Fraction(-5, 11),
        P1_INFINITY: Fraction(1),
    })
    expected = ring_presentation(d, 30)
    monkeypatch.setattr(sections, "multiply_sections", forbidden)
    monkeypatch.setattr(sections, "relations", counting)
    assert ring_presentation(d, 30) == expected
    assert 0 < len(calls) <= 30


@pytest.mark.parametrize("exponent", [-1, -3])
def test_negative_correction_exponent_is_an_internal_error(exponent):
    d = rank1({p1_point(Fraction(-2, 3)): Fraction(-1, 3), P1_INFINITY: Fraction(1)})
    table = sections._RingTable(d, 4)
    with pytest.raises(InternalError, match="negative correction exponent"):
        table.correction((exponent,))


def test_a_product_that_leaves_its_piece_is_an_internal_error():
    # no point at infinity: a product of basis sections fills the top
    # coordinate of its piece, so one coordinate less cannot hold it
    d = rank1({p1_point(0): Fraction(-1, 3), p1_point(Fraction(1, 2)): Fraction(1, 2)})
    table = sections._RingTable(d, 12)
    m = 12
    assert table.dims[m] > 1
    table.dims = table.dims[:m] + (table.dims[m] - 1,)
    with pytest.raises(InternalError, match="leaves piece 12"):
        sections._minimal_generators(table)

    table = sections._RingTable(d, 12)
    gens = sections._minimal_generators(table)
    factors = sections._generator_factors(table, gens)
    top = max(range(len(gens)), key=lambda i: gens[i].coeffs.index(1))
    exponents = tuple(int(i == top) * 2 for i in range(len(gens)))
    total = 2 * gens[top].degree
    assert total <= 12
    table.dims = tuple(k - (m == total) for m, k in enumerate(table.dims))
    with pytest.raises(InternalError, match="leaves the degree"):
        sections._eval_monomial(table, factors, exponents, total)
