"""The section-ring presentation against the code it replaced.

The references below are the computations as they were written before the
per-ring table, the closed-form monomials, the incrementally extended
echelon basis and the one pass over the degrees:

* the monomials of a degree are enumerated by a recursion over the
  exponent of each generator in turn;
* a monomial is evaluated one generator factor at a time through
  multiply_sections (reference_sections);
* the generators of a degree are the non-pivot columns of one rref of every
  product row of lower pieces;
* the relations of a degree are the kernel of the monomial evaluation
  matrix, read off one dense rref of it (reference_linalg.kernel_basis);
* a kernel vector is a new relation when it raises the rref rank of the
  shifted lower relations and the relations chosen so far.

The new code must give the very same dimensions, generators and blocks.
A degree whose monomials have pairwise distinct orders at t = 0 is
certified without elimination; at every such degree the exact elimination
of the chain-of-products values must find no kernel and the same pivots.
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
from polydiv.sections import RelationBlock, RingGenerator, ring_presentation
from reference_linalg import kernel_basis, rref
from reference_sections import graded_dimension, multiply_sections

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


def reference_monomials(degrees, total):
    """Exponent vectors with the given weighted degree, largest first."""
    out = []

    def rec(idx, remaining, acc):
        if idx == len(degrees):
            if remaining == 0:
                out.append(tuple(acc))
            return
        for a in range(remaining // degrees[idx], -1, -1):
            acc.append(a)
            rec(idx + 1, remaining - a * degrees[idx], acc)
            acc.pop()

    rec(0, total, [])
    out.sort(reverse=True)
    return out


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
        monos = reference_monomials(degrees, total)
        if not monos:
            continue
        vectors = [reference_monomial(d, gens, a) for a in monos]
        target = graded_dimension(d, total)
        kernel = kernel_basis([[v[i] for v in vectors] for i in range(target)], len(monos))
        index = {nu: k for k, nu in enumerate(monos)}
        span = []
        for block in blocks:
            for mu in reference_monomials(degrees, total - block.degree):
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
        while total <= n and len(reference_monomials(degrees, total)) <= cap:
            total += 1
        n = max(4, total - 1)
        out.append((d, n, tuple(g for g in gens if g.degree <= n)))
    return out


def test_presentation_matches_the_old_code():
    seen = {"infinity": 0, "no infinity": 0, "non-integer point": 0, "relations": 0, "N>=25": 0}
    for d, n, gens in cases(20095, 100):
        presentation = ring_presentation(d, n)
        assert presentation.max_degree == n
        assert presentation.dimensions == tuple(graded_dimension(d, m) for m in range(n + 1))
        assert presentation.generators == gens, (d, n)
        blocks = reference_relation_blocks(d, n, gens)
        assert presentation.blocks == blocks, (d, n)
        points = [s.point for s in d.slopes]
        has_inf = any(pt.is_infinity for pt in points)
        seen["infinity" if has_inf else "no infinity"] += 1
        seen["non-integer point"] += any(
            not pt.is_infinity and pt.affine_value.denominator > 1 for pt in points
        )
        seen["relations"] += any(b.relations for b in blocks)
        seen["N>=25"] += n >= 25
    assert all(k >= 10 for k in seen.values()), seen


def factors(table, gens):
    """(k, n_z(deg g)) per generator g = t^k, as the presentation records them."""
    return [(g.coeffs.index(1), table.floors[g.degree]) for g in gens]


def shape(table, gens, exponents, total):
    """The shift and correction exponents of a monomial in the generators."""
    return sections._shape(table, factors(table, gens), exponents, total)


def test_monomials_match_the_chain_of_products():
    # every monomial in the generators found, up to N, on rings with and
    # without a point at infinity and with non-integer marked points
    seen = {"infinity": 0, "non-integer point": 0, "monomials": 0}
    for d, n, gens in cases(20096, 12):
        table = sections._RingTable(d, n)
        degrees = [g.degree for g in gens]
        for total in range(1, n + 1):
            for a in reference_monomials(degrees, total):
                got = sections._eval_monomial(table, shape(table, gens, a, total), total)
                assert got == reference_monomial(d, gens, a), (d, a)
                seen["monomials"] += 1
        points = [s.point for s in d.slopes]
        seen["infinity"] += any(pt.is_infinity for pt in points)
        seen["non-integer point"] += any(
            not pt.is_infinity and pt.affine_value.denominator > 1 for pt in points
        )
    assert all(k >= 3 for k in seen.values()), seen


def test_monomials_by_degree_match_the_recursion():
    # generators with repeated degrees, and some past N, which no monomial
    # up to N uses
    rng = Random(20098)
    seen = {"repeated": 0, "past N": 0}
    for _ in range(30):
        n = rng.randint(4, 12)
        degrees = [rng.randint(1, n + 3) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            degrees.append(rng.choice(degrees))
        rng.shuffle(degrees)
        monomials = {0: ((0,) * len(degrees),)}
        for total in range(1, n + 1):
            monomials[total] = tuple(sections._degree_monomials(monomials, degrees, total))
            assert monomials[total] == tuple(reference_monomials(degrees, total)), (degrees, total)
        seen["repeated"] += len(set(degrees)) < len(degrees)
        seen["past N"] += max(degrees) > n
    assert all(k >= 5 for k in seen.values()), seen


def test_presentation_never_multiplies_sections_and_reduces_once_per_degree(monkeypatch):
    # the module has no product of sections: every monomial is a shift of one
    # correction polynomial, built once per exponent tuple one factor t - z at
    # a time, and at most one elimination per degree gives the rest
    calls, built = [], []
    real, real_poly = sections.relations, sections._correction_poly

    def counting(vectors, width):
        calls.append(width)
        return real(vectors, width)

    def counting_poly(finite, exponents):
        built.append(exponents)
        return real_poly(finite, exponents)

    d = rank1({
        p1_point(0): Fraction(-3, 7),
        p1_point(Fraction(1, 2)): Fraction(-5, 11),
        P1_INFINITY: Fraction(1),
    })
    expected = ring_presentation(d, 30)
    monkeypatch.setattr(sections, "relations", counting)
    monkeypatch.setattr(sections, "_correction_poly", counting_poly)
    assert ring_presentation(d, 30) == expected
    assert 0 < len(calls) <= 30
    assert built and len(set(built)) == len(built)
    assert not any(name.startswith("_poly") for name in vars(sections))


def test_public_ring_values_stay_fractions():
    # the kernel works in int, but an int 1 would print as 1 where a report
    # prints "1": every vector the module hands out is made of Fractions
    def fractions(vec):
        return all(type(x) is Fraction for x in vec)

    seen = {"integer points": 0, "non-integer point": 0, "relations": 0}
    for d, n, _ in cases(20101, 40):
        presentation = ring_presentation(d, n)
        assert all(fractions(g.coeffs) for g in presentation.generators)
        assert all(fractions(rel) for b in presentation.blocks for rel in b.relations)
        finite = [s.point for s in d.slopes if not s.point.is_infinity]
        integer = all(pt.affine_value.denominator == 1 for pt in finite)
        seen["integer points" if integer else "non-integer point"] += 1
        seen["relations"] += any(b.relations for b in presentation.blocks)
    assert all(k >= 5 for k in seen.values()), seen


@pytest.mark.parametrize("exponent", [-1, -3])
def test_negative_correction_exponent_is_an_internal_error(exponent):
    d = rank1({p1_point(Fraction(-2, 3)): Fraction(-1, 3), P1_INFINITY: Fraction(1)})
    table = sections._RingTable(d, 4)
    # one generator t^0 of the given floor: the exponent at -2/3 is n(4) - floor
    floor = table.floors[4][0] - exponent
    with pytest.raises(InternalError, match="negative correction exponent"):
        sections._shape(table, [(0, (floor,))], (1,), 4)


def test_a_product_that_leaves_its_piece_is_an_internal_error():
    # no point at infinity: a product of basis sections fills the top
    # coordinate of its piece, so one coordinate less cannot hold it
    d = rank1({p1_point(0): Fraction(-1, 3), p1_point(Fraction(1, 2)): Fraction(1, 2)})
    table = sections._RingTable(d, 12)
    m = 12
    assert table.dims[m] > 1
    table.dims = table.dims[:m] + (table.dims[m] - 1,)
    with pytest.raises(InternalError, match="leaves the degree-12 piece"):
        sections._presentation(table)

    table = sections._RingTable(d, 12)
    gens = ring_presentation(d, 12).generators
    top = max(range(len(gens)), key=lambda i: gens[i].coeffs.index(1))
    exponents = tuple(int(i == top) * 2 for i in range(len(gens)))
    total = 2 * gens[top].degree
    assert total <= 12
    table.dims = tuple(k - (m == total) for m, k in enumerate(table.dims))
    with pytest.raises(InternalError, match="leaves the degree"):
        shape(table, gens, exponents, total)


def test_quiet_degrees_are_certified_by_their_orders_at_zero(monkeypatch):
    # a degree whose monomials have pairwise distinct orders at t = 0 is
    # neither evaluated nor eliminated: at every such degree, the exact
    # elimination of the vectors the chain of products gives must find no
    # kernel and the pivots the certificate left, the columns that are not
    # generators of that degree
    last_degree, tied = [], set()
    real_shape, real_relations = sections._shape, sections.relations

    def spy_shape(table, factors, exponents, total):
        last_degree.append(total)
        return real_shape(table, factors, exponents, total)

    def spy_relations(vectors, width):
        tied.add(last_degree[-1])
        return real_relations(vectors, width)

    monkeypatch.setattr(sections, "_shape", spy_shape)
    monkeypatch.setattr(sections, "relations", spy_relations)
    seen = {"0 marked": 0, "0 not marked": 0, "integer points": 0, "non-integer point": 0}
    seen.update({"quiet": 0, "quiet with t at 0": 0, "tied": 0})
    for d, n, gens in cases(20102, 40, cap=24):
        tied.clear()
        presentation = ring_presentation(d, n)
        assert presentation.generators == gens, (d, n)
        for block in presentation.blocks:
            own = [g for g in gens if g.degree == block.degree]
            monos = block.monomials[: len(block.monomials) - len(own)]
            if not monos:
                continue
            if block.degree in tied:
                seen["tied"] += 1
                continue
            vectors = [reference_monomial(d, gens, a) for a in monos]
            kernel, pivots = real_relations(vectors, block.target_dim)
            assert kernel == [] and block.kernel_dim == 0 and not block.relations, (d, block)
            free = [j for j in range(block.target_dim) if j not in pivots]
            assert [g.coeffs.index(1) for g in own] == free, (d, block)
            seen["quiet"] += 1
            seen["quiet with t at 0"] += any(v[0] == 0 for v in vectors) and len(monos) > 1
        finite = [s.point for s in d.slopes if not s.point.is_infinity]
        seen["0 marked" if any(pt.affine_value == 0 for pt in finite) else "0 not marked"] += 1
        integer = all(pt.affine_value.denominator == 1 for pt in finite)
        seen["integer points" if integer else "non-integer point"] += 1
    assert all(k >= 5 for k in seen.values()), seen


def test_quiet_degrees_keep_the_monomial_checks(monkeypatch):
    # the certificate reads only shapes, and the shapes keep both checks an
    # evaluation makes: no negative correction exponent, no monomial past
    # its piece. Every degree of this ring up to 12 is quiet.
    def no_elimination(vectors, width):
        raise AssertionError("a quiet degree was eliminated")

    monkeypatch.setattr(sections, "relations", no_elimination)
    d = rank1({p1_point(0): Fraction(-1, 3), p1_point(Fraction(1, 2)): Fraction(1, 2)})
    gens = ring_presentation(d, 12).generators
    m = 2 * gens[0].degree
    table = sections._RingTable(d, 12)
    quiet = sections._shape(table, factors(table, gens), (2,) + (0,) * (len(gens) - 1), m)
    assert quiet[0] + sum(quiet[1]) < table.dims[m]

    table.dims = tuple(0 if k == m else x for k, x in enumerate(table.dims))
    with pytest.raises(InternalError, match=f"leaves the degree-{m} piece"):
        sections._presentation(table)

    table = sections._RingTable(d, 12)
    table.floors = tuple(
        tuple(x - 5 for x in row) if k == m else row for k, row in enumerate(table.floors)
    )
    with pytest.raises(InternalError, match="negative correction exponent"):
        sections._presentation(table)
