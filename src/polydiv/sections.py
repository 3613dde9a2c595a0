"""Graded section rings over the projective line, for rank-one divisors.

The degree-m piece is the space of global sections of the rounded-down
divisor at weight m. Writing n_z(m) for the rounded coefficient at a marked
point z and d_m for the rounded-down degree, every section factors as
P(t) * prod_z (t - z)^{-n_z(m)} over the finite marked points, with P a
polynomial of degree at most d_m. Elements are therefore represented by the
coefficient vector of P alone. Each piece carries the canonical basis
t^0 .. t^{d_m}, and multiplying two pieces multiplies the P parts and
inserts the correction prod_z (t - z)^{e_z} with the nonnegative exponents
e_z = n_z(m + m') - n_z(m) - n_z(m').

On top of that multiplication the module computes minimal generator degrees
(per degree, the complement of the span of products of lower pieces),
relation spaces (kernels of the monomial evaluation maps, modulo shifts of
relations found in lower degrees), and truncated dimension series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import P1Point, ProjectiveLine
from .errors import CurveDomainError, ShapeError
from .linalg import kernel_basis, rref
from .pdiv import PolyhedralDivisor, RaySlope, ray_slopes

Vector = tuple[Fraction, ...]


def _require_line_base(d: PolyhedralDivisor) -> tuple[RaySlope, ...]:
    if not isinstance(d.base, ProjectiveLine):
        raise CurveDomainError("section rings are computed over the projective line")
    return ray_slopes(d)


def _check_degree(m: int) -> None:
    if m < 0:
        raise ShapeError("section rings are graded by nonnegative weights")


def _floor_coeff(s: RaySlope, m: int) -> int:
    return (m * s.p) // s.q


def graded_dimension(d: PolyhedralDivisor, m: int) -> int:
    """Dimension of the degree-m piece of the section ring."""
    slopes = _require_line_base(d)
    _check_degree(m)
    return max(0, sum(_floor_coeff(s, m) for s in slopes) + 1)


def monomial_basis(d: PolyhedralDivisor, m: int) -> tuple[Vector, ...]:
    """Canonical basis of the degree-m piece: the unit vectors for t^0..t^d."""
    dim = graded_dimension(d, m)
    return tuple(
        tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
    )


def hilbert_series(d: PolyhedralDivisor, m_max: int) -> tuple[int, ...]:
    """Dimensions of the graded pieces for m = 0 .. m_max."""
    _require_line_base(d)
    if m_max < 0:
        raise ShapeError("the series needs a nonnegative truncation degree")
    return tuple(graded_dimension(d, m) for m in range(m_max + 1))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


def _correction(slopes, m1: int, m2: int):
    """Coefficients of prod (t - z)^{e_z} over the finite marked points."""
    poly = [Fraction(1)]
    for s in slopes:
        if isinstance(s.point, P1Point) and s.point.is_infinity:
            continue
        e = _floor_coeff(s, m1 + m2) - _floor_coeff(s, m1) - _floor_coeff(s, m2)
        assert e >= 0
        z = s.point.affine_value
        for _ in range(e):
            poly = _poly_mul(poly, [-z, Fraction(1)])
    return poly


def multiply_sections(
    d: PolyhedralDivisor, m1: int, vec1, m2: int, vec2
) -> Vector:
    """Product of a degree-m1 and a degree-m2 section, in the m1+m2 basis."""
    slopes = _require_line_base(d)
    _check_degree(m1)
    _check_degree(m2)
    v1 = tuple(Fraction(x) for x in vec1)
    v2 = tuple(Fraction(x) for x in vec2)
    for m, v in ((m1, v1), (m2, v2)):
        dim = graded_dimension(d, m)
        if len(v) != dim:
            raise ShapeError(
                f"a degree-{m} section has {dim} coordinates, got {len(v)}"
            )
        if dim == 0:
            raise ShapeError(f"the ring has no sections in degree {m}")
    target = graded_dimension(d, m1 + m2)
    prod = _poly_mul(_poly_mul(v1, v2), _correction(slopes, m1, m2))
    assert all(c == 0 for c in prod[target:])
    prod = prod[:target]
    return tuple(prod) + (Fraction(0),) * (target - len(prod))


@dataclass(frozen=True)
class RingGenerator:
    """One minimal generator: its degree and coordinates in that piece."""

    name: str
    degree: int
    coeffs: Vector


def _product_span_rows(d, slopes, dims, m: int):
    """Vectors spanning the products of all lower graded pieces inside piece m."""
    rows = []
    for i in range(1, m // 2 + 1):
        j = m - i
        if dims[i] == 0 or dims[j] == 0:
            continue
        corr = _correction(slopes, i, j)
        # basis products t^a * t^b * corr depend only on the shift a + b
        for shift in range(dims[i] + dims[j] - 1):
            vec = [Fraction(0)] * dims[m]
            for k, c in enumerate(corr):
                if c != 0:
                    assert shift + k < dims[m]
                    vec[shift + k] = c
            rows.append(tuple(vec))
    return rows


def minimal_generators(d: PolyhedralDivisor, max_degree: int) -> tuple[RingGenerator, ...]:
    """Minimal algebra generators in degrees 1 .. max_degree.

    Per degree, the new generators are the canonical basis vectors at the
    non-pivot columns of the span of products of lower pieces; that span is
    exactly the decomposable part of the piece.
    """
    slopes = _require_line_base(d)
    if max_degree < 0:
        raise ShapeError("the generator search needs a nonnegative degree bound")
    dims = [graded_dimension(d, m) for m in range(max_degree + 1)]
    gens: list[RingGenerator] = []
    for m in range(1, max_degree + 1):
        if dims[m] == 0:
            continue
        rows = _product_span_rows(d, slopes, dims, m)
        _, pivots = rref(rows) if rows else ([], [])
        for j in range(dims[m]):
            if j in pivots:
                continue
            coeffs = tuple(Fraction(int(i == j)) for i in range(dims[m]))
            gens.append(RingGenerator(name=f"g{len(gens) + 1}", degree=m, coeffs=coeffs))
    return tuple(gens)


def _monomials(degrees, total: int):
    """Exponent vectors with the given weighted degree, largest first."""
    out: list[tuple[int, ...]] = []

    def rec(idx: int, remaining: int, acc: list[int]) -> None:
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


def _eval_monomial(d, gens, exponents) -> Vector:
    m = 0
    vec: Vector = (Fraction(1),)
    for g, a in zip(gens, exponents):
        for _ in range(a):
            vec = multiply_sections(d, m, vec, g.degree, g.coeffs)
            m += g.degree
    return vec


@dataclass(frozen=True)
class RelationBlock:
    """Relations among generator monomials of one degree.

    monomials lists the exponent vectors, kernel_dim the full kernel of the
    evaluation map onto the graded piece, and relations a basis of the new
    relations modulo shifts of lower-degree ones; coordinates are over the
    listed monomials.
    """

    degree: int
    monomials: tuple[tuple[int, ...], ...]
    target_dim: int
    kernel_dim: int
    relations: tuple[Vector, ...]


def relation_blocks(
    d: PolyhedralDivisor, max_degree: int, gens=None
) -> tuple[RelationBlock, ...]:
    """Relation spaces per degree, for all degrees carrying a monomial."""
    _require_line_base(d)
    if gens is None:
        gens = minimal_generators(d, max_degree)
    degrees = [g.degree for g in gens]
    blocks: list[RelationBlock] = []
    for total in range(1, max_degree + 1):
        monos = _monomials(degrees, total)
        if not monos:
            continue
        vectors = [_eval_monomial(d, gens, a) for a in monos]
        target = graded_dimension(d, total)
        matrix = [[v[i] for v in vectors] for i in range(target)]
        kernel = kernel_basis(matrix, len(monos))
        index = {nu: k for k, nu in enumerate(monos)}
        shifted = []
        for block in blocks:
            if not block.relations:
                continue
            for mu in _monomials(degrees, total - block.degree):
                for rel in block.relations:
                    vec = [Fraction(0)] * len(monos)
                    for k, c in enumerate(rel):
                        if c != 0:
                            shift = tuple(a + b for a, b in zip(block.monomials[k], mu))
                            vec[index[shift]] += c
                    shifted.append(tuple(vec))
        new: list[Vector] = []
        if kernel:
            span = list(shifted)
            rank = len(rref(span)[1]) if span else 0
            for kv in kernel:
                span.append(kv)
                r = len(rref(span)[1])
                if r > rank:
                    rank = r
                    new.append(kv)
                else:
                    span.pop()
        blocks.append(
            RelationBlock(
                degree=total,
                monomials=tuple(monos),
                target_dim=target,
                kernel_dim=len(kernel),
                relations=tuple(new),
            )
        )
    return tuple(blocks)


@dataclass(frozen=True)
class RingPresentation:
    """Dimension series, minimal generators, and relations up to a degree."""

    max_degree: int
    dimensions: tuple[int, ...]
    generators: tuple[RingGenerator, ...]
    blocks: tuple[RelationBlock, ...]


def ring_presentation(d: PolyhedralDivisor, max_degree: int) -> RingPresentation:
    gens = minimal_generators(d, max_degree)
    return RingPresentation(
        max_degree=max_degree,
        dimensions=hilbert_series(d, max_degree),
        generators=gens,
        blocks=relation_blocks(d, max_degree, gens),
    )
