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

A presentation builds the facts about its ring once, in one table: the
dimensions, the rounded coefficients n_z(m) at the finite marked points and
the correction polynomials, kept by exponent tuple. The corrections of a
chain of products telescope: multiplying generators g_i of degrees m_i
a_i times each, in any order, inserts the exponents
sum of e_z over the steps = n_z(M) - sum_i a_i n_z(m_i), with M = sum_i a_i m_i,
so the monomial x^a is evaluated in one step as
prod_i g_i^{a_i} * prod_z (t - z)^{n_z(M) - sum_i a_i n_z(m_i)},
a shift of one correction polynomial when every g_i is a power of t.
Generators, kernels and new relations are read off echelon bases
(linalg.EchelonBasis) extended one row at a time; their pivots are those of
the reduced echelon form, which is unique, so the choices are those of a
fresh rref of all the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import P1Point, ProjectiveLine
from .errors import CurveDomainError, InternalError, ShapeError
from .linalg import EchelonBasis, relations
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


def _dimension(slopes, m: int) -> int:
    return max(0, sum(_floor_coeff(s, m) for s in slopes) + 1)


def graded_dimension(d: PolyhedralDivisor, m: int) -> int:
    """Dimension of the degree-m piece of the section ring."""
    slopes = _require_line_base(d)
    _check_degree(m)
    return _dimension(slopes, m)


def monomial_basis(d: PolyhedralDivisor, m: int) -> tuple[Vector, ...]:
    """Canonical basis of the degree-m piece: the unit vectors for t^0..t^d."""
    dim = graded_dimension(d, m)
    return tuple(
        tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
    )


def hilbert_series(d: PolyhedralDivisor, m_max: int) -> tuple[int, ...]:
    """Dimensions of the graded pieces for m = 0 .. m_max."""
    return _RingTable(d, m_max).dims


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


def _finite(slopes):
    """The slopes at finite marked points, in order."""
    return [s for s in slopes if not (isinstance(s.point, P1Point) and s.point.is_infinity)]


def _correction_poly(finite, exponents):
    """Coefficients of prod (t - z)^{e_z}; every exponent must be nonnegative."""
    poly = [Fraction(1)]
    for s, e in zip(finite, exponents):
        if e < 0:
            raise InternalError(f"negative correction exponent {e} at {s.point}")
        z = s.point.affine_value
        for _ in range(e):
            poly = _poly_mul(poly, [-z, Fraction(1)])
    return poly


class _RingTable:
    """The facts about one ring up to a degree, built once per presentation.

    dims[m] is the dimension of piece m, floors[m] the rounded coefficients
    n_z(m) at the finite marked points, and correction() keeps each
    correction polynomial by its exponent tuple.
    """

    def __init__(self, d: PolyhedralDivisor, max_degree: int):
        slopes = _require_line_base(d)
        _check_degree(max_degree)
        self.finite = _finite(slopes)
        degrees = range(max_degree + 1)
        self.floors = tuple(tuple(_floor_coeff(s, m) for s in self.finite) for m in degrees)
        self.dims = tuple(_dimension(slopes, m) for m in degrees)
        self._corrections: dict[tuple[int, ...], list[Fraction]] = {}

    def correction(self, exponents: tuple[int, ...]) -> list[Fraction]:
        poly = self._corrections.get(exponents)
        if poly is None:
            poly = self._corrections[exponents] = _correction_poly(self.finite, exponents)
        return poly


def multiply_sections(
    d: PolyhedralDivisor, m1: int, vec1, m2: int, vec2
) -> Vector:
    """Product of a degree-m1 and a degree-m2 section, in the m1+m2 basis."""
    table = _RingTable(d, m1 + m2)
    _check_degree(m1)
    _check_degree(m2)
    v1 = tuple(Fraction(x) for x in vec1)
    v2 = tuple(Fraction(x) for x in vec2)
    for m, v in ((m1, v1), (m2, v2)):
        dim = table.dims[m]
        if len(v) != dim:
            raise ShapeError(
                f"a degree-{m} section has {dim} coordinates, got {len(v)}"
            )
        if dim == 0:
            raise ShapeError(f"the ring has no sections in degree {m}")
    floors, target = table.floors, table.dims[m1 + m2]
    corr = table.correction(
        tuple(a - b - c for a, b, c in zip(floors[m1 + m2], floors[m1], floors[m2]))
    )
    prod = _poly_mul(_poly_mul(v1, v2), corr)
    if any(c != 0 for c in prod[target:]):
        raise InternalError(f"product of degrees {m1} and {m2} leaves the degree-{m1 + m2} piece")
    prod = prod[:target]
    return tuple(prod) + (Fraction(0),) * (target - len(prod))


@dataclass(frozen=True)
class RingGenerator:
    """One minimal generator: its degree and coordinates in that piece."""

    name: str
    degree: int
    coeffs: Vector


def _minimal_generators(table: _RingTable) -> tuple[RingGenerator, ...]:
    dims, floors = table.dims, table.floors
    gens: list[RingGenerator] = []
    for m in range(1, len(dims)):
        if dims[m] == 0:
            continue
        # the products of lower pieces i + j = m span corr_ij * t^shift for
        # every shift below dims[i] + dims[j] - 1; stop once they fill piece m
        span = EchelonBasis()
        for i in range(1, m // 2 + 1):
            j = m - i
            if dims[i] == 0 or dims[j] == 0:
                continue
            if span.rank == dims[m]:
                break
            corr = table.correction(
                tuple(a - b - c for a, b, c in zip(floors[m], floors[i], floors[j]))
            )
            # corr is monic, so the highest shift reaches furthest
            if dims[i] + dims[j] + len(corr) - 3 >= dims[m]:
                raise InternalError(f"product of degrees {i} and {j} leaves piece {m}")
            for shift in range(dims[i] + dims[j] - 1):
                if span.rank == dims[m]:
                    break
                row = [Fraction(0)] * dims[m]
                row[shift : shift + len(corr)] = corr
                span.add(row)
        for j in range(dims[m]):
            if j in span.rows:
                continue
            coeffs = tuple(Fraction(int(i == j)) for i in range(dims[m]))
            gens.append(RingGenerator(name=f"g{len(gens) + 1}", degree=m, coeffs=coeffs))
    return tuple(gens)


def minimal_generators(d: PolyhedralDivisor, max_degree: int) -> tuple[RingGenerator, ...]:
    """Minimal algebra generators in degrees 1 .. max_degree.

    Per degree, the new generators are the canonical basis vectors at the
    non-pivot columns of the span of products of lower pieces; that span is
    exactly the decomposable part of the piece.
    """
    return _minimal_generators(_RingTable(d, max_degree))


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


def _generator_factors(table: _RingTable, gens):
    """Per generator: (c, k, None, floors) when it is c * t^k, else
    (1, 0, its coefficients, floors), with floors the n_z of its degree."""
    factors = []
    for g in gens:
        if not 0 < g.degree < len(table.dims):
            # never part of a monomial up to the truncation degree
            factors.append(None)
            continue
        coeffs = [Fraction(x) for x in g.coeffs]
        dim = table.dims[g.degree]
        if len(coeffs) != dim:
            raise ShapeError(
                f"a degree-{g.degree} section has {dim} coordinates, got {len(coeffs)}"
            )
        if dim == 0:
            raise ShapeError(f"the ring has no sections in degree {g.degree}")
        nonzero = [k for k, c in enumerate(coeffs) if c != 0]
        if len(nonzero) == 1:
            k = nonzero[0]
            factors.append((coeffs[k], k, None, table.floors[g.degree]))
        else:
            factors.append((Fraction(1), 0, coeffs, table.floors[g.degree]))
    return factors


def _eval_monomial(table: _RingTable, factors, exponents, total: int) -> Vector:
    """The monomial x^a of degree total, in closed form:
    prod g_i^{a_i} * prod_z (t - z)^{n_z(total) - sum_i a_i n_z(deg g_i)}."""
    scale, shift, poly = Fraction(1), 0, [Fraction(1)]
    exps = list(table.floors[total])
    for factor, a in zip(factors, exponents):
        if a == 0:
            continue
        c, k, full, floors = factor
        scale *= c**a
        shift += k * a
        if full is not None:
            for _ in range(a):
                poly = _poly_mul(poly, full)
        for z, n in enumerate(floors):
            exps[z] -= a * n
    corr = table.correction(tuple(exps))
    prod = _poly_mul(poly, corr) if len(poly) > 1 else corr
    target = table.dims[total]
    if shift + len(prod) > target and any(c != 0 for c in prod[max(0, target - shift) :]):
        raise InternalError(f"the monomial {tuple(exponents)} leaves the degree-{total} piece")
    vec = [Fraction(0)] * target
    for k, c in enumerate(prod[: max(0, target - shift)]):
        vec[shift + k] = scale * c
    return tuple(vec)


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


def _relation_blocks(table: _RingTable, gens) -> tuple[RelationBlock, ...]:
    degrees = [g.degree for g in gens]
    factors = _generator_factors(table, gens)
    blocks: list[RelationBlock] = []
    for total in range(1, len(table.dims)):
        monos = _monomials(degrees, total)
        if not monos:
            continue
        vectors = [_eval_monomial(table, factors, a, total) for a in monos]
        target = table.dims[total]
        kernel = relations(vectors, target)
        new: list[Vector] = []
        if kernel:
            # shifts of lower relations are relations: once they span the
            # kernel, no kernel vector is new
            span = EchelonBasis()
            for vec in _shifted_relations(blocks, degrees, monos, total):
                if span.rank == len(kernel):
                    break
                span.add(vec)
            for kv in kernel:
                if span.rank < len(kernel) and span.add(kv):
                    new.append(kv)
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


def _shifted_relations(blocks, degrees, monos, total: int):
    """The relations of lower degrees times every monomial that lifts them to
    degree total, as vectors over monos."""
    index = {nu: k for k, nu in enumerate(monos)}
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
                yield vec


def relation_blocks(
    d: PolyhedralDivisor, max_degree: int, gens=None
) -> tuple[RelationBlock, ...]:
    """Relation spaces per degree, for all degrees carrying a monomial."""
    table = _RingTable(d, max_degree)
    if gens is None:
        gens = _minimal_generators(table)
    return _relation_blocks(table, gens)


@dataclass(frozen=True)
class RingPresentation:
    """Dimension series, minimal generators, and relations up to a degree."""

    max_degree: int
    dimensions: tuple[int, ...]
    generators: tuple[RingGenerator, ...]
    blocks: tuple[RelationBlock, ...]


def ring_presentation(d: PolyhedralDivisor, max_degree: int) -> RingPresentation:
    table = _RingTable(d, max_degree)
    gens = _minimal_generators(table)
    return RingPresentation(
        max_degree=max_degree,
        dimensions=table.dims,
        generators=gens,
        blocks=_relation_blocks(table, gens),
    )
