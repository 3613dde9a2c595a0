"""Graded section rings over the projective line, for rank-one divisors.

The degree-m piece is the space of global sections of the rounded-down
divisor at weight m. Writing n_z(m) for the rounded coefficient at a marked
point z and d_m for the rounded-down degree, every section factors as
P(t) * prod_z (t - z)^{-n_z(m)} over the finite marked points, with P a
polynomial of degree at most d_m. Elements are therefore represented by the
coefficient vector of P alone, in the canonical basis t^0 .. t^{d_m} of the
piece. Multiplying sections of degrees m and m' multiplies the P parts and
inserts the correction prod_z (t - z)^{e_z} with the nonnegative exponents
e_z = n_z(m + m') - n_z(m) - n_z(m').

ring_presentation presents the ring in one pass over the degrees: the
degree-m monomials in the lower generators span the decomposable part of
piece m, so one elimination of their values gives the new generators (the
canonical basis vectors at the non-pivot columns) and the relations (the
kernel, modulo shifts of relations found in lower degrees).

A presentation builds the facts about its ring once, in one table: the
dimensions, the rounded coefficients n_z(m) at the finite marked points and
the correction polynomials, kept by exponent tuple. Every generator is a
power t^k in its piece, and the corrections of a chain of products
telescope: multiplying generators g_i = t^{k_i} of degrees m_i a_i times
each, in any order, inserts the exponents
sum of e_z over the steps = n_z(M) - sum_i a_i n_z(m_i), with M = sum_i a_i m_i,
so the monomial x^a is evaluated in one step as
t^{sum_i a_i k_i} * prod_z (t - z)^{n_z(M) - sum_i a_i n_z(m_i)},
a shift of one correction polynomial, of order sum_i a_i k_i + e_0 at t = 0
(e_0 = 0 when 0 is not marked). Pairwise distinct orders are the pivots of
independent values, so only a degree with tied orders is evaluated and
eliminated. Generators, kernels and new relations are read off echelon bases
(linalg.EchelonBasis) extended one row at a time; their pivots are those of
the reduced echelon form, which is unique, so the choices are those of a
fresh rref of all the rows. Values are int at integer marked points and
Fractions at others, cleared once per row; kernel vectors stay primitive
int rows, and a new relation becomes Fraction once, as it leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add

from .curves import P1Point, ProjectiveLine
from .errors import CurveDomainError, InternalError, ShapeError
from .linalg import EchelonBasis, relations
from .pdiv import PolyhedralDivisor, floor_columns, floor_degrees, ray_slopes

Vector = tuple[Fraction, ...]

_ZERO, _ONE = Fraction(0), Fraction(1)


def _exact(x):
    """x as an int when it is an integer, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _correction_poly(finite, exponents):
    """Coefficients of prod (t - z)^{e_z}, the exponents nonnegative (_shape),
    one factor t - z at a time."""
    poly = [1]
    for s, e in zip(finite, exponents):
        z = _exact(s.point.affine_value)
        for _ in range(e):
            poly = [a - z * b for a, b in zip([0, *poly], [*poly, 0])]
    return poly


class _RingTable:
    """The facts about one ring up to a degree, built once per presentation.

    dims[m] is the dimension of piece m, floors[m] the rounded coefficients
    n_z(m) at the finite marked points and zero the index of 0 among them (or
    None); correction() keeps each correction polynomial by exponents.
    """

    def __init__(self, d: PolyhedralDivisor, max_degree: int):
        if not isinstance(d.base, ProjectiveLine):
            raise CurveDomainError("section rings are computed over the projective line")
        slopes = ray_slopes(d)
        if max_degree < 0:
            raise ShapeError("section rings are graded by nonnegative weights")
        finite = [not (isinstance(s.point, P1Point) and s.point.is_infinity) for s in slopes]
        self.finite = list(compress(slopes, finite))
        self.zero = next((z for z, s in enumerate(self.finite) if s.point.affine_value == 0), None)
        columns = floor_columns(slopes, max_degree)
        self.floors = tuple(zip(*compress(columns, finite))) or ((),) * (max_degree + 1)
        self.dims = tuple(max(0, deg + 1) for deg in floor_degrees(slopes, max_degree, columns))
        self._corrections: dict[tuple[int, ...], list] = {}

    def correction(self, exponents: tuple[int, ...]) -> list:
        poly = self._corrections.get(exponents)
        if poly is None:
            poly = self._corrections[exponents] = _correction_poly(self.finite, exponents)
        return poly


@dataclass(frozen=True)
class RingGenerator:
    """One minimal generator: its degree and coordinates in that piece."""

    name: str
    degree: int
    coeffs: Vector


def _degree_monomials(monomials, degrees, total: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree total, largest first: every a + e_i
    with a a monomial of degree total - deg g_i; monomials maps each lower
    degree to its monomials."""
    out = set()
    for i, deg in enumerate(degrees):
        for a in monomials.get(total - deg, ()):
            b = list(a)
            b[i] += 1
            out.add(tuple(b))
    return sorted(out, reverse=True)


def _shape(table: _RingTable, factors, exponents, total: int) -> tuple[int, tuple[int, ...]]:
    """(sum_i a_i k_i, e) for the monomial x^a of degree total, checked to stay
    in its piece, e_z = n_z(total) - sum_i a_i n_z(deg g_i) >= 0 with
    factors[i] = (k_i, n_z(deg g_i)) for the generator g_i = t^{k_i}."""
    shift = 0
    exps = list(table.floors[total])
    for (k, floors), a in zip(factors, exponents):
        if a == 0:
            continue
        shift += k * a
        for z, n in enumerate(floors):
            exps[z] -= a * n
    if exps and min(exps) < 0:
        raise InternalError(f"negative correction exponent in the monomial {tuple(exponents)}")
    # the correction is monic of degree sum(e): its top coefficient lands
    # past the piece or not
    if shift + sum(exps) >= table.dims[total]:
        raise InternalError(f"the monomial {tuple(exponents)} leaves the degree-{total} piece")
    return shift, tuple(exps)


def _eval_monomial(table: _RingTable, shape, total: int) -> tuple:
    """The coordinates of the monomial of degree total with the given _shape."""
    shift, exps = shape
    corr = table.correction(exps)
    return (0,) * shift + tuple(corr) + (0,) * (table.dims[total] - shift - len(corr))


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


def _presentation(table: _RingTable):
    """(generators, relation blocks) up to the degree of the table, in one
    pass over the degrees. The generators of degree m are the unit vectors at
    the non-pivot columns of the span of the degree-m monomials in the lower
    generators, named g1, g2, ... in ascending column. New relations stay int
    rows until the blocks are built, at the end."""
    gens: list[RingGenerator] = []
    degrees = []
    factors = []  # per generator t^k of degree m: (k, n_z(m))
    found = []  # per degree with monomials: (degree, target, kernel dim, new int relations)
    # the monomials of every degree so far, one exponent per generator found
    monomials = {0: ((),)}
    for total in range(1, len(table.dims)):
        n, target = len(gens), table.dims[total]
        monos = _degree_monomials(monomials, degrees, total)
        shapes = [_shape(table, factors, a, total) for a in monos]
        orders = {k if table.zero is None else k + e[table.zero] for k, e in shapes}
        if len(orders) == len(monos):  # distinct orders at t = 0 are the pivots
            kernel, pivots = [], orders
        else:
            kernel, pivots = relations([_eval_monomial(table, x, total) for x in shapes], target)
        monomials[total] = tuple(monos)
        if len(pivots) < target:
            fresh = sorted(set(range(target)).difference(pivots))
            # each new x_k sorts after the monomials in lower generators and
            # its unit vector is independent of them: the kernel gains zeros,
            # and every stored monomial an exponent per new generator
            k = len(fresh)
            kernel = [kv + (0,) * k for kv in kernel]
            for m, stored in monomials.items():
                monomials[m] = tuple(a + (0,) * k for a in stored)
            monomials[total] += tuple(tuple(int(i == n + j) for i in range(n + k)) for j in range(k))
            for j in fresh:
                coeffs = tuple(_ONE if i == j else _ZERO for i in range(target))
                gens.append(RingGenerator(f"g{len(gens) + 1}", total, coeffs))
                degrees.append(total)
                factors.append((j, table.floors[total]))
        if not monomials[total]:
            continue
        new: list[tuple[int, ...]] = []
        if kernel:
            # shifts of lower relations are relations: once they span the
            # kernel, no kernel vector is new
            span = EchelonBasis()
            for vec in _shifted_relations(found, monomials, total):
                if span.rank == len(kernel):
                    break
                span.add(vec)
            for kv in kernel:
                if span.rank < len(kernel) and span.add(dict(enumerate(kv))):
                    new.append(kv)
        found.append((total, target, len(kernel), new))
    return tuple(gens), tuple(
        RelationBlock(m, monomials[m], t, k, tuple(map(_scaled, new))) for m, t, k, new in found
    )


def _scaled(rel: tuple[int, ...]) -> Vector:
    """An int relation divided by its entry at its own monomial, the last
    one it holds."""
    own = next(x for x in reversed(rel) if x)
    return tuple(Fraction(x, own) for x in rel)


def _shifted_relations(found, monomials, total: int):
    """The relations of lower degrees times every monomial that lifts them to
    degree total, as sparse int rows over the monomials of degree total; found
    holds the new int relations per lower degree, monomials the monomials of
    each degree up to total."""
    index = {nu: k for k, nu in enumerate(monomials[total])}
    for degree, _, _, rels in found:
        if not rels:
            continue
        low = monomials[degree]
        terms = [[(low[k], c) for k, c in enumerate(rel) if c] for rel in rels]
        for mu in monomials[total - degree]:
            for rel in terms:
                yield {index[tuple(map(add, nu, mu))]: c for nu, c in rel}


@dataclass(frozen=True)
class RingPresentation:
    """Dimension series, minimal generators, and relations up to a degree."""

    max_degree: int
    dimensions: tuple[int, ...]
    generators: tuple[RingGenerator, ...]
    blocks: tuple[RelationBlock, ...]


def ring_presentation(d: PolyhedralDivisor, max_degree: int) -> RingPresentation:
    """Minimal generators, their relations and the dimension of every piece,
    in degrees up to max_degree."""
    table = _RingTable(d, max_degree)
    gens, blocks = _presentation(table)
    return RingPresentation(max_degree, table.dims, gens, blocks)
