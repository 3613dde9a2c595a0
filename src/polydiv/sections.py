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

On top of that multiplication the module gives truncated dimension series
and presents the ring in one pass over the degrees: the degree-m monomials
in the lower generators span the decomposable part of piece m, so one
elimination of their values gives the new generators (the canonical basis
vectors at the non-pivot columns) and the relations (the kernel, modulo
shifts of relations found in lower degrees).

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
fresh rref of all the rows. Values are int at integer marked points and
Fractions at others, cleared once per row; kernel vectors stay primitive
int rows, and a new relation becomes Fraction once, as it leaves.
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


def _dimension(slopes, m: int) -> int:
    return max(0, sum(s.floor(m) for s in slopes) + 1)


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


def _exact(x):
    """x as an int when it is an integer, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
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
    poly = [1]
    for s, e in zip(finite, exponents):
        if e < 0:
            raise InternalError(f"negative correction exponent {e} at {s.point}")
        z = _exact(s.point.affine_value)
        for _ in range(e):
            poly = _poly_mul(poly, [-z, 1])
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
        self.floors = tuple(tuple(s.floor(m) for s in self.finite) for m in degrees)
        self.dims = tuple(_dimension(slopes, m) for m in degrees)
        self._corrections: dict[tuple[int, ...], list] = {}

    def correction(self, exponents: tuple[int, ...]) -> list:
        poly = self._corrections.get(exponents)
        if poly is None:
            poly = self._corrections[exponents] = _correction_poly(self.finite, exponents)
        return poly


def multiply_sections(
    d: PolyhedralDivisor, m1: int, vec1, m2: int, vec2
) -> Vector:
    """Product of a degree-m1 and a degree-m2 section, in the m1+m2 basis.

    Only the three degrees involved are looked at, so the cost does not grow
    with m1 + m2 beyond the sizes of the vectors.
    """
    slopes = _require_line_base(d)
    _check_degree(m1)
    _check_degree(m2)
    v1 = tuple(Fraction(x) for x in vec1)
    v2 = tuple(Fraction(x) for x in vec2)
    for m, v in ((m1, v1), (m2, v2)):
        dim = _dimension(slopes, m)
        if len(v) != dim:
            raise ShapeError(
                f"a degree-{m} section has {dim} coordinates, got {len(v)}"
            )
        if dim == 0:
            raise ShapeError(f"the ring has no sections in degree {m}")
    finite, target = _finite(slopes), _dimension(slopes, m1 + m2)
    exponents = tuple(s.floor(m1 + m2) - s.floor(m1) - s.floor(m2) for s in finite)
    corr = _correction_poly(finite, exponents)
    prod = _poly_mul(_poly_mul(v1, v2), corr)
    if any(c != 0 for c in prod[target:]):
        raise InternalError(f"product of degrees {m1} and {m2} leaves the degree-{m1 + m2} piece")
    prod = [Fraction(c) for c in prod[:target]]
    return tuple(prod) + (Fraction(0),) * (target - len(prod))


@dataclass(frozen=True)
class RingGenerator:
    """One minimal generator: its degree and coordinates in that piece."""

    name: str
    degree: int
    coeffs: Vector


def minimal_generators(d: PolyhedralDivisor, max_degree: int) -> tuple[RingGenerator, ...]:
    """Minimal algebra generators in degrees 1 .. max_degree.

    Per degree, the new generators are the canonical basis vectors at the
    non-pivot columns of the span of the monomials in the lower generators;
    that span is exactly the decomposable part of the piece.
    """
    return _presentation(_RingTable(d, max_degree), blocks_wanted=False)[0]


def _degree_monomials(monomials, degrees, total: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree total, largest first: every a + e_i
    with a a monomial of degree total - deg g_i; monomials maps each lower
    degree to its monomials, padded here with zeros for later generators."""
    out = set()
    for i, deg in enumerate(degrees):
        for a in monomials.get(total - deg, ()):
            b = list(_pad(a, len(degrees)))
            b[i] += 1
            out.add(tuple(b))
    return sorted(out, reverse=True)


def _generator_factors(table: _RingTable, gens):
    """Per generator: (c, k, None, floors) when it is c * t^k, else
    (1, 0, its coefficients, floors), with floors the n_z of its degree."""
    factors = []
    for g in gens:
        if g.degree < 1:
            raise ShapeError(f"generator {g.name} has degree {g.degree}, not a positive one")
        if g.degree >= len(table.dims):
            # never part of a monomial up to the truncation degree
            factors.append(None)
            continue
        coeffs = [_exact(x) for x in g.coeffs]
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
            factors.append((1, 0, coeffs, table.floors[g.degree]))
    return factors


def _eval_monomial(table: _RingTable, factors, exponents, total: int) -> tuple:
    """The monomial x^a of degree total, in closed form:
    prod g_i^{a_i} * prod_z (t - z)^{n_z(total) - sum_i a_i n_z(deg g_i)}."""
    scale, shift, poly = 1, 0, [1]
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
    vec = [0] * target
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


def _presentation(table: _RingTable, gens=None, blocks_wanted: bool = True):
    """(generators, relation blocks) up to the degree of the table, in one
    pass over the degrees. Without gens, those of degree m are the unit
    vectors at the non-pivot columns of the span of the degree-m monomials in
    the lower generators, named g1, g2, ... in ascending column; with gens,
    the list stays as given. Without blocks_wanted the blocks are () and
    the span of shifted relations is skipped: generators need only pivots.
    New relations stay int rows until the blocks are built, at the end."""
    find = gens is None
    gens = [] if find else list(gens)
    factors = _generator_factors(table, gens)
    found = []  # per degree with monomials: (degree, target, kernel dim, new int relations)
    # the monomials of every degree so far; a tuple has one entry per
    # generator known at its degree
    monomials = {0: ((),)}
    for total in range(1, len(table.dims)):
        n, target = len(gens), table.dims[total]
        monos = _degree_monomials(monomials, [g.degree for g in gens], total)
        vectors = [_eval_monomial(table, factors, a, total) for a in monos]
        kernel, pivots = relations(vectors, target)
        if find:
            # each new x_k sorts after the monomials in lower generators and
            # its unit vector is independent of them: the kernel gains zeros
            fresh = [j for j in range(target) if j not in pivots]
            kernel = [kv + (0,) * len(fresh) for kv in kernel]
            for j in fresh:
                coeffs = tuple(Fraction(int(i == j)) for i in range(target))
                monos.append((0,) * len(gens) + (1,))
                gens.append(RingGenerator(f"g{len(gens) + 1}", total, coeffs))
            factors += _generator_factors(table, gens[n:])
        monomials[total] = tuple(monos)
        if not monos or not blocks_wanted:
            continue
        new: list[tuple[int, ...]] = []
        if kernel:
            # shifts of lower relations are relations: once they span the
            # kernel, no kernel vector is new
            span = EchelonBasis()
            for vec in _shifted_relations(found, monomials, total, n):
                if span.rank == len(kernel):
                    break
                span.add(vec)
            for kv in kernel:
                if span.rank < len(kernel) and span.add(kv):
                    new.append(kv)
        found.append((total, target, len(kernel), new))
    n = len(gens)
    return tuple(gens), tuple(
        RelationBlock(m, tuple(_pad(a, n) for a in monomials[m]), t, k, tuple(map(_scaled, new)))
        for m, t, k, new in found
    )


def _scaled(rel: tuple[int, ...]) -> Vector:
    """An int relation divided by its entry at its own monomial, the last
    one it holds."""
    own = next(x for x in reversed(rel) if x)
    return tuple(Fraction(x, own) for x in rel)


def _pad(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The exponent vector a with zeros for the generators after its own."""
    return a + (0,) * (n - len(a))


def _shifted_relations(found, monomials, total: int, n: int):
    """The relations of lower degrees times every monomial that lifts them to
    degree total, as int vectors over the monomials of degree total; found
    holds the new int relations per lower degree, monomials the monomials of
    each degree up to total, and n generators have a lower degree."""
    index = {nu: k for k, nu in enumerate(monomials[total])}
    for degree, _, _, rels in found:
        if not rels:
            continue
        low = monomials[degree]
        terms = [[(_pad(low[k], n), c) for k, c in enumerate(rel) if c] for rel in rels]
        for mu in monomials[total - degree]:
            mu = _pad(mu, n)
            for rel in terms:
                vec = [0] * len(index)
                for nu, c in rel:
                    vec[index[tuple(a + b for a, b in zip(nu, mu))]] += c
                yield vec


def relation_blocks(
    d: PolyhedralDivisor, max_degree: int, gens=None
) -> tuple[RelationBlock, ...]:
    """Relation spaces per degree, for all degrees carrying a monomial."""
    return _presentation(_RingTable(d, max_degree), gens)[1]


@dataclass(frozen=True)
class RingPresentation:
    """Dimension series, minimal generators, and relations up to a degree."""

    max_degree: int
    dimensions: tuple[int, ...]
    generators: tuple[RingGenerator, ...]
    blocks: tuple[RelationBlock, ...]


def ring_presentation(d: PolyhedralDivisor, max_degree: int) -> RingPresentation:
    table = _RingTable(d, max_degree)
    gens, blocks = _presentation(table)
    return RingPresentation(max_degree, table.dims, gens, blocks)
