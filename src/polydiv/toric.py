"""Toric model for divisors over affine space.

A divisor whose base is affine space, with coefficients supported on the
coordinate hyperplanes, describes an affine toric variety for the enlarged
torus. Its cone lives in the product of the divisor's lattice with one new
axis per hyperplane: tail rays embed with zero on the new axes, and each
vertex v of the i-th coefficient contributes the primitive ray through
(v, e_i). Hyperplanes carrying the trivial coefficient contribute the bare
unit ray (0, e_i).

Ray-level diagnostics (simpliciality, multiplicity of the ray lattice inside
its saturation, smoothness) are exact: one integer column reduction of the
ray matrix to lower echelon form gives the rank of the rays' span as the
number of pivots and the multiplicity, the gcd of the maximal minors, as the
product of the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CurveDomainError
from .geometry import make_cone
from .linalg import primitive
from .pdiv import AffineSpace, PolyhedralDivisor


@dataclass(frozen=True)
class ToricCone:
    """Cone of the toric model, in the divisor lattice times hyperplane axes."""

    ambient_rank: int
    divisor_rank: int
    rays: tuple[tuple[int, ...], ...]


def toric_cone(d: PolyhedralDivisor) -> ToricCone:
    """Extremal rays of the cone describing the divisor's toric model."""
    if not isinstance(d.base, AffineSpace):
        raise CurveDomainError("the toric model needs an affine-space base")
    n = d.base.dim
    ambient = d.rank + n
    gens = []
    for ray in d.tail.rays:
        gens.append(tuple(ray) + (0,) * n)
    for i in range(1, n + 1):
        unit = tuple(int(j == i - 1) for j in range(n))
        poly = d.coefficient(i)
        if poly is None:
            gens.append((0,) * d.rank + unit)
        else:
            for v in poly.vertices:
                gens.append(primitive(tuple(v) + unit))
    cone = make_cone(gens, ambient)
    return ToricCone(ambient_rank=ambient, divisor_rank=d.rank, rays=cone.rays)


@dataclass(frozen=True)
class ConeDiagnostics:
    """Ray-level shape report for a toric cone."""

    ambient_rank: int
    ray_count: int
    span_rank: int
    simplicial: bool
    multiplicity: int | None
    smooth: bool


def cone_diagnostics(tc: ToricCone) -> ConeDiagnostics:
    """Simpliciality, lattice multiplicity, and smoothness of the cone.

    A simplicial cone's multiplicity is the index of the subgroup generated
    by its rays inside the saturation of their span; 1 means smooth. A
    non-simplicial cone is reported with multiplicity None and smooth False.
    """
    rays = tc.rays
    span, index = _span_rank_and_index(rays, tc.ambient_rank)
    mult = index if len(rays) == span else None
    return ConeDiagnostics(
        ambient_rank=tc.ambient_rank,
        ray_count=len(rays),
        span_rank=span,
        simplicial=mult is not None,
        multiplicity=mult,
        smooth=mult == 1,
    )


def _span_rank_and_index(rays, ambient: int) -> tuple[int, int]:
    """The rank of the rays' span and, for independent rays, the index of
    their lattice in its saturation; (0, 1) for no rays at all.

    The index is the gcd of the maximal minors of the ray matrix, and
    unimodular column operations keep that gcd (Cauchy-Binet). Row by row,
    extended-gcd steps on pairs of columns clear the entries right of the
    next pivot column. A row with no entry left at or past that column lies
    in the span of the pivot rows above it and takes no pivot. For
    independent rays the one nonzero maximal minor left is the leading
    lower-triangular block: the index is |product of its pivots|.
    """
    cols = [[int(ray[c]) for ray in rays] for c in range(ambient)]
    rank, mult = 0, 1
    for i in range(len(rays)):
        for j in range(rank + 1, ambient):
            b = cols[j][i]
            if b == 0:
                continue
            a = cols[rank][i]
            g, x, y = _xgcd(a, b)
            # [[x, -b/g], [y, a/g]] has determinant 1 and clears row i of column j
            ci, cj = cols[rank], cols[j]
            cols[rank] = [x * u + y * v for u, v in zip(ci, cj)]
            cols[j] = [(a // g) * v - (b // g) * u for u, v in zip(ci, cj)]
        if rank < ambient and cols[rank][i]:
            mult *= cols[rank][i]
            rank += 1
    return rank, abs(mult)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with |g| = gcd(a, b) and x * a + y * b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
