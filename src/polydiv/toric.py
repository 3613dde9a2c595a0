"""Toric model for divisors over affine space.

A divisor whose base is affine space, with coefficients supported on the
coordinate hyperplanes, describes an affine toric variety for the enlarged
torus. Its cone lives in the product of the divisor's lattice with one new
axis per hyperplane: tail rays embed with zero on the new axes, and each
vertex v of the i-th coefficient contributes the primitive ray through
(v, e_i). Hyperplanes carrying the trivial coefficient contribute the bare
unit ray (0, e_i).

Ray-level diagnostics (simpliciality, multiplicity of the ray lattice inside
its saturation, smoothness) are exact: the multiplicity is the gcd of the
maximal minors of the ray matrix, read off as the product of the pivots
after an integer column reduction of that matrix to lower-triangular form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CurveDomainError, InternalError
from .geometry import make_cone
from .linalg import matrix_rank, primitive
from .pdiv import AffineSpace, PolyhedralDivisor


@dataclass(frozen=True)
class ToricCone:
    """Cone of the toric model, in the divisor lattice times hyperplane axes."""

    ambient_rank: int
    divisor_rank: int
    rays: tuple[tuple[int, ...], ...]

    @property
    def hyperplane_count(self) -> int:
        return self.ambient_rank - self.divisor_rank


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
    span = matrix_rank(rays)
    mult = _span_multiplicity(rays, tc.ambient_rank) if len(rays) == span else None
    return ConeDiagnostics(
        ambient_rank=tc.ambient_rank,
        ray_count=len(rays),
        span_rank=span,
        simplicial=mult is not None,
        multiplicity=mult,
        smooth=mult == 1,
    )


def _span_multiplicity(rays, ambient: int) -> int:
    """Index of the rays' lattice in its saturation; 1 for no rays at all.

    The index is the gcd of the maximal minors of the k x ambient ray
    matrix, and unimodular column operations keep that gcd (Cauchy-Binet).
    Row by row, extended-gcd steps on pairs of columns clear the entries
    right of the diagonal, so the only nonzero maximal minor left is the
    leading lower-triangular block: the index is |product of its pivots|.
    The k <= ambient rays must be linearly independent.
    """
    k = len(rays)
    cols = [[int(ray[c]) for ray in rays] for c in range(ambient)]
    mult = 1
    for i in range(k):
        for j in range(i + 1, ambient):
            b = cols[j][i]
            if b == 0:
                continue
            a = cols[i][i]
            g, x, y = _xgcd(a, b)
            # [[x, -b/g], [y, a/g]] has determinant 1 and clears row i of column j
            ci, cj = cols[i], cols[j]
            cols[i] = [x * u + y * v for u, v in zip(ci, cj)]
            cols[j] = [(a // g) * v - (b // g) * u for u, v in zip(ci, cj)]
        if cols[i][i] == 0:
            raise InternalError(f"ray {i} lies in the span of the rays before it")
        mult *= cols[i][i]
    return abs(mult)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with |g| = gcd(a, b) and x * a + y * b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
