"""Toric model for divisors over affine space.

A divisor whose base is affine space, with coefficients supported on the
coordinate hyperplanes, describes an affine toric variety for the enlarged
torus. Its cone lives in the product of the divisor's lattice with one new
axis per hyperplane: tail rays embed with zero on the new axes, and each
vertex v of the i-th coefficient contributes the primitive ray through
(v, e_i). Hyperplanes carrying the trivial coefficient contribute the bare
unit ray (0, e_i).

Ray-level diagnostics (simpliciality, multiplicity of the ray lattice inside
its saturation, smoothness) are exact: the multiplicity is the gcd of all
maximal minors of the ray matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import CurveDomainError, InternalError, RankMismatchError
from .geometry import MINUS_INFINITY, make_cone, support_eval
from .linalg import determinant, dot, matrix_rank, primitive
from .pdiv import AffineSpace, PolyhedralDivisor, coerce_weight


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


def weight_in_dual(tc: ToricCone, weight) -> bool:
    """Does the weight pair nonnegatively with every ray of the toric cone?"""
    w = tuple(Fraction(x) for x in weight)
    if len(w) != tc.ambient_rank:
        raise RankMismatchError(
            f"weight has {len(w)} coordinates, cone ambient rank is {tc.ambient_rank}"
        )
    return all(dot(w, ray) >= 0 for ray in tc.rays)


def monomial_admissible(d: PolyhedralDivisor, m, r) -> bool:
    """Divisor-side membership test for the combined weight (m, r).

    True when m lies in the weight cone and each hyperplane exponent r_i
    clears the i-th support minimum: r_i >= -min<m, coefficient_i>. For
    integer inputs this matches weight_in_dual on the toric cone.
    """
    if not isinstance(d.base, AffineSpace):
        raise CurveDomainError("the toric model needs an affine-space base")
    mm = coerce_weight(d, m)
    rr = tuple(Fraction(x) for x in r)
    if len(rr) != d.base.dim:
        raise RankMismatchError(
            f"{len(rr)} hyperplane exponents for a dimension-{d.base.dim} base"
        )
    if any(dot(mm, ray) < 0 for ray in d.tail.rays):
        return False
    for i in range(1, d.base.dim + 1):
        poly = d.coefficient(i)
        if poly is None:
            value = Fraction(0)
        else:
            value = support_eval(poly, mm)
            if value is MINUS_INFINITY:
                # the tail-ray test above placed mm in the weight cone
                raise InternalError(f"support minimum at hyperplane {i} is unbounded")
        if rr[i - 1] < -value:
            return False
    return True


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
    simplicial = len(rays) == span
    if not simplicial:
        return ConeDiagnostics(
            ambient_rank=tc.ambient_rank,
            ray_count=len(rays),
            span_rank=span,
            simplicial=False,
            multiplicity=None,
            smooth=False,
        )
    mult = _span_multiplicity(rays, tc.ambient_rank)
    return ConeDiagnostics(
        ambient_rank=tc.ambient_rank,
        ray_count=len(rays),
        span_rank=span,
        simplicial=True,
        multiplicity=mult,
        smooth=mult == 1,
    )


def _span_multiplicity(rays, ambient: int) -> int:
    """gcd of all maximal minors of the ray matrix; 1 for no rays at all."""
    k = len(rays)
    if k == 0:
        return 1
    g = 0
    for cols in combinations(range(ambient), k):
        sub = [[ray[c] for c in cols] for ray in rays]
        g = gcd(g, abs(int(determinant(sub))))
    return g
