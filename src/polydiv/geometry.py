"""Rational convex geometry: cones, tailed polyhedra, chamber fans.

Values are immutable and canonical, read off one double description each.
Pointed cones store the sorted primitive generators of their extreme rays;
other cones their extreme rays modulo lines plus each line both ways, as
dual_cone does. Polyhedra store exactly their extreme points plus a pointed
tail cone, and keep their vertices cleared to integers over one common
denominator, on which support minima are taken in int, the weight scaled
by the lcm of its denominators.
Support minima are exact Fractions, with an explicit MinusInfinity object
when the functional is unbounded below on the polyhedron. A chamber-fan
region is its double description, and each cut extends it by one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm

from .errors import RankMismatchError, ShapeError, UnsupportedRankError
from .linalg import (
    DoubleDescription,
    cone_from_inequalities,
    dot,
    is_zero,
    matrix_rank,
    primitive,
    vec_neg,
    vec_sub,
)

Rat = Fraction


class MinusInfinity:
    """Support value below every rational; deliberately not comparable."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MINUS_INFINITY"


MINUS_INFINITY = MinusInfinity()


def ratvec(values) -> tuple[Fraction, ...]:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by irredundant primitive generators."""

    rays: tuple[tuple[int, ...], ...]
    rank: int
    pointed: bool

    def contains(self, v) -> bool:
        return cone_contains(self, v)

    @property
    def is_trivial(self) -> bool:
        return not self.rays


def make_cone(rays, rank: int) -> Cone:
    """Canonical cone from generators: primitive, deduplicated, irredundant.

    One double description of the generators gives the facets of their cone.
    It is not pointed iff some generator is tight on every facet (the
    lineality space is a face, spanned by the generators it contains), and
    is then stored as its double dual, as dual_cone gives it. A pointed cone
    keeps a generator unless another's set of tight facets contains its own.
    """
    prim = []
    for r in rays:
        if len(r) != rank:
            raise RankMismatchError(f"ray {tuple(r)} does not have rank {rank}")
        p = primitive(r)
        if not is_zero(p) and p not in prim:
            prim.append(p)
    if len(prim) <= rank and matrix_rank(prim) == len(prim):
        # linearly independent generators: none is redundant, and the cone
        # is simplicial, hence pointed
        return Cone(rays=tuple(sorted(prim)), rank=rank, pointed=True)
    lines, facets = cone_from_inequalities(prim, rank)
    tight = [{j for j, f in enumerate(facets) if dot(f, g) == 0} for g in prim]
    if any(len(t) == len(facets) for t in tight):
        return dual_cone(_cone(lines, facets, rank))
    kept = [g for g, t in zip(prim, tight) if not any(u >= t for u in tight if u is not t)]
    return Cone(rays=tuple(sorted(kept)), rank=rank, pointed=True)


def _cone(lines, rays, rank: int) -> Cone:
    """The Cone of a double description: its rays and each line both ways."""
    gens = list(rays) + list(lines) + [vec_neg(l) for l in lines]
    return Cone(rays=tuple(sorted(gens)), rank=rank, pointed=not lines)


def _in_ray_span(v, gens, rank: int) -> bool:
    """Is v a nonnegative rational combination of gens?

    The cone of gens is the dual of {x : <g, x> >= 0 for every g}, so v lies
    in it iff v is orthogonal to the lines and nonnegative on the rays of that
    dual's double description.
    """
    lines, rays = cone_from_inequalities(gens, rank)
    return all(dot(l, v) == 0 for l in lines) and all(dot(r, v) >= 0 for r in rays)


def cone_contains(cone: Cone, v) -> bool:
    vv = ratvec(v)
    if len(vv) != cone.rank:
        raise RankMismatchError(f"vector {tuple(v)} does not have rank {cone.rank}")
    if all(x == 0 for x in vv):
        return True
    if not cone.rays:
        return False
    return _in_ray_span(vv, cone.rays, cone.rank)


def dual_cone(cone: Cone) -> Cone:
    """Generators of {m : <m, v> >= 0 for all v in the cone}.

    Exact at any rank via double description, whose rays are already
    primitive and irredundant modulo its lines, so they are taken as they
    come. A non-pointed dual is returned with both orientations of each
    lineality generator; it is pointed exactly when there are no lines.
    """
    return _cone(*cone_from_inequalities(cone.rays, cone.rank), cone.rank)


@dataclass(frozen=True)
class TailedPolyhedron:
    """conv(vertices) + tail cone, vertices stored as exact extreme points."""

    vertices: tuple[tuple[Fraction, ...], ...]
    tail: Cone

    @property
    def rank(self) -> int:
        return self.tail.rank

    @cached_property
    def cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(numerators, denominator): the vertices, in order, as integer
        vectors over one common positive denominator. Kept on the value,
        outside equality and hashing."""
        den = lcm(*(x.denominator for v in self.vertices for x in v))
        return tuple(tuple(int(x * den) for x in v) for v in self.vertices), den


def make_polyhedron(vertices, tail: Cone) -> TailedPolyhedron:
    """conv(vertices) + tail, stored as its extreme points.

    They are the rays r with r[-1] != 0 of the cone over the (v, 1) and the
    (r, 0), read back as r[:-1] / r[-1]; the tail must be pointed.
    """
    if not tail.pointed:
        raise ShapeError("a tailed polyhedron needs a pointed tail cone")
    verts = []
    for v in vertices:
        vv = ratvec(v)
        if len(vv) != tail.rank:
            raise RankMismatchError(f"vertex {tuple(v)} does not have rank {tail.rank}")
        if vv not in verts:
            verts.append(vv)
    if not verts:
        raise ShapeError("a tailed polyhedron needs at least one vertex")
    if len(verts) > 1:
        gens = [v + (1,) for v in verts] + [r + (0,) for r in tail.rays]
        cone = make_cone(gens, tail.rank + 1)
        verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in cone.rays if r[-1]]
    verts.sort()
    return TailedPolyhedron(vertices=tuple(verts), tail=tail)


def support_eval(poly: TailedPolyhedron, m):
    """min{<m, p> : p in the polyhedron}, or MINUS_INFINITY off the tail dual.

    The weight, scaled by the lcm of its denominators, is paired with the
    cleared vertices in int.
    """
    mm = ratvec(m)
    if len(mm) != poly.rank:
        raise RankMismatchError(f"weight {tuple(m)} does not have rank {poly.rank}")
    scale = lcm(*(x.denominator for x in mm))
    mm = tuple(x.numerator * (scale // x.denominator) for x in mm)
    if any(dot(mm, r) < 0 for r in poly.tail.rays):
        return MINUS_INFINITY
    nums, den = poly.cleared
    return Fraction(min(dot(mm, n) for n in nums), den * scale)


def minkowski_sum(p: TailedPolyhedron, q: TailedPolyhedron) -> TailedPolyhedron:
    if p.tail != q.tail:
        raise ShapeError("Minkowski sum requires equal tail cones")
    sums = [tuple(a + b for a, b in zip(v, w)) for v in p.vertices for w in q.vertices]
    return make_polyhedron(sums, p.tail)


def ray_meets(poly: TailedPolyhedron, ray) -> bool:
    """Does {t * ray : t >= 0} intersect the polyhedron?"""
    rr = ratvec(ray)
    if len(rr) != poly.rank:
        raise RankMismatchError(f"ray {tuple(ray)} does not have rank {poly.rank}")
    # t * ray = p in the polyhedron iff (0, ..., 0, 1) is a nonnegative
    # combination of the (v, 1), the (r, 0) and (-ray, 0)
    gens = [v + (1,) for v in poly.vertices] + [r + (0,) for r in poly.tail.rays]
    gens.append(vec_neg(rr) + (0,))
    apex = (0,) * poly.rank + (1,)
    return _in_ray_span(apex, gens, poly.rank + 1)


@dataclass(frozen=True)
class Chamber:
    """Simplicial cone on which every input support function is linear."""

    cone: Cone
    minimizers: tuple[tuple[Fraction, ...], ...]

    @property
    def rays(self):
        return self.cone.rays


@dataclass(frozen=True)
class ChamberFan:
    rank: int
    weight_cone: Cone
    chambers: tuple[Chamber, ...]

    def all_rays(self) -> tuple[tuple[int, ...], ...]:
        seen = []
        for ch in self.chambers:
            for r in ch.rays:
                if r not in seen:
                    seen.append(r)
        return tuple(sorted(seen))


def chamber_fan(polys, weight_cone: Cone) -> ChamberFan:
    """Common linearity decomposition of the weight cone.

    Splits the weight cone along every hyperplane where two vertices of one
    input polyhedron tie, then triangulates each piece, so each chamber carries
    a single minimizing vertex per polyhedron. Guaranteed through rank 3; at
    higher rank only the trivial wall-free simplicial case is attempted.
    """
    rank = weight_cone.rank
    polys = list(polys)
    for p in polys:
        if p.rank != rank:
            raise RankMismatchError("polyhedron rank differs from the weight cone rank")
        if p.tail != polys[0].tail:
            raise ShapeError("chamber fan requires equal tails on all polyhedra")
    if polys:
        tail = polys[0].tail
        for u in weight_cone.rays:
            for r in tail.rays:
                if dot(u, r) < 0:
                    raise ShapeError(
                        "weight cone leaves the dual of the tail cone; support "
                        "minima would be unbounded"
                    )
    if matrix_rank([list(r) for r in weight_cone.rays]) != rank:
        raise ShapeError("weight cone must be full-dimensional")

    walls = []
    for p in polys:
        for i, v in enumerate(p.vertices):
            for w in p.vertices[i + 1 :]:
                n = primitive(vec_sub(v, w))
                if is_zero(n):
                    continue
                if next(x for x in n if x != 0) < 0:
                    n = vec_neg(n)
                if n not in walls:
                    walls.append(n)

    if rank > 3:
        if not walls and weight_cone.pointed and len(weight_cone.rays) == rank:
            chambers = [_finish_chamber(tuple(sorted(weight_cone.rays)), polys)]
            return ChamberFan(rank, weight_cone, tuple(chambers))
        raise UnsupportedRankError("chamber fan only guaranteed through rank 3")

    normals = dual_cone(weight_cone).rays
    regions = [reduce(DoubleDescription.extend, normals, DoubleDescription.whole_space(rank))]
    for n in walls:
        regions = [piece for region in regions for piece in _split(region, n)]

    axes = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    chambers: list[Chamber] = []
    queue = list(regions)
    while queue:
        dd = queue.pop()
        if dd.lines:
            axis = next(a for a in axes if any(dot(a, l) != 0 for l in dd.lines))
            queue += [dd.extend(axis), dd.extend(vec_neg(axis))]
            continue
        for simplex in _triangulate(dd.rays, rank):
            chambers.append(_finish_chamber(simplex, polys))
    chambers.sort(key=lambda ch: ch.rays)
    return ChamberFan(rank, weight_cone, tuple(chambers))


def _split(dd, wall):
    """Cut a full-dimensional region along a hyperplane, keeping fat pieces.

    The side <wall, x> >= 0 of a full-dimensional cone is full-dimensional
    exactly when some line has <wall, l> != 0 or some ray has <wall, r> > 0.
    """
    side = [dot(wall, r) for r in dd.rays]
    if any(dot(wall, l) != 0 for l in dd.lines) or (side and min(side) < 0 < max(side)):
        return [dd.extend(wall), dd.extend(vec_neg(wall))]
    return [dd]


def _triangulate(rays, rank: int):
    """Split a pointed full-dimensional cone into simplicial pieces.

    At rank 3 each facet holds exactly two extreme rays, so the simplices
    spanned by the first ray and each facet away from it fill the cone.
    """
    k = len(rays)
    if k == rank:
        return [tuple(sorted(rays))]
    if rank != 3:
        raise UnsupportedRankError(
            f"pointed rank-{rank} region with {k} extreme rays cannot be triangulated"
        )
    g0 = rays[0]
    facets = cone_from_inequalities(rays, rank)[1]
    on = ([r for r in rays if dot(n, r) == 0] for n in facets if dot(n, g0) > 0)
    return [tuple(sorted([g0] + pair)) for pair in on]


def _finish_chamber(simplex_rays, polys) -> Chamber:
    cone = make_cone(simplex_rays, len(simplex_rays[0]))
    sample = tuple(sum(r[c] for r in simplex_rays) for c in range(cone.rank))
    minimizers = []
    for p in polys:
        # a positive common denominator keeps minima and lexicographic order
        nums = p.cleared[0]
        values = [dot(sample, n) for n in nums]
        best = min(values)
        chosen = min((i for i, x in enumerate(values) if x == best), key=nums.__getitem__)
        for u in simplex_rays:
            if dot(u, nums[chosen]) != min(dot(u, n) for n in nums):
                raise ShapeError("chamber is not a linearity region; internal error")
        minimizers.append(p.vertices[chosen])
    return Chamber(cone=cone, minimizers=tuple(minimizers))
