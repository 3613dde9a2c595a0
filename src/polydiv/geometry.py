"""Rational convex geometry: cones, tailed polyhedra, chamber fans.

Values are immutable and canonical, read off one double description each.
Pointed cones store the sorted primitive generators of their extreme rays;
other cones their extreme rays modulo lines plus each line both ways, as
their dual does. A cone keeps its dual (``dual``): the facets of the double
description make_cone ran, when the cone is full-dimensional, else one fresh.
Membership is read off the dual's rays. Polyhedra store exactly their extreme
points plus a pointed tail cone, and keep their vertices cleared (linalg.clear)
over one common denominator; support minima, chamber-fan walls and minimizers
are taken in int on them. Support minima are exact Fractions, with an explicit
MinusInfinity object when the functional is unbounded below. A chamber-fan
region is its double description, each cut extends it by one step, and its
tight sets give the facets it is triangulated along; a chamber carries the
facet normal opposite each of its rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import ge

from .errors import RankMismatchError, ShapeError, UnsupportedRankError
from .linalg import (
    DoubleDescription,
    clear,
    cone_from_inequalities,
    dot,
    is_zero,
    matrix_rank,
    primitive,
    vec_neg,
    vec_sub,
)


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

    @cached_property
    def dual(self) -> Cone:
        """{m : <m, v> >= 0 for all v in the cone}: the rays of one double
        description as they come, and each line both ways. Kept on the
        value, outside equality and hashing."""
        return _cone(*cone_from_inequalities(self.rays, self.rank), self.rank)


def make_cone(rays, rank: int) -> Cone:
    """Canonical cone from generators: primitive, deduplicated, irredundant.

    One double description of the generators gives the facets of their cone.
    It is not pointed iff some generator is tight on every facet (the
    lineality space is a face, spanned by the generators it contains), and
    is then stored as its double dual, as dual_cone gives it. A pointed cone
    keeps a generator unless another's set of tight facets contains its own,
    and, when full-dimensional (no lines), the facets as its dual.
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
        return _cone(lines, facets, rank).dual
    kept = [g for g, t in zip(prim, tight) if not any(u >= t for u in tight if u is not t)]
    cone = Cone(rays=tuple(sorted(kept)), rank=rank, pointed=True)
    if not lines:
        object.__setattr__(cone, "dual", _cone((), facets, rank))
    return cone


def _cone(lines, rays, rank: int) -> Cone:
    """The Cone of a double description: its rays and each line both ways."""
    gens = list(rays) + list(lines) + [vec_neg(l) for l in lines]
    return Cone(rays=tuple(sorted(gens)), rank=rank, pointed=not lines)


def cone_contains(cone: Cone, v) -> bool:
    """Is v in the cone? The cone is the dual of its dual, so v lies in it
    iff it pairs nonnegatively with every ray of the dual, each line both
    ways; this covers non-pointed and trivial cones alike."""
    vv = ratvec(v)
    if len(vv) != cone.rank:
        raise RankMismatchError(f"vector {tuple(v)} does not have rank {cone.rank}")
    return all(dot(f, vv) >= 0 for f in cone.dual.rays)


def dual_cone(cone: Cone) -> Cone:
    """Generators of {m : <m, v> >= 0 for all v in the cone}: ``cone.dual``."""
    return cone.dual


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
        return _cleared(self.vertices, self.rank)


def _cleared(vertices, rank: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The vertices, in order, as integer vectors over one common positive
    denominator, and that denominator: one clear of all their entries."""
    flat, den = clear([x for v in vertices for x in v])
    return tuple(tuple(flat[k * rank : (k + 1) * rank]) for k in range(len(vertices))), den


def make_polyhedron(vertices, tail: Cone) -> TailedPolyhedron:
    """conv(vertices) + tail, stored as its extreme points; the tail must be
    pointed.

    A vertex v with v - w in the tail for another vertex w, tested against
    the rays of the tail's dual, is dropped first: v is the midpoint of w
    and w + 2(v - w), so it is not extreme. A vertex is extreme iff it is
    not in the convex hull of the others plus the tail, so one or two
    survivors are all extreme. Otherwise the extreme points are the rays r
    with r[-1] != 0 of the cone over the (v, 1) and the (r, 0), read back as
    r[:-1] / r[-1]."""
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
    if len(verts) > 1 and tail.rays:
        # over the trivial tail no vertex dominates another; the pairings
        # are taken in int, on the vertices over one common denominator
        nums = _cleared(verts, tail.rank)[0]
        values = [tuple(dot(f, n) for f in tail.dual.rays) for n in nums]
        keep = [not any(b is not a and all(map(ge, a, b)) for b in values) for a in values]
        verts = [v for v, k in zip(verts, keep) if k]
    if len(verts) > 2:
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
    mm, scale = clear(mm)
    if any(dot(mm, r) < 0 for r in poly.tail.rays):
        return MINUS_INFINITY
    nums, den = poly.cleared
    return Fraction(min(dot(mm, n) for n in nums), den * scale)


@dataclass(frozen=True)
class Chamber:
    """Simplicial cone on which every input support function is linear.

    facets[i] is the primitive normal of the facet opposite rays[i]: zero on
    the other rays and positive on rays[i].
    """

    cone: Cone
    facets: tuple[tuple[int, ...], ...]
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
        return tuple(sorted({r for ch in self.chambers for r in ch.rays}))


def chamber_fan(polys, tail: Cone) -> ChamberFan:
    """Common linearity decomposition of the weight cone, the dual of the tail.

    The weight cone is the region cut out by the tail rays. It is split
    along every hyperplane where two vertices of one input polyhedron tie,
    and each piece is triangulated, so each chamber carries a single
    minimizing vertex per polyhedron. Guaranteed through rank 3; at higher
    rank only the wall-free simplicial case is attempted, whose one chamber
    is the weight cone, with the tail rays as its facet normals.
    """
    rank = tail.rank
    if not tail.pointed:
        raise ShapeError("weight cone must be full-dimensional")
    polys = list(polys)
    for p in polys:
        if p.rank != rank:
            raise RankMismatchError("polyhedron rank differs from the tail cone rank")
        if p.tail != tail:
            raise ShapeError("chamber fan requires the given tail on all polyhedra")

    walls = []
    for p in polys:
        nums = p.cleared[0]
        for i, v in enumerate(nums):
            for w in nums[i + 1 :]:
                n = primitive(vec_sub(v, w))
                if is_zero(n):
                    continue
                if next(x for x in n if x != 0) < 0:
                    n = vec_neg(n)
                if n not in walls:
                    walls.append(n)

    weight_cone = tail.dual
    if rank > 3:
        if not walls and weight_cone.pointed and len(weight_cone.rays) == rank:
            # the tail rays are the facet normals of the simplicial weight
            # cone, each positive on exactly one of its rays
            facets = tuple(next(f for f in tail.rays if dot(f, u) > 0) for u in weight_cone.rays)
            chamber = Chamber(weight_cone, facets, _minimizers(weight_cone.rays, polys))
            return ChamberFan(rank, weight_cone, (chamber,))
        raise UnsupportedRankError("chamber fan only guaranteed through rank 3")

    regions = [reduce(DoubleDescription.extend, tail.rays, DoubleDescription.whole_space(rank))]
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
        for simplex in _triangulate(dd, rank):
            cone = Cone(simplex, rank, pointed=True)
            chambers.append(Chamber(cone, _facets(simplex), _minimizers(simplex, polys)))
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


def _triangulate(dd, rank: int):
    """Split a pointed full-dimensional region into simplicial pieces.

    Each piece is the sorted tuple of its rays: extreme rays of the region,
    primitive and linearly independent. At rank 3 each facet holds exactly
    two extreme rays, so the simplices spanned by the first ray and each
    facet away from it fill the cone. Two rays span a facet iff no other ray
    is tight wherever both are: the adjacency test, on the region's tight sets.
    """
    rays, tight = dd.rays, dd.tight
    k = len(rays)
    if k == rank:
        return [tuple(sorted(rays))]
    if rank != 3:
        raise UnsupportedRankError(
            f"pointed rank-{rank} region with {k} extreme rays cannot be triangulated"
        )
    return [
        tuple(sorted((rays[0], rays[i], rays[j])))
        for i in range(1, k)
        for j in range(i + 1, k)
        if not any(tight[i] & tight[j] <= t for h, t in enumerate(tight) if h not in (i, j))
    ]


def _facets(rays) -> tuple[tuple[int, ...], ...]:
    """The facet normal opposite each ray of a simplicial cone of rank 1 to 3:
    a sign, the perpendicular of the other ray, or the cross product of the
    other two, made primitive and oriented positive on its ray."""
    out = []
    for i, u in enumerate(rays):
        others = rays[:i] + rays[i + 1 :]
        if not others:
            n = (1,)
        elif len(others) == 1:
            (a, b), = others
            n = (-b, a)
        else:
            (a0, a1, a2), (b0, b1, b2) = others
            n = primitive((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
        out.append(n if dot(n, u) > 0 else vec_neg(n))
    return tuple(out)


def _minimizers(rays, polys) -> tuple[tuple[Fraction, ...], ...]:
    """One minimizing vertex per polyhedron on the simplicial cone of rays."""
    rank = len(rays[0])
    sample = tuple(sum(r[c] for r in rays) for c in range(rank))
    minimizers = []
    for p in polys:
        # a positive common denominator keeps minima and lexicographic order
        nums = p.cleared[0]
        values = [dot(sample, n) for n in nums]
        best = min(values)
        chosen = min((i for i, x in enumerate(values) if x == best), key=nums.__getitem__)
        for u in rays:
            if dot(u, nums[chosen]) != min(dot(u, n) for n in nums):
                raise ShapeError("chamber is not a linearity region; internal error")
        minimizers.append(p.vertices[chosen])
    return tuple(minimizers)
