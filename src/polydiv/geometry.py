"""Rational convex geometry: cones, tailed polyhedra, chamber fans.

Values are immutable and canonical, read off one double description each.
Pointed cones store the sorted primitive generators of their extreme rays;
other cones their extreme rays modulo lines plus each line both ways, as
their dual does. A cone keeps the double description of its dual
(``dual_dd``, one step per ray in stored order): the one make_cone ran, when
it kept every generator, else one fresh. Its dual (``dual``) and the first
region of its chamber fan are read off it, and membership off the dual's
rays. Polyhedra store exactly their extreme points plus a pointed tail cone,
and keep their vertices cleared (linalg.clear) over one common denominator;
support minima, chamber-fan walls and minimizers are taken in int on them.
Support minima are exact Fractions, with an explicit MinusInfinity object
when the functional is unbounded below. A chamber-fan region is its double
description, each cut extends it by one step, and its tight sets (bitmasks
over the normals it processed) give the facets it is triangulated along; a
chamber stores its rays and the facet normal opposite each of them. A fan
keeps one table of minima: each distinct fan ray with its int minimum over
each polyhedron's cleared vertices, taken once per ray however many
chambers hold it. The minimizer check of every chamber and the ray degrees
of a divisor read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ge

from .errors import InternalError, RankMismatchError, ShapeError, UnsupportedRankError
from .linalg import (
    DoubleDescription,
    clear,
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

    @property
    def is_trivial(self) -> bool:
        return not self.rays

    @cached_property
    def dual_dd(self) -> DoubleDescription:
        """The double description of {m : <m, v> >= 0 for all v in the cone},
        one step per ray in stored order. Kept on the value, outside equality
        and hashing."""
        return DoubleDescription.of(self.rays, self.rank)

    @cached_property
    def dual(self) -> Cone:
        """The dual cone: the rays of dual_dd and each of its lines both ways."""
        return _cone(self.dual_dd.lines, self.dual_dd.rays, self.rank)


def make_cone(rays, rank: int) -> Cone:
    """Canonical cone from generators: primitive, deduplicated, irredundant.

    One double description of the sorted generators gives the facets of
    their cone. It is not pointed iff some generator is tight on every facet
    (the lineality space is a face, spanned by the generators it contains),
    and is then stored as its double dual, the dual of the cone the facets
    and lines span. A pointed cone keeps a generator unless another's set of
    tight facets contains its own (the tight sets are read off the fold's
    bitmasks, with no pairing); when it keeps them all, the sorted
    generators are its rays in the order the double description took them,
    and that double description is its dual_dd.
    """
    prim = []
    for r in rays:
        if len(r) != rank:
            raise RankMismatchError(f"ray {tuple(r)} does not have rank {rank}")
        p = primitive(r)
        if not is_zero(p) and p not in prim:
            prim.append(p)
    prim.sort()
    if len(prim) <= rank and matrix_rank(prim) == len(prim):
        # linearly independent generators: none is redundant, and the cone
        # is simplicial, hence pointed
        return Cone(rays=tuple(prim), rank=rank, pointed=True)
    dd = DoubleDescription.of(prim, rank)
    # bit i of tight[j]: facet i is tight on generator j
    tight = [sum(1 << i for i, t in enumerate(dd.tight) if t >> j & 1) for j in range(len(prim))]
    if any(t == (1 << len(dd.rays)) - 1 for t in tight):
        return _cone(dd.lines, dd.rays, rank).dual
    kept = tuple(g for g, t in zip(prim, tight) if sum(u & t == t for u in tight) == 1)
    cone = Cone(rays=kept, rank=rank, pointed=True)
    if len(kept) == len(prim):
        object.__setattr__(cone, "dual_dd", dd)
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

    rays are its sorted primitive rays, and facets[i] is the primitive normal
    of the facet opposite rays[i]: zero on the other rays and positive on
    rays[i].
    """

    rays: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[int, ...], ...]
    minimizers: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ChamberFan:
    """The chambers, sorted by their rays, and each distinct ray, sorted, with
    its int minimum over the cleared vertices of each polyhedron in turn."""

    chambers: tuple[Chamber, ...]
    minima: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def all_rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(u for u, _ in self.minima)


def chamber_fan(polys, tail: Cone) -> ChamberFan:
    """Common linearity decomposition of the weight cone, the dual of the tail.

    The weight cone is the region cut out by the tail rays, the tail's
    dual_dd. It is split along every hyperplane where two vertices of one
    input polyhedron tie, and each piece is triangulated, so each chamber
    carries a single minimizing vertex per polyhedron. Guaranteed through rank 3; at higher
    rank only the wall-free simplicial case is attempted, whose one chamber
    is the weight cone, with the tail rays as its facet normals. Once every
    simplex is known, the minima at each distinct ray are taken once.
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

    if rank > 3:
        weight = tail.dual
        if walls or not weight.pointed or len(weight.rays) != rank:
            raise UnsupportedRankError("chamber fan only guaranteed through rank 3")
        # the tail rays are the facet normals of the simplicial weight
        # cone, each positive on exactly one of its rays
        facets = tuple(next(f for f in tail.rays if dot(f, u) > 0) for u in weight.rays)
        cells = [(weight.rays, facets)]
    else:
        regions = [tail.dual_dd]
        for n in walls:
            regions = [piece for region in regions for piece in _split(region, n)]

        axes = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        cells = []
        queue = list(regions)
        while queue:
            dd = queue.pop()
            if dd.lines:
                axis = next(a for a in axes if any(dot(a, l) != 0 for l in dd.lines))
                queue += [dd.extend(axis), dd.extend(vec_neg(axis))]
                continue
            cells += [(simplex, _facets(simplex)) for simplex in _triangulate(dd, rank)]
    rays = sorted({u for simplex, _ in cells for u in simplex})
    minima = {u: tuple(min(dot(u, n) for n in p.cleared[0]) for p in polys) for u in rays}
    chambers = [Chamber(s, f, _minimizers(s, polys, minima)) for s, f in cells]
    chambers.sort(key=lambda ch: ch.rays)
    return ChamberFan(tuple(chambers), tuple(minima.items()))


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
    facet away from it fill the cone. Two extreme rays span a facet iff some
    processed normal is tight on both: its plane cuts out a face holding
    them, and a face holding two extreme rays of a pointed rank-3 cone is a
    2-face, which has exactly two.
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
        if tight[i] & tight[j]
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


def _minimizers(rays, polys, minima) -> tuple[tuple[Fraction, ...], ...]:
    """One minimizing vertex per polyhedron on the simplicial cone of rays:
    the k-th must attain minima[u][k], the fan's minimum over the k-th
    polyhedron, at every ray u."""
    rank = len(rays[0])
    sample = tuple(sum(r[c] for r in rays) for c in range(rank))
    minimizers = []
    for k, p in enumerate(polys):
        # a positive common denominator keeps minima and lexicographic order
        nums = p.cleared[0]
        values = [dot(sample, n) for n in nums]
        best = min(values)
        chosen = min((i for i, x in enumerate(values) if x == best), key=nums.__getitem__)
        for u in rays:
            if dot(u, nums[chosen]) != minima[u][k]:
                raise InternalError("chamber is not a linearity region")
        minimizers.append(p.vertices[chosen])
    return tuple(minimizers)
