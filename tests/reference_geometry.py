"""Cone membership, polyhedra and the contraction test as they were written
before each fact about a cone was computed once, kept as independent oracles.

in_ray_span answers membership by a fresh double description of the
generators. make_polyhedron reads the extreme points of conv(vertices) + tail
off one make_cone of the homogenized polyhedron, for any number of vertices.
ray_meets asks whether a ray meets a polyhedron by membership of the apex in
the cone over the homogenized polyhedron and the negated ray, and
degree_polyhedron is the Minkowski sum of the coefficients of a divisor. The
tests compare cone_contains, make_polyhedron and the ray-degree contraction
test of polydiv against them.
"""

from fractions import Fraction

from polydiv.errors import CurveDomainError, RankMismatchError, ShapeError
from polydiv.geometry import TailedPolyhedron, make_cone, ratvec
from polydiv.linalg import cone_from_inequalities, dot, vec_neg
from polydiv.verdicts import Verdict


def in_ray_span(v, gens, rank: int) -> bool:
    """Is v a nonnegative rational combination of gens?

    The cone of gens is the dual of {x : <g, x> >= 0 for every g}, so v lies
    in it iff v is orthogonal to the lines and nonnegative on the rays of that
    dual's double description.
    """
    lines, rays = cone_from_inequalities(gens, rank)
    return all(dot(l, v) == 0 for l in lines) and all(dot(r, v) >= 0 for r in rays)


def make_polyhedron(vertices, tail) -> TailedPolyhedron:
    """conv(vertices) + tail by one homogenized double description."""
    if not tail.pointed:
        raise ShapeError("a tailed polyhedron needs a pointed tail cone")
    verts = list(dict.fromkeys(ratvec(v) for v in vertices))
    if len(verts) > 1:
        gens = [v + (1,) for v in verts] + [r + (0,) for r in tail.rays]
        cone = make_cone(gens, tail.rank + 1)
        verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in cone.rays if r[-1]]
    verts.sort()
    return TailedPolyhedron(vertices=tuple(verts), tail=tail)


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
    return in_ray_span(apex, gens, poly.rank + 1)


def degree_polyhedron(d) -> TailedPolyhedron:
    """Minkowski sum of all coefficients; encodes the degree of every evaluation."""
    if not d.base.projective:
        raise CurveDomainError("the degree polyhedron needs a projective base curve")
    acc = make_polyhedron([tuple(0 for _ in range(d.rank))], d.tail)
    for _, poly in d.coefficients:
        acc = minkowski_sum(acc, poly)
    return acc


def contraction_iso_codim1(d) -> Verdict:
    """No iff some tail ray meets the degree polyhedron (projective bases)."""
    if not d.base.projective:
        return Verdict.YES
    deg_poly = degree_polyhedron(d)
    if any(ray_meets(deg_poly, ray) for ray in d.tail.rays):
        return Verdict.NO
    return Verdict.YES
