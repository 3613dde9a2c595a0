"""The integer chamber kernel of decide_floor_bound against a point-by-point search.

The reference below is the search as it was written before the integer
kernel: for every point of each chamber's bounding box it solves for the
chamber coordinates in Fractions and evaluates the rounded-down divisor.
Both scan the same boxes in the same order, so they must return the very
same witness, not merely agree on whether one exists. The families are
seeded, so failures reproduce.
"""

from fractions import Fraction
from itertools import product as cartesian_product
from math import ceil, floor
from random import Random
from time import monotonic

from polydiv.classify import decide_floor_bound
from polydiv.curves import (
    P1_INFINITY,
    ProjectiveLine,
    degree,
    denominator_lcm,
    floor_divisor,
    p1_point,
)
from polydiv.geometry import chamber_fan, make_cone, make_polyhedron
from polydiv.pdiv import evaluate, is_proper, polyhedral_divisor
from polydiv.verdicts import Verdict

from test_cone_kernels import solve

P1 = ProjectiveLine()

POINT_POOL = (
    P1_INFINITY,
    p1_point(0),
    p1_point(1),
    p1_point(-1),
    p1_point(2),
    p1_point(1, 2),
)

ORTHANT2 = ((1, 0), (0, 1))
ORTHANT3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# a cone over a square: its dual, the weight cone, has four rays in rank three
SQUARE3 = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
TAILS = {2: (ORTHANT2, ((1, 0), (1, 2)), ((2, 1), (1, 3))), 3: (ORTHANT3, SQUARE3)}

BOUNDS = (-1, -2, 0)
BOX_POINT_CAP = 2_500


def _caps(d, rays, ray_degree, bound):
    caps = []
    for u in rays:
        g = ray_degree[u]
        caps.append(bound / g if g > 0 else Fraction(denominator_lcm(evaluate(d, u))))
    return caps


def _box(rank, rays, caps):
    lo = [floor(sum(min(0, c * u[i]) for c, u in zip(caps, rays))) for i in range(rank)]
    hi = [ceil(sum(max(0, c * u[i]) for c, u in zip(caps, rays))) for i in range(rank)]
    return lo, hi


def reference_floor_bound(d, c):
    """The point-by-point search: solve, evaluate and floor_divisor per box point."""
    count = len(d.coefficients)
    if count == 0:
        return None if c <= 0 else tuple(0 for _ in range(d.rank))
    fan = chamber_fan([poly for _, poly in d.coefficients], d.weight_cone)
    ray_degree = {u: degree(evaluate(d, u)) for u in fan.all_rays()}
    assert all(g >= 0 for g in ray_degree.values())
    bound = Fraction(count + c)
    if bound <= 0:
        return None
    for chamber in fan.chambers:
        rays = chamber.rays
        caps = _caps(d, rays, ray_degree, bound)
        lo, hi = _box(d.rank, rays, caps)
        rows = [[u[i] for u in rays] for i in range(d.rank)]
        for m in cartesian_product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            lam = solve(rows, m)
            if lam is None or any(x < 0 or x > cap for x, cap in zip(lam, caps)):
                continue
            if degree(floor_divisor(evaluate(d, m))) < c:
                return tuple(m)
    return None


def _box_points(d):
    """Box points the reference scans at the widest bound, c = 0, and the
    lowest degree of a fan ray."""
    fan = chamber_fan([poly for _, poly in d.coefficients], d.weight_cone)
    ray_degree = {u: degree(evaluate(d, u)) for u in fan.all_rays()}
    bound = Fraction(len(d.coefficients))
    total = 0
    for chamber in fan.chambers:
        lo, hi = _box(d.rank, chamber.rays, _caps(d, chamber.rays, ray_degree, bound))
        size = 1
        for a, b in zip(lo, hi):
            size *= b - a + 1
        total += size
    return total, min(ray_degree.values())


def random_divisor(rng, rank, degree_zero_ray):
    """A random divisor over P1. The first coefficient leans along the sum of
    the tail rays, which pairs positively with the whole weight cone, so many
    samples are proper; degree_zero_ray makes the first coordinate of two
    coefficients cancel, so the weight e_1 has degree zero."""
    tail_rays = rng.choice(TAILS[rank])
    if degree_zero_ray:
        tail_rays = ORTHANT2 if rank == 2 else ORTHANT3
    tail = make_cone(tail_rays, rank)
    lean = [sum(r[i] for r in tail_rays) for i in range(rank)]
    pts = rng.sample(POINT_POOL, rng.randint(2, 4))
    shift = Fraction(rng.randint(1, 3), rng.randint(2, 5))
    coeffs = {}
    for i, pt in enumerate(pts):
        scale = Fraction(rng.randint(1, 3), rng.randint(2, 4)) if i == 0 else 0
        verts = []
        for _ in range(rng.randint(1, 3 if rank == 2 else 2)):
            v = [
                scale * x + Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for x in lean
            ]
            if degree_zero_ray:
                v[0] = shift if i == 0 else -shift if i == 1 else Fraction(0)
            verts.append(tuple(v))
        coeffs[pt] = make_polyhedron(verts, tail)
    return polyhedral_divisor(P1, rank, tail_rays, coeffs)


def kernel_family(rng, rank, count, degree_zero_ray):
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 20_000, "rejection sampling is stuck"
        d = random_divisor(rng, rank, degree_zero_ray)
        if len(d.coefficients) < 2 or is_proper(d).verdict != Verdict.YES:
            continue
        points, lowest = _box_points(d)
        if points > BOX_POINT_CAP or (degree_zero_ray and lowest != 0):
            continue
        out.append(d)
    return out


def deep_family(rng, rank, count):
    """Six coefficients along one positive direction w, five of slope -1/q and
    one of slope just under 3: the rounded-down degree at a weight pairing to 1
    with w is -3, below every bound tested."""
    tail = make_cone(ORTHANT2 if rank == 2 else ORTHANT3, rank)
    out = []
    while len(out) < count:
        w = [rng.randint(1, 2) for _ in range(rank)]
        w[rng.randrange(rank)] = 1
        slopes = [Fraction(-1, rng.randint(3, 6)) for _ in range(5)]
        slopes.append(3 - Fraction(1, rng.randint(4, 8)))
        coeffs = {
            pt: make_polyhedron([tuple(slope * x for x in w)], tail)
            for pt, slope in zip(POINT_POOL, slopes)
        }
        d = polyhedral_divisor(P1, rank, tail.rays, coeffs)
        if _box_points(d)[0] <= BOX_POINT_CAP:
            out.append(d)
    return out


def test_floor_kernel_matches_point_search():
    start = monotonic()
    rng = Random(20261018)
    instances = []
    instances += kernel_family(rng, 2, 30, degree_zero_ray=False)
    instances += kernel_family(rng, 2, 10, degree_zero_ray=True)
    instances += kernel_family(rng, 3, 10, degree_zero_ray=False)
    instances += kernel_family(rng, 3, 6, degree_zero_ray=True)
    instances += deep_family(rng, 2, 3) + deep_family(rng, 3, 3)
    seen = {"rank-3": 0, "non-simplicial-weight-cone": 0, "degree-zero-ray": 0}
    witnesses = {c: 0 for c in BOUNDS}
    for d in instances:
        seen["rank-3"] += d.rank == 3
        seen["non-simplicial-weight-cone"] += len(d.weight_cone.rays) > d.rank
        seen["degree-zero-ray"] += _box_points(d)[1] == 0
        for c in BOUNDS:
            expected = reference_floor_bound(d, c)
            assert decide_floor_bound(d, c) == expected, (d, c)
            witnesses[c] += expected is not None
    elapsed = monotonic() - start
    assert all(n >= 4 for n in seen.values()), seen
    # every bound is both met and violated somewhere in the family
    assert all(0 < witnesses[c] < len(instances) for c in BOUNDS), witnesses
    assert elapsed < 120.0
    print(
        f"floor kernel vs point search: PASS ({len(instances)} divisors, {seen}, "
        f"witnesses per bound {witnesses}, {elapsed:.2f} s)"
    )
