"""The integer chamber kernel of decide_floor_bound against a point-by-point search.

The reference below is the search as it was written before the integer
kernel: for every point of each chamber's bounding box it solves for the
chamber coordinates in Fractions and evaluates the rounded-down divisor.
The kernel scans only the part of each chamber where the degree is small
enough for a violation, but every violator lies there and both scan in
lexicographic order, chamber by chamber, so they must return the very same
witness: the lexicographically first violator of the first chamber that
holds one, not merely agree on whether one exists. The chamber
coordinates the kernel reads off facet normals are also checked against the
sign(det R) adj(R) rows it once took from the ray matrix R. The families are
seeded, so failures reproduce.
"""

from fractions import Fraction
from itertools import product as cartesian_product
from math import ceil, floor, lcm
from pathlib import Path
from random import Random
from time import monotonic

from polydiv.classify import decide_floor_bound, rational_singularities
from polydiv.curves import (
    P1_INFINITY,
    ProjectiveLine,
    degree,
    denominator_lcm,
    p1_point,
)
from polydiv.geometry import chamber_fan, make_cone, make_polyhedron
from polydiv.linalg import dot
from polydiv.pdiv import is_proper, polyhedral_divisor
from polydiv.problem_io import parse_problem
from polydiv.verdicts import Verdict

from reference_curves import floor_divisor
from reference_linalg import adjugate, determinant
from reference_pdiv import evaluate
from test_cone_kernels import solve, tied_polyhedron

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
TAILS = {
    1: (((1,),), ((-1,),)),
    2: (ORTHANT2, ((1, 0), (1, 2)), ((2, 1), (1, 3))),
    3: (ORTHANT3, SQUARE3),
}
# the weight cone of this tail is spanned by -e_1, (-3, 1, -1) and (1, 1, 1):
# -e_1 scans after its translates, and its facet normal f has <f, -e_1> = 1,
# half of |det R|, so the limits along -e_1 tell <f, -e_1> from |det R|
NEGATIVE_AXIS3 = ((0, 1, 1), (0, 1, -1), (-1, -1, 2))

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
    fan = chamber_fan([poly for _, poly in d.coefficients], d.tail)
    ray_degree = {u: degree(evaluate(d, u)) for u, _ in fan.minima}
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
    fan = chamber_fan([poly for _, poly in d.coefficients], d.tail)
    ray_degree = {u: degree(evaluate(d, u)) for u, _ in fan.minima}
    bound = Fraction(len(d.coefficients))
    total = 0
    for chamber in fan.chambers:
        lo, hi = _box(d.rank, chamber.rays, _caps(d, chamber.rays, ray_degree, bound))
        size = 1
        for a, b in zip(lo, hi):
            size *= b - a + 1
        total += size
    return total, min(ray_degree.values())


def random_divisor(rng, rank, degree_zero_ray, zero_ray_tail=None):
    """A random divisor over P1. The first coefficient leans along the sum of
    the tail rays, which pairs positively with the whole weight cone, so many
    samples are proper; degree_zero_ray makes the first coordinate of two
    coefficients cancel, so the weights e_1 and -e_1 have degree zero, over
    the orthant tail or zero_ray_tail."""
    tail_rays = rng.choice(TAILS[rank])
    if degree_zero_ray:
        tail_rays = zero_ray_tail or (ORTHANT2 if rank == 2 else ORTHANT3)
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


def kernel_family(rng, rank, count, degree_zero_ray, zero_ray_tail=None):
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 20_000, "rejection sampling is stuck"
        d = random_divisor(rng, rank, degree_zero_ray, zero_ray_tail)
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
    instances += kernel_family(rng, 3, 6, degree_zero_ray=True, zero_ray_tail=NEGATIVE_AXIS3)
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


# tails whose weight cone has the ray e_1 or -e_1, each with a direction w
# that is zero on it and positive on the other rays of the weight cone;
# translates by the period along -e_1 come first in lexicographic order, so
# there the witness depends on the period cap
ZERO_RAY_TAILS = {
    2: ((ORTHANT2, (0, 1)), (((0, 1), (1, 2)), (0, 1)), (((0, 1), (-1, 2)), (0, 1))),
    3: ((ORTHANT3, (0, 1, 1)), (NEGATIVE_AXIS3, (0, 2, 1))),
}


def slack_divisor(rng, rank, degree_zero_ray):
    """Two to three coefficients of denominators 5 to 11 and one that nearly
    cancels them: their sum is eps w for a small eps and a direction w that
    is positive on the weight cone (the sum of the tail rays), or with
    degree_zero_ray zero on one of its rays, which then has a period cap.
    Rounding down loses close to one unit per point, so the slack
    c - 1 + sum((q_z - 1) / q_z) is mostly positive for c >= -1 and the
    search seldom stops at the slack test."""
    if degree_zero_ray:
        tail_rays, w = rng.choice(ZERO_RAY_TAILS[rank])
    else:
        tail_rays = rng.choice(TAILS[rank])
        w = [sum(r[i] for r in tail_rays) for i in range(rank)]
    tail = make_cone(tail_rays, rank)
    eps = Fraction(1, rng.randint(4, 12))
    pts = rng.sample(POINT_POOL, rng.randint(3, 4))
    total = [Fraction(0)] * rank
    coeffs = {}
    for pt in pts[:-1]:
        q = rng.randint(5, 11)
        v = tuple(Fraction(-rng.randint(1, q - 1), q) for _ in range(rank))
        total = [a + b for a, b in zip(total, v)]
        coeffs[pt] = make_polyhedron([v], tail)
    last = tuple(eps * x - t for x, t in zip(w, total))
    coeffs[pts[-1]] = make_polyhedron([last], tail)
    return polyhedral_divisor(P1, rank, tail_rays, coeffs)


def chamber_slack(chamber, c):
    """c - 1 + sum((q_z - 1) / q_z) over the minimizers n_z / q_z."""
    qs = [lcm(*(x.denominator for x in v)) for v in chamber.minimizers]
    return c - 1 + sum(Fraction(q - 1, q) for q in qs)


def test_floor_kernel_matches_point_search_with_positive_slack():
    start = monotonic()
    rng = Random(20261019)
    kinds = [(1, False)] * 12 + [(2, False)] * 12 + [(2, True)] * 8
    kinds += [(3, False)] * 6 + [(3, True)] * 4
    seen = {"rank-1": 0, "degree-zero-ray": 0, "slack<0": 0, "slack>=0": 0}
    witnesses = {c: 0 for c in BOUNDS}
    total = 0
    for rank, degree_zero_ray in kinds:
        for _ in range(20_000):
            d = slack_divisor(rng, rank, degree_zero_ray)
            if is_proper(d).verdict != Verdict.YES:
                continue
            points, lowest = _box_points(d)
            if points <= BOX_POINT_CAP and (lowest == 0) == degree_zero_ray:
                break
        else:
            raise AssertionError("rejection sampling is stuck")
        total += 1
        seen["rank-1"] += rank == 1
        seen["degree-zero-ray"] += degree_zero_ray
        for c in BOUNDS:
            for chamber in d.fan.chambers:
                seen["slack<0" if chamber_slack(chamber, c) < 0 else "slack>=0"] += 1
            expected = reference_floor_bound(d, c)
            assert decide_floor_bound(d, c) == expected, (d, c)
            witnesses[c] += expected is not None
    elapsed = monotonic() - start
    assert all(n >= 4 for n in seen.values()), seen
    assert all(0 < witnesses[c] < total for c in (-2, -1)), witnesses
    assert elapsed < 120.0
    print(
        f"positive-slack family vs point search: PASS ({total} divisors, {seen}, "
        f"witnesses per bound {witnesses}, {elapsed:.2f} s)"
    )


SCALING = Path(__file__).parent / "golden" / "scaling"


def test_scaling_documents_answer_yes():
    """Three points over an orthant tail with degrees along the axes near
    1/1000 (rank 2) and 1/125 (rank 3): the slack is positive, and the box
    of the point search holds about 3.2 and 8.4 million points."""
    start = monotonic()
    for name in ("orthant_r2_eps1000.json", "orthant_r3_eps125.json"):
        d = parse_problem((SCALING / name).read_text(encoding="utf-8"))
        assert rational_singularities(d).verdict == Verdict.YES, name
    assert monotonic() - start < 10.0


def test_facet_normals_are_scaled_adjugate_rows():
    """Row i of sign(det R) adj(R), for the rays u_i as the columns of R, is
    (|det R| / <f_i, u_i>) f_i for the facet normal f_i the chamber carries
    opposite u_i."""
    rng = Random(20261017)
    seen = {1: 0, 2: 0, 3: 0, "det>1": 0, "scaled": 0}
    for rank in (1, 2, 3):
        for tail_rays in ([], [tuple(int(i == j) for j in range(rank)) for i in range(rank)]):
            tail = make_cone(tail_rays, rank)
            # a rank-3 fan over tied vertices has hundreds of chambers
            for _ in range(8 if rank < 3 else 1):
                polys = [tied_polyhedron(rng, rank, tail) for _ in range(rng.randint(1, 2))]
                for chamber in chamber_fan(polys, tail).chambers:
                    rays = chamber.rays
                    rows = [[u[i] for u in rays] for i in range(rank)]
                    det = int(determinant(rows))
                    sign = 1 if det > 0 else -1
                    for u, f, adj_row in zip(rays, chamber.facets, adjugate(rows)):
                        assert dot(f, u) > 0
                        scale = Fraction(abs(det), dot(f, u))
                        assert [sign * a for a in adj_row] == [scale * x for x in f], (rays, u)
                        seen["scaled"] += scale != 1
                    seen[rank] += 1
                    seen["det>1"] += abs(det) > 1
    assert all(n >= 10 for n in seen.values()), seen
