"""Acceptance suite: one test per criterion, each printing its own PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Every check here is exact; the random
families are seeded, so failures reproduce.
"""

from fractions import Fraction
from itertools import product as cartesian_product
from math import ceil, lcm
from random import Random
from time import monotonic

from polydiv.classify import (
    decide_floor_bound,
    elliptic_singularity,
    gorenstein,
    h1_report,
    rational_singularities,
)
from polydiv.curves import (
    EC_ORIGIN,
    P1_INFINITY,
    EllipticCurveQ,
    EllipticPoint,
    ProjectiveLine,
    degree,
    divisor,
    ec_add,
    is_principal,
    is_torsion_class,
    p1_point,
)
from polydiv.geometry import chamber_fan, make_cone, make_polyhedron
from polydiv.pdiv import AffineSpace, is_proper, polyhedral_divisor
from polydiv.sections import ring_presentation
from polydiv.toric import toric_cone
from polydiv.verdicts import Verdict

from reference_curves import h0_dim, h1_dim
from reference_pdiv import evaluate
from reference_toric import monomial_admissible, weight_in_dual

P1 = ProjectiveLine()
RAY = ((1,),)
TAIL1 = make_cone(RAY, 1)

POINT_POOL = (
    P1_INFINITY,
    p1_point(0),
    p1_point(1),
    p1_point(-1),
    p1_point(2),
    p1_point(-2),
    p1_point(3),
    p1_point(1, 2),
    p1_point(-1, 2),
    p1_point(5),
)

TAIL2_CHOICES = (
    ((1, 0), (0, 1)),
    ((1, 0), (1, 2)),
    ((2, 1), (1, 3)),
    ((1, 0), (3, 4)),
)


def halfline(vertex):
    return make_polyhedron([(Fraction(vertex),)], TAIL1)


def rank1(coeffs):
    return polyhedral_divisor(P1, 1, RAY, {pt: halfline(v) for pt, v in coeffs.items()})


GOLDEN = {
    "one": {
        p1_point(0): Fraction(-1, 4),
        p1_point(1): Fraction(-1, 4),
        P1_INFINITY: Fraction(3, 4),
    },
    "two": {
        p1_point(0): Fraction(-1, 3),
        p1_point(1): Fraction(-1, 3),
        P1_INFINITY: Fraction(3, 4),
    },
    "three": {
        p1_point(0): Fraction(-2, 3),
        p1_point(1): Fraction(-2, 3),
        P1_INFINITY: Fraction(17, 12),
    },
}


def golden(name):
    return rank1(GOLDEN[name])


def random_rank1_family(rng, count, range_cap):
    """Proper rank-one divisors on the line: denominators <= 8, <= 5 points.

    Instances whose certified scan range 10 * lcm(q_i) * ceil(l / deg) exceeds
    range_cap are redrawn so the downstream full scans stay within budget.
    Returns (divisor, slope pairs, scan range) triples.
    """
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 200_000, "rejection sampling is stuck"
        npts = rng.randint(1, 5)
        pts = rng.sample(POINT_POOL, npts)
        slopes = [Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in pts]
        total = sum(slopes)
        if total <= 0:
            continue
        period = lcm(*[s.denominator for s in slopes])
        scan = 10 * period * ceil(Fraction(npts) / total)
        if scan > range_cap:
            continue
        d = rank1(dict(zip(pts, slopes)))
        out.append((d, [(s.numerator, s.denominator) for s in slopes], scan))
    return out


def brute_min_floor(slopes, top):
    """min over m = 0..top of sum_i floor(m p_i / q_i), in plain integers."""
    totals = [0] * (top + 1)
    for p, q in slopes:
        totals = [t + (m * p) // q for m, t in enumerate(totals)]
    return min(totals)


def test_criterion_01_golden_classifications():
    expected = {
        "one": {"witness_m": 1, "gorenstein": Verdict.YES, "index": 1},
        "two": {"witness_m": 1, "gorenstein": Verdict.YES, "index": 1},
        "three": {"witness_m": 2, "gorenstein": Verdict.NO, "index": 3},
    }
    times = []
    for name, want in expected.items():
        start = monotonic()
        d = golden(name)
        assert is_proper(d).verdict == Verdict.YES
        rat = rational_singularities(d)
        assert rat.verdict == Verdict.NO
        ell = elliptic_singularity(d)
        assert ell.verdict == Verdict.YES
        assert ell.criterion == "unique-floor-degree-minus-two"
        assert ell.witness_m == want["witness_m"]
        gor = gorenstein(d)
        assert gor.verdict == want["gorenstein"]
        assert gor.canonical_index == want["index"]
        times.append(monotonic() - start)
        assert times[-1] < 1.0
    assert rational_singularities(golden("one")).witness == (1,)
    joined = " + ".join(f"{t:.2f}" for t in times)
    print(f"criterion 01 golden classifications: PASS ({joined} s)")


def test_criterion_02_rank_one_decision_vs_brute_force():
    start = monotonic()
    rng = Random(20260815)
    family = random_rank1_family(rng, 120, 30_000)
    family.extend(random_threepoint_family(rng, 30, 30_000))
    witnesses = 0
    for d, slopes, scan in family:
        witness = decide_floor_bound(d, -1)
        brute_ok = brute_min_floor(slopes, scan) >= -1
        assert (witness is None) == brute_ok
        if witness is not None:
            witnesses += 1
            m = witness[0]
            assert m >= 0
            assert sum((m * p) // q for p, q in slopes) < -1
    elapsed = monotonic() - start
    assert len(family) >= 100
    assert witnesses >= 30  # both decision branches are exercised
    assert elapsed < 10.0
    print(
        f"criterion 02 rank-one decision vs brute force: "
        f"PASS ({len(family)} instances, {witnesses} with violations, {elapsed:.2f} s)"
    )


def _vertex_data(poly):
    """Vertices as (integer numerator vector, common denominator) pairs."""
    data = []
    for v in poly.vertices:
        den = lcm(*[c.denominator for c in v])
        data.append((tuple(int(c * den) for c in v), den))
    return data


def _floor_eval(data, m):
    best_num = best_den = None
    for nums, den in data:
        a = sum(x * y for x, y in zip(nums, m))
        if best_num is None or a * best_den < best_num * den:
            best_num, best_den = a, den
    return best_num // best_den


def _box_violation(d, box):
    """First lattice weight in the box with floor degree below -1, else None."""
    data = [_vertex_data(poly) for _, poly in d.coefficients]
    tail_rays = d.tail.rays
    for m in cartesian_product(range(-box, box + 1), repeat=2):
        if any(sum(a * b for a, b in zip(m, r)) < 0 for r in tail_rays):
            continue
        if sum(_floor_eval(vd, m) for vd in data) < -1:
            return m
    return None


def _boxed_enough(d, box):
    """Is the box provably large enough to contain every violation weight?

    A violating weight sum(t_i r_i) has exact degree sum(t_i deg_i) below
    len(coefficients) - 1, which caps every t_i and hence the norm, as long
    as all chamber rays carry positive degree.
    """
    if is_proper(d).verdict != Verdict.YES:
        return False
    fan = chamber_fan([poly for _, poly in d.coefficients], d.tail)
    rays = [u for u, _ in fan.minima]
    degs = [degree(evaluate(d, u)) for u in rays]
    if any(g <= 0 for g in degs):
        return False
    bound = Fraction(len(d.coefficients) - 1)
    reach = sum((bound / g) * max(abs(c) for c in u) for u, g in zip(rays, degs))
    return reach <= box


def random_rank2_boxed(rng, count, box):
    """Proper rank-two divisors whose every possible violation weight for the
    bound c = -1 provably has infinity-norm below the box radius."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 50_000, "rejection sampling is stuck"
        tail_rays = rng.choice(TAIL2_CHOICES)
        tail = make_cone(tail_rays, 2)
        pts = rng.sample(POINT_POOL, rng.randint(2, 3))
        coeffs = {}
        for pt in pts:
            verts = [
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2))
                for _ in range(rng.randint(1, 2))
            ]
            coeffs[pt] = make_polyhedron(verts, tail)
        d = polyhedral_divisor(P1, 2, tail_rays, coeffs)
        if _boxed_enough(d, box):
            out.append(d)
    return out


INFLATE_DIRECTIONS = ((1, 1), (1, 2), (2, 1), (1, 3))


def random_rank2_violating(rng, count, box):
    """Proper rank-two instances that do violate the bound c = -1 in the box.

    Three-point slope data (the only shape that can dip to -2) is placed
    along primitive directions; candidates are kept when the box scan itself
    finds a violation, so the selection never consults the code under test.
    """
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 50_000, "rejection sampling is stuck"
        tail_rays = rng.choice(TAIL2_CHOICES)
        tail = make_cone(tail_rays, 2)
        pts = rng.sample(POINT_POOL, 3)
        q1, q2, s = (rng.randint(2, 4) for _ in range(3))
        slopes = [
            Fraction(-rng.randint(1, q1 - 1), q1),
            Fraction(-rng.randint(1, q2 - 1), q2),
            Fraction(rng.randint(1, s - 1), s),
        ]
        if sum(slopes) <= 0:
            continue
        shared = rng.choice(INFLATE_DIRECTIONS)
        coeffs = {}
        for pt, slope in zip(pts, slopes):
            w = shared if rng.random() < 0.5 else rng.choice(INFLATE_DIRECTIONS)
            coeffs[pt] = make_polyhedron([tuple(slope * x for x in w)], tail)
        d = polyhedral_divisor(P1, 2, tail_rays, coeffs)
        if _boxed_enough(d, box) and _box_violation(d, box) is not None:
            out.append(d)
    return out


def test_criterion_03_rank_two_decision_vs_box_search():
    start = monotonic()
    rng = Random(47)
    box = 50
    instances = random_rank2_boxed(rng, 20, box)
    instances.extend(random_rank2_violating(rng, 8, box))
    witnesses = 0
    for d in instances:
        tail_rays = d.tail.rays
        data = [_vertex_data(poly) for _, poly in d.coefficients]
        witness = decide_floor_bound(d, -1)
        found = _box_violation(d, box)
        assert (witness is None) == (found is None)
        if witness is not None:
            witnesses += 1
            assert all(sum(a * b for a, b in zip(witness, r)) >= 0 for r in tail_rays)
            assert sum(_floor_eval(vd, witness) for vd in data) < -1
    elapsed = monotonic() - start
    assert len(instances) >= 20
    assert witnesses >= 8  # both decision branches are exercised
    assert elapsed < 60.0
    print(
        f"criterion 03 rank-two decision vs box search: "
        f"PASS ({len(instances)} instances, {witnesses} with violations, {elapsed:.2f} s)"
    )


def test_criterion_04_golden_h1_totals():
    for name in ("one", "two", "three"):
        report = h1_report(golden(name))
        assert report.total == 1, name
    print("criterion 04 golden h1 totals equal one: PASS")


def random_affine_instances(rng, count):
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        k = rng.randint(1, 2)
        tail_rays = ((1,),) if k == 1 else rng.choice(TAIL2_CHOICES)
        tail = make_cone(tail_rays, k)
        coeffs = {}
        for i in range(1, n + 1):
            if rng.random() < 0.75:
                verts = [
                    tuple(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(k)
                    )
                    for _ in range(rng.randint(1, 2))
                ]
                coeffs[i] = make_polyhedron(verts, tail)
        out.append(polyhedral_divisor(AffineSpace(n), k, tail_rays, coeffs))
    return out


def test_criterion_05_toric_membership_fuzz():
    start = monotonic()
    rng = Random(505)
    instances = random_affine_instances(rng, 50)
    for d in instances:
        cone = toric_cone(d)
        n = d.base.dim
        for _ in range(1000):
            m = tuple(rng.randint(-6, 6) for _ in range(d.rank))
            r = tuple(rng.randint(-6, 6) for _ in range(n))
            assert monomial_admissible(d, m, r) == weight_in_dual(cone, m + r)
    elapsed = monotonic() - start
    assert elapsed < 10.0
    print(
        f"criterion 05 toric membership fuzz: "
        f"PASS ({len(instances)} x 1000 samples, {elapsed:.2f} s)"
    )


def test_criterion_06_quasi_periodicity():
    rng = Random(606)
    family = [d for d, _, _ in random_rank1_family(rng, 30, 30_000)]
    family.extend(golden(name) for name in ("one", "two", "three"))
    for d in family:
        slopes = d.slopes
        q = lcm(*[s.q for s in slopes])
        step = sum((Fraction(s.p, s.q) for s in slopes), Fraction(0)) * q
        assert step.denominator == 1
        profile = tuple(d.floor_degrees(11 * q))
        for m in range(10 * q + 1):
            assert profile[m + q] == profile[m] + int(step)
    print(f"criterion 06 quasi-periodicity of floor degrees: PASS ({len(family)} instances)")


def test_criterion_07_section_ring_audit():
    start = monotonic()
    d = golden("one")
    presentation = ring_presentation(d, 12)
    assert presentation.dimensions == (1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 4)
    degrees = sorted(g.degree for g in presentation.generators)
    assert degrees == [3, 4, 4]
    nontrivial = [b for b in presentation.blocks if b.kernel_dim > 0]
    assert nontrivial and nontrivial[0].degree == 12
    assert nontrivial[0].kernel_dim == 1
    elapsed = monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 07 section-ring audit of golden one: PASS ({elapsed:.2f} s)")


EC = EllipticCurveQ(Fraction(-1), Fraction(0))
EC_TWO_TORSION = (
    EllipticPoint(Fraction(0), Fraction(0)),
    EllipticPoint(Fraction(1), Fraction(0)),
    EllipticPoint(Fraction(-1), Fraction(0)),
)


def test_criterion_08_riemann_roch_consistency():
    rng = Random(808)
    for _ in range(1000):
        pts = rng.sample(POINT_POOL, rng.randint(1, 4))
        dv = divisor(P1, {pt: rng.randint(-4, 4) for pt in pts})
        assert h0_dim(dv) - h1_dim(dv) == int(degree(dv)) + 1
    ec_pool = (EC_ORIGIN,) + EC_TWO_TORSION
    for _ in range(1000):
        pts = rng.sample(ec_pool, rng.randint(1, 4))
        dv = divisor(EC, {pt: rng.randint(-4, 4) for pt in pts})
        assert h0_dim(dv) - h1_dim(dv) == int(degree(dv))
    print("criterion 08 Riemann-Roch consistency: PASS (2 x 1000 divisors)")


def test_criterion_09_two_torsion_subgroup():
    assert is_torsion_class(divisor(EC, {})) == (Verdict.YES, 1)
    for pt in EC_TWO_TORSION:
        cls = divisor(EC, {pt: 1, EC_ORIGIN: -1})
        assert is_torsion_class(cls) == (Verdict.YES, 2)
    # the four points are closed under the group law (Klein four-group)
    points = (EC_ORIGIN,) + EC_TWO_TORSION
    for a in points:
        for b in points:
            assert ec_add(EC, a, b) in points
    s = ec_add(EC, EC_TWO_TORSION[0], EC_TWO_TORSION[1])
    assert s == EC_TWO_TORSION[2]
    two_plus_two = divisor(
        EC,
        {
            EC_TWO_TORSION[0]: 1,
            EC_TWO_TORSION[1]: 1,
            EC_TWO_TORSION[2]: -1,
            EC_ORIGIN: -1,
        },
    )
    assert is_principal(two_plus_two) == Verdict.YES
    print("criterion 09 torsion subgroup of y^2 = x^3 - x: PASS (orders 1, 2, 2, 2)")


def random_threepoint_family(rng, count, range_cap):
    """Three marked points with fractional negative parts, capped like
    random_rank1_family.

    Floor degrees only reach -2 when at least three points lose a fractional
    part at once, so this is the shape where elliptic verdicts occur at all;
    every instance also violates the rationality bound c = -1 at weight one.
    """
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 200_000, "rejection sampling is stuck"
        q1, q2, s = (rng.randint(2, 6) for _ in range(3))
        slopes = [
            Fraction(-rng.randint(1, q1 - 1), q1),
            Fraction(-rng.randint(1, q2 - 1), q2),
            Fraction(rng.randint(1, s - 1), s),
        ]
        total = sum(slopes)
        if total <= 0:
            continue
        period = lcm(q1, q2, s)
        scan = 10 * period * ceil(Fraction(3) / total)
        if scan > range_cap:
            continue
        coeffs = dict(zip((p1_point(0), p1_point(1), P1_INFINITY), slopes))
        d = rank1(coeffs)
        out.append((d, [(s_.numerator, s_.denominator) for s_ in slopes], scan))
    return out


def test_criterion_10_classifier_cross_invariants():
    start = monotonic()
    rng = Random(1010)
    family = [d for d, _, _ in random_rank1_family(rng, 170, 10_000)]
    family.extend(d for d, _, _ in random_threepoint_family(rng, 60, 10_000))
    elliptic_seen = rational_seen = gorenstein_seen = 0
    for d in family:
        ell = elliptic_singularity(d)
        rat = rational_singularities(d)
        gor = gorenstein(d)
        h1 = h1_report(d)
        assert h1.total is not None
        if ell.verdict == Verdict.YES:
            elliptic_seen += 1
            assert rat.verdict == Verdict.NO
            assert h1.total == 1
        assert (rat.verdict == Verdict.YES) == (h1.total == 0)
        rational_seen += rat.verdict == Verdict.YES
        if gor.verdict == Verdict.YES:
            gorenstein_seen += 1
            assert gor.canonical_difference is not None
            assert degree(gor.canonical_difference) == 0
    elapsed = monotonic() - start
    assert len(family) >= 200
    # the family must exercise all three properties, not vacuously pass
    assert elliptic_seen and rational_seen and gorenstein_seen
    print(
        f"criterion 10 classifier cross-invariants: PASS "
        f"({len(family)} instances, {elliptic_seen} elliptic, "
        f"{rational_seen} rational, {gorenstein_seen} Gorenstein, {elapsed:.2f} s)"
    )
