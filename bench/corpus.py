"""Seeded document corpora for the four benchmark workloads.

generate(workload, seed) returns a list of documents. Each document is a
dict with an id, the CLI arguments (without the input path), the problem
document text that polydiv reads, and an "oracle" spec: the parameters the
generator drew, from which oracles.py recomputes the answer. The same seed
gives the same corpus.

Every workload is stratified: its slots (command, family, size stratum) are
fixed, and the seed only picks the instance inside each slot. So two seeds
give corpora with nearly the same cost profile, and run-to-run spread comes
from the machine, not from the draw.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import ceil, exp, gcd, log, lcm
from random import Random

from oracles import monomial_count, orthant_rational, ring_generator_degrees

WORKLOADS = ("small-docs", "rank1-scan", "higher-rank-search", "ring-toric")

P1_POINTS = ("0", "1", "-1", "inf", "2", "-2", "3", "1/2", "-1/2", "5")
INTEGER_P1_POINTS = ("0", "1", "-1", "inf", "2", "-2", "3")
EC_POINTS = ("O", "(0,0)", "(1,0)", "(-1,0)")


def _fs(x: Fraction) -> str:
    return str(Fraction(x))


def _doc(doc_id: str, argv, body: dict, oracle: dict) -> dict:
    return {
        "id": doc_id,
        "argv": list(argv),
        "text": json.dumps(body, separators=(",", ":")),
        "oracle": oracle,
    }


def _rank1_body(points, slopes, base=None) -> dict:
    return {
        "lattice_rank": 1,
        "tail_cone": {"rays": [[1]]},
        "base": base or {"kind": "P1"},
        "coefficients": [
            {"point": pt, "vertices": [[_fs(Fraction(p, q))]]}
            for pt, (p, q) in zip(points, slopes)
        ],
    }


def _ec_point_json(label: str):
    if label == "O":
        return "O"
    x, y = label.strip("()").split(",")
    return {"x": x, "y": y}


def _lowest(slopes) -> list[tuple[int, int]]:
    return [(f.numerator, f.denominator) for f in (Fraction(p, q) for p, q in slopes)]


def p1_rank1(doc_id, argv, points, slopes) -> dict:
    slopes = _lowest(slopes)
    return _doc(
        doc_id, argv, _rank1_body(points, slopes),
        {"kind": "p1_rank1", "points": list(points), "slopes": slopes},
    )


def ec_rank1(doc_id, argv, points, slopes) -> dict:
    slopes = _lowest(slopes)
    body = _rank1_body([_ec_point_json(pt) for pt in points], slopes,
                       base={"kind": "elliptic", "a": "-1", "b": "0"})
    return _doc(doc_id, argv, body, {"kind": "ec_rank1", "points": list(points), "slopes": slopes})


def orthant_doc(doc_id, argv, rank, points, vertex_sets) -> dict:
    """Rank-k divisor over P1 with the positive orthant as tail cone."""
    body = {
        "lattice_rank": rank,
        "tail_cone": {"rays": [[int(i == j) for j in range(rank)] for i in range(rank)]},
        "base": {"kind": "P1"},
        "coefficients": [
            {"point": pt, "vertices": [[_fs(x) for x in v] for v in verts]}
            for pt, verts in zip(points, vertex_sets)
        ],
    }
    spec_vertices = []
    for verts in vertex_sets:
        cleared = []
        for v in verts:
            den = lcm(*[Fraction(x).denominator for x in v])
            cleared.append((tuple(int(Fraction(x) * den) for x in v), den))
        spec_vertices.append(cleared)
    return _doc(doc_id, argv, body, {"kind": "orthant", "rank": rank, "vertices": spec_vertices})


def affine_doc(doc_id, argv, rank, dim, tail, coefficients) -> dict:
    """Divisor over affine space; coefficients maps hyperplane -> vertices."""
    body = {
        "lattice_rank": rank,
        "tail_cone": {"rays": [list(r) for r in tail]},
        "base": {"kind": "affine_space", "dim": dim},
        "coefficients": [
            {"point": {"hyperplane": i}, "vertices": [[_fs(x) for x in v] for v in verts]}
            for i, verts in sorted(coefficients.items())
        ],
    }
    spec = {
        "kind": "affine",
        "rank": rank,
        "dim": dim,
        "tail": [list(r) for r in tail],
        "coefficients": {str(i): [[_fs(x) for x in v] for v in verts]
                         for i, verts in coefficients.items()},
    }
    return _doc(doc_id, argv, body, spec)


def error_doc(doc_id, argv, text: str, exit_code: int, error: str, verdict=None) -> dict:
    spec = {"kind": "error", "exit": exit_code, "error": error}
    if verdict is not None:
        spec["verdict"] = verdict
    return {"id": doc_id, "argv": list(argv), "text": text, "oracle": spec}


# ---------------------------------------------------------------------------
# fixtures: the tests/data documents and the three golden triples

GOLDEN = {
    "golden_one": (("0", "1", "inf"), ((-1, 4), (-1, 4), (3, 4))),
    "golden_two": (("0", "1", "inf"), ((-1, 3), (-1, 3), (3, 4))),
    "golden_three": (("0", "1", "inf"), ((-2, 3), (-2, 3), (17, 12))),
}

AFFINE_PLANE = {  # tests/data/affine_plane.json
    "rank": 1, "dim": 2, "tail": [[1]],
    "coefficients": {1: [[Fraction(-1, 2)]], 2: [[Fraction(2, 3)]]},
}

ELLIPTIC_PAIR = json.dumps({  # tests/data/elliptic_pair.json
    "lattice_rank": 2,
    "tail_cone": {"rays": [[1, 0], [0, 1]]},
    "base": {"kind": "elliptic", "a": "-1", "b": "0"},
    "coefficients": [
        {"point": {"x": "0", "y": "0"}, "vertices": [["0", "1"]]},
        {"point": "O", "vertices": [["1", "-1"]]},
    ],
}, separators=(",", ":"))

# Hand-derived answers for elliptic_pair: deg(m) = m1 >= 0 on the orthant,
# zero only on the ray e2, where the evaluation (0,0) - O is 2-torsion, so
# the divisor is proper; the base has genus one, so rationality fails at
# weight zero. Elliptic and Gorenstein have no criterion above rank one.
ELLIPTIC_PAIR_EXPECT = {
    "classify": {"exit": [0, 4], "expect": {
        "properness.verdict": "yes",
        "rational.verdict": "no", "rational.criterion": "positive-genus-base"}},
    "proper": {"exit": [0], "expect": {"verdict": "yes"}},
    "rational": {"exit": [0], "expect": {"verdict": "no", "witness": [0, 0]}},
}

RANK1_COMMANDS = (
    ("classify",), ("proper",), ("rational",), ("cm",), ("gorenstein",),
    ("elliptic",), ("h1",), ("profile", "--m-max", None), ("ring", "--max-degree", None),
)


def _fixture_docs() -> list[dict]:
    docs = []
    for name, (points, slopes) in GOLDEN.items():
        for cmd in RANK1_COMMANDS:
            argv = [str(12) if a is None else a for a in cmd]
            docs.append(p1_rank1(f"{name}/{cmd[0]}", argv, points, slopes))
    for cmd in ("classify", "proper", "toric"):
        docs.append(affine_doc(f"affine_plane/{cmd}", [cmd], **AFFINE_PLANE))
    for cmd, want in ELLIPTIC_PAIR_EXPECT.items():
        docs.append({"id": f"elliptic_pair/{cmd}", "argv": [cmd], "text": ELLIPTIC_PAIR,
                     "oracle": {"kind": "fixed", **want}})
    return docs


# ---------------------------------------------------------------------------
# small-docs


def _small_rank1(rng: Random, npts_range=(1, 5), max_lcm=24, max_deg=None):
    """Proper rank-one slopes with denominators <= 8 and a small period."""
    while True:
        npts = rng.randint(*npts_range)
        points = rng.sample(P1_POINTS, npts)
        slopes = [Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in points]
        total = sum(slopes)
        if total <= 0 or (max_deg is not None and total > max_deg):
            continue
        if lcm(*[s.denominator for s in slopes]) > max_lcm:
            continue
        return points, [(s.numerator, s.denominator) for s in slopes]


def ring_work(points, slopes, max_degree: int) -> int:
    """sum_{t <= N} #generator monomials of degree t: presentation cost grows
    steeply with it."""
    finite = [None if z == "inf" else Fraction(z) for z in points]
    degrees = ring_generator_degrees(finite, slopes, max_degree)
    return sum(monomial_count(degrees, t) for t in range(1, max_degree + 1))


def _small_ring(rng: Random, max_degree: int):
    """Small rank-one slopes at integer points with a cheap presentation."""
    while True:
        points, slopes = _small_rank1(rng, (2, 4), max_deg=1)
        points = rng.sample(INTEGER_P1_POINTS, len(points))
        if ring_work(points, slopes, max_degree) <= 12:
            return points, slopes


def _small_ec(rng: Random):
    while True:
        npts = rng.randint(2, 4)
        points = rng.sample(EC_POINTS, npts)
        slopes = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in points]
        if 0 < sum(slopes) and lcm(*[s.denominator for s in slopes]) <= 12:
            return points, [(s.numerator, s.denominator) for s in slopes]


def _rand_frac(rng: Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _small_affine(rng: Random):
    rank = rng.randint(1, 2)
    dim = rng.randint(1, 3)
    if rank == 1:
        tail = rng.choice(([], [[1]]))
    else:
        tail = rng.choice(([], [[1, 0], [0, 1]]))
    coefficients = {}
    for i in range(1, dim + 1):
        if rng.random() < 0.25 and coefficients:
            continue  # hyperplane with the trivial coefficient
        v = tuple(_rand_frac(rng, -4, 4, 4) for _ in range(rank))
        verts = [v]
        if rank == 2 and rng.random() < 0.5:
            # a second vertex in convex position: incomparable with v
            w = (v[0] + Fraction(rng.randint(1, 3), 2), v[1] - Fraction(rng.randint(1, 3), 2))
            verts.append(w)
        coefficients[i] = verts
    if not coefficients:
        coefficients[1] = [tuple(_rand_frac(rng, -4, 4, 4) for _ in range(rank))]
    return {"rank": rank, "dim": dim, "tail": tail, "coefficients": coefficients}


def _small_docs(rng: Random) -> list[dict]:
    docs = _fixture_docs()
    for k in range(90):
        cmd = RANK1_COMMANDS[k % len(RANK1_COMMANDS)]
        if cmd[0] == "ring":
            top = rng.randint(6, 10)
            points, slopes = _small_ring(rng, top)
            argv = ["ring", "--max-degree", str(top)]
        else:
            points, slopes = _small_rank1(rng)
            argv = [str(rng.randint(5, 20)) if a is None else a for a in cmd]
        docs.append(p1_rank1(f"small/rank1/{k:03d}", argv, points, slopes))
    ec_commands = ("classify", "proper", "rational", "cm", "gorenstein", "elliptic", "h1")
    for k in range(28):
        points, slopes = _small_ec(rng)
        docs.append(ec_rank1(f"small/ec/{k:03d}", [ec_commands[k % 7]], points, slopes))
    for k in range(24):
        spec = _small_affine(rng)
        docs.append(affine_doc(f"small/affine/{k:03d}", [("toric", "proper", "classify")[k % 3]], **spec))
    docs.extend(_error_docs(rng))
    return docs


def _error_docs(rng: Random) -> list[dict]:
    """One family per documented error path, two draws each."""
    docs = []
    for k in range(2):
        points, slopes = _small_rank1(rng, (2, 3))
        body = _rank1_body(points, slopes)
        text = json.dumps(body)
        cut = rng.randint(5, len(text) - 5)
        docs.append(error_doc(f"error/malformed/{k}", ["classify"], text[:cut], 2, "parse"))

        floaty = json.loads(text)
        floaty["coefficients"][0]["vertices"] = [[-0.25]]
        docs.append(error_doc(f"error/float/{k}", ["proper"], json.dumps(floaty), 3, "invalid-input"))

        bad_point = json.loads(text)
        bad_point["coefficients"][0]["point"] = rng.choice(("zero", "1/0", {"x": "0"}))
        docs.append(error_doc(f"error/point/{k}", ["rational"], json.dumps(bad_point), 3,
                              "invalid-input"))

        neg = [(-abs(p) - 1, q) for p, q in slopes]
        nonproper = json.dumps(_rank1_body(points, neg))
        docs.append(error_doc(f"error/not-proper/{k}", [("classify", "proper")[k]], nonproper, 3,
                              "not-proper", verdict="no" if k == 1 else None))

        # documented as invalid input; today it escapes parse_problem as a TypeError
        extra = json.loads(text)
        extra["coefficients"][0]["extra_rays"] = 5
        if k == 0:
            docs.append(error_doc("error/extra-rays", ["classify"], json.dumps(extra), 3,
                                  "invalid-input"))
    return docs


# ---------------------------------------------------------------------------
# rank1-scan


def _coprime_denominators(rng: Random, target: float, npts: int) -> list[int]:
    """Pairwise coprime integers >= 2 whose product is within 8% of target."""
    root = target ** (1.0 / npts)
    for _ in range(100_000):
        qs = [rng.randint(2, max(3, int(root * 2.5))) for _ in range(npts - 1)]
        if any(gcd(a, b) != 1 for i, a in enumerate(qs) for b in qs[i + 1:]):
            continue
        prod = 1
        for q in qs:
            prod *= q
        lo, hi = max(2, ceil(0.92 * target / prod)), int(1.08 * target / prod)
        last = [x for x in range(lo, hi + 1) if all(gcd(x, q) == 1 for q in qs)]
        if last:
            return qs + [rng.choice(last)]
    raise RuntimeError(f"no coprime denominators near {target}")


def _coprime_below(rng: Random, q: int, hi: int) -> int:
    while True:
        p = rng.randint(1, min(hi, q - 1))
        if gcd(p, q) == 1:
            return p


def scan_instance(rng: Random, target: float, npts: int):
    """Slopes -p_i/q_i at n - 1 points and their sum plus e/q_n at the last.

    With pairwise coprime q_i the last slope has denominator prod q_i, so the
    period lcm(q) is prod q_i ~ target, and deg1 = e / q_n is small.
    """
    qs = _coprime_denominators(rng, target, npts)
    rng.shuffle(qs)
    slopes = [Fraction(-_coprime_below(rng, q, q - 1), q) for q in qs[:-1]]
    e = _coprime_below(rng, qs[-1], 2)
    slopes.append(-sum(slopes) + Fraction(e, qs[-1]))
    points = rng.sample(INTEGER_P1_POINTS[:5], npts)
    return points, [(s.numerator, s.denominator) for s in slopes]


def _log_strata(count: int, lo: float, hi: float) -> list[float]:
    """The log-midpoints of count equal strata of [lo, hi].

    Sizes are fixed per slot so that every seed has the same cost profile.
    """
    span = log(hi / lo)
    return [lo * exp(span * (k + 0.5) / count) for k in range(count)]


def _rank1_scan(rng: Random) -> list[dict]:
    docs = []
    plan = (("classify", 10), ("h1", 10), ("elliptic", 40), ("rational", 40))
    for cmd, count in plan:
        for k, target in enumerate(_log_strata(count, 100, 10_000)):
            npts = 4 if target >= 500 and k % 2 else 3
            points, slopes = scan_instance(rng, target, npts)
            docs.append(p1_rank1(f"scan/{cmd}/{k:02d}", [cmd], points, slopes))
    return docs


# ---------------------------------------------------------------------------
# higher-rank-search


def orthant_instance(rng: Random, rank: int, npts: int, eps: Fraction, multi: bool):
    """Vertices on the orthant tail with W = sum of componentwise minima small.

    The first npts - 1 points get one or two negative vertices; the last point
    gets a vertex (or two incomparable ones) whose componentwise minimum is
    -sum of the others' minima plus eps * (1 + i/4) in coordinate i, so W is
    positive and of order eps.
    """
    vertex_sets = []
    mins = [Fraction(0)] * rank
    for _ in range(npts - 1):
        v = [Fraction(-rng.randint(1, 4), rng.randint(2, 5)) for _ in range(rank)]
        verts = [tuple(v)]
        if multi and rng.random() < 0.6:
            i, j = rng.sample(range(rank), 2)
            w = list(v)
            w[i] += Fraction(1, rng.randint(2, 4))
            w[j] -= Fraction(1, rng.randint(2, 4))
            verts.append(tuple(w))
        vertex_sets.append(verts)
        for i in range(rank):
            mins[i] += min(vv[i] for vv in verts)
    low = [-mins[i] + eps * (1 + Fraction(i, 4)) for i in range(rank)]
    verts = [tuple(low)]
    if multi:
        i, j = rng.sample(range(rank), 2)
        a, b = list(low), list(low)
        a[i] += Fraction(1, rng.randint(2, 3))
        b[j] += Fraction(1, rng.randint(2, 3))
        verts = [tuple(a), tuple(b)]
        # the componentwise minimum of a and b is low itself
    vertex_sets.append(verts)
    points = rng.sample(INTEGER_P1_POINTS[:5], npts)
    return points, vertex_sets


def _higher_rank(rng: Random) -> list[dict]:
    docs = []
    # (rank, command, count, eps-denominator range); of every four slots one
    # has two points (always rational) and three have three points, two of
    # them drawn rational and one not, so both branches occur
    plan = (
        (2, "proper", 10, (4, 40)),
        (2, "rational", 24, (4, 20)),
        (2, "cm", 14, (4, 16)),
        (2, "classify", 22, (4, 13)),
        (3, "proper", 6, (3, 12)),
        (3, "rational", 12, (2.5, 4.5)),
        (3, "cm", 6, (2.5, 4)),
        (3, "classify", 6, (2.5, 3.5)),
    )
    for rank, cmd, count, (lo, hi) in plan:
        for k, e in enumerate(_log_strata(count, lo, hi)):
            npts = 2 if k % 4 == 0 else 3
            want = None if npts == 2 else ("no" if k % 4 == 3 else "yes")
            eps = Fraction(1, max(2, round(e)))
            argv = [cmd] + (["--isolated"] if cmd == "cm" and k % 2 else [])
            for _ in range(500):
                points, verts = orthant_instance(rng, rank, npts, eps, multi=k % 2 == 0)
                doc = orthant_doc(f"orthant/r{rank}/{cmd}/{k:02d}", argv, rank, points, verts)
                spec = doc["oracle"]
                if want is None or orthant_rational(
                        [[(tuple(n), d) for n, d in vs] for vs in spec["vertices"]], rank) == want:
                    break
            docs.append(doc)
    return docs


# ---------------------------------------------------------------------------
# ring-toric


def ring_instance(rng: Random, max_degree: int):
    """Slopes -a/p, -b/q, 1 at three integer points, with 0 < deg1 <= 1/5.

    Instances are kept to ring_work in [27, 33], so cost follows N.
    """
    while True:
        p, q = rng.randint(5, 13), rng.randint(5, 13)
        x, y = Fraction(rng.randint(1, p - 1), p), Fraction(rng.randint(1, q - 1), q)
        if not 0 < 1 - x - y <= Fraction(1, 5):
            continue
        points = rng.sample(INTEGER_P1_POINTS, 3)
        slopes = [(-x.numerator, x.denominator), (-y.numerator, y.denominator), (1, 1)]
        if 27 <= ring_work(points, slopes, max_degree) <= 33:
            return points, slopes


def toric_instance(rng: Random, rank: int, dim: int, segment: bool):
    """Trivial-tail model on affine space: one vertex per hyperplane, or a
    segment (two vertices) on the first one, which makes the cone
    non-simplicial."""
    coefficients = {}
    for i in range(1, dim + 1):
        v = tuple(_rand_frac(rng, -5, 5, 6) for _ in range(rank))
        verts = [v]
        if segment and i == 1:
            w = tuple(x + _rand_frac(rng, 1, 3, 3) for x in v)
            verts.append(w)
        coefficients[i] = verts
    return {"rank": rank, "dim": dim, "tail": [], "coefficients": coefficients}


# (rank, dim, count): mostly small models and a tail up to (10, 5), whose
# diagnostics take C(rank + dim, dim) minors
TORIC_SIZES = ((4, 2, 10), (5, 3, 11), (6, 3, 10), (7, 3, 8), (6, 4, 6),
               (8, 4, 2), (9, 4, 1), (8, 5, 1), (10, 5, 1))


def _ring_toric(rng: Random) -> list[dict]:
    docs = []
    for k, n in enumerate(_log_strata(50, 20, 40)):
        points, slopes = ring_instance(rng, round(n))
        docs.append(p1_rank1(f"ring/{k:02d}", ["ring", "--max-degree", str(round(n))], points, slopes))
    for rank, dim, count in TORIC_SIZES:
        for k in range(count):
            spec = toric_instance(rng, rank, dim, segment=dim <= 3 and k % 4 == 3)
            docs.append(affine_doc(f"toric/{rank}x{dim}/{k:02d}", ["toric"], **spec))
    return docs


# ---------------------------------------------------------------------------


_BUILDERS = {
    "small-docs": _small_docs,
    "rank1-scan": _rank1_scan,
    "higher-rank-search": _higher_rank,
    "ring-toric": _ring_toric,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The corpus of one workload for one seed, in a seeded order."""
    rng = Random(f"{workload}:{seed}")
    docs = _BUILDERS[workload](rng)
    rng.shuffle(docs)
    return docs


def digest(docs) -> str:
    """sha256 over the documents and their arguments, in corpus order."""
    h = hashlib.sha256()
    for d in docs:
        h.update(json.dumps([d["id"], d["argv"], d["text"]]).encode())
    return h.hexdigest()
