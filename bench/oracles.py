"""Independent answers for every benchmark document, in plain integers.

Nothing here imports polydiv. Each oracle recomputes the answer from the
parameters the corpus generator drew, by a route different from polydiv's:

- rank one over P1: scans of D(m) = sum floor(m p / q), certified because
  rounding loses less than one unit per point, so D(m) > m deg1 - count;
- rank one over y^2 = x^3 - x: the same scans, with principality decided in
  the 2-torsion group (Z/2)^2 spanned by (0,0), (1,0), (-1,0);
- rank 2-3 over P1 on the orthant: a box search certified by the
  componentwise-minimum-vertex bound deg(m) >= <m, W>, W > 0, which also
  certifies properness and that the contraction is small;
- section rings: Hilbert dimensions max(0, D(m) + 1), generator degrees from
  ranks of product spans modulo two large primes;
- toric models: ray count, span rank and multiplicity by integer column
  reduction of the ray matrix.

check() compares one CLI answer with its oracle and returns the list of
disagreements; an empty list means the answer is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, gcd

# ---------------------------------------------------------------------------
# rank one: floor-degree scans


def floor_degrees(slopes, top: int) -> list[int]:
    """D(m) = sum_i floor(m p_i / q_i) for m = 0 .. top."""
    out = [0] * (top + 1)
    for p, q in slopes:
        for m in range(top + 1):
            out[m] += (m * p) // q
    return out


def slope_sum(slopes) -> Fraction:
    return sum((Fraction(p, q) for p, q in slopes), Fraction(0))


def _scan_top(slopes, drop: int) -> int:
    """Past this weight D(m) > -drop for every m (needs deg1 > 0).

    Only fractional slopes lose anything to rounding, each less than one.
    """
    deg1 = slope_sum(slopes)
    lossy = sum(1 for _, q in slopes if q > 1)
    return max(ceil(Fraction(lossy - drop) / deg1), 1)


def rank1_rational(slopes) -> str:
    """yes iff D(m) >= -1 for every m >= 0."""
    profile = floor_degrees(slopes, _scan_top(slopes, 2))
    return "yes" if min(profile) >= -1 else "no"


def rank1_elliptic_genus0(slopes):
    """(verdict, criterion, D(0..top)) for the genus-zero elliptic criterion."""
    profile = floor_degrees(slopes, _scan_top(slopes, 2))
    below = [m for m in range(1, len(profile)) if profile[m] < -2]
    hits = [m for m in range(1, len(profile)) if profile[m] == -2]
    if below:
        return "no", "floor-degree-below-minus-two", profile
    if len(hits) == 1:
        return "yes", "unique-floor-degree-minus-two", profile
    if not hits:
        return "no", "no-floor-degree-minus-two", profile
    return "no", "repeated-floor-degree-minus-two", profile


def rank1_gorenstein(slopes, genus: int):
    """(canonical index, vertical multiplicities) of a rank-one divisor.

    index = (2g - 2 + sum (q-1)/q) / deg1; multiplicities (p index + 1)/q - 1.
    multiplicities is None when the index is fractional, and holds None for
    each fractional multiplicity.
    """
    deg1 = slope_sum(slopes)
    index = (2 * genus - 2 + sum((Fraction(q - 1, q) for _, q in slopes), Fraction(0))) / deg1
    if index.denominator != 1:
        return index, None
    mults = []
    for p, q in slopes:
        num = p * index.numerator + 1
        mults.append(num // q - 1 if num % q == 0 else None)
    return index, mults


# 2-torsion of y^2 = x^3 - x as bit vectors of (Z/2)^2
TORSION_BITS = {"O": 0, "(0,0)": 1, "(1,0)": 2, "(-1,0)": 3}


def ec_principal(coeffs) -> bool:
    """Is sum c_i P_i principal, for 2-torsion points P_i (label, c_i) pairs?"""
    if sum(c for _, c in coeffs) != 0:
        return False
    acc = 0
    for label, c in coeffs:
        if c % 2:
            acc ^= TORSION_BITS[label]
    return acc == 0


def ec_h1(coeffs) -> int:
    deg = sum(c for _, c in coeffs)
    if deg > 0:
        return 0
    if deg < 0:
        return -deg
    return 1 if ec_principal(coeffs) else 0


def ec_floor(points, slopes, m: int):
    return [(pt, (m * p) // q) for pt, (p, q) in zip(points, slopes)]


def rank1_answers(spec) -> dict:
    """Every rank-one verdict for a proper divisor over P1 or y^2 = x^3 - x."""
    slopes = [tuple(s) for s in spec["slopes"]]
    points = spec.get("points")
    genus = 1 if spec["kind"] == "ec_rank1" else 0
    ans: dict = {"cm": ("yes", "normal-surface")}
    index, mults = rank1_gorenstein(slopes, genus)
    ans["index"] = index
    if mults is None:
        gor = ("no", "canonical-index-not-integral")
    elif None in mults:
        gor = ("no", "vertical-multiplicity-not-integral")
    else:
        if genus == 0:
            principal = sum(mults) == -2  # K_P1 = -2 [inf]; principal iff degree 0
        else:
            principal = ec_principal(list(zip(points, mults)))
        gor = ("yes", "canonical-difference-principal") if principal else (
            "no", "canonical-difference-not-principal")
    ans["gorenstein"] = gor

    if genus == 0:
        ans["rational"] = rank1_rational(slopes)
        verdict, criterion, profile = rank1_elliptic_genus0(slopes)
        ans["elliptic"] = (verdict, criterion)
        ans["elliptic_profile"] = profile
        ans["h1_top"] = len(profile) - 1
        ans["h1_total"] = sum(max(0, -x - 1) for x in profile)
    else:
        ans["rational"] = "no"
        top = _scan_top(slopes, 0)
        ans["elliptic"] = ("yes", "genus-one-base-floors-never-principal")
        for m in range(1, top + 1):
            fl = ec_floor(points, slopes, m)
            deg = sum(c for _, c in fl)
            if deg < 0:
                ans["elliptic"] = ("no", "negative-floor-degree-on-genus-one-base")
                break
            if deg == 0 and ec_principal(fl):
                ans["elliptic"] = ("no", "principal-floor-on-genus-one-base")
                break
        ans["h1_top"] = top
        ans["h1_total"] = sum(ec_h1(ec_floor(points, slopes, m)) for m in range(top + 1))
    ell, gor_v = ans["elliptic"][0], gor[0]
    ans["minimal"] = "yes" if ell == gor_v == "yes" else "no"
    return ans


def rank1_h1_entry(spec, m: int) -> int:
    slopes = [tuple(s) for s in spec["slopes"]]
    if spec["kind"] == "ec_rank1":
        return ec_h1(ec_floor(spec["points"], slopes, m))
    return max(0, -sum((m * p) // q for p, q in slopes) - 1)


# ---------------------------------------------------------------------------
# rank 2-3 on the orthant


def orthant_eval(vertices, m) -> int:
    """D(m) = sum_z floor(min_v <m, v>), vertices as (numerators, denominator)."""
    total = 0
    for verts in vertices:
        total += min(sum(a * b for a, b in zip(nums, m)) // den for nums, den in verts)
    return total


def orthant_weight(vertices, rank: int) -> list[Fraction]:
    """W = sum over points of the componentwise minimum vertex."""
    w = [Fraction(0)] * rank
    for verts in vertices:
        for i in range(rank):
            w[i] += min(Fraction(nums[i], den) for nums, den in verts)
    return w


def orthant_rational(vertices, rank: int) -> str:
    """Box search for D(m) <= -2 over 0 <= m_i < (count - 2) / W_i.

    D(m) > deg(m) - count >= <m, W> - count, so a violation needs
    <m, W> < count - 2, which bounds each coordinate; W > 0 is required.
    """
    w = orthant_weight(vertices, rank)
    if min(w) <= 0:
        raise ValueError("the orthant certificate needs W > 0")
    reach = len(vertices) - 2
    if reach <= 0:
        return "yes"
    tops = [ceil(reach / x) for x in w]

    def rec(prefix):
        if len(prefix) == rank:
            return orthant_eval(vertices, prefix) <= -2
        return any(rec(prefix + [x]) for x in range(tops[len(prefix)] + 1))

    return "no" if rec([]) else "yes"


# ---------------------------------------------------------------------------
# section rings


_PRIMES = (2305843009213693951, 4611686018427387847)


def _rank_mod(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        pr = [x * inv % p for x in rows[rank]]
        rows[rank] = pr
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def _correction_mod(points, slopes, m1: int, m2: int, p: int):
    """prod (t - z)^{e_z} mod p over the finite points, low degree first."""
    poly = [1]
    for z, (a, q) in zip(points, slopes):
        if z is None:
            continue
        e = (m1 + m2) * a // q - (m1 * a) // q - (m2 * a) // q
        zm = z.numerator * pow(z.denominator, -1, p) % p
        for _ in range(e):
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i] = (nxt[i] - zm * c) % p
                nxt[i + 1] = (nxt[i + 1] + c) % p
            poly = nxt
    return poly


def ring_generator_degrees(points, slopes, max_degree: int) -> list[int]:
    """Degrees of minimal generators up to max_degree, one entry per generator.

    Piece m is the polynomials of degree <= D(m); the products of pieces i and
    m - i span corr_{i,m-i} * Poly_{<= D(i) + D(m-i)}. The number of new
    generators in degree m is dim(piece m) minus the rank of that span. Points
    are Fractions, or None for infinity.
    """
    dims = [max(0, d + 1) for d in floor_degrees(slopes, max_degree)]
    out = []
    for m in range(1, max_degree + 1):
        if dims[m] == 0:
            continue
        best = 0
        for p in _PRIMES:
            rows = []
            for i in range(1, m // 2 + 1):
                j = m - i
                if dims[i] == 0 or dims[j] == 0:
                    continue
                corr = _correction_mod(points, slopes, i, j, p)
                for shift in range(dims[i] + dims[j] - 1):
                    row = [0] * dims[m]
                    for k, c in enumerate(corr):
                        row[shift + k] = c
                    rows.append(row)
            best = max(best, _rank_mod(rows, p) if rows else 0)
        out.extend([m] * (dims[m] - best))
    return out


def monomial_count(degrees, total: int) -> int:
    """Exponent vectors with sum a_i deg_i = total."""
    ways = [1] + [0] * total
    for d in degrees:
        for t in range(d, total + 1):
            ways[t] += ways[t - d]
    return ways[total]


# ---------------------------------------------------------------------------
# toric models


def primitive(v) -> tuple[int, ...]:
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def column_reduce(rows) -> list[int]:
    """Diagonal of a lower-triangular form of an integer matrix under
    unimodular column operations (extended-gcd steps).

    The nonzero entries count the rank, and for full row rank their product is
    the gcd of the maximal minors, i.e. the index of the row lattice in its
    saturation.
    """
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    diag = []
    col = 0
    for r in range(len(a)):
        if col == ncols:
            break
        for c in range(col + 1, ncols):
            x, y = a[r][col], a[r][c]
            if y == 0:
                continue
            g, s, t = _xgcd(x, y)
            u, v = x // g, y // g
            for row in a:
                p, q = row[col], row[c]
                row[col], row[c] = s * p + t * q, -v * p + u * q
        if a[r][col] != 0:
            diag.append(abs(a[r][col]))
            col += 1
    return diag


def _xgcd(x: int, y: int):
    """(g, s, t) with s x + t y = g = gcd(x, y) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        k = x // y
        x, y = y, x - k * y
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    if x < 0:
        return -x, -s0, -t0
    return x, s0, t0


def toric_answers(spec) -> dict:
    """Rays and diagnostics of the toric model over affine space.

    Generators: tail rays (zero on the hyperplane axes), the primitive vector
    through (v, e_i) for each vertex v of the i-th coefficient, and e_i for
    hyperplanes with no coefficient. With coefficients whose vertices are in
    convex position every generator is extremal: the e-part separates the
    hyperplanes and a vertex is no convex combination of the others.
    """
    k, n = spec["rank"], spec["dim"]
    gens = [tuple(r) + (0,) * n for r in spec["tail"]]
    for i in range(n):
        unit = tuple(Fraction(int(j == i)) for j in range(n))
        verts = spec["coefficients"].get(str(i + 1))
        if verts is None:
            gens.append((0,) * k + tuple(int(x) for x in unit))
            continue
        for v in verts:
            gens.append(primitive(tuple(Fraction(x) for x in v) + unit))
    diag = column_reduce(gens)
    simplicial = len(diag) == len(gens)
    mult = None
    if simplicial:
        mult = 1
        for x in diag:
            mult *= x
    return {
        "rays": sorted(gens),
        "ambient_rank": k + n,
        "span_rank": len(diag),
        "simplicial": simplicial,
        "multiplicity": mult,
        "smooth": mult == 1,
    }


# ---------------------------------------------------------------------------
# checking one answer


def _verdict_pair(block) -> tuple:
    return block.get("verdict"), block.get("criterion")


def _check_rank1(spec, command, argv, code, payload, bad) -> None:
    ans = rank1_answers(spec)
    slopes = [tuple(s) for s in spec["slopes"]]

    def check_rational(block):
        if block.get("verdict") != ans["rational"]:
            bad.append(f"rational {block.get('verdict')} != {ans['rational']}")
        w = block.get("witness")
        if ans["rational"] == "no" and spec["kind"] == "p1_rank1":
            if not w or sum((w[0] * p) // q for p, q in slopes) >= -1:
                bad.append(f"rational witness {w} does not violate")

    def check_gorenstein(block):
        if _verdict_pair(block) != ans["gorenstein"]:
            bad.append(f"gorenstein {_verdict_pair(block)} != {ans['gorenstein']}")
        idx = block.get("canonical_index")
        if idx is None or Fraction(idx) != ans["index"]:
            bad.append(f"canonical index {idx} != {ans['index']}")

    def check_elliptic(block):
        if _verdict_pair(block) != ans["elliptic"]:
            bad.append(f"elliptic {_verdict_pair(block)} != {ans['elliptic']}")
        elif spec["kind"] == "p1_rank1":
            crit, w, prof = ans["elliptic"][1], block.get("witness_m"), ans["elliptic_profile"]
            ok = isinstance(w, int) and 0 < w < len(prof)
            if ok and crit == "floor-degree-below-minus-two":
                ok = prof[w] < -2
            elif ok:
                ok = prof[w] == -2
            if crit != "no-floor-degree-minus-two" and not ok:
                bad.append(f"elliptic witness {w} does not support {crit}")

    def check_h1(block, m_max=None):
        entries = block.get("entries") or []
        total = block.get("total")
        if total != ans["h1_total"]:
            bad.append(f"h1 total {total} != {ans['h1_total']}")
        want_len = (m_max + 1) if m_max is not None else ans["h1_top"] + 1
        if len(entries) < want_len:
            bad.append(f"h1 lists {len(entries)} entries, needs {want_len}")
        for pos, e in enumerate(entries):
            if e[0] != pos or e[1] != rank1_h1_entry(spec, pos):
                bad.append(f"h1 entry {e} != {[pos, rank1_h1_entry(spec, pos)]}")
                break

    if code != 0:
        bad.append(f"exit code {code} != 0")
    if command == "proper":
        if payload.get("verdict") != "yes":
            bad.append(f"proper {payload.get('verdict')} != yes")
    elif command == "rational":
        check_rational(payload)
    elif command == "cm":
        if _verdict_pair(payload) != ans["cm"]:
            bad.append(f"cm {_verdict_pair(payload)} != {ans['cm']}")
    elif command == "gorenstein":
        check_gorenstein(payload)
    elif command == "elliptic":
        check_elliptic(payload)
        if payload.get("minimal") != ans["minimal"]:
            bad.append(f"minimal {payload.get('minimal')} != {ans['minimal']}")
    elif command == "h1":
        m_max = int(argv[argv.index("--m-max") + 1]) if "--m-max" in argv else None
        check_h1(payload, m_max)
    elif command == "profile":
        top = int(argv[argv.index("--m-max") + 1])
        if payload.get("degrees") != floor_degrees(slopes, top):
            bad.append("profile degrees differ")
    elif command == "ring":
        _check_ring(spec, argv, payload, bad)
    elif command == "classify":
        if payload.get("properness", {}).get("verdict") != "yes":
            bad.append("properness is not yes")
        check_rational(payload.get("rational", {}))
        if _verdict_pair(payload.get("cohen_macaulay", {})) != ans["cm"]:
            bad.append("cohen_macaulay differs")
        check_gorenstein(payload.get("gorenstein", {}))
        check_elliptic(payload.get("elliptic", {}))
        if payload.get("minimal_elliptic") != ans["minimal"]:
            bad.append(f"minimal_elliptic {payload.get('minimal_elliptic')} != {ans['minimal']}")
        check_h1(payload.get("h1") or {})
    else:
        bad.append(f"no rank-one oracle for {command}")


def _check_ring(spec, argv, payload, bad) -> None:
    slopes = [tuple(s) for s in spec["slopes"]]
    top = int(argv[argv.index("--max-degree") + 1])
    dims = [max(0, d + 1) for d in floor_degrees(slopes, top)]
    if payload.get("dimensions") != dims:
        bad.append("ring dimensions differ from max(0, D(m) + 1)")
        return
    points = [None if z == "inf" else Fraction(z) for z in spec["points"]]
    degrees = ring_generator_degrees(points, slopes, top)
    got = [g.get("degree") for g in payload.get("generators", [])]
    if got != degrees:
        bad.append(f"generator degrees {got} != {degrees}")
        return
    for block in payload.get("blocks", []):
        total = block.get("degree")
        want_monos = monomial_count(degrees, total)
        if len(block.get("monomials", [])) != want_monos:
            bad.append(f"degree {total}: {len(block['monomials'])} monomials != {want_monos}")
        elif block.get("target_dim") != dims[total]:
            bad.append(f"degree {total}: target_dim differs")
        elif block.get("kernel_dim") != want_monos - dims[total]:
            bad.append(f"degree {total}: kernel_dim != monomials - dim")


def _check_orthant(spec, command, code, payload, bad) -> None:
    vertices = [[(tuple(nums), den) for nums, den in verts] for verts in spec["vertices"]]
    rank = spec["rank"]
    rational = orthant_rational(vertices, rank)
    cm = ("yes", "rational-singularities") if rational == "yes" else (
        "no", "matches-rationality-small-contraction")

    def check_rational(block):
        if block.get("verdict") != rational:
            bad.append(f"rational {block.get('verdict')} != {rational}")
        w = block.get("witness")
        if rational == "no":
            if not w or len(w) != rank or min(w) < 0 or orthant_eval(vertices, w) > -2:
                bad.append(f"rational witness {w} does not violate")

    if command == "proper":
        if code != 0 or payload.get("verdict") != "yes":
            bad.append(f"proper {payload.get('verdict')} (exit {code}) != yes")
    elif command == "rational":
        if code != 0:
            bad.append(f"exit code {code} != 0")
        check_rational(payload)
    elif command == "cm":
        if code != 0:
            bad.append(f"exit code {code} != 0")
        if _verdict_pair(payload) != cm:
            bad.append(f"cm {_verdict_pair(payload)} != {cm}")
    elif command == "classify":
        # elliptic and Gorenstein have no criterion above rank one, so an
        # undecided verdict (exit 4) is documented behaviour here
        if code not in (0, 4):
            bad.append(f"exit code {code} not in (0, 4)")
        if payload.get("properness", {}).get("verdict") != "yes":
            bad.append("properness is not yes")
        check_rational(payload.get("rational", {}))
        if _verdict_pair(payload.get("cohen_macaulay", {})) != cm:
            bad.append("cohen_macaulay differs")
        if payload.get("h1") is not None:
            bad.append("h1 reported above rank one")
    else:
        bad.append(f"no orthant oracle for {command}")


def _check_affine(spec, command, code, payload, bad) -> None:
    if code != 0:
        bad.append(f"exit code {code} != 0")
    if command == "toric":
        want = toric_answers(spec)
        cone, diag = payload.get("cone", {}), payload.get("diagnostics", {})
        got_rays = sorted(tuple(r) for r in cone.get("rays", []))
        if got_rays != want["rays"]:
            bad.append("toric rays differ")
        if diag.get("ray_count") != len(want["rays"]):
            bad.append("ray_count differs")
        for key in ("ambient_rank", "span_rank", "simplicial", "multiplicity", "smooth"):
            if diag.get(key) != want[key]:
                bad.append(f"{key} {diag.get(key)} != {want[key]}")
    elif command == "proper":
        if payload.get("verdict") != "yes":
            bad.append("affine base must be proper")
    elif command == "classify":
        want = {
            "rational": ("yes", "affine-base"),
            "cohen_macaulay": ("yes", "affine-base"),
            "gorenstein": ("not_applicable", "affine-base"),
            "elliptic": ("no", "affine-base-rational"),
        }
        for key, pair in want.items():
            if _verdict_pair(payload.get(key, {})) != pair:
                bad.append(f"{key} {_verdict_pair(payload.get(key, {}))} != {pair}")
        if payload.get("minimal_elliptic") != "no" or payload.get("h1") is not None:
            bad.append("minimal_elliptic / h1 differ for an affine base")
    else:
        bad.append(f"no affine oracle for {command}")


def check(doc, code, text) -> list[str]:
    """Disagreements between one CLI answer and the document's oracle."""
    spec = doc["oracle"]
    argv = doc["argv"]
    command = argv[0]
    bad: list[str] = []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    kind = spec["kind"]
    if kind == "error":
        if code != spec["exit"]:
            bad.append(f"exit code {code} != {spec['exit']}")
        if command == "proper" and spec.get("verdict"):
            if payload.get("verdict") != spec["verdict"]:
                bad.append(f"proper {payload.get('verdict')} != {spec['verdict']}")
        elif payload.get("error") != spec["error"]:
            bad.append(f"error {payload.get('error')} != {spec['error']}")
    elif kind == "fixed":
        if code not in spec["exit"]:
            bad.append(f"exit code {code} not in {spec['exit']}")
        for path, want in spec["expect"].items():
            node = payload
            for key in path.split("."):
                node = node.get(key, {}) if isinstance(node, dict) else {}
            if node != want:
                bad.append(f"{path} {node} != {want}")
    elif kind in ("p1_rank1", "ec_rank1"):
        _check_rank1(spec, command, argv, code, payload, bad)
    elif kind == "orthant":
        _check_orthant(spec, command, code, payload, bad)
    elif kind == "affine":
        _check_affine(spec, command, code, payload, bad)
    else:
        bad.append(f"unknown oracle kind {kind}")
    return bad
