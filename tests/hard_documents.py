"""The hard documents: named generators, and the pinned CLI runs on them.

Each generator takes its size parameter and returns a problem document as
JSON text, built in memory. No file is written: a new file under tests/data
or tests/golden/documents would reshuffle the mutation stream of
tests/test_fuzz.py, which draws from every document there.

CASES pins one CLI run per row: the document, the command, the exit code,
the sha1 of standard output and a bound in seconds on the whole process,
start-up included. A sha1 covers every field of the report, so a comment
states the facts a row is there for. Outputs depend on the parsed document,
not on its bytes.

Run as a script, with no options, it runs every case through
``python -m polydiv.cli`` in a subprocess under its bound and under an
address-space cap of MEMORY_MB on that subprocess alone, prints one JSON
line per case (case, exit, seconds, bytes, sha1, ok) and exits 1 if any
case misses its exit code, its sha1 or its bound. A run that hits the cap
ends in a MemoryError payload or is killed, and so misses:

    PYTHONPATH=src python tests/hard_documents.py

Some generators also make documents that only the roadmap measures
(tiny_degree and positive_slack at their smallest degrees, torsion_family,
walls and cyclic_tail at its sizes): they take seconds or hang there, so no
case runs them at those sizes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).parent
DOCUMENTS = HERE / "golden" / "documents"
SCALING = HERE / "golden" / "scaling"

ORTHANT = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
# simplicial, not unimodular (determinants 7 and 6), with negative entries
SKEW = {2: [[2, -1], [1, 3]], 3: [[1, 0, 0], [1, 2, 0], [-1, 1, 3]]}


def _document(rank, rays, base, coefficients) -> str:
    body = {"lattice_rank": rank, "tail_cone": {"rays": rays}, "base": base}
    return json.dumps({**body, "coefficients": coefficients})


def p1_slopes(*slopes) -> str:
    """The rank-one divisor over P1 with the given slopes at 0, 1, inf, 2, 3, ..."""
    points = ("0", "1", "inf", *map(str, range(2, len(slopes))))
    coefficients = [{"point": p, "vertices": [[str(s)]]} for p, s in zip(points, slopes)]
    return _document(1, [[1]], {"kind": "P1"}, coefficients)


def brieskorn_pham(p, q, r) -> str:
    """x^p + y^q + z^r = 0 for pairwise coprime p, q, r: the section ring over
    P1 of (a/p)[0] + (b/q)[1] + (c/r)[inf] with a = (qr)^-1 mod p,
    b = (pr)^-1 mod q and c = (pq)^-1 mod r less a multiple of r, so that the
    degree is 1/(pqr) (see tests/test_brieskorn_pham.py)."""
    a, b, c = pow(q * r, -1, p), pow(p * r, -1, q), pow(p * q, -1, r)
    c -= (a * q * r + b * p * r + c * p * q - 1) // (p * q)
    return p1_slopes(f"{a}/{p}", f"{b}/{q}", f"{c}/{r}")


def period(slope) -> str:
    """Slopes -1/97, -1/101 and -1/103, and the given slope at 2: the period
    of the floor degrees is the lcm of the four denominators."""
    return p1_slopes("-1/97", "-1/101", "-1/103", slope)


def tiny_degree(delta) -> str:
    """Slopes -1/2, -2/3, -4/5 and 59/30 + delta: deg1 = delta, so the h1
    listing and the elliptic scan run for about 1/delta weights."""
    return p1_slopes("-1/2", "-2/3", "-4/5", Fraction(59, 30) + Fraction(delta))


def positive_slack(eps) -> str:
    """Slopes -9/11, -2/11 and 1 + eps: deg1 = eps, and rational is yes."""
    return p1_slopes("-9/11", "-2/11", 1 + Fraction(eps))


def abstract_genus(genus) -> str:
    """One point of slope 1/2 on an abstract curve of the given genus."""
    base = {"kind": "abstract", "genus": genus}
    return _document(1, [[1]], base, [{"point": "p", "vertices": [["1/2"]]}])


def elliptic_family(d) -> str:
    """Over y^2 = x^3 - 2, slope (d/2 + 1)/d at (3, 5) and -1/2 at (3, -5):
    degree 1/d, and the floor at every even m < d is a multiple of
    (3, 5) - (3, -5), a point of infinite order, so each degree-zero entry
    of the h1 listing is a principality test on points of growing height."""
    base = {"kind": "elliptic", "a": "0", "b": "-2"}
    coefficients = [
        {"point": {"x": "3", "y": "5"}, "vertices": [[str(Fraction(d + 2, 2 * d))]]},
        {"point": {"x": "3", "y": "-5"}, "vertices": [["-1/2"]]},
    ]
    return _document(1, [[1]], base, coefficients)


def torsion_family(d) -> str:
    """Rank 2 over y^2 = x^3 - 2 with the quadrant as tail: (1/d, 1) at
    (3, 5), (-1/(d + 2), 1) at (3, -5) and the balancing (-1/d + 1/(d + 2), 0)
    at O. The evaluation at (1, 0) is the class of (2d + 2)(3, 5), a point of
    infinite order, whose torsion test properness runs."""
    base = {"kind": "elliptic", "a": "0", "b": "-2"}
    balance = Fraction(-1, d) + Fraction(1, d + 2)
    coefficients = [
        {"point": {"x": "3", "y": "5"}, "vertices": [[f"1/{d}", "1"]]},
        {"point": {"x": "3", "y": "-5"}, "vertices": [[f"-1/{d + 2}", "1"]]},
        {"point": "O", "vertices": [[str(balance), "0"]]},
    ]
    return _document(2, [[1, 0], [0, 1]], base, coefficients)


def toric_grid(rank, dim) -> str:
    """A trivial tail of the given rank over affine space of dimension dim,
    one vertex with small varied denominators on each hyperplane."""
    coefficients = [
        {
            "point": {"hyperplane": i},
            "vertices": [[f"{(3 * i + 5 * j) % 11 - 5}/{1 + (i + j) % 6}" for j in range(rank)]],
        }
        for i in range(1, dim + 1)
    ]
    return _document(rank, [], {"kind": "affine_space", "dim": dim}, coefficients)


def _ngon(n):
    return [[i, i * i, 1] for i in range(n)]


def ngon_tail(n) -> str:
    """The rank-3 tail over an n-gon, the rays (i, i^2, 1) for i < n, with
    one vertex (0, 0, 1) over the affine line as a hyperplane of A^1."""
    base = {"kind": "affine_space", "dim": 1}
    return _document(3, _ngon(n), base, [{"point": {"hyperplane": 1}, "vertices": [[0, 0, 1]]}])


def ngon_extra_rays(n) -> str:
    """The n-gon tail over P1 with the zero vertex at 0 and the extra rays
    (3, 9, 1) and (1, 1, 1): the evaluation is trivial, so proper is no."""
    coefficients = [{"point": "0", "vertices": [[0, 0, 0]], "extra_rays": [[3, 9, 1], [1, 1, 1]]}]
    return _document(3, _ngon(n), {"kind": "P1"}, coefficients)


def cyclic_tail(d, n) -> str:
    """The rank-d tail over the cyclic polytope, the rays (1, t, ..., t^(d-1))
    for t = 1..n, over P1 with one trivial coefficient."""
    rays = [[t**i for i in range(d)] for t in range(1, n + 1)]
    return _document(d, rays, {"kind": "P1"}, [{"point": "0", "vertices": [[0] * d]}])


def parabola(n) -> str:
    """One coefficient over the affine line with the n vertices
    (i/7, (i^2 + c)/49), i < n/2, c in (0, 3), and the tail ray (0, 1)."""
    vertices = [[f"{i}/7", f"{i * i + c}/49"] for i in range(n // 2) for c in (0, 3)]
    return _document(2, [[0, 1]], {"kind": "affine_line"}, [{"point": "0", "vertices": vertices}])


def walls(n, inf) -> str:
    """Rank 3 over P1 with the orthant as tail: at 0 the n vertices
    (-i/3, (i^2 - 9)/5, ((7i mod 5) - 4)/2), i < n, whose ties are the walls
    of the chamber fan, and (inf, inf, inf) at inf. The roadmap's family
    puts inf = n^2."""
    curve = [[f"{-i}/3", f"{i * i - 9}/5", f"{(i * 7) % 5 - 4}/2"] for i in range(n)]
    coefficients = [
        {"point": "0", "vertices": curve},
        {"point": "inf", "vertices": [[str(inf)] * 3]},
    ]
    return _document(3, ORTHANT, {"kind": "P1"}, coefficients)


def cm_document(size) -> str:
    """Rank 3 over P1, not rational, whose vertex at inf makes the degree
    vanish along one axis (size "small": the contraction is small, so cm
    answers no) or on a whole face of the weight cone (size "large": it is
    not, so cm answers no only for an isolated singularity)."""
    inf = {"small": ["4", "5/2", "3"], "large": ["4", "5/2", "5/2"]}[size]
    half = ["-1/2", "-1/2", "-1/2"]
    coefficients = [{"point": "0", "vertices": [half, ["-1", "-1/3", "-1/3"]]}]
    coefficients += [{"point": p, "vertices": [half]} for p in "1234"]
    coefficients.append({"point": "inf", "vertices": [inf]})
    return _document(3, ORTHANT, {"kind": "P1"}, coefficients)


def skew_tail(rank) -> str:
    """Rank 2 or 3 over P1 with the simplicial tail SKEW[rank], each vertex
    written as a combination of its rays r: at 0 the vertices -r/2 for each
    ray and -(sum of r)/3, whose ties are three walls at rank 2 and six at
    rank 3; -(sum of r)/2 at 1, 2 and 3; 2 (sum of r) at inf. The degree
    polyhedron touches each facet of the tail, so properness tests the
    degree-zero evaluations there, and the floor degrees reach -2 at a ray
    of the weight cone, so rational is no."""
    rays = SKEW[rank]

    def vertex(*c):
        return [str(sum(Fraction(x) * r[j] for x, r in zip(c, rays))) for j in range(rank)]

    at_0 = [vertex(*(Fraction(-1, 2) * (i == j) for j in range(rank))) for i in range(rank)]
    at_0.append(vertex(*[Fraction(-1, 3)] * rank))
    coefficients = [{"point": "0", "vertices": at_0}]
    coefficients += [{"point": p, "vertices": [vertex(*[Fraction(-1, 2)] * rank)]} for p in "123"]
    coefficients.append({"point": "inf", "vertices": [vertex(*[2] * rank)]})
    return _document(rank, SKEW[rank], {"kind": "P1"}, coefficients)


# the first two points of the scaling family, whose slopes sum to -1 in
# every coordinate
_ORTHANT_SCALING = {
    2: (["-9/11", "-3/11"], ["-2/11", "-8/11"]),
    3: (["-3/5", "-2/5", "-3/5"], ["-2/5", "-3/5", "-2/5"]),
}


def orthant_scaling(rank, n) -> str:
    """The rank-2 or rank-3 orthant document of tests/golden/scaling at
    epsilon = 1/n: coordinate k of the vertex at inf is 1 + (4 + k)/(4n),
    so 1 + 1/n, 1 + 5/(4n) and 1 + 3/(2n)."""
    at_0, at_1 = _ORTHANT_SCALING[rank]
    at_inf = [str(1 + Fraction(4 + k, 4 * n)) for k in range(rank)]
    rays = [row[:rank] for row in ORTHANT[:rank]]
    coefficients = [
        {"point": p, "vertices": [v]} for p, v in (("0", at_0), ("1", at_1), ("inf", at_inf))
    ]
    return _document(rank, rays, {"kind": "P1"}, coefficients)


@dataclass(frozen=True)
class Case:
    """One pinned CLI run: the document on standard input, as text or as the
    path of a committed document."""

    name: str
    document: str | Path
    argv: tuple[str, ...]
    exit: int
    sha1: str
    bound: float

    def text(self) -> str:
        if isinstance(self.document, Path):
            return self.document.read_text(encoding="utf-8")
        return self.document


def _cases():
    bp237 = brieskorn_pham(2, 3, 7)
    bp313741 = brieskorn_pham(31, 37, 41)
    ngon16 = ngon_tail(16)
    period1e7 = period("1/10")
    walls45 = walls(10, 9)
    ring_many = DOCUMENTS / "ring_many_generators.json"
    skew2, skew3 = skew_tail(2), skew_tail(3)
    return (
        Case("toric_16x8 toric", toric_grid(16, 8), ("toric",), 0,
             "7e150633b08c45e4aced141d0bcaf0b93cffc464", 20),
        Case("ring_p1 ring 140", DOCUMENTS / "ring_p1.json", ("ring", "--max-degree", "140"), 0,
             "4e3cf305c1fcb4fd6ea8ec8e25779017bbbfcba4", 15),
        Case("ngon16 classify", ngon16, ("classify",), 0,
             "b9173c8bc941144cff40d59f297b951b24a74f4d", 20),
        # the extra_rays test and the witness (-210, 14, 1120), the sum of the
        # weight-cone rays, both read the dual off the dual_dd that make_cone
        # keeps for the tail
        Case("ngon16_extra proper", ngon_extra_rays(16), ("proper",), 3,
             "ef8c248ef5931bf1169f1714cbffed49ac11d132", 20),
        # the toric cone of rank 4 is not simplicial: make_cone runs its double description
        Case("ngon16 toric", ngon16, ("toric",), 0,
             "1b650b9655f858a8b033e391e1e9c5e5ad9a1194", 20),
        # a cone over a cyclic polytope with 702 facets: its double description
        # must stay well inside the bound; the one coefficient is trivial, so no
        Case("cyclic_6x30 proper", cyclic_tail(6, 30), ("proper",), 3,
             "96d820701124c7d096d21ab0f1fcd60eac2543c4", 2),
        Case("parabola80 proper", parabola(80), ("proper",), 0,
             "a24947cd636b484b225471ef8aded1b7ec63a9d1", 20),
        # period 97 * 101 * 103 * 107
        Case("period1e8 elliptic", period("4239528/107972737"), ("elliptic",), 0,
             "6e35a40d68c6db5052ab77951aabf11e2607351c", 10),
        # the genus is capped: error invalid-input
        Case("genus1e5 h1", abstract_genus(100000), ("h1",), 3,
             "d18f86ed6292e237aec3ea1d3fa1ec51b7b421ca", 10),
        # period 10 * 97 * 101 * 103: both listings stay under 64 KB; the h1
        # listing is a long list of int pairs, which pins the JSON writer on it
        Case("period1e7 h1", period1e7, ("h1",), 0,
             "3b58b0e5ba88f161e3913aca4674b5935b7e2906", 10),
        Case("period1e7 classify", period1e7, ("classify",), 0,
             "fd26291fee97c9b488111735e19f04f7defdf2da", 10),
        # deg1 = 7/300000: the listing ends at the vanishing degree 85,715,
        # about 2.9 MB; its last nonzero entry is at 41,399
        Case("tiny_degree_7_300000 h1", tiny_degree(Fraction(7, 300000)), ("h1",), 0,
             "a448d3ca086fd8fb901a9053b9b3b0f4f9bf6133", 10),
        # deg1 = 10^-5 and total 0: 100,001 entries to the vanishing degree
        # 100,000, about 3.4 MB
        Case("positive_slack_1e-5 h1", positive_slack(Fraction(1, 10**5)), ("h1",), 0,
             "7ab32a80651e3efc7320d44dd42a77e6709b6294", 10),
        # rational no, minimal elliptic yes, h1 total p_g = 1
        Case("bp_2_3_7 classify", bp237, ("classify",), 0,
             "ec3eaa3f3ed314eaa97d441057924ce4c23f0d50", 10),
        # degree 1/47027: 47,028 entries to the bound 47,027, the vanishing
        # degree (count - 2) / deg1, total p_g = 6894
        Case("bp_31_37_41 h1", bp313741, ("h1",), 0,
             "3c144d0500c0621bedb8486a94eaa15a1f026ab5", 10),
        # classify streams the floor degrees once for both; the degree -2
        # repeats, so not elliptic: criterion repeated-floor-degree-minus-two,
        # witness m = 2, h1 total 6894
        Case("bp_31_37_41 classify", bp313741, ("classify",), 0,
             "215f1055c7cd17e1bf81d088a1904d19477d38cf", 10),
        Case("bp_31_37_41 elliptic", bp313741, ("elliptic",), 0,
             "cbb3d5dbeb3359f64ffece3b40ff9452c667c7ee", 10),
        # the elliptic scans below read about 10^6 floor degrees one at a
        # time: a kept list of them would not fit under MEMORY_MB
        # deg1 = 10^-6: the genus-zero scan runs to the vanishing degree 10^6
        Case("positive_slack_1e-6 elliptic", positive_slack(Fraction(1, 10**6)), ("elliptic",), 0,
             "4b3b6943d375c0115558007faef8b72c9cb27a34", 10),
        # degree 1/(101 * 103 * 107): the scan runs to 1,113,121
        Case("bp_101_103_107 elliptic", brieskorn_pham(101, 103, 107), ("elliptic",), 0,
             "03e8c870b9e27eec1c30d9b7fd4998e83ec14463", 10),
        # degree 1/160: elliptic reads the h1 listing lazily and stops at its
        # witness m = 1, where the degree is -1; the whole listing takes seconds
        Case("elliptic_family_160 elliptic", elliptic_family(160), ("elliptic",), 0,
             "f22e756289ae9bd62ec938363989f1522072e18b", 3),
        # degree 1/20: every degree-zero entry is a principality test
        Case("elliptic_family_20 h1", elliptic_family(20), ("h1",), 0,
             "8735ed152d843f56db5890578d6b0af55d8af9c6", 10),
        Case("walls45 proper", walls45, ("proper",), 0,
             "3192def7d2bbde632acaf0037bdc9b8071b5bd1f", 5),
        # rational is yes, so the floor-degree search visits all 492 chambers
        Case("walls45 rational", walls45, ("rational",), 0,
             "ccac834551061387c247c02698ec41a45bba0546", 10),
        Case("walls45 cm", walls45, ("cm",), 0,
             "40c6dc420079154c164a9cfff2402d1196d00a4f", 10),
        Case("walls45 classify", walls45, ("classify",), 4,
             "4a82b2c0e140c9e993c5b24528ddfe5f19fadb71", 10),
        Case("cm_small cm", cm_document("small"), ("cm",), 0,
             "4763603540fb6e086004cdfe18eb28c7adb6331b", 5),
        Case("cm_small cm --isolated", cm_document("small"), ("cm", "--isolated"), 0,
             "4763603540fb6e086004cdfe18eb28c7adb6331b", 5),
        Case("cm_large cm", cm_document("large"), ("cm",), 4,
             "c477cfa85c71f817d0fd44debec263a0853758b6", 5),
        Case("cm_large cm --isolated", cm_document("large"), ("cm", "--isolated"), 0,
             "28b93fcedddecafd6492be0e49d29aa6f298b4dd", 5),
        # simplicial tails that are not the orthant: properness tests the
        # degree-zero evaluations at every ray of the weight cone, and the
        # rational witness is a weight-cone ray, (3, -1) and (0, 0, 1)
        Case("skew_tail_2 proper", skew2, ("proper",), 0,
             "3192def7d2bbde632acaf0037bdc9b8071b5bd1f", 5),
        Case("skew_tail_2 classify", skew2, ("classify",), 4,
             "e7dbf5a08f04b25c392bd68374120a19b40068bd", 5),
        Case("skew_tail_3 proper", skew3, ("proper",), 0,
             "3192def7d2bbde632acaf0037bdc9b8071b5bd1f", 5),
        Case("skew_tail_3 classify", skew3, ("classify",), 4,
             "3f249a00e023f8523283391a426026351556cd3c", 5),
        Case("ring_p1 ring 200", DOCUMENTS / "ring_p1.json", ("ring", "--max-degree", "200"), 0,
             "d055f5b0b5b3400c164bcf2fb0cd5b2f71cb8269", 15),
        # five generators in degrees 1 and 2: the span of shifted relations is wide
        Case("ring_many_generators ring 10", ring_many, ("ring", "--max-degree", "10"), 0,
             "475ac406baf9ac8cb131d5a5d3e76e7e47705d40", 30),
        # 1,040 monomials at degree 12: every kernel vector enters the span
        Case("ring_many_generators ring 12", ring_many, ("ring", "--max-degree", "12"), 0,
             "b35e5a0f9dff00b71853e6a8b5af7d29de6a6b9b", 15),
        # the cone over a rational normal quintic: six generators in degree 1
        # and ten quadric relations, so the span of shifted relations is wide
        # and sparse
        Case("slopes_3_1_1 ring 9", p1_slopes(3, 1, 1), ("ring", "--max-degree", "9"), 0,
             "42c1622e6a4575750a24f04f671997d8df272b03", 10),
        # verdict yes
        Case("orthant_r2_eps1000 rational", SCALING / "orthant_r2_eps1000.json", ("rational",), 0,
             "ccac834551061387c247c02698ec41a45bba0546", 5),
        Case("orthant_r3_eps125 rational", SCALING / "orthant_r3_eps125.json", ("rational",), 0,
             "ccac834551061387c247c02698ec41a45bba0546", 5),
    )


CASES = _cases()

# the address-space cap on each case's subprocess; every case runs well
# under it
MEMORY_MB = 128


def _cap_memory() -> None:
    limit = MEMORY_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_case(case: Case) -> dict:
    """Run one case through the CLI in a subprocess under its bound and
    the memory cap."""
    # the child runs under the optimize level of this interpreter
    argv = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "polydiv.cli", *case.argv, "-"]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv,
            input=case.text().encode(),
            capture_output=True,
            timeout=case.bound,
            preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        code, out = None, b""
    else:
        code, out = done.returncode, done.stdout
    seconds = time.perf_counter() - start
    sha1 = hashlib.sha1(out).hexdigest()
    return {
        "case": case.name,
        "exit": code,
        "seconds": round(seconds, 3),
        "bytes": len(out),
        "sha1": sha1,
        "ok": code == case.exit and sha1 == case.sha1,
    }


def main() -> int:
    missed = 0
    for case in CASES:
        line = run_case(case)
        missed += not line["ok"]
        print(json.dumps(line), flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
