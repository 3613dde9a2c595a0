"""Brieskorn-Pham surfaces x^p + y^q + z^r = 0 as a closed-form oracle.

Let p, q, r >= 2 be pairwise coprime. With the weights qr, pr and pq for x,
y and z the equation is homogeneous of degree pqr, and the graded ring is
the section ring over P1 of the rank-one divisor

    D = (a/p)[0] + (b/q)[1] + (c/r)[inf],    a = (qr)^-1 mod p,
    b = (pr)^-1 mod q,  c = (pq)^-1 mod r - k r,

with deg D = 1/(pqr) (Demazure; Pinkham, Math. Ann. 1977). Such a k exists:
a qr + b pr + c pq is 1 modulo each of p, q and r, hence modulo pqr, so
deg D = (a qr + b pr + c pq) / (pqr) is 1/(pqr) plus an integer, which the
shift of c by k r removes. The documents carry D with the tail (1,); they
are built by hard_documents.brieskorn_pham.

The answers are known without the floor-degree kernel:

- Hilbert series. x^p + y^q + z^r is a nonzerodivisor of degree pqr in the
  weighted polynomial ring, so the piece of degree m has the dimension of
  the coefficient of t^m in (1 - t^pqr) / ((1 - t^qr)(1 - t^pr)(1 - t^pq)).
  The ring is generated in the degrees qr, pr and pq.
- Geometric genus. p_g = #{(i, j, k) >= 1 : i/p + j/q + k/r <= 1}
  (Brieskorn's count; Milnor and Orlik, Topology 1970), and p_g is the sum
  over m of h1(P1, floor(m D)), the h1 total.
- Rationality. The singularity is rational iff p_g = 0, iff (1, 1, 1) is not
  counted, iff 1/p + 1/q + 1/r > 1. Among pairwise coprime triples only
  (2, 3, 5) has that: (2, 2, n), (2, 3, 3) and (2, 3, 4) share a factor.
- Gorenstein. A hypersurface is Gorenstein.
- Elliptic. The genus-zero criterion asks for floor degrees >= -2 with -2
  exactly once. h1(P1, O(e)) = max(0, -e - 1), so that says the h1 total is
  1: elliptic iff p_g = 1. The ring being Gorenstein, minimally elliptic
  iff p_g = 1 as well (Laufer, Amer. J. Math. 1977).
"""

from fractions import Fraction
from math import gcd
from random import Random

from hard_documents import brieskorn_pham
from polydiv.classify import classify_report
from polydiv.problem_io import parse_problem
from polydiv.sections import ring_presentation
from polydiv.verdicts import Verdict


def pairwise_coprime(p, q, r):
    return gcd(p, q) == gcd(p, r) == gcd(q, r) == 1


def geometric_genus(p, q, r) -> int:
    """#{(i, j, k) >= 1 : i qr + j pr + k pq <= pqr}, counting k for each (i, j)."""
    n = p * q * r
    return sum(
        max(0, (n - i * q * r - j * p * r) // (p * q)) for i in range(1, p) for j in range(1, q)
    )


def hilbert_series(p, q, r, top: int) -> list[int]:
    """Coefficients of t^0 .. t^top in (1 - t^pqr) / prod(1 - t^w)."""
    series = [1] + [0] * top
    for w in (q * r, p * r, p * q):
        for m in range(w, top + 1):
            series[m] += series[m - w]
    return [x - (series[m - p * q * r] if m >= p * q * r else 0) for m, x in enumerate(series)]


SMALL = [
    (p, q, r)
    for r in range(3, 76)
    for q in range(3, r)
    for p in range(2, q)
    if pairwise_coprime(p, q, r) and p * q * r <= 300
]


def large_triples(rng, count):
    """Pairwise coprime triples with 300 < pqr <= 12000."""
    out = []
    while len(out) < count:
        p, q, r = sorted(rng.sample(range(2, 60), 3))
        if pairwise_coprime(p, q, r) and 300 < p * q * r <= 12000:
            out.append((p, q, r))
    return out


def test_the_family_covers_each_answer():
    genera = {geometric_genus(*t) for t in SMALL}
    assert (2, 3, 5) in SMALL and (2, 3, 7) in SMALL
    assert {0, 1, 2} <= genera
    assert geometric_genus(2, 3, 5) == 0 and geometric_genus(2, 3, 7) == 1
    assert geometric_genus(31, 37, 41) == 6894
    for p, q, r in SMALL:
        d = parse_problem(brieskorn_pham(p, q, r))
        assert d.ray_degrees[(1,)] == Fraction(1, p * q * r), (p, q, r)


def test_classify_matches_the_closed_forms():
    triples = SMALL + large_triples(Random(20261020), 8)
    for p, q, r in triples:
        d = parse_problem(brieskorn_pham(p, q, r))
        genus = geometric_genus(p, q, r)
        report = classify_report(d)
        assert report.properness.verdict == Verdict.YES
        assert report.h1.total == genus, (p, q, r)
        rational = Verdict.YES if (p, q, r) == (2, 3, 5) else Verdict.NO
        assert report.rational.verdict == rational, (p, q, r)
        assert (rational == Verdict.YES) == (1 / p + 1 / q + 1 / r > 1)
        assert report.gorenstein.verdict == Verdict.YES, (p, q, r)
        elliptic = Verdict.YES if genus == 1 else Verdict.NO
        assert report.elliptic.verdict == elliptic, (p, q, r)
        assert report.minimal_elliptic == elliptic, (p, q, r)


def test_ring_matches_the_hilbert_series():
    for p, q, r in SMALL:
        top = p * q * r + 5
        ring = ring_presentation(parse_problem(brieskorn_pham(p, q, r)), top)
        assert list(ring.dimensions) == hilbert_series(p, q, r, top), (p, q, r)
        assert [g.degree for g in ring.generators] == sorted((q * r, p * r, p * q))
        relations = [(b.degree, len(b.relations)) for b in ring.blocks if b.relations]
        assert relations == [(p * q * r, 1)], (p, q, r)
