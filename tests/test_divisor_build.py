"""The divisor's build path in int, against the code it replaced, and the
work it does.

Three kernels were rewritten to skip repeated work and Fraction arithmetic:
a polyhedron clears its vertices in one int pass (TailedPolyhedron.cleared),
the chamber fan pairs each fan ray with each cleared vertex once and reads
each chamber's minimizers off that table (geometry._minimizers), and P1
points sort by their integer part, then by cross-multiplication
(curves.point_sort_key). Each is compared, seeded, against the old code in
tests/reference_geometry.py and tests/reference_curves.py. The work tests
count calls on fixed documents: a timing can drift, a call count cannot.
"""

from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import reference_curves
import reference_geometry
from polydiv import cli, geometry
from polydiv.curves import P1_INFINITY, P1Point, ProjectiveLine, divisor, p1_point, point_sort_key
from polydiv.errors import InternalError
from polydiv.geometry import TailedPolyhedron, chamber_fan, make_cone
from polydiv.linalg import dot
from polydiv.problem_io import parse_problem
from polydiv.verdicts import Verdict

from test_cone_kernels import random_tail, ray_pairings, tied_polyhedron

HERE = Path(__file__).parent
DATA = HERE / "data"
DOCUMENTS = HERE / "golden" / "documents"


def random_entry(rng, kind):
    value = rng.choice((0, rng.randint(-9, 9), rng.randint(-10**12, 10**12)))
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return value
    return Fraction(value, rng.choice((1, 2, 3, 7, 12, rng.randint(1, 10**9))))


def test_cleared_vertices_match_one_clear_of_every_entry():
    rng = Random(3401)
    seen = Counter()
    for _ in range(600):
        rank = rng.randint(1, 4)
        kind = rng.choice(("int", "Fraction", "mixed"))
        verts = tuple(
            tuple(random_entry(rng, kind) for _ in range(rank)) for _ in range(rng.randint(1, 6))
        )
        want = reference_geometry.cleared(verts, rank)
        assert geometry._cleared(verts) == want, verts
        poly = TailedPolyhedron(vertices=verts, tail=make_cone([], rank))
        assert poly.cleared == want
        assert all(type(x) is int for row in want[0] for x in row) and type(want[1]) is int
        seen[kind] += 1
        seen["mixed types"] += len({type(x) for v in verts for x in v}) > 1
        seen["denominator > 1"] += want[1] > 1
    assert min(seen.values()) >= 50, seen


def test_minimizers_read_off_the_pairing_table_match_the_dot_products():
    """Every chamber of random fans of rank 1 to 3, and simplices on random
    subsets of their rays, where the sample often ties two vertices and the
    support is often not linear: the same minimizers, or InternalError on
    both sides."""
    rng = Random(3402)
    seen = Counter()
    for rank in (1, 2, 3):
        shapes = ("trivial", "orthant", "pointed") + (("flat",) if rank > 1 else ())
        for _ in range(20):
            tail = random_tail(rng, rank, rng.choice(shapes))
            polys = [tied_polyhedron(rng, rank, tail) for _ in range(rng.randint(1, 3))]
            fan = chamber_fan(polys, tail)
            minima = dict(fan.minima)
            pairings = ray_pairings(list(minima), polys)
            for ch in fan.chambers:
                got = geometry._minimizers(ch.rays, polys, pairings)
                assert got == reference_geometry.minimizers(ch.rays, polys, minima)
                assert got == ch.minimizers
                seen[f"rank {rank} chamber"] += 1
            for _ in range(10):
                k = rng.randint(1, min(rank, len(minima)))
                rays = tuple(sorted(rng.sample(list(minima), k)))
                try:
                    want = reference_geometry.minimizers(rays, polys, minima)
                except InternalError:
                    with pytest.raises(InternalError):
                        geometry._minimizers(rays, polys, pairings)
                    seen["not linear"] += 1
                    continue
                assert geometry._minimizers(rays, polys, pairings) == want
                sample = tuple(map(sum, zip(*rays)))
                for p in polys:
                    values = [dot(sample, n) for n in p.cleared[0]]
                    seen["tie"] += values.count(min(values)) > 1
    assert min(seen.values()) >= 20, seen


def random_p1_points(rng):
    """P1 points with infinity, negative values, many sharing one integer
    part, and numerators of about 60 digits whose floats coincide."""
    big = rng.randint(10**59, 10**60)
    pool = {P1_INFINITY}
    while len(pool) < rng.randint(2, 14):
        shape = rng.choice(("small", "same floor", "huge", "huge fraction"))
        if shape == "small":
            pt = p1_point(rng.randint(-20, 20), rng.randint(1, 9))
        elif shape == "same floor":
            q = rng.randint(2, 50)
            pt = p1_point(Fraction(rng.choice((-3, 0, 2)) * q + rng.randint(0, q - 1), q))
        elif shape == "huge":
            pt = p1_point(rng.choice((-1, 1)) * (big + rng.randint(0, 1000)))
        else:
            q = rng.randint(2, 10**6)
            pt = p1_point(Fraction(rng.choice((-1, 1)) * big * q + rng.randint(0, q - 1), q))
        pool.add(pt)
    if rng.random() < 0.3:
        pool.discard(P1_INFINITY)
    return list(pool)


def test_p1_point_order_matches_the_fraction_order():
    rng = Random(3403)
    seen = Counter()
    for _ in range(400):
        pts = random_p1_points(rng)
        rng.shuffle(pts)
        want = sorted(pts, key=reference_curves.point_sort_key)
        assert sorted(pts, key=point_sort_key) == want
        coefficients = {pt: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for pt in pts}
        assert [pt for pt, _ in divisor(ProjectiveLine(), coefficients).terms] == want
        for a, b in zip(want, want[1:]):
            assert point_sort_key(a) < point_sort_key(b)
            if not b.is_infinity:
                assert a < b and not b < a
                seen["same integer part"] += a.a // a.b == b.a // b.b
                seen["same float"] += float(a.affine_value) == float(b.affine_value)
                seen["negative"] += a.a < 0
        seen["infinity"] += P1_INFINITY in pts
    assert min(seen.values()) >= 50, seen


def test_p1_point_of_a_fraction_keeps_its_lowest_terms():
    for value in (0, 5, -7, Fraction(6, 4), Fraction(-3, 9), Fraction(10**70 + 1, 10**69)):
        x = Fraction(value)
        assert p1_point(value) == P1Point(x.numerator, x.denominator) == p1_point(value, 1)
    assert p1_point(Fraction(3, 2), 2) == p1_point(3, 4) == P1Point(3, 4)


# ---------------------------------------------------------------------------
# the work, counted


def test_minimizers_take_no_dot_product_while_a_rank_two_fan_builds(monkeypatch):
    d = parse_problem((DOCUMENTS / "square_coefficient.json").read_text(encoding="utf-8"))
    assert d.rank == 2
    calls = Counter()
    inside = []
    real_dot, real_minimizers = geometry.dot, geometry._minimizers

    def counting_dot(u, v):
        calls["dot in _minimizers" if inside else "dot"] += 1
        return real_dot(u, v)

    def watched_minimizers(*args):
        calls["_minimizers"] += 1
        inside.append(True)
        try:
            return real_minimizers(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(geometry, "dot", counting_dot)
    monkeypatch.setattr(geometry, "_minimizers", watched_minimizers)
    fan = d.fan
    assert calls["_minimizers"] == len(fan.chambers) > 1
    assert any(len(p.vertices) > 1 for _, p in d.coefficients)
    assert calls["dot in _minimizers"] == 0
    assert calls["dot"] > 0


@pytest.mark.parametrize(
    "path, elliptic, asks",
    [(DOCUMENTS / "ring_p1.json", Verdict.NO, 0), (DATA / "golden_one.json", Verdict.YES, 1)],
    ids=("elliptic no", "elliptic yes"),
)
def test_elliptic_asks_for_gorenstein_only_when_the_verdict_is_not_no(
    monkeypatch, capsys, path, elliptic, asks
):
    calls = []
    real = cli.gorenstein
    monkeypatch.setattr(cli, "gorenstein", lambda d: calls.append(d) or real(d))
    assert cli.main(["elliptic", str(path)]) == 0
    out = capsys.readouterr().out
    assert f'"verdict": "{elliptic.value}"' in out
    assert len(calls) == asks


def test_p1_point_order_builds_no_fraction(monkeypatch):
    pts = [p1_point(-7, 3), p1_point(-2), p1_point(0), p1_point(5, 2), p1_point(11, 4), P1_INFINITY]
    shuffled = pts[::-1]
    built = []
    real = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    ordered = sorted(shuffled, key=point_sort_key)
    Fraction(1, 2)  # the counter sees a Fraction when one is built
    assert len(built) == 1
    monkeypatch.undo()
    assert ordered == pts
    assert Fraction(3, 4) + 1 == Fraction(7, 4)


def test_floor_degrees_of_a_negative_weight_bound_is_empty():
    d = parse_problem((DATA / "golden_one.json").read_text(encoding="utf-8"))
    assert d.base.projective and d.rank == 1
    for m_max in (-1, -2, -10):
        assert list(d.floor_degrees(m_max)) == []
    assert list(d.floor_degrees(0)) == [0]
