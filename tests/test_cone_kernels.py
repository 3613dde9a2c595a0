"""The toric multiplicity and the cones against the code they replaced.

The references below are the computations as they were written before the
rewrite: the multiplicity as the gcd of all maximal minors of the ray matrix,
one exact determinant each; the dual cone as the double-description
generators pruned once more by make_cone; and make_cone itself as the
Fourier-Motzkin pruning of every generator followed by a Fourier-Motzkin
pointedness test, with no shortcut for linearly independent generators. The
new code must give the very same integer and the very same Cone value. The
families are seeded, so failures reproduce.
"""

import json

from itertools import combinations
from math import gcd
from random import Random

import pytest

import polydiv.geometry as geometry
import polydiv.linalg as linalg
from polydiv.errors import InternalError
from polydiv.geometry import Cone, _in_ray_span, dual_cone, make_cone
from polydiv.linalg import (
    cone_from_inequalities,
    determinant,
    feasible,
    is_zero,
    matrix_rank,
    primitive,
    vec_neg,
)
from polydiv.problem_io import parse_problem
from polydiv.toric import _span_multiplicity, toric_cone


def reference_span_multiplicity(rays, ambient):
    """gcd of all maximal minors of the ray matrix; 1 for no rays at all."""
    k = len(rays)
    if k == 0:
        return 1
    g = 0
    for cols in combinations(range(ambient), k):
        sub = [[ray[c] for c in cols] for ray in rays]
        g = gcd(g, abs(int(determinant(sub))))
    return g


def reference_dual_cone(cone):
    """Double description, then every generator pruned again by make_cone."""
    lines, rays = cone_from_inequalities(cone.rays, cone.rank)
    gens = list(rays)
    for l in lines:
        gens.append(l)
        gens.append(vec_neg(l))
    return make_cone(gens, cone.rank)


def random_full_row_rank(rng, k, ambient):
    """A k x ambient integer matrix of rank k with small, signed entries."""
    while True:
        spread = rng.choice((1, 2, 4, 9))
        rows = [tuple(rng.randint(-spread, spread) for _ in range(ambient)) for _ in range(k)]
        if matrix_rank(rows) == k:
            return rows


def test_span_multiplicity_matches_gcd_of_minors():
    rng = Random(20091)
    sizes = [(k, ambient) for ambient in range(1, 9) for k in range(ambient + 1)]
    seen = {"k=0": 0, "mult>1": 0, "square": 0, "negative": 0}
    for k, ambient in sizes:
        for _ in range(6 if ambient <= 6 else 3):
            rows = random_full_row_rank(rng, k, ambient)
            expected = reference_span_multiplicity(rows, ambient)
            assert _span_multiplicity(rows, ambient) == expected, (rows, ambient)
            seen["k=0"] += k == 0
            seen["mult>1"] += expected > 1
            seen["square"] += k == ambient > 0
            seen["negative"] += any(x < 0 for row in rows for x in row)
    assert all(n >= 8 for n in seen.values()), seen


def test_span_multiplicity_of_scaled_sublattices():
    # rows T A with A unimodular-ish and det T known: the index is |det T| * mult(A)
    rng = Random(20092)
    for _ in range(40):
        k = rng.randint(1, 4)
        ambient = rng.randint(k, 7)
        base = random_full_row_rank(rng, k, ambient)
        t = random_full_row_rank(rng, k, k)
        rows = [tuple(sum(t[i][r] * base[r][c] for r in range(k)) for c in range(ambient)) for i in range(k)]
        expected = reference_span_multiplicity(rows, ambient)
        assert expected == abs(int(determinant(t))) * reference_span_multiplicity(base, ambient)
        assert _span_multiplicity(rows, ambient) == expected


def test_span_multiplicity_rejects_dependent_rays():
    with pytest.raises(InternalError):
        _span_multiplicity(((1, 2, 3), (2, 4, 6)), 3)
    with pytest.raises(InternalError):
        _span_multiplicity(((1, 0, 2), (0, 1, -1), (1, 1, 1)), 3)


def random_cone(rng, rank, shape):
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(rank))

    if shape == "zero":
        return make_cone([], rank)
    if shape == "pointed":
        # generators on the positive side of a random functional
        f = tuple(rng.choice((1, 2)) * rng.choice((-1, 1)) for _ in range(rank))
        count = rng.randint(rank, rank + 3)
        gens = []
        while len(gens) < count:
            v = vec()
            s = sum(a * b for a, b in zip(f, v))
            if s != 0:
                gens.append(v if s > 0 else vec_neg(v))
        return make_cone(gens, rank)
    if shape == "lineality":
        line = vec()
        return make_cone([line, vec_neg(line)] + [vec() for _ in range(rng.randint(0, rank))], rank)
    if shape == "whole":
        return make_cone([tuple(int(i == j) for j in range(rank)) for i in range(rank)]
                         + [tuple(-int(i == j) for j in range(rank)) for i in range(rank)], rank)
    return make_cone([vec() for _ in range(rng.randint(1, rank + 2))], rank)


def test_dual_cone_matches_make_cone_of_old_generators():
    rng = Random(20093)
    shapes = ("zero", "pointed", "lineality", "whole", "any")
    seen = {"pointed dual": 0, "dual with lines": 0, "zero dual": 0, "full pointed": 0}
    for rank in range(1, 5):
        for shape in shapes:
            for _ in range(8 if rank < 4 else 4):
                cone = random_cone(rng, rank, shape)
                got = dual_cone(cone)
                assert isinstance(got, Cone)
                assert got == reference_dual_cone(cone), (cone, got)
                seen["pointed dual"] += got.pointed and bool(got.rays)
                seen["dual with lines"] += not got.pointed
                seen["zero dual"] += not got.rays
                seen["full pointed"] += (
                    cone.pointed and bool(cone.rays) and matrix_rank(cone.rays) == rank
                )
    assert all(n >= 10 for n in seen.values()), seen


def reference_make_cone(rays, rank):
    """Primitive and deduplicated generators, each dropped while it is a
    nonnegative combination of the others, then a pointedness test."""
    kept = []
    for r in rays:
        p = primitive(r)
        if not is_zero(p) and p not in kept:
            kept.append(p)
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(kept):
            others = kept[:i] + kept[i + 1 :]
            if others and _in_ray_span(r, others, rank):
                kept.pop(i)
                changed = True
                break
    kept.sort()
    pointed = feasible(rank, [(r, 1) for r in kept]) if kept else True
    return Cone(rays=tuple(kept), rank=rank, pointed=pointed)


def random_generators(rng, rank, shape):
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(rank))

    if shape == "independent":
        return list(random_full_row_rank(rng, rng.randint(1, rank), rank))
    if shape == "duplicated":
        # scaled copies of independent generators, and zero vectors
        rows = random_full_row_rank(rng, rng.randint(1, rank), rank)
        gens = [tuple(rng.randint(1, 3) * x for x in r) for r in rows for _ in range(2)]
        return gens + [(0,) * rank] * rng.randint(1, 2)
    if shape == "dependent":
        return [vec() for _ in range(rng.randint(rank + 1, rank + 3))]
    if shape == "lineality":
        line = vec()
        return [line, vec_neg(line)] + [vec() for _ in range(rng.randint(0, rank - 1))]
    return [(0,) * rank] * rng.randint(0, 2)


def test_make_cone_matches_the_fourier_motzkin_path():
    rng = Random(20094)
    shapes = ("independent", "duplicated", "dependent", "lineality", "zero")
    seen = {"simplicial": 0, "redundant dropped": 0, "not pointed": 0, "trivial": 0}
    for rank in range(1, 6):
        for shape in shapes:
            for _ in range(8 if rank < 5 else 3):
                gens = random_generators(rng, rank, shape)
                got = make_cone(gens, rank)
                assert got == reference_make_cone(gens, rank), (gens, got)
                seen["simplicial"] += bool(got.rays) and matrix_rank(got.rays) == len(got.rays)
                seen["redundant dropped"] += matrix_rank(got.rays) < len(got.rays)
                seen["not pointed"] += not got.pointed
                seen["trivial"] += not got.rays
    assert all(n >= 10 for n in seen.values()), seen


def test_trivial_tail_toric_cone_decides_no_feasibility(monkeypatch):
    k, n = 8, 4
    doc = {
        "lattice_rank": k,
        "tail_cone": {"rays": []},
        "base": {"kind": "affine_space", "dim": n},
        "coefficients": [
            {
                "point": {"hyperplane": i},
                "vertices": [[f"{(3 * i + 5 * j) % 11 - 5}/{1 + (i + j) % 6}" for j in range(k)]],
            }
            for i in range(1, n + 1)
        ],
    }
    d = parse_problem(json.dumps(doc))
    calls = []
    real = linalg.feasible

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "feasible", counting)
    monkeypatch.setattr(geometry, "feasible", counting)
    cone = toric_cone(d)
    assert cone.ambient_rank == k + n and cone.rays
    assert calls == []
