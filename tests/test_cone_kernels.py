"""The toric multiplicity and the cone kernel against the code they replaced.

The references below are the computations as they were written before the
rewrites, kept here as independent oracles:

- the multiplicity as the gcd of all maximal minors of the ray matrix, one
  exact determinant each;
- exact feasibility of a linear system by Fourier-Motzkin elimination
  (`feasible`), and one solution of a linear equation system (`solve`);
- double description that combines every positive/negative pair of rays and
  then prunes each candidate ray with one Fourier-Motzkin feasibility test;
- from reference_linalg: the double-description step with frozenset tight
  sets and no count prefilter on its adjacency test, compared with the
  bitmask step after every normal;
- make_cone as the Fourier-Motzkin pruning of every generator followed by a
  Fourier-Motzkin pointedness test, with no shortcut for linearly
  independent generators, and the dual cone as the double-description
  generators pruned once more by that make_cone;
- make_polyhedron and ray_meets as Fourier-Motzkin systems in the
  coefficients of a convex combination;
- primitive through Fractions for every vector;
- the chamber-fan split as two fresh double descriptions and a rank test
  per side, before regions carried their double description;
- support minima and chamber minimizers as Fraction pairings with every
  vertex, ties broken by sorting the tied vertices;
- from reference_geometry: membership by a fresh double description of the
  generators (in_ray_span), make_polyhedron by one homogenized double
  description for any number of vertices, and ray_meets;
- the facet normals of a chamber, as a set, as the facets of a double
  description of its rays, and a count of the double descriptions a whole
  classify runs;
- the triangulation of a rank-3 region that pairs two rays when no third ray
  is tight wherever both are, before it read a shared tight normal;
- the dual of a cone, and its double description, as a fresh fold over its
  rays, whatever make_cone stored as dual_dd, and ChamberFan.all_rays as the
  list dedupe it replaced;
- the minima a chamber fan keeps at its rays as Fraction pairings with
  every vertex.

The code in src/ must give the very same integers, lists (in order) and
values, with one exception: a cone that is not pointed has no extreme rays,
and the reference make_cone keeps an order-dependent subset of its
generators, so there make_cone must give the same set (by mutual
membership) and the same value for any order of the generators. The
families are seeded, so failures reproduce.
"""

import io
import json

from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path
from random import Random
from time import perf_counter

import pytest

import polydiv.geometry as geometry
from polydiv import cli
from polydiv.errors import InternalError, PolydivError, ShapeError, UnsupportedRankError
from polydiv.geometry import (
    Cone,
    TailedPolyhedron,
    make_cone,
    make_polyhedron,
    support_eval,
)
from polydiv.linalg import (
    DoubleDescription,
    dot,
    is_zero,
    primitive,
    vec_neg,
    vec_scale,
    vec_sub,
)
from polydiv.problem_io import parse_problem
from polydiv.toric import _span_multiplicity, toric_cone
from reference_geometry import in_ray_span, ray_meets
from reference_geometry import make_polyhedron as homogenized_make_polyhedron
from reference_linalg import cone_from_inequalities, determinant, rref, rref_rank, whole_space
from reference_linalg import extend as reference_extend

# A safety valve for Fourier-Motzkin blowup in the reference.
_FM_CONSTRAINT_CAP = 200_000


def solve(rows, rhs):
    """One exact solution of A x = b, or None if the system is inconsistent."""
    if not rows:
        return ()
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = reduced[i][-1]
    return tuple(x)


def _normalize_constraint(coeffs, rhs):
    """Scale <coeffs, x> >= rhs by a positive rational to primitive integers."""
    scale = 1
    for x in list(coeffs) + [rhs]:
        x = Fraction(x)
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(Fraction(x) * scale) for x in coeffs]
    ri = int(Fraction(rhs) * scale)
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    g = gcd(g, abs(ri))
    if g > 1:
        ints = [x // g for x in ints]
        ri //= g
    return tuple(ints), ri


def feasible(nvars, ineqs, eqs=()):
    """Exact feasibility of {x : <a,x> >= b for (a,b) in ineqs, <c,x> = d in eqs}.

    Equalities are eliminated by substitution first, then Fourier-Motzkin
    elimination decides the remaining inequality system.
    """
    eq_list = [([Fraction(c) for c in a], Fraction(b)) for a, b in eqs]
    in_list = [([Fraction(c) for c in a], Fraction(b)) for a, b in ineqs]

    while True:
        idx = next((i for i, (a, _) in enumerate(eq_list) if any(x != 0 for x in a)), None)
        if idx is None:
            break
        a, b = eq_list.pop(idx)
        j = next(k for k, x in enumerate(a) if x != 0)
        inv = 1 / a[j]
        a = [x * inv for x in a]
        b = b * inv

        def substitute(coeffs, rhs):
            f = coeffs[j]
            if f == 0:
                return coeffs, rhs
            return [x - f * y for x, y in zip(coeffs, a)], rhs - f * b

        eq_list = [substitute(c, r) for c, r in eq_list]
        in_list = [substitute(c, r) for c, r in in_list]

    for _, b in eq_list:
        if b != 0:
            return False

    cons = set()

    def add(coeffs, rhs):
        """Insert a constraint; False means it is already unsatisfiable."""
        c, r = _normalize_constraint(coeffs, rhs)
        if all(x == 0 for x in c):
            return r <= 0
        cons.add((c, r))
        return True

    for coeffs, rhs in in_list:
        if not add(coeffs, rhs):
            return False

    remaining = [j for j in range(nvars) if any(c[j] for c, _ in cons)]
    while remaining:
        best = None
        for j in remaining:
            pos = sum(1 for c, _ in cons if c[j] > 0)
            neg = sum(1 for c, _ in cons if c[j] < 0)
            score = pos * neg
            if best is None or score < best[0]:
                best = (score, j)
        j = best[1]
        pos = [(c, r) for c, r in cons if c[j] > 0]
        neg = [(c, r) for c, r in cons if c[j] < 0]
        zero = [(c, r) for c, r in cons if c[j] == 0]
        cons = set(zero)
        for cp, rp in pos:
            for cn, rn in neg:
                mp, mn = -cn[j], cp[j]
                coeffs = tuple(mp * x + mn * y for x, y in zip(cp, cn))
                if not add(coeffs, mp * rp + mn * rn):
                    return False
        if len(cons) > _FM_CONSTRAINT_CAP:
            raise PolydivError("feasibility system grew past the safety cap")
        remaining = [k for k in remaining if k != j and any(c[k] for c, _ in cons)]
    return True


def _nonnegative(nv, count):
    """The inequalities x_k >= 0 for the first count of nv variables."""
    return [(tuple(int(i == k) for i in range(nv)), 0) for k in range(count)]


def reference_in_ray_span(v, rays, rank):
    """Is v a nonnegative rational combination of the given rays?"""
    eqs = [([r[c] for r in rays], v[c]) for c in range(rank)]
    return feasible(len(rays), _nonnegative(len(rays), len(rays)), eqs)


def _prune_rays(rays, lines, rank):
    """Drop zero and repeated rays, then each ray in the cone of the others."""
    rays = list(dict.fromkeys(r for r in rays if not is_zero(r)))
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rays):
            others = rays[:i] + rays[i + 1 :]
            nv = len(others) + len(lines)
            eqs = [([o[c] for o in others] + [l[c] for l in lines], r[c]) for c in range(rank)]
            if nv and feasible(nv, _nonnegative(nv, len(others)), eqs):
                rays.pop(i)
                changed = True
                break
    return rays


def reference_cone_from_inequalities(normals, rank):
    """Double description over every pos/neg pair, pruned after each step."""
    lines = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays = []
    for raw in normals:
        a = primitive(raw)
        if is_zero(a):
            continue
        i0 = next((i for i, l in enumerate(lines) if dot(a, l) != 0), None)
        if i0 is not None:
            l0 = lines.pop(i0)
            if dot(a, l0) < 0:
                l0 = vec_neg(l0)
            d0 = dot(a, l0)
            lines = [primitive(vec_sub(vec_scale(d0, l), vec_scale(dot(a, l), l0))) for l in lines]
            rays = [primitive(vec_sub(vec_scale(d0, r), vec_scale(dot(a, r), l0))) for r in rays]
            rays.append(l0)
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            negs = [r for r in rays if dot(a, r) < 0]
            combos = [
                primitive(vec_sub(vec_scale(dot(a, p), n), vec_scale(dot(a, n), p)))
                for p in pos
                for n in negs
            ]
            rays = pos + zero + combos
        rays = _prune_rays(rays, lines, rank)
    lines = [
        l if next(x for x in l if x != 0) > 0 else vec_neg(l)
        for l in (primitive(l) for l in lines)
        if not is_zero(l)
    ]
    return lines, rays


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
            if others and reference_in_ray_span(r, others, rank):
                kept.pop(i)
                changed = True
                break
    kept.sort()
    pointed = feasible(rank, [(r, 1) for r in kept]) if kept else True
    return Cone(rays=tuple(kept), rank=rank, pointed=pointed)


def reference_dual_cone(cone):
    """Double description, then every generator pruned again by make_cone."""
    lines, rays = reference_cone_from_inequalities(cone.rays, cone.rank)
    gens = list(rays)
    for l in lines:
        gens.append(l)
        gens.append(vec_neg(l))
    return reference_make_cone(gens, cone.rank)


def reference_make_polyhedron(vertices, tail):
    """Distinct vertices, each dropped while it lies in conv(others) + tail."""
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in v) for v in vertices))
    changed = True
    while changed:
        changed = False
        for i, v in enumerate(kept):
            others = kept[:i] + kept[i + 1 :]
            nv = len(others) + len(tail.rays)
            eqs = [([o[c] for o in others] + [r[c] for r in tail.rays], v[c]) for c in range(tail.rank)]
            eqs.append(([1] * len(others) + [0] * len(tail.rays), 1))
            if others and feasible(nv, _nonnegative(nv, nv), eqs):
                kept.pop(i)
                changed = True
                break
    kept.sort()
    return TailedPolyhedron(vertices=tuple(kept), tail=tail)


def reference_ray_meets(poly, ray):
    """Is t * ray = sum lambda_v v + sum mu_r r with t, lambda, mu >= 0, sum lambda = 1?"""
    verts, tail = poly.vertices, poly.tail.rays
    nv = 1 + len(verts) + len(tail)
    eqs = [([Fraction(ray[c])] + [-v[c] for v in verts] + [-r[c] for r in tail], 0) for c in range(poly.rank)]
    eqs.append(([0] + [1] * len(verts) + [0] * len(tail), 1))
    return feasible(nv, _nonnegative(nv, nv), eqs)


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


def random_full_row_rank(rng, k, ambient):
    """A k x ambient integer matrix of rank k with small, signed entries."""
    while True:
        spread = rng.choice((1, 2, 4, 9))
        rows = [tuple(rng.randint(-spread, spread) for _ in range(ambient)) for _ in range(k)]
        if rref_rank(rows) == k:
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
                got = cone.dual
                assert isinstance(got, Cone)
                assert got == reference_dual_cone(cone), (cone, got)
                seen["pointed dual"] += got.pointed and bool(got.rays)
                seen["dual with lines"] += not got.pointed
                seen["zero dual"] += not got.rays
                seen["full pointed"] += (
                    cone.pointed and bool(cone.rays) and rref_rank(cone.rays) == rank
                )
    assert all(n >= 10 for n in seen.values()), seen


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
    permute = Random(20097)
    shapes = ("independent", "duplicated", "dependent", "lineality", "zero")
    seen = {"simplicial": 0, "redundant dropped": 0, "not pointed": 0, "trivial": 0}
    for rank in range(1, 6):
        for shape in shapes:
            for _ in range(8 if rank < 5 else 3):
                gens = random_generators(rng, rank, shape)
                got = make_cone(gens, rank)
                want = reference_make_cone(gens, rank)
                if want.pointed:
                    assert got == want, (gens, got)
                else:
                    # no extreme rays: the reference keeps an order-dependent
                    # subset of the generators, make_cone one form per set
                    assert not got.pointed, (gens, got)
                    assert all(reference_in_ray_span(r, want.rays, rank) for r in got.rays)
                    assert all(reference_in_ray_span(r, got.rays, rank) for r in want.rays)
                    shuffled = list(gens)
                    permute.shuffle(shuffled)
                    assert make_cone(shuffled, rank) == got, (gens, shuffled)
                    assert make_cone(got.rays, rank) == got
                seen["simplicial"] += bool(got.rays) and rref_rank(got.rays) == len(got.rays)
                seen["redundant dropped"] += rref_rank(got.rays) < len(got.rays)
                seen["not pointed"] += not got.pointed
                seen["trivial"] += not got.rays
    assert all(n >= 10 for n in seen.values()), seen


def test_make_cone_of_the_whole_plane_does_not_depend_on_generators():
    whole = make_cone([(1, 0), (-1, 1), (-1, -1)], 2)
    assert whole == make_cone([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    assert whole == Cone(rays=((-1, 0), (0, -1), (0, 1), (1, 0)), rank=2, pointed=False)


def test_make_cone_of_parabola_generators_is_fast():
    # one double description per candidate generator would be quadratic here
    extreme = [(i, i * i, 1) for i in range(32)]
    interior = [(i, i * i + 1, 2) for i in range(1, 31)]
    start = perf_counter()
    cone = make_cone(extreme + interior, 3)
    assert perf_counter() - start < 1.0
    assert cone == Cone(rays=tuple(sorted(extreme)), rank=3, pointed=True)


def test_double_description_of_two_hundred_parabola_rays_is_fast():
    # tight sets rebuilt against every processed normal at each step made
    # this cubic in the number of rays: 21.5 million dot products
    gens = [(i, i * i, 1) for i in range(200)]
    start = perf_counter()
    cone = make_cone(gens, 3)
    dual = cone.dual
    assert perf_counter() - start < 2.0
    assert cone == Cone(rays=tuple(gens), rank=3, pointed=True)
    assert dual.pointed and len(dual.rays) == 200


def counted_folds(monkeypatch):
    """The (normals, rank) of every DoubleDescription.of call from now on."""
    calls = []
    real = DoubleDescription.of.__func__

    def counting(cls, normals, rank):
        calls.append((normals, rank))
        return real(cls, normals, rank)

    monkeypatch.setattr(DoubleDescription, "of", classmethod(counting))
    return calls


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
    calls = counted_folds(monkeypatch)
    cone = toric_cone(parse_problem(json.dumps(doc)))
    assert cone.ambient_rank == k + n and cone.rays
    assert calls == []


def test_solve_consistent_and_inconsistent():
    assert solve([[2, 0], [0, 4]], [6, 8]) == (3, 2)
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_feasible_one_dimensional():
    # x >= 1 and -x >= 0 cannot both hold
    assert not feasible(1, [((1,), 1), ((-1,), 0)])
    assert feasible(1, [((1,), -1), ((-1,), 0)])


def test_feasible_with_equalities():
    # x + y = 1, x >= 0, y >= 0 is the standard simplex
    assert feasible(2, [((1, 0), 0), ((0, 1), 0)], eqs=[((1, 1), 1)])
    assert not feasible(2, [((1, 0), 0), ((0, 1), 0)], eqs=[((1, 1), -1)])


def test_feasible_strict_interior_encoding():
    # the open first quadrant has points with both coordinates >= 1
    assert feasible(2, [((1, 0), 1), ((0, 1), 1)])
    # but the line x = 0 does not
    assert not feasible(2, [((1, 0), 1), ((-1, 0), 0)])


def random_normals(rng, rank, shape):
    """Small signed normals, with a zero, a repeated or an opposite one mixed in.

    At most six at ranks 4 and 5, where the pruned reference can take minutes
    on seven.
    """
    limit = rank + 4 if rank <= 3 else 6
    count = rng.randint(1, limit - (shape != "plain"))
    normals = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
    if shape == "zero":
        normals.insert(rng.randint(0, count), (0,) * rank)
    elif shape == "duplicate":
        normals.insert(rng.randint(0, count), vec_scale(rng.randint(1, 3), rng.choice(normals)))
    elif shape == "lineality":
        normals.insert(rng.randint(0, count), vec_neg(rng.choice(normals)))
    return normals


def test_cone_from_inequalities_matches_the_pruned_reference():
    rng = Random(20095)
    shapes = ("plain", "zero", "duplicate", "lineality")
    seen = {"lines": 0, "pointed with rays": 0, "more rays than rank": 0, "origin": 0}
    for rank in range(1, 6):
        for shape in shapes:
            for _ in range(40 if rank < 4 else 15):
                normals = random_normals(rng, rank, shape)
                got = cone_from_inequalities(normals, rank)
                assert got == reference_cone_from_inequalities(normals, rank), normals
                lines, rays = got
                seen["lines"] += bool(lines)
                seen["pointed with rays"] += not lines and bool(rays)
                seen["more rays than rank"] += len(rays) > rank
                seen["origin"] += not lines and not rays
    assert all(n >= 20 for n in seen.values()), seen


def random_polyhedron_input(rng, rank, shape):
    """Fraction vertices, some repeated, over a trivial or a pointed tail."""
    if shape == "trivial":
        tail = make_cone([], rank)
    else:
        f = tuple(rng.choice((1, 2)) * rng.choice((-1, 1)) for _ in range(rank))
        gens = []
        while len(gens) < rng.randint(1, rank + 1):
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            s = dot(f, v)
            if s != 0:
                gens.append(v if s > 0 else vec_neg(v))
        tail = make_cone(gens, rank)
    verts = [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank))
        for _ in range(rng.randint(1, rank + 3))
    ]
    verts += [rng.choice(verts) for _ in range(rng.randint(0, 1))]
    return verts, tail


def test_make_polyhedron_and_ray_meets_match_the_fourier_motzkin_path():
    rng = Random(20096)
    seen = {"vertex dropped": 0, "pointed tail": 0, "meets": 0, "misses": 0}
    for rank in range(1, 5):
        for shape in ("trivial", "pointed"):
            for _ in range(10 if rank < 4 else 5):
                verts, tail = random_polyhedron_input(rng, rank, shape)
                assert tail == reference_make_cone(tail.rays, rank)
                poly = make_polyhedron(verts, tail)
                assert poly == reference_make_polyhedron(verts, tail), (verts, tail)
                seen["vertex dropped"] += len(poly.vertices) < len(set(verts))
                seen["pointed tail"] += bool(tail.rays)
                rays = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(3)]
                rays += [primitive(v) for v in poly.vertices[:2]] + list(tail.rays[:1])
                for ray in rays:
                    got = ray_meets(poly, ray)
                    assert got == reference_ray_meets(poly, ray), (poly, ray)
                    seen["meets" if got else "misses"] += 1
    assert all(n >= 10 for n in seen.values()), seen


def test_make_polyhedron_with_many_rank_three_vertices_matches_the_reference():
    rng = Random(20098)
    seen = {"vertex dropped": 0, "pointed tail": 0}
    for shape in ("trivial", "pointed"):
        for _ in range(10):
            verts, tail = random_polyhedron_input(rng, 3, shape)
            verts += [
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
                for _ in range(rng.randint(1, 4))
            ]
            poly = make_polyhedron(verts, tail)
            assert poly == reference_make_polyhedron(verts, tail), (verts, tail)
            seen["vertex dropped"] += len(poly.vertices) < len(set(verts))
            seen["pointed tail"] += bool(tail.rays)
    assert all(n >= 5 for n in seen.values()), seen


def test_make_polyhedron_of_parabola_points_is_fast():
    # one double description per candidate vertex would be quadratic here
    low = [(Fraction(i, 7), Fraction(i * i, 49)) for i in range(40)]
    high = [(Fraction(i, 7), Fraction(i * i + 3, 49)) for i in range(40)]
    tail = make_cone([(0, 1)], 2)
    start = perf_counter()
    poly = make_polyhedron([p for pair in zip(low, high) for p in pair], tail)
    assert perf_counter() - start < 1.0
    assert poly == TailedPolyhedron(vertices=tuple(low), tail=tail)


def test_make_polyhedron_needs_a_pointed_tail():
    with pytest.raises(ShapeError):
        make_polyhedron([(0, 0), (1, 0)], make_cone([(1, -1), (-1, 1)], 2))


def test_eight_rank_four_normals_give_extreme_rays_fast():
    # the pruned reference grows past its safety cap on this system
    normals = [
        (3, 3, 2, 0), (0, -2, -1, 0), (2, -3, 2, 1), (1, -1, 1, 0),
        (3, 2, -2, 0), (2, -3, -1, -1), (2, 1, 1, -2), (3, -1, -2, -3),
    ]
    start = perf_counter()
    lines, rays = cone_from_inequalities(normals, 4)
    assert perf_counter() - start < 1.0
    assert rays and len(set(rays)) == len(rays)
    for r in rays:
        assert all(dot(n, r) >= 0 for n in normals)
        assert rref_rank([n for n in normals if dot(n, r) == 0]) == 4 - 1 - len(lines)


@pytest.mark.parametrize("n, budget", [(8, 0.1), (16, 1.0)])
def test_ngon_dual_cone_is_fast(n, budget):
    cone = make_cone([(i, i * i, 1) for i in range(n)], 3)
    assert len(cone.rays) == n
    start = perf_counter()
    dual = cone.dual
    assert perf_counter() - start < budget
    # the dual of the cone over an n-gon is the cone over an n-gon
    assert dual.pointed and len(dual.rays) == n
    assert all(dot(f, r) >= 0 for f in dual.rays for r in cone.rays)


def reference_primitive(v):
    """primitive as it was written before int vectors stayed in int."""
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    scale = 1
    for x in fr:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def test_primitive_of_int_vectors_matches_the_fraction_path():
    rng = Random(20111)
    for rank in range(0, 6):
        for _ in range(60):
            bound = rng.choice((1, 3, 12, 10**12))
            v = tuple(rng.randint(-bound, bound) * rng.choice((1, 1, 6)) for _ in range(rank))
            got = primitive(v)
            assert got == reference_primitive(v), v
            assert all(type(x) is int for x in got)
            q = tuple(Fraction(x, rng.randint(1, 9)) for x in v)
            assert primitive(q) == reference_primitive(q), q


def test_extended_double_description_matches_a_fresh_one():
    rng = Random(20112)
    seen = {"lines": 0, "rays": 0, "shared parent": 0}
    for rank in range(1, 5):
        for shape in ("plain", "zero", "duplicate", "lineality"):
            for _ in range(30 if rank < 4 else 10):
                normals = random_normals(rng, rank, shape)
                parent = DoubleDescription.of(normals, rank)
                walls = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(2)]
                for w in walls:
                    child = parent.extend(w)
                    assert child == DoubleDescription.of(normals + [w], rank)
                    # the same lines and rays, in the same order
                    lines = [l if next(x for x in l if x) > 0 else vec_neg(l) for l in child.lines]
                    assert (lines, list(child.rays)) == cone_from_inequalities(normals + [w], rank)
                    seen["lines"] += bool(child.lines)
                    seen["rays"] += bool(child.rays)
                # extending a state leaves it as it was
                assert parent == DoubleDescription.of(normals, rank)
                seen["shared parent"] += parent.extend(walls[0]) != parent.extend(walls[1])
    assert all(n >= 20 for n in seen.values()), seen


def index_set(mask):
    return frozenset(b for b in range(mask.bit_length()) if mask >> b & 1)


def fold_against_the_reference(normals, rank):
    """DoubleDescription.of(normals, rank), checked after every step against
    the frozenset step: the same lines, rays and tight sets, in the same
    order, and the same count."""
    got, want = whole_space(rank), whole_space(rank)
    for a in normals:
        got, want = got.extend(a), reference_extend(want, a)
        assert got.lines == want.lines, (normals, a)
        assert got.rays == want.rays, (normals, a)
        assert all(type(t) is int for t in got.tight)
        assert tuple(map(index_set, got.tight)) == want.tight, (normals, a)
        assert got.count == want.count, (normals, a)
    assert got == DoubleDescription.of(normals, rank)
    return got


def test_bitmask_double_description_matches_the_frozenset_reference():
    """Random systems of rank 1 to 5 with up to nine small normals, a zero,
    a repeated or an opposite one mixed in, and cones with lines."""
    rng = Random(20261020)
    seen = {"lines": 0, "zero": 0, "duplicate": 0, "opposite": 0, "more rays than rank": 0}
    for rank in range(1, 6):
        for shape in ("plain", "zero", "duplicate", "opposite"):
            for _ in range(25):
                count = rng.randint(1, 8 if shape != "plain" else 9)
                normals = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
                extra = {
                    "plain": None,
                    "zero": (0,) * rank,
                    "duplicate": vec_scale(rng.randint(1, 3), rng.choice(normals)),
                    "opposite": vec_neg(rng.choice(normals)),
                }[shape]
                if extra is not None:
                    normals.insert(rng.randint(0, count), extra)
                    seen[shape] += 1
                dd = fold_against_the_reference(normals, rank)
                seen["lines"] += bool(dd.lines)
                seen["more rays than rank"] += len(dd.rays) > rank
    assert all(n >= 20 for n in seen.values()), seen


@pytest.mark.parametrize("d", range(1, 7))
def test_bitmask_double_description_of_cyclic_sets_matches_the_frozenset_reference(d):
    """The normals (1, t, ..., t^(d-1)) for t = 1..n: a cone over a cyclic
    polytope, with the most facets any cone of that rank and count has.
    Every pair of rays the count prefilter drops is one the subset test
    would have dropped."""
    for n in sorted({d, d + 1, 12, 20, 30}):
        dd = fold_against_the_reference([tuple(t**i for i in range(d)) for t in range(1, n + 1)], d)
        assert not dd.lines and len(dd.rays) >= min(n, d)


def reference_full_dim(normals, rank):
    """Does {x : <n, x> >= 0 for every normal} span the whole space?"""
    lines, rays = cone_from_inequalities(normals, rank)
    return rref_rank(lines + rays) == rank


def reference_split(normals, wall, rank):
    """The chamber-fan split as it was: two fresh double descriptions and a
    rank test per side."""
    pos = normals + (wall,)
    neg = normals + (vec_neg(wall),)
    if reference_full_dim(pos, rank) and reference_full_dim(neg, rank):
        return [pos, neg]
    return [normals]


def test_sign_test_split_matches_the_full_dimension_split():
    """On full-dimensional regions and nonzero walls, the only ones a chamber
    fan cuts, the sign test keeps the same pieces, and each piece is the
    double description of its normals, computed afresh. An axis that meets
    a line of the region, as chamber_fan picks it, always cuts it in two."""
    rng = Random(20113)
    seen = {"split": 0, "kept": 0, "lineality": 0}
    for rank in (1, 2, 3):
        for _ in range(40):
            normals = tuple(
                tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(0, rank))
            )
            if not reference_full_dim(normals, rank):
                continue
            regions = [(normals, DoubleDescription.of(normals, rank))]
            for _ in range(rng.randint(1, 4)):
                wall = (0,) * rank
                while is_zero(wall):
                    wall = tuple(rng.randint(-3, 3) for _ in range(rank))
                pieces = []
                for normals, dd in regions:
                    want = reference_split(normals, wall, rank)
                    got = geometry._split(dd, wall)
                    assert got == [DoubleDescription.of(n, rank) for n in want]
                    seen["split" if len(got) == 2 else "kept"] += 1
                    pieces += zip(want, got)
                regions = pieces
            for normals, dd in regions:
                for axis in ((1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (1,)):
                    if all(dot(axis, l) == 0 for l in dd.lines):
                        continue
                    want = reference_split(normals, axis, rank)
                    assert len(want) == 2
                    got = [dd.extend(axis), dd.extend(vec_neg(axis))]
                    assert got == [DoubleDescription.of(n, rank) for n in want]
                    seen["lineality"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def reference_support_eval(poly, m):
    """support_eval as it was: Fraction pairings with every vertex."""
    mm = tuple(Fraction(x) for x in m)
    for r in poly.tail.rays:
        if dot(mm, r) < 0:
            return geometry.MINUS_INFINITY
    return min(dot(mm, v) for v in poly.vertices)


def reference_minimizers(simplex_rays, polys):
    """The chamber minimizers as they were: Fraction minima, ties broken by
    sorting."""
    rank = len(simplex_rays[0])
    sample = tuple(sum(r[c] for r in simplex_rays) for c in range(rank))
    minimizers = []
    for p in polys:
        best = min(dot(sample, v) for v in p.vertices)
        chosen = sorted(v for v in p.vertices if dot(sample, v) == best)[0]
        for u in simplex_rays:
            if dot(u, chosen) != min(dot(u, v) for v in p.vertices):
                raise InternalError("chamber is not a linearity region")
        minimizers.append(chosen)
    return tuple(minimizers)


def tied_polyhedron(rng, rank, tail):
    """Vertices on a coarse grid of halves and thirds, so that many weights
    tie between two or more of them."""
    verts = [
        tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rank))
        for _ in range(rng.randint(1, rank + 4))
    ]
    return make_polyhedron(verts, tail)


def ray_minima(rays, polys):
    """The table chamber_fan hands _minimizers: each ray with its int minimum
    over the cleared vertices of each polyhedron."""
    return {u: tuple(min(dot(u, n) for n in p.cleared[0]) for p in polys) for u in rays}


def test_integer_support_minima_match_the_fraction_path():
    rng = Random(20114)
    seen = {"tie": 0, "unbounded": 0, "rational weight": 0, "tied chamber": 0, "fan": 0}
    for rank in (1, 2, 3):
        for tail_rays in ([], [tuple(int(i == j) for j in range(rank)) for i in range(rank)]):
            tail = make_cone(tail_rays, rank)
            for _ in range(15):
                polys = [tied_polyhedron(rng, rank, tail) for _ in range(rng.randint(1, 2))]
                for p in polys:
                    for _ in range(12):
                        m = tuple(rng.randint(-3, 3) for _ in range(rank))
                        if rng.random() < 0.25:
                            m = tuple(Fraction(x, rng.randint(1, 4)) for x in m)
                            seen["rational weight"] += 1
                        got = support_eval(p, m)
                        assert got == reference_support_eval(p, m), (p, m)
                        if got is geometry.MINUS_INFINITY:
                            seen["unbounded"] += 1
                            continue
                        assert type(got) is Fraction
                        seen["tie"] += sum(dot(m, v) == got for v in p.vertices) > 1
                # low-dimensional "chambers" tie at their sample point
                for _ in range(10):
                    rays = [tuple(rng.randint(-1, 1) for _ in range(rank))
                            for _ in range(rng.randint(1, rank))]
                    rays = [r for r in rays if not is_zero(r)]
                    if not rays:
                        continue
                    rays = make_cone(rays, rank).rays
                    try:
                        want = reference_minimizers(rays, polys)
                    except InternalError:
                        with pytest.raises(InternalError):
                            geometry._minimizers(rays, polys, ray_minima(rays, polys))
                        continue
                    assert geometry._minimizers(rays, polys, ray_minima(rays, polys)) == want
                    sample = tuple(sum(r[c] for r in rays) for c in range(rank))
                    seen["tied chamber"] += any(
                        sum(dot(sample, v) == dot(sample, w) for v in p.vertices) > 1
                        for p, w in zip(polys, want)
                    )
                for ch in geometry.chamber_fan(polys, tail).chambers:
                    assert ch.minimizers == reference_minimizers(ch.rays, polys)
                    seen["fan"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def random_tail(rng, rank, shape):
    """A pointed tail: trivial, the orthant, short of full dimension, or
    pointed with up to rank + 2 rays."""
    if shape == "trivial":
        return make_cone([], rank)
    if shape == "orthant":
        return make_cone([tuple(int(i == j) for j in range(rank)) for i in range(rank)], rank)
    if shape == "flat":
        return make_cone(random_full_row_rank(rng, rng.randint(1, rank - 1), rank), rank)
    return random_cone(rng, rank, "pointed")


def test_chamber_facets_match_the_double_description(monkeypatch):
    """Each chamber carries the facet normal opposite each ray: the facets
    of its double description, one per ray, positive on its own ray and
    zero on the others. Rank-3 pieces of non-simplicial regions included."""
    pieces = set()
    real = geometry._triangulate

    def recording(dd, rank):
        out = real(dd, rank)
        if len(dd.rays) > rank:
            pieces.update(out)
        return out

    monkeypatch.setattr(geometry, "_triangulate", recording)
    rng = Random(20261101)
    seen = {1: 0, 2: 0, 3: 0, "triangulated": 0, "flat tail": 0}
    for rank in (1, 2, 3):
        shapes = ("trivial", "orthant", "pointed") + (("flat",) if rank > 1 else ())
        for shape in shapes:
            for _ in range(6 if rank < 3 else 3):
                tail = random_tail(rng, rank, shape)
                polys = [tied_polyhedron(rng, rank, tail) for _ in range(rng.randint(1, 2))]
                for ch in geometry.chamber_fan(polys, tail).chambers:
                    assert len(ch.facets) == len(ch.rays) == rank
                    want = cone_from_inequalities(ch.rays, rank)
                    assert want[0] == [] and set(ch.facets) == set(want[1]), ch
                    for u, f in zip(ch.rays, ch.facets):
                        assert all(type(x) is int for x in f)
                        assert [dot(f, w) > 0 for w in ch.rays] == [w == u for w in ch.rays]
                        assert all(dot(f, w) == 0 for w in ch.rays if w != u)
                    seen[rank] += 1
                    seen["triangulated"] += ch.rays in pieces
                    seen["flat tail"] += shape == "flat"
    assert all(n >= 10 for n in seen.values()), seen


def reference_triangulate(dd, rank):
    """_triangulate as it was: two rays span a facet iff no third ray is
    tight on every processed normal on which both are, the adjacency test."""
    rays = dd.rays
    # the bitmasks as index sets, so that <= is the subset test
    tight = [{b for b in range(dd.count) if t >> b & 1} for t in dd.tight]
    k = len(rays)
    if k == rank:
        return [tuple(sorted(rays))]
    return [
        tuple(sorted((rays[0], rays[i], rays[j])))
        for i in range(1, k)
        for j in range(i + 1, k)
        if not any(tight[i] & tight[j] <= t for h, t in enumerate(tight) if h not in (i, j))
    ]


def test_triangulation_by_a_shared_tight_normal_matches_the_adjacency_test():
    """Regions as chamber_fan makes them: a tail's dual_dd, cut by random
    walls, and a region with lines cut by the axes. The tails are random and
    the cones over n-gons, whose duals are n-gon cones, each uncut and cut. Every pointed one,
    non-simplicial pieces included, is triangulated into the same simplices
    in the same order. At rank 3 a piece an axis cuts off a region with
    lines has three rays, so only tails and walls give wider ones."""
    rng = Random(20261123)
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    seen = {"wide tail dual": 0, "wide wall piece": 0, "axis piece": 0}
    tails = [random_tail(rng, 3, shape)
             for shape in ("trivial", "orthant", "flat", "pointed") for _ in range(30)]
    tails += [make_cone([(i, i * i, 1) for i in range(n)], 3) for n in range(4, 16)]
    for tail, cuts in ((tail, cuts) for tail in tails for cuts in (0, rng.randint(1, 4))):
        regions = [(tail.dual_dd, "tail")]
        for _ in range(cuts):
            wall = (0, 0, 0)
            while is_zero(wall):
                wall = tuple(rng.randint(-3, 3) for _ in range(3))
            pieces = []
            for dd, how in regions:
                cut = geometry._split(dd, wall)
                pieces += [(piece, "wall" if len(cut) == 2 else how) for piece in cut]
            regions = pieces
        while regions:
            dd, how = regions.pop()
            if dd.lines:
                axis = next(a for a in axes if any(dot(a, l) != 0 for l in dd.lines))
                regions += [(dd.extend(axis), "axis"), (dd.extend(vec_neg(axis)), "axis")]
                continue
            assert geometry._triangulate(dd, 3) == reference_triangulate(dd, 3), dd
            seen["wide tail dual"] += how == "tail" and len(dd.rays) > 3
            seen["wide wall piece"] += how == "wall" and len(dd.rays) > 3
            seen["axis piece"] += how == "axis"
    assert all(n >= 10 for n in seen.values()), seen


def test_cone_contains_matches_the_ray_span_reference():
    rng = Random(20261102)
    shapes = ("zero", "pointed", "lineality", "whole", "any")
    seen = {"in": 0, "out": 0, "not pointed": 0, "trivial": 0, "fraction": 0}
    for rank in range(1, 5):
        for shape in shapes:
            for _ in range(8 if rank < 4 else 4):
                cone = random_cone(rng, rank, shape)
                vectors = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(4)]
                vectors += [(0,) * rank, *cone.rays[:2], tuple(map(sum, zip(*cone.rays)))]
                vectors += [vec_neg(r) for r in cone.rays[:1]]
                vectors.append(
                    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rank))
                )
                for v in vectors:
                    if len(v) != rank:
                        continue
                    got = geometry.cone_contains(cone, v)
                    assert got == in_ray_span(v, cone.rays, rank), (cone, v)
                    seen["in" if got else "out"] += 1
                    seen["not pointed"] += not cone.pointed
                    seen["trivial"] += not cone.rays
                    seen["fraction"] += any(type(x) is Fraction for x in v)
    assert all(n >= 20 for n in seen.values()), seen


def test_make_polyhedron_matches_the_homogenized_reference():
    """One to six vertices, with repeats and chains v, v + t, v + t + t' of
    tail-dominated vertices, over trivial, orthant, flat and pointed tails."""
    rng = Random(20261103)
    seen = {"one left": 0, "two left": 0, "three or more": 0, "chain": 0, "repeat": 0}
    for rank in (1, 2, 3, 4):
        shapes = ("trivial", "orthant", "pointed") + (("flat",) if rank > 1 else ())
        for shape in shapes:
            for _ in range(12 if rank < 4 else 4):
                tail = random_tail(rng, rank, shape)
                count = rng.randint(1, 6)
                verts = []
                while len(verts) < count:
                    v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rank))
                    verts.append(v)
                    if tail.rays and len(verts) < count and rng.random() < 0.5:
                        # a chain of vertices, each dominated by the one before
                        for _ in range(rng.randint(1, 2)):
                            t = rng.choice(tail.rays)
                            v = tuple(a + Fraction(rng.randint(1, 3), 2) * b for a, b in zip(v, t))
                            verts.append(v)
                        seen["chain"] += 1
                    if verts and rng.random() < 0.2:
                        verts.append(rng.choice(verts))
                        seen["repeat"] += 1
                rng.shuffle(verts)
                got = make_polyhedron(verts, tail)
                assert got == homogenized_make_polyhedron(verts, tail), (verts, tail)
                left = len(got.vertices)
                seen["one left" if left == 1 else "two left" if left == 2 else "three or more"] += 1
    assert all(n >= 10 for n in seen.values()), seen


CM_NO_RANK3 = {
    "lattice_rank": 3,
    "tail_cone": {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "base": {"kind": "P1"},
    "coefficients": [
        {"point": "0", "vertices": [["-1/2", "-1/2", "-1/2"], ["-1", "-1/3", "-1/3"]]},
        *({"point": p, "vertices": [["-1/2", "-1/2", "-1/2"]]} for p in "1234"),
        {"point": "inf", "vertices": [["4", "5/2", "3"]]},
    ],
}


@pytest.mark.parametrize(
    "name", ["orthant_r2_eps1000.json", "orthant_r3_eps125.json", "golden_one.json", "cm_no_rank3"]
)
def test_classify_runs_one_double_description_per_tail_and_wide_region(monkeypatch, capsys, name):
    """A whole classify, parse included, folds the double description of the
    tail's dual once: the weight cone and the first region of the chamber
    fan both read the tail's dual_dd. Each cut of a region extends it by one
    step, and the triangulation of a non-simplicial rank-3 region reads its
    facets off the region's own tight sets."""
    if name == "cm_no_rank3":
        text = json.dumps(CM_NO_RANK3)
    else:
        folder = "data" if name == "golden_one.json" else "golden/scaling"
        text = (Path(__file__).parent / folder / name).read_text(encoding="utf-8")
    calls = counted_folds(monkeypatch)
    wide = []
    triangulate = geometry._triangulate

    def counting_regions(dd, rank):
        wide.extend([dd.rays] if len(dd.rays) > rank else [])
        return triangulate(dd, rank)

    monkeypatch.setattr(geometry, "_triangulate", counting_regions)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(["classify", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 4), report
    assert len(calls) == 1, (len(calls), len(wide))
    print(f"{name}: {len(calls)} double descriptions, {len(wide)} non-simplicial regions")
    if name == "cm_no_rank3":
        assert report["rational"]["verdict"] == "no" and report["cohen_macaulay"]["verdict"] == "no"
        assert wide


def seeded_dual_generators(rng, rank, shape):
    """Generators of a full-dimensional pointed cone, of a simplicial one, of
    a pointed cone in a random sublattice of lower rank, of a cone with a
    line, or any small vectors; then a redundant sum, a duplicate, a scaled copy and a zero
    vector mixed in, in shuffled order."""

    def positive(k):
        # small vectors on the positive side of a random functional on Z^k
        f = tuple(rng.choice((1, 2)) * rng.choice((-1, 1)) for _ in range(k))
        count, gens = rng.randint(k, k + 4), []
        while len(gens) < count:
            v = tuple(rng.randint(-3, 3) for _ in range(k))
            s = dot(f, v)
            if s != 0:
                gens.append(v if s > 0 else vec_neg(v))
        return gens

    if shape == "full":
        gens = positive(rank)
    elif shape == "simplicial":
        gens = random_full_row_rank(rng, rank, rank)
    elif shape == "flat":
        basis = random_full_row_rank(rng, rng.randint(1, rank - 1), rank)
        gens = [
            tuple(sum(c * b[j] for c, b in zip(v, basis)) for j in range(rank))
            for v in positive(len(basis))
        ]
    elif shape == "lineality":
        line = tuple(rng.randint(-3, 3) for _ in range(rank))
        gens = [line, vec_neg(line)] + positive(rank)[: rng.randint(0, rank)]
    else:
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(1, rank + 3))]
    if len(gens) > 1 and rng.random() < 0.5:
        gens.append(tuple(map(sum, zip(*rng.sample(gens, 2)))))
    if rng.random() < 0.5:
        gens.append(rng.choice(gens))
    if rng.random() < 0.5:
        gens.append(vec_scale(rng.randint(2, 3), rng.choice(gens)))
    if rng.random() < 0.3:
        gens.append((0,) * rank)
    rng.shuffle(gens)
    return gens


def test_make_cone_keeps_the_dual_a_fresh_double_description_gives():
    """A pointed cone that make_cone ran its double description for, and
    kept every generator of, keeps that double description as its dual_dd;
    its dual is the value a fresh double description of its rays gives,
    whatever the order of the generators. Simplicial cones, cones with a
    redundant generator and non-pointed cones keep nothing and compute it.
    Each cone is made again from its own rays, shuffled, which are all
    extreme."""
    rng = Random(20261118)
    shapes = ("full", "simplicial", "flat", "lineality", "any")
    seen = {"kept": 0, "dropped": 0, "not pointed": 0, "shortcut": 0}
    for rank in (2, 3, 4):
        for shape in shapes:
            for _ in range(12):
                gens = seeded_dual_generators(rng, rank, shape)
                cone = make_cone(gens, rank)
                fresh = geometry._cone(*cone_from_inequalities(cone.rays, rank), rank)
                for gens in (gens, rng.sample(cone.rays, len(cone.rays))):
                    shuffled = rng.sample(gens, len(gens))
                    again = make_cone(shuffled, rank)
                    kept = "dual_dd" in vars(again)
                    assert again == cone and again.dual == fresh, (gens, shuffled)
                    distinct = {primitive(g) for g in gens if not is_zero(g)}
                    shortcut = len(cone.rays) <= rank and rref_rank(cone.rays) == len(cone.rays)
                    dropped = len(distinct) > len(cone.rays)
                    assert kept == (cone.pointed and not shortcut and not dropped), (gens, cone)
                    seen["kept"] += kept
                    seen["dropped"] += cone.pointed and dropped
                    seen["not pointed"] += not cone.pointed
                    seen["shortcut"] += shortcut
    assert all(n >= 10 for n in seen.values()), seen
    # a pointed cone short of full dimension keeps its double description too,
    # whose line is the normal of the cone's span
    square = make_cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)], 4)
    assert "dual_dd" in vars(square) and square.dual_dd.lines == ((0, 0, 0, 1),)
    assert square.dual == geometry._cone(*cone_from_inequalities(square.rays, 4), 4)


def test_a_stored_dual_dd_is_the_fold_over_the_rays():
    """At ranks 1 to 4, over simplicial, full, flat and non-pointed cones and
    generators with redundant ones mixed in, in shuffled order: a dual_dd
    that make_cone stored equals a fresh DoubleDescription.of over the cone's
    rays, field for field, and the chamber fan over the cone make_cone gave
    (as parsing builds a tail) equals the one over a fresh Cone with the
    same rays, which folds its own. Each cone is made again from its own
    rays, shuffled, which are all extreme."""
    rng = Random(20261122)
    seen = {1: 0, 2: 0, 3: 0, 4: 0, "stored": 0, "fan": 0}
    for rank in (1, 2, 3, 4):
        shapes = ("full", "simplicial", "lineality", "any") + (("flat",) if rank > 1 else ())
        for shape in shapes:
            for _ in range(12):
                gens = seeded_dual_generators(rng, rank, shape)
                first = make_cone(gens, rank)
                for cone in (first, make_cone(rng.sample(first.rays, len(first.rays)), rank)):
                    stored = vars(cone).get("dual_dd")
                    fresh = DoubleDescription.of(cone.rays, rank)
                    if stored is not None:
                        assert (stored.lines, stored.rays, stored.tight, stored.count) == (
                            fresh.lines, fresh.rays, fresh.tight, fresh.count), (gens, cone)
                        seen["stored"] += 1
                    assert cone.dual_dd == fresh
                    seen[rank] += 1
                    if not cone.pointed:
                        continue
                    twin = Cone(rays=cone.rays, rank=rank, pointed=True)
                    polys = [tied_polyhedron(rng, rank, cone) for _ in range(rng.randint(1, 2))]
                    try:
                        want = geometry.chamber_fan(polys, twin)
                    except UnsupportedRankError:
                        with pytest.raises(UnsupportedRankError):
                            geometry.chamber_fan(polys, cone)
                        continue
                    assert geometry.chamber_fan(polys, cone) == want, (gens, cone)
                    seen["fan"] += 1
    assert all(n >= 10 for n in seen.values()), seen


def test_parsing_the_sixteen_gon_tail_runs_one_double_description(monkeypatch):
    """make_cone keeps the double description of the 16-gon tail's generators
    as its dual_dd, so parsing and reading the dual run that one fold."""
    doc = {
        "lattice_rank": 3,
        "tail_cone": {"rays": [[i, i * i, 1] for i in range(16)]},
        "base": {"kind": "affine_space", "dim": 1},
        "coefficients": [{"point": {"hyperplane": 1}, "vertices": [[0, 0, 1]]}],
    }
    calls = counted_folds(monkeypatch)
    d = parse_problem(json.dumps(doc))
    assert "dual_dd" in vars(d.tail)
    assert len(d.tail.rays) == 16 and len(d.tail.dual.rays) == 16
    assert len(calls) == 1


def reference_all_rays(fan):
    """The rays of all chambers by the list dedupe all_rays replaced, sorted."""
    seen = []
    for ch in fan.chambers:
        for r in ch.rays:
            if r not in seen:
                seen.append(r)
    return tuple(sorted(seen))


def test_chamber_fan_minima_match_the_vertex_pairings():
    """Each fan ray, once and in sorted order, with the minimum of its
    pairing with every vertex of each polyhedron, over that polyhedron's
    cleared denominator; the rank-4 simplicial weight cone included."""
    rng = Random(20261021)
    seen = {1: 0, 2: 0, 3: 0, 4: 0}
    cases = []
    for rank in (1, 2, 3):
        for shape in ("trivial", "orthant", "pointed") + (("flat",) if rank > 1 else ()):
            for _ in range(5):
                tail = random_tail(rng, rank, shape)
                polys = [tied_polyhedron(rng, rank, tail) for _ in range(rng.randint(1, 3))]
                cases.append((tail, polys))
    tail = make_cone([(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)], 4)
    for _ in range(5):
        vertex = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        cases.append((tail, [make_polyhedron([vertex], tail) for _ in range(rng.randint(1, 3))]))
    for tail, polys in cases:
        fan = geometry.chamber_fan(polys, tail)
        rays = sorted({u for ch in fan.chambers for u in ch.rays})
        assert [u for u, _ in fan.minima] == rays
        for u, minima in fan.minima:
            assert len(minima) == len(polys)
            for p, x in zip(polys, minima):
                assert type(x) is int
                assert Fraction(x, p.cleared[1]) == min(dot(u, v) for v in p.vertices), (u, p)
            seen[tail.rank] += 1
    assert all(n >= 4 for n in seen.values()), seen


def test_all_rays_matches_the_list_dedupe():
    rng = Random(20261101)
    fans = 0
    for rank in (1, 2, 3):
        shapes = ("trivial", "orthant", "pointed") + (("flat",) if rank > 1 else ())
        for shape in shapes:
            for _ in range(6 if rank < 3 else 3):
                tail = random_tail(rng, rank, shape)
                polys = [tied_polyhedron(rng, rank, tail) for _ in range(rng.randint(1, 2))]
                fan = geometry.chamber_fan(polys, tail)
                assert fan.all_rays() == reference_all_rays(fan)
                fans += 1
    # the 45-wall rank-3 family: 492 chambers at n = 10
    n = 10
    tail = make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    curve = [
        (Fraction(-i, 3), Fraction(i * i - 9, 5), Fraction((7 * i) % 5 - 4, 2)) for i in range(n)
    ]
    polys = [make_polyhedron(curve, tail), make_polyhedron([(n * n,) * 3], tail)]
    fan = geometry.chamber_fan(polys, tail)
    assert len(fan.chambers) == 492
    assert fan.all_rays() == reference_all_rays(fan)
    assert fans >= 30
