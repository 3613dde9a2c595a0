import random
from fractions import Fraction

import pytest

from polydiv.errors import RankMismatchError, ShapeError
from polydiv.geometry import (
    Cone,
    _facets,
    _triangulate,
    chamber_fan,
    cone_contains,
    make_cone,
    make_polyhedron,
)
from polydiv.linalg import dot

from reference_geometry import minkowski_sum, ray_meets
from reference_pdiv import MINUS_INFINITY, support_eval
from test_cone_kernels import solve


def orthant(rank=2):
    return make_cone([tuple(int(i == j) for j in range(rank)) for i in range(rank)], rank)


def test_make_cone_drops_interior_ray():
    c = make_cone([(1, 0), (1, 2), (1, 1)], 2)
    assert c.rays == ((1, 0), (1, 2))
    assert c.pointed


def test_make_cone_primitivizes_and_dedupes():
    c = make_cone([(2, 4), (1, 2), (3, 6)], 2)
    assert c.rays == ((1, 2),)


def test_make_cone_pointedness():
    assert orthant().pointed
    assert not make_cone([(1, 0), (-1, 0)], 2).pointed
    assert make_cone([], 2).pointed  # the origin
    assert not make_cone([(1, 0), (-1, 1), (-1, -1)], 2).pointed  # whole plane


def test_cone_contains():
    c = make_cone([(1, 0), (1, 2)], 2)
    assert cone_contains(c, (1, 1))
    assert cone_contains(c, (0, 0))
    assert not cone_contains(c, (0, 1))
    assert not cone_contains(c, (-1, 0))
    assert cone_contains(make_cone([], 2), (0, 0))
    assert not cone_contains(make_cone([], 2), (1, 0))


def test_dual_cone_halfline_in_plane():
    d = make_cone([(1, 2)], 2).dual
    assert d.rays == ((-2, 1), (1, 0), (2, -1))
    assert not d.pointed


def test_dual_cone_orthant_is_self_dual():
    assert orthant().dual == orthant()


def test_dual_cone_of_origin_is_everything():
    d = make_cone([], 2).dual
    assert d.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_dual_cone_involution_on_pointed_full_cones():
    rng = random.Random(20260815)
    produced = 0
    while produced < 25:
        rank = rng.choice([2, 3])
        rays = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(rank, rank + 2))
        ]
        c = make_cone(rays, rank)
        d = c.dual
        if not (c.pointed and d.pointed and c.rays and d.rays):
            continue  # need pointed and full-dimensional for involution
        produced += 1
        assert d.dual == c


def test_support_eval_hand_values():
    # {-1/4} + Q>=0 in rank 1
    p = make_polyhedron([(Fraction(-1, 4),)], make_cone([(1,)], 1))
    assert support_eval(p, (1,)) == Fraction(-1, 4)
    assert support_eval(p, (-1,)) is MINUS_INFINITY
    # the fan's table holds the same minimum over the cleared denominator
    assert chamber_fan([p], p.tail).minima == (((1,), (-1,)),) and p.cleared[1] == 4


def test_support_eval_minimum_over_vertices():
    p = make_polyhedron([(0, 0), (1, 0), (0, 1)], make_cone([], 2))
    assert support_eval(p, (1, 1)) == 0
    assert support_eval(p, (-1, -1)) == -1
    assert support_eval(p, (-1, 0)) == -1
    minima = chamber_fan([p], p.tail).minima
    assert len(minima) >= 4
    for u, (x,) in minima:
        assert Fraction(x, p.cleared[1]) == support_eval(p, u) == min(dot(u, v) for v in p.vertices)


def test_make_polyhedron_removes_non_extreme_points():
    tail = make_cone([], 1)
    p = make_polyhedron([(0,), (1,), (Fraction(1, 2),)], tail)
    assert p.vertices == ((Fraction(0),), (Fraction(1),))


def test_make_polyhedron_vertex_absorbed_by_tail():
    # 1 lies inside {0} + Q>=0
    p = make_polyhedron([(0,), (1,)], make_cone([(1,)], 1))
    assert p.vertices == ((Fraction(0),),)


def test_minkowski_sum_unit_square():
    tail = make_cone([], 2)
    a = make_polyhedron([(0, 0), (1, 0)], tail)
    b = make_polyhedron([(0, 0), (0, 1)], tail)
    s = minkowski_sum(a, b)
    assert s.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    )


def test_minkowski_sum_tail_mismatch():
    a = make_polyhedron([(0,)], make_cone([(1,)], 1))
    b = make_polyhedron([(0,)], make_cone([], 1))
    with pytest.raises(ShapeError):
        minkowski_sum(a, b)


def test_ray_meets():
    p = make_polyhedron([(1, 1)], make_cone([(1, 0)], 2))
    assert not ray_meets(p, (0, 1))
    assert ray_meets(p, (1, 1))
    assert ray_meets(p, (2, 1))  # (2,1) * 1 = (1,1) + 1*(1,0)
    assert not ray_meets(p, (-1, -1))


def _random_poly(rng, rank, tail):
    nverts = rng.randint(1, 3)
    vertices = [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
        for _ in range(nverts)
    ]
    return make_polyhedron(vertices, tail)


def test_support_superadditivity_and_homogeneity():
    rng = random.Random(7)
    for _ in range(40):
        rank = rng.choice([1, 2, 3])
        tail_rays = [tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rank)]
        tail = make_cone(tail_rays, rank)
        p = _random_poly(rng, rank, tail)
        m1 = tuple(rng.randint(-3, 3) for _ in range(rank))
        m2 = tuple(rng.randint(-3, 3) for _ in range(rank))
        h1 = support_eval(p, m1)
        h2 = support_eval(p, m2)
        if h1 is MINUS_INFINITY or h2 is MINUS_INFINITY:
            continue
        both = support_eval(p, tuple(a + b for a, b in zip(m1, m2)))
        assert both is not MINUS_INFINITY
        assert both >= h1 + h2
        c = rng.randint(1, 5)
        assert support_eval(p, tuple(c * a for a in m1)) == c * h1


def test_minkowski_support_is_additive():
    rng = random.Random(11)
    for _ in range(30):
        rank = rng.choice([1, 2])
        tail_rays = [tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rank)]
        tail = make_cone(tail_rays, rank)
        p = _random_poly(rng, rank, tail)
        q = _random_poly(rng, rank, tail)
        s = minkowski_sum(p, q)
        for _ in range(5):
            m = tuple(rng.randint(-3, 3) for _ in range(rank))
            hp = support_eval(p, m)
            hq = support_eval(q, m)
            hs = support_eval(s, m)
            if hp is MINUS_INFINITY or hq is MINUS_INFINITY:
                assert hs is MINUS_INFINITY
            else:
                assert hs == hp + hq


def test_chamber_fan_rank_one_single_chamber():
    tail = make_cone([(1,)], 1)
    p = make_polyhedron([(Fraction(1, 2),), (2,)], tail)
    fan = chamber_fan([p], tail)
    assert tail.dual == make_cone([(1,)], 1)
    assert len(fan.chambers) == 1
    assert fan.chambers[0].rays == ((1,),)
    assert fan.chambers[0].facets == ((1,),)
    assert fan.chambers[0].minimizers == (((Fraction(1, 2)),),)


def test_chamber_fan_rank_one_full_line_two_chambers():
    # the trivial tail: the weight cone is the whole line
    p = make_polyhedron([(0,), (1,)], make_cone([], 1))
    fan = chamber_fan([p], make_cone([], 1))
    assert len(fan.chambers) == 2
    rays = sorted(ch.rays[0] for ch in fan.chambers)
    assert rays == [(-1,), (1,)]
    by_ray = {ch.rays[0]: ch.minimizers[0] for ch in fan.chambers}
    assert by_ray[(1,)] == (Fraction(0),)
    assert by_ray[(-1,)] == (Fraction(1),)
    assert {ch.rays[0]: ch.facets[0] for ch in fan.chambers} == {(1,): (1,), (-1,): (-1,)}


def test_chamber_fan_splits_along_tie_wall():
    # tail is the vertical ray; its dual is the upper half plane, which the
    # wall m1 = 0 splits into two quadrant chambers
    tail = make_cone([(0, 1)], 2)
    p = make_polyhedron([(0, 0), (1, 0)], tail)
    fan = chamber_fan([p], tail)
    assert len(fan.chambers) == 2
    for ch in fan.chambers:
        assert len(ch.rays) == 2
        if (1, 0) in ch.rays:
            assert ch.minimizers[0] == (Fraction(0), Fraction(0))
        else:
            assert (-1, 0) in ch.rays
            assert ch.minimizers[0] == (Fraction(1), Fraction(0))
        for u, f in zip(ch.rays, ch.facets):
            assert dot(f, u) > 0
            assert all(dot(f, w) == 0 for w in ch.rays if w != u)


def test_a_wall_free_simplicial_weight_cone_is_one_chamber_at_every_rank():
    """Through rank 3 the one chamber is the one the region walk gives: the
    region is the tail's dual_dd, triangulated as itself, with the facet
    normals of geometry._facets; above rank 3 the facets are still the
    primitive normals opposite each ray."""
    rng = random.Random(20261020)
    for rank in range(1, 6):
        for _ in range(12):
            rows = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rank)]
            tail = make_cone(rows, rank)
            if len(tail.rays) != rank or not tail.pointed:
                continue  # dependent rows: not a simplicial tail
            vertex = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rank))
            fan = chamber_fan([make_polyhedron([vertex], tail)], tail)
            (chamber,) = fan.chambers
            assert chamber.rays == tail.dual.rays
            assert chamber.minimizers == (vertex,)
            if rank <= 3:
                (simplex,) = _triangulate(tail.dual_dd, rank)
                assert chamber.rays == simplex
                assert chamber.facets == _facets(simplex)
            for u, f in zip(chamber.rays, chamber.facets):
                assert dot(f, u) > 0 and f in tail.rays
                assert all(dot(f, w) == 0 for w in chamber.rays if w != u)


def test_chamber_fan_single_vertex_polys_keep_weight_cone():
    # the orthant is its own dual
    weight = orthant()
    polys = [make_polyhedron([(1, 2)], weight), make_polyhedron([(-3, 0)], weight)]
    fan = chamber_fan(polys, weight)
    assert len(fan.chambers) == 1
    assert fan.chambers[0].rays == weight.rays
    assert fan.chambers[0].rays == fan.chambers[0].facets == ((0, 1), (1, 0))


def _interior_coords(chamber, m):
    rows = [[chamber.rays[j][c] for j in range(len(chamber.rays))] for c in range(len(m))]
    return solve(rows, list(m))


def test_chamber_fan_covers_and_is_linear():
    rng = random.Random(23)
    for _ in range(15):
        rank = rng.choice([2, 3])
        tail = make_cone(
            [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(rank - 1)], rank
        )
        weight = tail.dual
        polys = []
        for _ in range(rng.randint(1, 2)):
            nverts = rng.randint(1, 3)
            polys.append(
                make_polyhedron(
                    [tuple(Fraction(rng.randint(-3, 3), 1) for _ in range(rank)) for _ in range(nverts)],
                    tail,
                )
            )
        fan = chamber_fan(polys, tail)
        assert fan.chambers and all(cone_contains(weight, u) for u, _ in fan.minima)
        # linearity with the registered minimizer on each chamber
        for ch in fan.chambers:
            sample = tuple(sum(r[c] for r in ch.rays) for c in range(rank))
            for poly, v in zip(polys, ch.minimizers):
                assert support_eval(poly, sample) == dot(sample, v)
        # coverage: random points of the weight cone fall in some chamber
        for _ in range(10):
            coeffs = [rng.randint(0, 4) for _ in weight.rays]
            m = tuple(
                sum(c * r[i] for c, r in zip(coeffs, weight.rays)) for i in range(rank)
            )
            assert any(cone_contains(make_cone(ch.rays, rank), m) for ch in fan.chambers)
        # pairwise disjoint interiors: each chamber's interior sample avoids the rest
        for ch in fan.chambers:
            sample = tuple(sum(r[c] for r in ch.rays) for c in range(rank))
            for other in fan.chambers:
                if other is ch:
                    continue
                coords = _interior_coords(other, sample)
                if coords is not None:
                    assert not all(x > 0 for x in coords)


def test_chamber_fan_requires_equal_tails():
    tail_a = make_cone([(1,)], 1)
    tail_b = make_cone([], 1)
    pa = make_polyhedron([(0,)], tail_a)
    pb = make_polyhedron([(0,)], tail_b)
    with pytest.raises(ShapeError):
        chamber_fan([pa, pb], tail_a)


def test_chamber_fan_rejects_weight_cone_outside_tail_dual():
    # the weight cone is the dual of the given tail: the trivial tail would
    # make it the whole line, which leaves the dual of the polyhedron's tail
    tail = make_cone([(1,)], 1)
    p = make_polyhedron([(0,)], tail)
    with pytest.raises(ShapeError):
        chamber_fan([p], make_cone([], 1))


def test_chamber_fan_rejects_lower_dimensional_weight_cones():
    polygon = make_polyhedron([(0, 0), (1, 2), (2, 1)], make_cone([], 2))
    cases = [
        (make_cone([(1, 0)], 2), []),
        (make_cone([(1, 1), (-1, -1)], 2), []),
        (make_cone([], 2), []),
        (make_cone([(1, 0, 0), (0, 1, 0)], 3), []),
        # a half-plane: its lineality both ways and one ray, all coplanar
        (make_cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], 3), []),
        (make_cone([(1, 0)], 2), [polygon]),
    ]
    assert len(cases[4][0].rays) == 3
    for weight, polys in cases:
        # the tail whose dual is this weight cone is not pointed
        tail = weight.dual
        assert not tail.pointed and tail.dual == weight
        with pytest.raises(ShapeError, match="weight cone must be full-dimensional"):
            chamber_fan(polys, tail)


def test_rank_mismatch_errors():
    with pytest.raises(RankMismatchError):
        make_cone([(1, 0)], 1)
    p = make_polyhedron([(0,)], make_cone([], 1))
    with pytest.raises(RankMismatchError):
        support_eval(p, (1, 2))


# ---------------------------------------------------------------------------
# input guards


def test_cone_contains_rejects_a_vector_of_the_wrong_rank():
    with pytest.raises(RankMismatchError):
        cone_contains(orthant(2), (1, 0, 0))


def test_make_polyhedron_rejects_a_vertex_of_the_wrong_rank():
    with pytest.raises(RankMismatchError):
        make_polyhedron([(Fraction(0), Fraction(0)), (Fraction(1),)], orthant(2))


def test_make_polyhedron_needs_a_vertex():
    with pytest.raises(ShapeError):
        make_polyhedron([], orthant(2))


def test_chamber_fan_rejects_a_polyhedron_of_the_wrong_rank():
    poly = make_polyhedron([(Fraction(1), Fraction(0), Fraction(0))], orthant(3))
    with pytest.raises(RankMismatchError):
        chamber_fan([poly], orthant(2))
