from fractions import Fraction
from random import Random

import pytest

from polydiv.errors import RankMismatchError
from polydiv.linalg import (
    EchelonBasis,
    cone_from_inequalities,
    dot,
    matrix_rank,
    primitive,
    relations,
)
from reference_linalg import kernel_basis, rref, rref_rank


def test_primitive_scales_to_shortest_integer_vector():
    assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((Fraction(-2, 3),)) == (-1,)


def test_rref_hand_example():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 7]])
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]


def test_matrix_rank():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([]) == 0


def test_kernel_basis_dimension_and_membership():
    rows = [[1, 2, 3]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert dot(rows[0], v) == 0


def test_kernel_of_empty_matrix_is_everything():
    assert len(kernel_basis([], 2)) == 2
    assert relations([(), ()], 0) == ([(1, 0), (0, 1)], [])
    assert relations([], 3) == ([], [])


def test_relations_hand_example():
    # the columns of [[1, 2, 3], [2, 4, 7]]: the second is twice the first
    assert relations([(1, 2), (2, 4), (3, 7)], 2) == ([(-2, 1, 0)], [0, 1])
    assert relations([(1, 0), (0, 1), (1, 1), (2, 3)], 2) == (
        [(-1, -1, 1, 0), (-2, -3, 0, 1)],
        [0, 1],
    )
    # the span of (0, 2, 1) and (0, 4, 2) leads at column 1 only; the first
    # vector is independent whatever its leading column
    assert relations([(0, 2, 1), (0, 4, 2)], 3) == ([(-2, 1)], [1])
    assert relations([(0, 0, 5), (1, 1, 0), (2, 2, 5)], 3) == ([(-1, -2, 1)], [0, 2])
    with pytest.raises(RankMismatchError):
        relations([(1, 2), (3,)], 2)


def test_echelon_basis_keeps_integer_rows_exact():
    basis = EchelonBasis()
    assert basis.add([0, 3, 1])
    assert not basis.add((0, 6, 2))
    assert basis.add([1, 1, 1])
    assert basis.rank == 2
    assert basis.rows[1] == [0, 1, Fraction(1, 3)]
    assert all(type(x) is Fraction for row in basis.rows.values() for x in row)


def random_matrix(rng, nrows, width):
    """Small signed entries, integers or Fractions, with some zero rows and
    some rows repeated as multiples of earlier ones."""
    kind = rng.choice(("int", "fraction", "mixed"))
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows.append(tuple(0 for _ in range(width)))
            continue
        if rows and roll < 0.4:
            base, c = rng.choice(rows), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append(tuple(c * x for x in base))
            continue
        row = []
        for _ in range(width):
            x = rng.randint(-4, 4)
            if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                x = Fraction(x, rng.randint(1, 5))
            row.append(x)
        rows.append(tuple(row))
    return rows


def test_rank_and_relations_match_the_dense_reference():
    rng = Random(20097)
    seen = {"deficient": 0, "full": 0, "empty": 0, "width 0": 0, "relations": 0}
    for width in range(9):
        for _ in range(40):
            rows = random_matrix(rng, rng.randint(0, 9), width)
            rank = rref_rank(rows)
            assert matrix_rank(rows) == rank, rows
            # the rows are the vectors; their relations are the kernel of the
            # matrix with these rows as columns
            transposed = [[row[i] for row in rows] for i in range(width)]
            expected = kernel_basis(transposed, len(rows))
            got, pivots = relations(rows, width)
            assert got == expected, rows
            assert pivots == (rref(rows)[1] if rows else []), rows
            assert all(type(x) is Fraction for rel in got for x in rel)
            seen["deficient" if rank < min(len(rows), width) else "full"] += 1
            seen["empty"] += not rows
            seen["width 0"] += width == 0
            seen["relations"] += bool(got)
    assert all(k >= 10 for k in seen.values()), seen


def test_cone_from_inequalities_halfplane():
    lines, rays = cone_from_inequalities([(1, 2)], 2)
    assert lines == [(2, -1)]
    assert rays == [(1, 0)]


def test_cone_from_inequalities_quadrant():
    lines, rays = cone_from_inequalities([(1, 0), (0, 1)], 2)
    assert lines == []
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_cone_from_inequalities_full_space():
    lines, rays = cone_from_inequalities([], 3)
    assert len(lines) == 3
    assert rays == []


def test_cone_from_inequalities_hyperplane():
    lines, rays = cone_from_inequalities([(1, 0), (-1, 0)], 2)
    assert lines == [(0, 1)]
    assert rays == []


def test_cone_from_inequalities_pointed_three_dim():
    # octant
    lines, rays = cone_from_inequalities([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert lines == []
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_dot_length_mismatch():
    from polydiv.errors import RankMismatchError

    with pytest.raises(RankMismatchError):
        dot((1, 2), (1,))
