from fractions import Fraction
from random import Random

import pytest

from polydiv.errors import RankMismatchError, ShapeError
from polydiv.linalg import (
    adjugate,
    cone_from_inequalities,
    determinant,
    dot,
    kernel_basis,
    matrix_rank,
    primitive,
    rref,
)


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


def test_determinant_hand_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1, 2], [2, 4]]) == 0
    # row swap flips the sign
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == Fraction(-5, 6)


def test_determinant_rejects_non_square():
    with pytest.raises(Exception):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_adjugate_times_matrix_is_determinant():
    rng = Random(3)
    assert adjugate([[-4]]) == [[1]]
    assert adjugate([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]
    for n in (2, 3):
        for _ in range(20):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            det = determinant(rows)
            adj = adjugate(rows)
            for i in range(n):
                for j in range(n):
                    entry = sum(adj[i][k] * rows[k][j] for k in range(n))
                    assert entry == (det if i == j else 0)
                    assert isinstance(adj[i][j], int)


def test_adjugate_needs_a_square_integer_matrix():
    with pytest.raises(RankMismatchError):
        adjugate([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError):
        adjugate([[Fraction(1, 2), 0], [0, 1]])


def test_kernel_basis_dimension_and_membership():
    rows = [[1, 2, 3]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert dot(rows[0], v) == 0


def test_kernel_of_empty_matrix_is_everything():
    assert len(kernel_basis([], 2)) == 2


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
