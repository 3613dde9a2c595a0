from fractions import Fraction
from random import Random

import pytest

from polydiv.errors import RankMismatchError, ShapeError
from polydiv.linalg import (
    EchelonBasis,
    adjugate,
    cone_from_inequalities,
    determinant,
    dot,
    matrix_rank,
    primitive,
    relations,
)
from reference_linalg import determinant as reference_determinant
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


def test_determinant_matches_the_gaussian_elimination():
    rng = Random(20111)
    seen = {"int": 0, "rational": 0, "singular": 0, "swap": 0}
    for n in range(6):
        for kind in ("int", "rational"):
            for _ in range(25):
                if kind == "int":
                    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                else:
                    rows = [
                        [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]
                        for _ in range(n)
                    ]
                if n > 1 and rng.random() < 0.3:
                    # a combination of two rows, or a zero column
                    i, j, k = (rng.randrange(n) for _ in range(3))
                    if rng.random() < 0.5:
                        rows[i] = [2 * a - b for a, b in zip(rows[j], rows[k])]
                    else:
                        for row in rows:
                            row[i] = 0
                if n > 1 and rng.random() < 0.3:
                    rows[0] = [0] * (n - 1) + [rows[0][-1]]
                got = determinant(rows)
                want = reference_determinant(rows)
                assert got == want and type(got) is Fraction, rows
                seen[kind] += 1
                seen["singular"] += want == 0
                seen["swap"] += n > 1 and rows[0][0] == 0 and want != 0
    assert seen["singular"] >= 20 and seen["swap"] >= 10, seen
    with pytest.raises(RankMismatchError):
        determinant([[1, 2], [3]])
    with pytest.raises(RankMismatchError):
        reference_determinant([[1, 2], [3]])


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
