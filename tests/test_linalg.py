from fractions import Fraction
from math import gcd
from random import Random

import pytest

from polydiv.errors import RankMismatchError
from polydiv.linalg import (
    EchelonBasis,
    clear,
    dot,
    matrix_rank,
    primitive,
    relations,
)
import reference_linalg
from reference_linalg import cone_from_inequalities, kernel_basis, rref, rref_rank


def test_primitive_scales_to_shortest_integer_vector():
    assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((Fraction(-2, 3),)) == (-1,)


def test_clear_hand_examples():
    # an all-int vector comes back as it is, as a list, over 1
    assert clear((4, -6, 0)) == ([4, -6, 0], 1)
    # Fractions over the lcm of their denominators
    assert clear((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))) == ([6, -9, 10], 12)
    assert clear((Fraction(4, 2), Fraction(6, 3))) == ([2, 2], 1)
    # ints and Fractions mixed
    assert clear((3, Fraction(1, 3), -1)) == ([9, 1, -3], 3)
    # the zero vector, as ints and as Fractions, and the empty vector
    assert clear((0, 0)) == ([0, 0], 1)
    assert clear((Fraction(0), Fraction(0))) == ([0, 0], 1)
    assert clear(()) == ([], 1)
    got, den = clear((Fraction(2, 3), 1))
    assert den == 3 and all(type(x) is int for x in got)


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
    # dependent vectors after independent ones have taken every one of the
    # width slots; the integer rows are 6, then 1 and 7, at their own slots
    assert relations([(2, 0), (0, 3), (1, 1)], 2) == ([(-3, -2, 6)], [0, 1])
    assert relations([(Fraction(1, 3),), (5,), (Fraction(-2, 7),)], 1) == (
        [(-15, 1, 0), (6, 0, 7)],
        [0],
    )
    with pytest.raises(RankMismatchError):
        relations([(1, 2), (3,)], 2)


def test_echelon_basis_keeps_integer_rows_exact():
    basis = EchelonBasis()
    assert basis.add([0, 6, 2])
    assert not basis.add((0, 9, 3))
    assert basis.add([-2, 4, 0])
    # (-2, 4, 0) is stored as (3, 0, 2), 0 at the earlier pivot 1; each
    # reduced row is divided by the gcd of its entries: one step by (0, 3, 1)
    # gives (0, 0, 9), and two steps give (3, 0, -4), then (0, 0, -18)
    assert basis.reduce([0, 6, 5]) == [0, 0, 1]
    assert basis.reduce([2, -1, -3]) == [0, 0, -1]
    assert basis.add((Fraction(1, 2), 0, Fraction(-5, 4)))
    assert basis.rank == 3
    # each row as the (column, value) pairs of its nonzero entries
    assert basis.rows == {1: [(1, 3), (2, 1)], 0: [(0, 3), (2, 2)], 2: [(2, 1)]}
    for c, terms in basis.rows.items():
        assert_primitive_terms(c, terms)


def assert_primitive_terms(c, terms):
    """terms is a primitive int row with a positive lead at column c, as its
    nonzero entries in ascending column."""
    columns, values = [j for j, _ in terms], [x for _, x in terms]
    assert columns[0] == c and columns == sorted(set(columns))
    assert all(type(x) is int and x for x in values)
    assert values[0] > 0 and gcd(*values) == 1


def assert_relations_match(got, expected):
    """got holds primitive int rows, positive at their own index, the last
    nonzero one; divided by that entry they are the reference kernel vectors."""
    assert len(got) == len(expected)
    for rel, want in zip(got, expected):
        assert all(type(x) is int for x in rel)
        own = max(i for i, x in enumerate(rel) if x)
        assert rel[own] > 0 and gcd(*rel) == 1
        assert tuple(Fraction(x, rel[own]) for x in rel) == want


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
            assert_relations_match(got, expected)
            assert pivots == (rref(rows)[1] if rows else []), rows
            seen["deficient" if rank < min(len(rows), width) else "full"] += 1
            seen["empty"] += not rows
            seen["width 0"] += width == 0
            seen["relations"] += bool(got)
    assert all(k >= 10 for k in seen.values()), seen


def test_echelon_basis_matches_the_fraction_reference():
    rng = Random(20099)
    seen = {"int": 0, "fraction": 0, "dependent": 0, "full slots": 0}
    for width in range(1, 9):
        for _ in range(40):
            rows = random_matrix(rng, rng.randint(1, 12), width)
            basis, reference = EchelonBasis(), reference_linalg.EchelonBasis()
            for row in rows:
                # at rank width every slot of relations is taken
                seen["full slots"] += reference.rank == width
                assert basis.add(row) == reference.add(row), rows
            assert basis.rank == reference.rank
            assert sorted(basis.rows) == sorted(reference.rows)
            for c, terms in basis.rows.items():
                # primitive, positive at its pivot, and on the reference row's ray
                assert_primitive_terms(c, terms)
                row = [0] * width
                for j, x in terms:
                    row[j] = x
                assert row == [row[c] * x for x in reference.rows[c]], rows
            got, pivots = relations(rows, width)
            transposed = [[row[i] for row in rows] for i in range(width)]
            assert_relations_match(got, kernel_basis(transposed, len(rows)))
            assert pivots == sorted(reference.rows)
            seen["int" if all(type(x) is int for row in rows for x in row) else "fraction"] += 1
            seen["dependent"] += bool(got)
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
