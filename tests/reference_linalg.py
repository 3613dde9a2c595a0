"""Dense row reduction as it was written before the echelon basis became the
one elimination kernel of polydiv.linalg, kept as an independent oracle.

rref is a reduced row echelon form of the whole matrix at once, and
kernel_basis reads the kernel off it, one vector per free column. The tests
compare matrix_rank, relations, the cone kernels and the section-ring
presentation against them. determinant is a Gaussian elimination over
Fractions, and adjugate the cofactor matrix built on it, with which the
floor-degree search once read chamber coordinates: the tests check the facet
normals that replaced it against them.
"""

from fractions import Fraction

from polydiv.errors import RankMismatchError


def rref(rows):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref_rank(rows) -> int:
    return len(rref(rows)[1]) if rows else 0


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination with exact pivots."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise RankMismatchError("determinant needs a square matrix")
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def adjugate(rows) -> list[list[int]]:
    """Transposed cofactor matrix of an integer matrix: adj(A) A = det(A) I."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise RankMismatchError("adjugate needs a square matrix")
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [list(row[:j]) + list(row[j + 1 :]) for r, row in enumerate(rows) if r != i]
            adj[j][i] = (-1) ** (i + j) * int(determinant(minor))
    return adj
