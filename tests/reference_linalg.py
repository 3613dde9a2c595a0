"""Dense row reduction as it was written before the echelon basis became the
one elimination kernel of polydiv.linalg, kept as an independent oracle.

rref is a reduced row echelon form of the whole matrix at once, and
kernel_basis reads the kernel off it, one vector per free column. The tests
compare matrix_rank, relations, the cone kernels and the section-ring
presentation against them. determinant is a Gaussian elimination over
Fractions, and adjugate the cofactor matrix built on it, with which the
floor-degree search once read chamber coordinates: the tests check the facet
normals that replaced it against them. EchelonBasis is the echelon basis as
it was before it moved to integers, with every entry a Fraction and every
row 1 at its pivot; the tests check the integer kernel's ranks, rows and
relations against it. cone_from_inequalities is the fold the package ran
before it kept its double descriptions: the lines, sign-normalized, and the
rays of DoubleDescription.of, which the tests check against a pruned
double description and read as a fresh dual.
"""

from fractions import Fraction

from polydiv.errors import RankMismatchError
from polydiv.linalg import DoubleDescription, vec_neg


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


class EchelonBasis:
    """Row echelon basis of a span that grows one row at a time.

    rows maps each pivot column to its row, in the order the rows came: a
    row is 1 at its pivot and 0 at the pivots of the rows before it, so a new
    row reduced by them in that order is 0 at every pivot. The pivots of an
    echelon basis are those of the reduced echelon form, which the span
    alone determines, so they do not depend on the order of the rows.
    Entries become Fractions on entry.
    """

    def __init__(self):
        self.rows: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list[Fraction]:
        """row minus its combination of the basis rows: 0 at every pivot."""
        row = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        for c, basis_row in self.rows.items():
            f = row[c]
            if f != 0:
                row = [x - f * y if y else x for x, y in zip(row, basis_row)]
        return row

    def add(self, row) -> bool:
        """Extend the basis by row; False when row is already in the span."""
        row = self.reduce(row)
        lead = next((c for c, x in enumerate(row) if x != 0), None)
        if lead is None:
            return False
        inv = 1 / row[lead]
        self.rows[lead] = [x * inv for x in row]
        return True


def cone_from_inequalities(normals, rank: int):
    """V-representation (lines, rays) of {x : <n, x> >= 0 for every normal}.

    Output vectors are primitive integers; lines are sign-normalized so the
    first nonzero entry is positive. The rays returned are irredundant: one
    primitive generator per extreme ray modulo the lines.
    """
    state = DoubleDescription.of(normals, rank)
    lines = [l if next(x for x in l if x != 0) > 0 else vec_neg(l) for l in state.lines]
    return lines, list(state.rays)
