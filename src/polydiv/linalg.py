"""Exact linear algebra over the rationals.

Everything downstream (cone arithmetic, chamber fans, section-ring kernels)
reduces to a handful of primitives implemented here: an echelon basis,
determinants and integer adjugates, and ray enumeration for homogeneous
inequality systems by double description. The echelon basis, extended one
row at a time, is the one elimination kernel: ranks, kernels (relations)
and the section-ring presentation are read off it; determinant keeps its own
elimination for the signed pivot product. Every cone question in the package
(duals, membership, redundancy, pointedness, full dimension) is answered by
double description; there is no Fourier-Motzkin elimination.

Double description combines a pair of rays on opposite sides of a new
hyperplane only when the two rays are adjacent: no third ray is tight on
every processed inequality on which both are tight (the combinatorial
adjacency test of Fukuda and Prodon, "Double description method revisited",
1996). The rays it returns are then extreme and pairwise distinct without
any further pruning. All arithmetic is fractions.Fraction or int; no floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import RankMismatchError, ShapeError


def dot(u, v):
    if len(u) != len(v):
        raise RankMismatchError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_neg(u):
    return tuple(-a for a in u)


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def primitive(v) -> tuple[int, ...]:
    """Shortest integer vector on the same ray (zero stays zero)."""
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


def matrix_rank(rows) -> int:
    basis = EchelonBasis()
    for row in rows:
        basis.add(row)
    return basis.rank


def relations(vectors, width: int) -> list[tuple[Fraction, ...]]:
    """Basis of the linear relations among vectors of length width.

    Each vector enters an echelon basis with a unit vector appended at the
    slot it takes if it is independent of the vectors before it (width slots
    suffice; the unit vector is 0 once all are taken). When its first width
    entries reduce to 0, the slots hold minus its unique coordinates over the
    earlier independent vectors: the relation is 1 at its own index and those
    coordinates at theirs. That is the kernel vector a reduced row echelon
    form of the matrix with these columns gives at that free column, so the
    basis is the same, in the same order.
    """
    basis = EchelonBasis()
    independent: list[int] = []
    out = []
    for k, v in enumerate(vectors):
        if len(v) != width:
            raise RankMismatchError(f"vector {k} has length {len(v)}, expected {width}")
        slot = len(independent)
        row = basis.reduce([*v, *(int(i == slot) for i in range(width))])
        if any(row[:width]):
            basis.add(row)
            independent.append(k)
            continue
        rel = [Fraction(0)] * len(vectors)
        rel[k] = Fraction(1)
        for s, i in enumerate(independent):
            rel[i] = row[width + s]
        out.append(tuple(rel))
    return out


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
    """Transposed cofactor matrix of an integer matrix: adj(A) A = det(A) I.

    Entries are exact integers, so A x = b is solved over the rationals as
    x = adj(A) b / det(A) without leaving integer arithmetic.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise RankMismatchError("adjugate needs a square matrix")
    if any(Fraction(x).denominator != 1 for row in rows for x in row):
        raise ShapeError("adjugate needs an integer matrix")
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [list(row[:j]) + list(row[j + 1 :]) for r, row in enumerate(rows) if r != i]
            adj[j][i] = (-1) ** (i + j) * int(determinant(minor))
    return adj


def cone_from_inequalities(normals, rank: int):
    """V-representation (lines, rays) of {x : <n, x> >= 0 for every normal}.

    Double description with explicit lineality handling and the adjacency
    test. Output vectors are primitive integers; lines are sign-normalized so
    the first nonzero entry is positive. The rays returned are irredundant:
    one primitive generator per extreme ray modulo the lines.
    """
    lines = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays: list[tuple[int, ...]] = []
    # tight[i]: indices of the processed normals on which rays[i] is tight
    tight: list[frozenset[int]] = []
    k = 0
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
            lines = [
                primitive(vec_sub(vec_scale(d0, l), vec_scale(dot(a, l), l0)))
                for l in lines
            ]
            rays = [
                primitive(vec_sub(vec_scale(d0, r), vec_scale(dot(a, r), l0)))
                for r in rays
            ]
            # lines are tight on every processed normal, so the shifted rays
            # keep their tight sets and gain k; l0 is tight on all but k
            rays.append(l0)
            tight = [t | {k} for t in tight]
            tight.append(frozenset(range(k)))
        else:
            side = [dot(a, r) for r in rays]
            pos = [i for i, s in enumerate(side) if s > 0]
            zero = [i for i, s in enumerate(side) if s == 0]
            negs = [i for i, s in enumerate(side) if s < 0]
            combos = []
            combo_tight = []
            for p in pos:
                for n in negs:
                    common = tight[p] & tight[n]
                    if any(common <= z for i, z in enumerate(tight) if i != p and i != n):
                        continue
                    combos.append(
                        primitive(vec_sub(vec_scale(side[p], rays[n]), vec_scale(side[n], rays[p])))
                    )
                    # rays satisfy every processed normal, so the combination
                    # is tight exactly where both rays are, and on k
                    combo_tight.append(common | {k})
            rays = [rays[i] for i in pos + zero] + combos
            tight = [tight[i] for i in pos] + [tight[i] | {k} for i in zero] + combo_tight
        k += 1
    lines = [
        l if next(x for x in l if x != 0) > 0 else vec_neg(l)
        for l in (primitive(l) for l in lines)
        if not is_zero(l)
    ]
    return lines, rays
