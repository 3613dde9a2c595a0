"""Exact linear algebra over the rationals.

Everything downstream (cone arithmetic, chamber fans, section-ring kernels)
reduces to a handful of primitives implemented here: reduced row echelon form,
determinants and integer adjugates, kernels, and ray enumeration for
homogeneous inequality systems by double description. Every cone question in
the package (duals, membership, redundancy, pointedness, full dimension) is
answered by that one kernel; there is no Fourier-Motzkin elimination.

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


def matrix_rank(rows) -> int:
    return len(rref(rows)[1]) if rows else 0


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
