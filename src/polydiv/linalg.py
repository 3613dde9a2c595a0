"""Exact linear algebra over the rationals.

Everything downstream (cone arithmetic, chamber fans, section-ring kernels)
reduces to a handful of primitives implemented here: reduced row echelon form,
kernels, feasibility of linear systems by Fourier-Motzkin elimination, and ray
enumeration for homogeneous inequality systems by double description. All
arithmetic is fractions.Fraction or int; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import PolydivError, RankMismatchError, ShapeError

# A safety valve for Fourier-Motzkin blowup. Our systems are tiny (rank <= 4,
# a few dozen constraints); hitting this means a caller bug, not bad luck.
_FM_CONSTRAINT_CAP = 200_000


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
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
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


def feasible(nvars: int, ineqs, eqs=()) -> bool:
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

    cons: set[tuple[tuple[int, ...], int]] = set()

    def add(coeffs, rhs) -> bool:
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


def _ray_redundant(ray, others, lines, rank) -> bool:
    """Is ray a nonnegative combination of the other rays plus the lines?"""
    nv = len(others) + len(lines)
    if nv == 0:
        return False
    eqs = []
    for c in range(rank):
        coeffs = [o[c] for o in others] + [l[c] for l in lines]
        eqs.append((coeffs, ray[c]))
    ineqs = []
    for k in range(len(others)):
        unit = [0] * nv
        unit[k] = 1
        ineqs.append((unit, 0))
    return feasible(nv, ineqs, eqs)


def _prune_rays(rays, lines, rank):
    rays = list(dict.fromkeys(r for r in rays if not is_zero(r)))
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rays):
            others = rays[:i] + rays[i + 1 :]
            if _ray_redundant(r, others, lines, rank):
                rays.pop(i)
                changed = True
                break
    return rays


def cone_from_inequalities(normals, rank: int):
    """V-representation (lines, rays) of {x : <n, x> >= 0 for every normal}.

    Double description with explicit lineality handling. Output vectors are
    primitive integers; lines are sign-normalized so the first nonzero entry
    is positive. The rays returned are irredundant.
    """
    lines = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays: list[tuple[int, ...]] = []
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
            rays.append(l0)
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            negs = [r for r in rays if dot(a, r) < 0]
            combos = []
            for p in pos:
                ap = dot(a, p)
                for n in negs:
                    an = dot(a, n)
                    combos.append(primitive(vec_sub(vec_scale(ap, n), vec_scale(an, p))))
            rays = pos + zero + combos
        rays = _prune_rays(rays, lines, rank)
    lines = [
        l if next(x for x in l if x != 0) > 0 else vec_neg(l)
        for l in (primitive(l) for l in lines)
        if not is_zero(l)
    ]
    return lines, rays
