"""Exact linear algebra over the rationals.

Everything downstream (cone arithmetic, chamber fans, section-ring kernels)
reduces to two kernels implemented here: an echelon basis, and ray
enumeration for homogeneous inequality systems by double description. The
echelon basis, extended one row at a time, is the one elimination kernel:
ranks, and the kernels and pivot columns of relations, from which the
section-ring presentation reads its relations and its generators, are read
off it. Every cone question in the package (duals, membership, redundancy,
pointedness, full dimension, the facet normals of a chamber) is answered by
double description; there is no Fourier-Motzkin elimination and no
determinant.

Double description is one step on an immutable state (DoubleDescription:
lines, rays, tight sets and the count of processed normals), and
DoubleDescription.of is its one fold over the normals, from the whole space;
a caller that cuts one cone several ways extends the same state, and a cone
keeps the fold over its rays as the double description of its dual. The
step combines a pair of rays on opposite sides of a new hyperplane only when
the two rays are adjacent: no third ray is tight on every processed
inequality on which both are tight (the combinatorial adjacency test of
Fukuda and Prodon, "Double description method revisited", 1996). The rays it returns are then extreme and pairwise
distinct without any further pruning. Both kernels work in int: a Fraction
vector is cleared of its denominators once, on entry (clear, the one clearing
in the package), and every step after that divides by gcds. Everything they
hand out is int; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm

from .errors import RankMismatchError


def dot(u, v):
    if len(u) != len(v):
        raise RankMismatchError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_neg(u):
    return tuple(-a for a in u)


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def clear(v) -> tuple[list[int], int]:
    """(v times the lcm of its denominators, that lcm): an all-int vector
    comes back as it is, over 1. The one place a rational vector is cleared."""
    if set(map(type, v)) <= {int}:
        return list(v), 1
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def primitive(v) -> tuple[int, ...]:
    """Shortest integer vector on the same ray (zero stays zero).

    An all-int vector is divided by the gcd of its entries and never leaves
    int; only rational entries are cleared of their denominators first.
    """
    v = clear(v)[0]
    g = gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


class EchelonBasis:
    """Row echelon basis of a span that grows one row at a time, in int.

    rows maps each pivot column to its row, in the order the rows came, as
    the (column, value) pairs of its nonzero entries, the pivot first: a
    primitive int row, positive at its pivot and 0 at the pivots of the rows
    before it, so a new row reduced by them in that order is 0 at every
    pivot. The pivots are those of the reduced echelon form, which the span
    alone determines, whatever the order of the rows. Each reduced row is a
    positive multiple of the one elimination over the rationals gives.
    """

    def __init__(self):
        self.rows: dict[int, list[tuple[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list[int]:
        """A positive multiple of row minus its combination of the basis rows,
        0 at every pivot: row = p * row - row[c] * basis_row for each basis
        row with lead p at column c, divided by the gcd when p > 1."""
        row = clear(row)[0]
        for c, terms in self.rows.items():
            f = row[c]
            if f:
                p = terms[0][1]
                if p != 1:
                    row = [p * x for x in row]
                for j, y in terms:
                    row[j] -= f * y
                if p != 1 and (g := gcd(*row)) > 1:
                    row = [x // g for x in row]
        return row

    def add(self, row) -> bool:
        """Extend the basis by row; False when row is already in the span."""
        row = self.reduce(row)
        terms = [(j, x) for j, x in enumerate(row) if x]
        if not terms:
            return False
        g = gcd(*row) if terms[0][1] > 0 else -gcd(*row)
        self.rows[terms[0][0]] = [(j, x // g) for j, x in terms]
        return True


def matrix_rank(rows) -> int:
    basis = EchelonBasis()
    for row in rows:
        basis.add(row)
    return basis.rank


def relations(vectors, width: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Basis of the linear relations among vectors of length width, as
    primitive int rows, and the pivot columns of their span, ascending.

    Each vector enters an int echelon basis with a unit vector appended at
    the slot it takes if it is independent of the vectors before it (at most
    width are: width + 1 slots). When its first width entries reduce to 0,
    the row is u > 0 at its own slot and u times minus its coordinates over
    the earlier independent vectors at theirs: the relation is u at its own
    index and the slots at theirs, divided by the gcd of the slots. It is
    positive at its own index and 0 after it, and divided by that entry it is
    the kernel vector a reduced row echelon form of the matrix with these
    columns gives at that free column. Every row of the basis leads in its
    first width entries, so its pivots are those of the span of the vectors.
    """
    basis = EchelonBasis()
    independent: list[int] = []
    out = []
    for k, v in enumerate(vectors):
        if len(v) != width:
            raise RankMismatchError(f"vector {k} has length {len(v)}, expected {width}")
        slot = len(independent)
        row = basis.reduce([*v, *[0] * slot, 1, *[0] * (width - slot)])
        if any(row[:width]):
            basis.add(row)
            independent.append(k)
            continue
        slots = row[width:]
        g = gcd(*slots)
        rel = [0] * len(vectors)
        rel[k] = slots[slot] // g
        for i, x in zip(independent, slots):
            rel[i] = x // g
        out.append(tuple(rel))
    return out, sorted(basis.rows)


@dataclass(frozen=True)
class DoubleDescription:
    """The cone {x : <n, x> >= 0 for the normals processed so far}.

    lines and rays are primitive integer vectors; tight[i] holds the indices
    of the processed normals on which rays[i] is tight, and count is the
    number of nonzero normals processed. extend returns a new state and
    leaves this one as it was, so two extensions can share one parent.
    """

    lines: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...] = ()
    tight: tuple[frozenset[int], ...] = ()
    count: int = 0

    @classmethod
    def of(cls, normals, rank: int) -> DoubleDescription:
        """{x : <n, x> >= 0 for every normal}: one extend per normal, in
        order, from the whole space of the given rank."""
        whole = cls(lines=tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)))
        return reduce(cls.extend, normals, whole)

    def extend(self, normal) -> DoubleDescription:
        """One double-description step: intersect with <normal, x> >= 0."""
        a = primitive(normal)
        if is_zero(a):
            return self
        k = self.count
        i0 = next((i for i, l in enumerate(self.lines) if dot(a, l) != 0), None)
        if i0 is not None:
            l0 = self.lines[i0]
            if dot(a, l0) < 0:
                l0 = vec_neg(l0)
            d0 = dot(a, l0)

            def shift(v):
                return primitive(vec_sub(vec_scale(d0, v), vec_scale(dot(a, v), l0)))

            # lines are tight on every processed normal, so the shifted rays
            # keep their tight sets and gain k; l0 is tight on all but k
            return DoubleDescription(
                tuple(shift(l) for i, l in enumerate(self.lines) if i != i0),
                tuple(shift(r) for r in self.rays) + (l0,),
                tuple(t | {k} for t in self.tight) + (frozenset(range(k)),),
                k + 1,
            )
        rays, tight = self.rays, self.tight
        side = [dot(a, r) for r in rays]
        pos = [i for i, s in enumerate(side) if s > 0]
        zero = [i for i, s in enumerate(side) if s == 0]
        negs = [i for i, s in enumerate(side) if s < 0]
        new_rays = [rays[i] for i in pos + zero]
        new_tight = [tight[i] for i in pos] + [tight[i] | {k} for i in zero]
        for p in pos:
            for n in negs:
                common = tight[p] & tight[n]
                if any(common <= z for i, z in enumerate(tight) if i != p and i != n):
                    continue
                new_rays.append(
                    primitive(vec_sub(vec_scale(side[p], rays[n]), vec_scale(side[n], rays[p])))
                )
                # rays satisfy every processed normal, so the combination
                # is tight exactly where both rays are, and on k
                new_tight.append(common | {k})
        return DoubleDescription(self.lines, tuple(new_rays), tuple(new_tight), k + 1)
