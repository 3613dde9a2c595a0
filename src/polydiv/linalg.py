"""Exact linear algebra over the rationals.

Everything downstream (cone arithmetic, chamber fans, section-ring kernels)
reduces to two kernels implemented here: an echelon basis, and ray
enumeration for homogeneous inequality systems by double description. The
echelon basis, extended one row at a time, is the one elimination kernel:
ranks, and the kernels and pivot columns of relations, from which the
section-ring presentation reads its relations and its generators, are read
off it; a sparse row costs its nonzero entries, not the width. Every cone
question in the package (duals, membership, redundancy, pointedness, full
dimension, the facet normals of a chamber) is answered by double
description; there is no Fourier-Motzkin elimination and no determinant.

Double description is one step on an immutable state (DoubleDescription:
lines, rays, tight sets and the count of processed normals), and
DoubleDescription.of is its one fold over the normals, from the whole space;
a caller that cuts one cone several ways extends the same state, and a cone
keeps the fold over its rays as the double description of its dual. A tight
set is an int bitmask, bit k for the k-th processed normal. The step
combines a pair of rays on opposite sides of a new hyperplane only when the
two rays are adjacent: no third ray is tight on every processed inequality
on which both are tight, which it tests only on pairs tight on at least
rank - #lines - 2 common normals, as a 2-face must be (the combinatorial
test and its prefilter, Fukuda and Prodon, "Double description method
revisited", 1996). The rays it returns are then extreme and pairwise
distinct without any further pruning. Both kernels work in int: a Fraction
vector is cleared of its denominators once, on entry (clear, the one clearing
in the package), and every step after that divides by gcds. Everything they
hand out is int; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul

from .errors import RankMismatchError


def dot(u, v):
    if len(u) != len(v):
        raise RankMismatchError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


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

    A row is a dict {column: value}, cleared of denominators and zeros on
    entry. rows maps each pivot column, in the order the rows came, to its
    row's nonzero (column, value) pairs in ascending column: primitive int,
    positive at its pivot, its first column, and 0 at the pivots of the rows
    before it. The pivots are those of the reduced echelon form, which the
    span alone determines, whatever the order of the rows. Each reduced row
    is a positive multiple of the one elimination over the rationals gives.
    """

    def __init__(self):
        self.rows: dict[int, list[tuple[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict[int, int]:
        """A positive multiple of row minus its combination of the basis rows, 0
        at every pivot: at each pivot c where it is nonzero, in ascending order
        (a step changes no column before its pivot), row = p * row - row[c] *
        basis_row, with p the basis row's lead, divided by the gcd when p > 1."""
        row = {j: x for j, x in zip(row, clear(row.values())[0]) if x}
        todo = [j for j in row if j in self.rows]
        heapify(todo)
        while todo:
            c = heappop(todo)
            if not (f := row.get(c)):
                continue
            terms = self.rows[c]
            p = terms[0][1]
            if p != 1:
                row = {j: p * x for j, x in row.items()}
            for j, y in terms:
                if j not in row and j in self.rows:
                    heappush(todo, j)
                if x := row.get(j, 0) - f * y:
                    row[j] = x
                else:
                    del row[j]
            if p != 1 and (g := gcd(*row.values())) > 1:
                row = {j: x // g for j, x in row.items()}
        return row

    def add(self, row: dict, reduced: bool = False) -> bool:
        """Extend the basis by row (reduce's output when reduced is set); False
        when row is already in the span."""
        row = row if reduced else self.reduce(row)
        if not row:
            return False
        terms = sorted(row.items())
        g = gcd(*row.values()) if terms[0][1] > 0 else -gcd(*row.values())
        self.rows[terms[0][0]] = [(j, x // g) for j, x in terms]
        return True


def matrix_rank(rows) -> int:
    basis = EchelonBasis()
    for row in rows:
        basis.add(dict(enumerate(row)))
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
        row = dict(enumerate(v))
        row[width + slot] = 1
        row = basis.reduce(row)
        if min(row) < width:
            basis.add(row, reduced=True)
            independent.append(k)
            continue
        g = gcd(*row.values())
        rel = [0] * len(vectors)
        for j, x in row.items():
            rel[independent[j - width] if j - width < slot else k] = x // g
        out.append(tuple(rel))
    return out, sorted(basis.rows)


@dataclass(frozen=True)
class DoubleDescription:
    """The cone {x : <n, x> >= 0 for the normals processed so far}.

    lines and rays are primitive integer vectors; bit k of tight[i] is set
    when rays[i] is tight on the k-th processed normal, and count is the
    number of nonzero normals processed. extend returns a new state and
    leaves this one as it was, so two extensions can share one parent.
    """

    lines: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...] = ()
    tight: tuple[int, ...] = ()
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
                tuple(t | 1 << k for t in self.tight) + ((1 << k) - 1,),
                k + 1,
            )
        rays, tight = self.rays, self.tight
        side = [dot(a, r) for r in rays]
        pos = [i for i, s in enumerate(side) if s > 0]
        zero = [i for i, s in enumerate(side) if s == 0]
        negs = [i for i, s in enumerate(side) if s < 0]
        new_rays = [rays[i] for i in pos + zero]
        new_tight = [tight[i] for i in pos] + [tight[i] | 1 << k for i in zero]
        # two adjacent rays span a 2-face, which at least this many of the
        # processed normals cut out
        least = len(a) - len(self.lines) - 2
        for p in pos:
            for n in negs:
                common = tight[p] & tight[n]
                if common.bit_count() < least or any(
                    common & z == common for i, z in enumerate(tight) if i != p and i != n
                ):
                    continue
                new_rays.append(
                    primitive(vec_sub(vec_scale(side[p], rays[n]), vec_scale(side[n], rays[p])))
                )
                # rays satisfy every processed normal, so the combination
                # is tight exactly where both rays are, and on k
                new_tight.append(common | 1 << k)
        return DoubleDescription(self.lines, tuple(new_rays), tuple(new_tight), k + 1)
