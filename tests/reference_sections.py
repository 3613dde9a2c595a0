"""Sections of the graded ring over P1 multiplied one pair at a time, as
they were before ring_presentation became the one way into the ring, kept
as independent oracles.

A section of degree m is the coefficient vector of its polynomial part P in
the canonical basis t^0 .. t^{d_m}. multiply_sections multiplies the
polynomial parts of two sections and inserts prod_z (t - z)^{e_z} over the
finite marked points, with e_z = n_z(m1 + m2) - n_z(m1) - n_z(m2) read off
the ray slopes. graded_dimension takes another route to d_m + 1: h0 of the
rounded-down evaluation at m times the unit weight (reference_curves). The
tests compare the dimensions, generators, monomial values and relations of
ring_presentation against chains of these products.
"""

from fractions import Fraction

from polydiv.curves import ProjectiveLine
from polydiv.errors import CurveDomainError, InternalError, ShapeError
from polydiv.pdiv import unit_weight

from reference_curves import floor_divisor, h0_dim
from reference_pdiv import evaluate


def _check(d, *degrees) -> None:
    if not isinstance(d.base, ProjectiveLine):
        raise CurveDomainError("section rings are computed over the projective line")
    if min(degrees) < 0:
        raise ShapeError("section rings are graded by nonnegative weights")


def graded_dimension(d, m: int) -> int:
    """Dimension of the degree-m piece: h0 of the rounded-down evaluation."""
    _check(d, m)
    return h0_dim(floor_divisor(evaluate(d, tuple(m * u for u in unit_weight(d)))))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


def multiply_sections(d, m1: int, vec1, m2: int, vec2):
    """Product of a degree-m1 and a degree-m2 section, in the m1+m2 basis.

    Only the three degrees involved are looked at, so the cost does not grow
    with m1 + m2 beyond the sizes of the vectors.
    """
    _check(d, m1, m2)
    slopes = d.slopes

    def dimension(m):
        return max(0, sum(s.floor(m) for s in slopes) + 1)

    vecs = []
    for m, vec in ((m1, vec1), (m2, vec2)):
        dim, v = dimension(m), [Fraction(x) for x in vec]
        if len(v) != dim:
            raise ShapeError(f"a degree-{m} section has {dim} coordinates, got {len(v)}")
        if dim == 0:
            raise ShapeError(f"the ring has no sections in degree {m}")
        vecs.append(v)
    prod = poly_mul(*vecs)
    for s in slopes:
        if not s.point.is_infinity:
            for _ in range(s.floor(m1 + m2) - s.floor(m1) - s.floor(m2)):
                prod = poly_mul(prod, [-s.point.affine_value, 1])
    target = dimension(m1 + m2)
    if any(c != 0 for c in prod[target:]):
        raise InternalError(f"product of degrees {m1} and {m2} leaves the degree-{m1 + m2} piece")
    prod = [Fraction(c) for c in prod[:target]]
    return tuple(prod) + (Fraction(0),) * (target - len(prod))
