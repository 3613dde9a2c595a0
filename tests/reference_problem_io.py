"""Problem documents written back from a divisor, kept as the oracle of the
parser's round trip, and reports written by json.dumps, kept as the oracle
of the report writer.

emit_problem writes the canonical document of a divisor: its rank, the rays
of its tail, its base and, per marked point, the vertices of the
coefficient as exact strings. The tests check that parse_problem reads every
base and point form back to an equal divisor.

json_report writes a report as the standard library's encoder does with
indent=2; the tests check that emit_report gives the same bytes.

rational reads one decoded JSON value as a rational with isinstance tests in
their original order, before the parser tested exact types first; the tests
check that both give the same value and the same violation text.
"""

import json
from fractions import Fraction

from polydiv.curves import (
    AbstractAffineCurve,
    AbstractProjectiveCurve,
    AffineLine,
    EllipticCurveQ,
    EllipticOrigin,
    EllipticPoint,
    LabelPoint,
    P1Point,
    ProjectiveLine,
    RationalPoint,
)
from polydiv.errors import InternalError
from polydiv.pdiv import AffineSpace
from polydiv.problem_io import _RATIONAL, MAX_DIGITS, _LongInteger, report_payload


def _base_json(base):
    if isinstance(base, ProjectiveLine):
        return {"kind": "P1"}
    if isinstance(base, EllipticCurveQ):
        return {"kind": "elliptic", "a": str(base.a), "b": str(base.b)}
    if isinstance(base, AbstractProjectiveCurve):
        return {"kind": "abstract", "genus": base.genus, "proper": True}
    if isinstance(base, AbstractAffineCurve):
        return {"kind": "abstract", "proper": False}
    if isinstance(base, AffineLine):
        return {"kind": "affine_line"}
    if not isinstance(base, AffineSpace):
        raise InternalError(f"no document form for the base {base!r}")
    return {"kind": "affine_space", "dim": base.dim}


def _point_json(key):
    if isinstance(key, int):
        return {"hyperplane": key}
    if isinstance(key, P1Point):
        return str(key)
    if isinstance(key, EllipticOrigin):
        return "O"
    if isinstance(key, EllipticPoint):
        return {"x": str(key.x), "y": str(key.y)}
    if isinstance(key, LabelPoint):
        return key.label
    if not isinstance(key, RationalPoint):
        raise InternalError(f"no document form for the point {key!r}")
    return str(key.value)


def emit_problem(d) -> str:
    """Canonical problem document for a divisor; parses back to an equal value."""
    doc = {
        "lattice_rank": d.rank,
        "tail_cone": {"rays": [list(r) for r in d.tail.rays]},
        "base": _base_json(d.base),
        "coefficients": [
            {
                "point": _point_json(key),
                "vertices": [[str(x) for x in v] for v in poly.vertices],
            }
            for key, poly in d.coefficients
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def json_report(obj) -> str:
    """The JSON report of obj, through json.dumps(indent=2)."""
    return json.dumps(report_payload(obj), indent=2) + "\n"


def rational(value, path: str, violations: list):
    if isinstance(value, bool):
        violations.append(f"{path}: expected a rational, got a boolean")
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, _LongInteger):
        violations.append(f"{path}: integer has more than {MAX_DIGITS} digits")
        return None
    if isinstance(value, float):
        violations.append(
            f"{path}: floating-point numbers are not exact; write a string like \"1/4\""
        )
        return None
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            shown = value if len(value) <= 40 else value[:40] + "..."
            violations.append(f"{path}: cannot read {shown!r} as a rational")
            return None
        sign, num, den = match.groups()
        if len(num) > MAX_DIGITS or (den is not None and len(den) > MAX_DIGITS):
            violations.append(
                f"{path}: numerator or denominator has more than {MAX_DIGITS} digits"
            )
            return None
        if den is not None and int(den) == 0:
            violations.append(f"{path}: cannot read {value!r} as a rational")
            return None
        numerator = -int(num) if sign == "-" else int(num)
        return Fraction(numerator, 1 if den is None else int(den))
    violations.append(f"{path}: expected a rational, got {type(value).__name__}")
    return None
