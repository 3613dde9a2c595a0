"""Problem documents: JSON input for divisors, JSON and text output for reports.

A problem document is one JSON object:

    {
      "lattice_rank": 1,
      "tail_cone": {"rays": [[1]]},
      "base": {"kind": "P1"},
      "coefficients": [
        {"point": "0", "vertices": [["-1/4"]], "extra_rays": [[1]]}
      ]
    }

Rationals are written as integers or exact strings like "-2/3": an optional
sign, digits, and optionally a slash and more digits, with at most
MAX_DIGITS digits in the numerator and in the denominator (JSON integers
included). Anything else, floating point numbers in particular, is rejected
rather than rounded or read in another notation. Points take the form the
base dictates: "inf" or a rational for the projective line, "O" or
{"x": ..., "y": ...} for an elliptic curve, a string label for abstract
curves, a rational for the affine line, and {"hyperplane": i} over affine
space. The per-coefficient tail cone is always the divisor's tail cone;
an optional extra_rays list is checked for containment in it, so documents
carrying ray generators alongside vertices are accepted without silently
changing meaning.

Malformed JSON raises ParseError with the position, and JSON nested too
deeply for the decoder raises ParseError without one; well-formed JSON with
bad content, or larger than the MAX_* caps, raises InvalidInputError carrying
one message per violation, each prefixed with the JSON path. Only then is the
tail cone checked for pointedness, raising ShapeError.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction

from .curves import (
    EC_ORIGIN,
    P1_INFINITY,
    AbstractAffineCurve,
    AbstractProjectiveCurve,
    AffineLine,
    EllipticCurveQ,
    EllipticOrigin,
    EllipticPoint,
    LabelPoint,
    P1Point,
    ProjectiveLine,
    QDivisor,
    RationalPoint,
    p1_point,
)
from .errors import InternalError, InvalidInputError, ParseError, ShapeError
from .geometry import cone_contains, make_cone, make_polyhedron
from .pdiv import AffineSpace, PolyhedralDivisor, polyhedral_divisor

_BASE_KINDS = ("P1", "elliptic", "abstract", "affine_line", "affine_space")

# Longest numerator or denominator accepted, in decimal digits; then the
# largest rank, affine dimension, coefficient count and vertices per
# coefficient, the most tail rays and extra_rays per coefficient, and the
# largest genus of an abstract base (the h1 listing grows with it).
MAX_DIGITS = 100
MAX_LATTICE_RANK = 32
MAX_AFFINE_DIM = 32
MAX_COEFFICIENTS = 128
MAX_VERTICES = 128
MAX_RAYS = 128
MAX_GENUS = 1000

_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


@dataclass(frozen=True)
class _LongInteger:
    """A JSON integer literal with more than MAX_DIGITS digits, never converted."""

    literal: str


def _json_int(literal: str):
    digits = literal.lstrip("-")
    return _LongInteger(literal) if len(digits) > MAX_DIGITS else int(literal)


def _rational(value, path: str, violations: list) -> Fraction | None:
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


def _vector(value, rank: int, path: str, violations: list):
    if not isinstance(value, list):
        violations.append(f"{path}: expected a list of {rank} rationals")
        return None
    if len(value) != rank:
        violations.append(f"{path}: expected {rank} coordinates, got {len(value)}")
        return None
    out = []
    for i, entry in enumerate(value):
        q = _rational(entry, f"{path}[{i}]", violations)
        if q is None:
            return None
        out.append(q)
    return tuple(out)


def _check_keys(obj: dict, allowed, required, path: str, violations: list) -> bool:
    ok = True
    for key in required:
        if key not in obj:
            violations.append(f"{path}: missing required key {key!r}")
            ok = False
    for key in obj:
        if key not in allowed:
            violations.append(f"{path}: unknown key {key!r}")
            ok = False
    return ok


def _parse_base(obj, violations: list):
    path = "base"
    if not isinstance(obj, dict):
        violations.append(f"{path}: expected an object with a \"kind\" key")
        return None
    kind = obj.get("kind")
    if kind == "P1":
        _check_keys(obj, ("kind",), ("kind",), path, violations)
        return ProjectiveLine()
    if kind == "elliptic":
        if not _check_keys(obj, ("kind", "a", "b"), ("kind", "a", "b"), path, violations):
            return None
        a = _rational(obj["a"], f"{path}.a", violations)
        b = _rational(obj["b"], f"{path}.b", violations)
        if a is None or b is None:
            return None
        try:
            return EllipticCurveQ(a, b)
        except ShapeError as exc:
            violations.append(f"{path}: {exc}")
            return None
    if kind == "abstract":
        if not _check_keys(obj, ("kind", "genus", "proper"), ("kind",), path, violations):
            return None
        proper = obj.get("proper", True)
        if not isinstance(proper, bool):
            violations.append(f"{path}.proper: expected true or false")
            return None
        if not proper:
            if "genus" in obj:
                violations.append(
                    f"{path}.genus: genus is only tracked on proper abstract curves"
                )
                return None
            return AbstractAffineCurve()
        genus = obj.get("genus")
        if isinstance(genus, bool) or not isinstance(genus, int) or genus < 0:
            violations.append(f"{path}.genus: expected a nonnegative integer")
            return None
        if genus > MAX_GENUS:
            violations.append(f"{path}.genus: at most {MAX_GENUS} is supported")
            return None
        return AbstractProjectiveCurve(genus)
    if kind == "affine_line":
        _check_keys(obj, ("kind",), ("kind",), path, violations)
        return AffineLine()
    if kind == "affine_space":
        if not _check_keys(obj, ("kind", "dim"), ("kind", "dim"), path, violations):
            return None
        dim = obj.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            violations.append(f"{path}.dim: expected a positive integer")
            return None
        if dim > MAX_AFFINE_DIM:
            violations.append(f"{path}.dim: at most {MAX_AFFINE_DIM} is supported")
            return None
        return AffineSpace(dim)
    violations.append(f"{path}.kind: expected one of {', '.join(_BASE_KINDS)}")
    return None


def _parse_point(value, base, path: str, violations: list):
    if isinstance(base, ProjectiveLine):
        if value == "inf":
            return P1_INFINITY
        q = _rational(value, path, violations)
        return None if q is None else p1_point(q)
    if isinstance(base, EllipticCurveQ):
        if value == "O":
            return EC_ORIGIN
        if not isinstance(value, dict):
            violations.append(f"{path}: expected \"O\" or an object with x and y")
            return None
        if not _check_keys(value, ("x", "y"), ("x", "y"), path, violations):
            return None
        x = _rational(value["x"], f"{path}.x", violations)
        y = _rational(value["y"], f"{path}.y", violations)
        if x is None or y is None:
            return None
        return EllipticPoint(x, y)
    if isinstance(base, (AbstractProjectiveCurve, AbstractAffineCurve)):
        if not isinstance(value, str) or not value:
            violations.append(f"{path}: expected a nonempty point label")
            return None
        return LabelPoint(value)
    if isinstance(base, AffineLine):
        q = _rational(value, path, violations)
        return None if q is None else RationalPoint(q)
    if not isinstance(base, AffineSpace):
        raise InternalError(f"no point syntax for the base {base!r}")
    if not isinstance(value, dict) or not _check_keys(
        value, ("hyperplane",), ("hyperplane",), path, violations
    ):
        if not isinstance(value, dict):
            violations.append(f"{path}: expected an object like {{\"hyperplane\": 1}}")
        return None
    index = value.get("hyperplane")
    if isinstance(index, bool) or not isinstance(index, int):
        violations.append(f"{path}.hyperplane: expected an integer index")
        return None
    return index


def parse_problem(text: str) -> PolyhedralDivisor:
    """Parse a problem document into a validated polyhedral divisor."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects are nested too deeply") from exc

    violations: list[str] = []
    if not isinstance(doc, dict):
        raise InvalidInputError(["the document must be a JSON object"])
    _check_keys(
        doc,
        ("lattice_rank", "tail_cone", "base", "coefficients"),
        ("lattice_rank", "tail_cone", "base"),
        "document",
        violations,
    )
    if violations:
        raise InvalidInputError(violations)

    rank = doc["lattice_rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise InvalidInputError(["lattice_rank: expected a positive integer"])
    if rank > MAX_LATTICE_RANK:
        raise InvalidInputError([f"lattice_rank: at most {MAX_LATTICE_RANK} is supported"])

    tail_obj = doc["tail_cone"]
    tail_rays = []
    if not isinstance(tail_obj, dict) or not _check_keys(
        tail_obj, ("rays",), ("rays",), "tail_cone", violations
    ):
        if not isinstance(tail_obj, dict):
            violations.append("tail_cone: expected an object with a \"rays\" list")
    else:
        rays_obj = tail_obj["rays"]
        if not isinstance(rays_obj, list):
            violations.append("tail_cone.rays: expected a list of rays")
        elif len(rays_obj) > MAX_RAYS:
            violations.append(f"tail_cone.rays: at most {MAX_RAYS} are supported")
        else:
            for i, ray in enumerate(rays_obj):
                v = _vector(ray, rank, f"tail_cone.rays[{i}]", violations)
                if v is not None:
                    tail_rays.append(v)

    base = _parse_base(doc["base"], violations)
    if violations or base is None:
        raise InvalidInputError(violations)

    entries = doc.get("coefficients", [])
    if not isinstance(entries, list):
        raise InvalidInputError(["coefficients: expected a list"])
    if len(entries) > MAX_COEFFICIENTS:
        raise InvalidInputError([f"coefficients: at most {MAX_COEFFICIENTS} are supported"])
    tail = make_cone(tail_rays, rank)
    pairs = []
    for i, entry in enumerate(entries):
        path = f"coefficients[{i}]"
        if not isinstance(entry, dict):
            violations.append(f"{path}: expected an object")
            continue
        if not _check_keys(
            entry, ("point", "vertices", "extra_rays"), ("point", "vertices"), path, violations
        ):
            continue
        point = _parse_point(entry["point"], base, f"{path}.point", violations)
        verts_obj = entry["vertices"]
        if not isinstance(verts_obj, list) or not verts_obj:
            violations.append(f"{path}.vertices: expected a nonempty list of vertices")
            continue
        if len(verts_obj) > MAX_VERTICES:
            violations.append(f"{path}.vertices: at most {MAX_VERTICES} are supported")
            continue
        vertices = []
        for j, vert in enumerate(verts_obj):
            v = _vector(vert, rank, f"{path}.vertices[{j}]", violations)
            if v is not None:
                vertices.append(v)
        if len(vertices) != len(verts_obj):
            continue
        extra_rays = entry.get("extra_rays", [])
        if not isinstance(extra_rays, list):
            violations.append(f"{path}.extra_rays: expected a list of rays")
            continue
        if len(extra_rays) > MAX_RAYS:
            violations.append(f"{path}.extra_rays: at most {MAX_RAYS} are supported")
            continue
        for j, ray in enumerate(extra_rays):
            v = _vector(ray, rank, f"{path}.extra_rays[{j}]", violations)
            if v is not None and not cone_contains(tail, v):
                violations.append(
                    f"{path}.extra_rays[{j}]: ray {tuple(map(str, v))} is not in the tail cone"
                )
        if point is None:
            continue
        pairs.append((point, vertices))

    if violations:
        raise InvalidInputError(violations)
    if not tail.pointed:
        raise ShapeError("the tail cone must be pointed")
    polys = [(point, make_polyhedron(vertices, tail)) for point, vertices in pairs]
    return polyhedral_divisor(base, rank, tail, polys)


# ---------------------------------------------------------------------------
# emission


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


def emit_problem(d: PolyhedralDivisor) -> str:
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


# exact types that are already plain data; subclasses such as Verdict (a str
# Enum) take the general path
_LEAF_TYPES = frozenset((int, str, bool, type(None)))


def report_payload(obj):
    """Plain JSON-ready data for a report object, with stable key order."""
    kind = type(obj)
    if kind in _LEAF_TYPES:
        return obj
    if kind is tuple or kind is list:
        # long h1 listings are tuples of int pairs: skip the call per leaf
        return [x if type(x) in _LEAF_TYPES else report_payload(x) for x in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, QDivisor):
        return [[str(pt), str(c)] for pt, c in obj.terms]
    if isinstance(obj, (P1Point, EllipticPoint, EllipticOrigin, LabelPoint, RationalPoint)):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: report_payload(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): report_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [report_payload(x) for x in obj]
    return str(obj)


def _text_lines(payload, prefix: str):
    if isinstance(payload, dict):
        for k, v in payload.items():
            yield from _text_lines(v, f"{prefix}.{k}" if prefix else str(k))
        return
    if isinstance(payload, list):
        if all(not isinstance(x, (dict, list)) for x in payload):
            body = ", ".join("null" if x is None else str(x) for x in payload)
            yield f"{prefix}: [{body}]"
            return
        for i, x in enumerate(payload):
            yield from _text_lines(x, f"{prefix}[{i}]")
        return
    if payload is None:
        yield f"{prefix}: null"
    elif isinstance(payload, bool):
        yield f"{prefix}: {'true' if payload else 'false'}"
    else:
        yield f"{prefix}: {payload}"


def emit_report(obj, format: str = "json") -> str:
    """Serialize a report dataclass (or payload) as JSON or flat text lines."""
    payload = report_payload(obj)
    if format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if format == "text":
        return "\n".join(_text_lines(payload, "")) + "\n"
    raise ShapeError(f"unknown output format {format!r}")
