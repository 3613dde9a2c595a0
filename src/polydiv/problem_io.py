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
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .curves import (
    EC_ORIGIN,
    P1_INFINITY,
    AbstractAffineCurve,
    AbstractProjectiveCurve,
    AffineLine,
    EllipticCurveQ,
    CurvePoint,
    EllipticPoint,
    LabelPoint,
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


# one decoder for every document, where json.loads builds one per call
_DECODER = json.JSONDecoder(parse_int=_json_int)


def _rational(value, path: str, violations: list) -> Fraction | None:
    # exact type tests: the decoder builds no subclasses, and ints and strings
    # are the common cases
    kind = type(value)
    if kind is int:
        return Fraction(value)
    if kind is str:
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
    if kind is bool:
        violations.append(f"{path}: expected a rational, got a boolean")
    elif kind is _LongInteger:
        violations.append(f"{path}: integer has more than {MAX_DIGITS} digits")
    elif kind is float:
        violations.append(
            f"{path}: floating-point numbers are not exact; write a string like \"1/4\""
        )
    else:
        violations.append(f"{path}: expected a rational, got {kind.__name__}")
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


def _check_keys(
    obj, allowed, required, path: str, violations: list, expected: str = "expected an object"
) -> bool:
    """Is obj an object with the required keys and no others? Else record why."""
    if not isinstance(obj, dict):
        violations.append(f"{path}: {expected}")
        return False
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
        expected = "expected \"O\" or an object with x and y"
        if not _check_keys(value, ("x", "y"), ("x", "y"), path, violations, expected):
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
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            violations.append(f"{path}: the point label {value!r} is not encodable as UTF-8")
            return None
        return LabelPoint(value)
    if isinstance(base, AffineLine):
        q = _rational(value, path, violations)
        return None if q is None else RationalPoint(q)
    if not isinstance(base, AffineSpace):
        raise InternalError(f"no point syntax for the base {base!r}")
    expected = "expected an object like {\"hyperplane\": 1}"
    if not _check_keys(value, ("hyperplane",), ("hyperplane",), path, violations, expected):
        return None
    index = value.get("hyperplane")
    if isinstance(index, bool) or not isinstance(index, int):
        violations.append(f"{path}.hyperplane: expected an integer index")
        return None
    return index


def parse_problem(text: str) -> PolyhedralDivisor:
    """Parse a problem document into a validated polyhedral divisor."""
    try:
        if text.startswith("\ufeff"):  # as json.loads rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
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
    expected = "expected an object with a \"rays\" list"
    if _check_keys(tail_obj, ("rays",), ("rays",), "tail_cone", violations, expected):
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


@cache
def _field_keys(kind) -> tuple[tuple[str, str], ...] | None:
    """(name, JSON key) per field of a report dataclass, None for other types."""
    if is_dataclass(kind) and not issubclass(kind, (QDivisor, CurvePoint)):
        return tuple((f.name, _quote(f.name) + ": ") for f in fields(kind))
    return None


def report_payload(obj):
    """Plain JSON-ready data for a report object, with stable key order: what
    its JSON report reads back as."""
    return json.loads(_json_text(obj, ""))


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(obj, indent: str) -> str:
    """A report object (or plain data) as JSON with indent=2, nested at
    indent, read straight off the object with one join per container:
    dataclasses as objects, divisors as [point, coefficient] pairs, points
    and Fractions as strings, enums as their values. A float, set, bytes,
    non-str key or any other type raises TypeError."""
    kind = type(obj)
    inner = indent + "  "
    if kind is tuple or kind is list:
        if not obj:
            return "[]"
        items = [int.__repr__(x) if type(x) is int else _json_text(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is int:
        return int.__repr__(obj)
    if kind is Fraction:
        return '"' + str(obj) + '"'
    keys = _field_keys(kind)
    if keys is not None:
        items = [key + _json_text(getattr(obj, name), inner) for name, key in keys]
    elif isinstance(obj, dict):
        # _quote refuses a key that is not a str
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
    elif isinstance(obj, str):  # a str subclass, the str enum Verdict too
        return _quote(obj)
    elif obj is None or kind is bool:
        return _JSON_CONSTANTS[obj]
    elif isinstance(obj, Enum):
        return _json_text(obj.value, indent)
    elif isinstance(obj, int):
        return int.__repr__(obj)
    elif isinstance(obj, QDivisor):
        return _json_text([[str(pt), str(c)] for pt, c in obj.terms], indent)
    elif isinstance(obj, CurvePoint):
        return _quote(str(obj))
    elif isinstance(obj, (list, tuple)):
        return _json_text(list(obj), indent)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}" if items else "{}"


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
    """Serialize a report dataclass (or plain data) as JSON or flat text lines;
    the text lines read its report_payload."""
    if format == "json":
        return _json_text(obj, "") + "\n"
    if format == "text":
        return "\n".join(_text_lines(report_payload(obj), "")) + "\n"
    raise ShapeError(f"unknown output format {format!r}")
