"""Exact classification of torus-equivariant singularities from polyhedral divisor data.

The public surface re-exported here covers the full pipeline: curve models
and divisor classes (curves), polyhedral divisors with properness and
rank-one floor degrees (pdiv), the singularity classifiers (classify), the
toric model over affine space (toric), graded section rings (sections), and
the JSON problem/report formats (problem_io). Everything computes in exact
rational arithmetic.

Importing the package loads none of these modules: each export is resolved
from its home module on first access. So the proper and profile commands
load the divisor core alone (cli, problem_io, pdiv, geometry, linalg,
curves, errors, verdicts), and every other command loads the analysis layer,
classify, sections and toric, once per process.
"""

import importlib

# the module that defines each export
_HOMES = {
    "classify": (
        "ClassifyReport", "CohenMacaulayReport", "EllipticReport", "GorensteinReport",
        "H1Report", "RationalReport", "classify_report", "cohen_macaulay",
        "decide_floor_bound", "elliptic_singularity", "gorenstein", "h1_report",
        "minimal_elliptic_verdict", "rational_singularities",
    ),
    "curves": (
        "EC_ORIGIN", "P1_INFINITY", "AbstractAffineCurve", "AbstractProjectiveCurve",
        "AffineLine", "EllipticCurveQ", "EllipticOrigin", "EllipticPoint", "LabelPoint",
        "P1Point", "ProjectiveLine", "QDivisor", "RationalPoint", "canonical_divisor",
        "degree", "divisor", "ec_add", "ec_multiple", "ec_neg", "h1_dims", "is_integral",
        "is_principal", "is_torsion_class", "p1_point",
    ),
    "errors": (
        "CurveDomainError", "InternalError", "InvalidInputError", "NonIntegralError",
        "NotProperError", "ParseError", "PointError", "PolydivError", "RankMismatchError",
        "ShapeError", "UnsupportedRankError",
    ),
    "geometry": (
        "Cone", "TailedPolyhedron", "chamber_fan", "cone_contains", "make_cone",
        "make_polyhedron",
    ),
    "pdiv": (
        "AffineSpace", "PolyhedralDivisor", "PropernessReport", "RaySlope",
        "contraction_iso_codim1", "is_proper", "polyhedral_divisor", "require_proper",
    ),
    "problem_io": ("emit_report", "parse_problem", "report_payload"),
    "sections": ("RelationBlock", "RingGenerator", "RingPresentation", "ring_presentation"),
    "toric": ("ConeDiagnostics", "ToricCone", "cone_diagnostics", "toric_cone"),
    "verdicts": ("Verdict",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """An export, imported from its home module on first access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = sorted(_HOME)
