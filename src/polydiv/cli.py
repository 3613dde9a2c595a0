"""Command-line front end.

Every command reads one problem document (a path, or ``-`` for standard
input), runs the requested computation and prints a report on standard
output in the selected format.

Exit codes: 0 the report is complete; 2 the document (or command line) does
not parse; 3 the input is invalid for the request, including non-proper
divisors, or an internal consistency check failed (payload error
"internal"); 4 the report contains an undecided verdict.  When several
apply the most severe wins, in the order 2, 3, 4, 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .classify import (
    classify_report,
    cohen_macaulay,
    elliptic_singularity,
    floor_degree_profile,
    gorenstein,
    h1_report,
    minimal_elliptic_verdict,
    rational_singularities,
)
from .errors import InternalError, InvalidInputError, NotProperError, ParseError, PolydivError
from .pdiv import is_proper
from .problem_io import emit_report, parse_problem, report_payload
from .sections import ring_presentation
from .toric import cone_diagnostics, toric_cone
from .verdicts import Verdict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_UNKNOWN = 4

# exit-code priority when several conditions hold: parse > invalid > unknown
_SEVERITY = {EXIT_OK: 0, EXIT_UNKNOWN: 1, EXIT_INVALID: 2, EXIT_PARSE: 3}

# commands whose underlying question only makes sense for proper divisors
_NEEDS_PROPER = ("classify", "rational", "cm", "gorenstein", "elliptic", "h1")


def _worst(codes) -> int:
    return max(codes, key=_SEVERITY.__getitem__, default=EXIT_OK)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydiv",
        description="Classify the singularities attached to a polyhedral divisor.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, *, needs_input: bool = True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        # accepted after the subcommand as well, without clobbering the
        # top-level value when absent
        p.add_argument(
            "--format", choices=("json", "text"), default=argparse.SUPPRESS
        )
        if needs_input:
            p.add_argument("input", help="problem document path, or - for stdin")
        return p

    p = add("classify", "run every classifier and report them together", needs_input=False)
    p.add_argument("input", nargs="?", help="problem document path, or - for stdin")
    p.add_argument("--batch", metavar="DIR", help="classify every *.json document in DIR")
    p.add_argument(
        "--isolated",
        action="store_true",
        help="assert that the singular locus is one point",
    )

    add("proper", "decide properness of the divisor")
    add("rational", "decide rationality of the singularities")

    p = add("cm", "decide the Cohen-Macaulay property")
    p.add_argument(
        "--isolated",
        action="store_true",
        help="assert that the singular locus is one point",
    )

    add("gorenstein", "decide the Gorenstein property")
    add("elliptic", "decide whether the singularity is elliptic, and minimally so")

    p = add("h1", "cohomology of the rounded-down evaluations, weight by weight")
    p.add_argument(
        "--m-max", type=_nonneg, default=None, help="report entries up to this weight"
    )

    p = add("profile", "degrees of the rounded-down evaluations")
    p.add_argument(
        "--m-max", type=_nonneg, required=True, help="last weight of the profile"
    )

    add("toric", "toric cone of a divisor on affine space, with diagnostics")

    p = add("ring", "graded presentation of the section ring")
    p.add_argument(
        "--max-degree", type=_nonneg, required=True, help="truncation degree"
    )

    return parser


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text(encoding="utf-8")


def _has_unknown(payload) -> bool:
    """Does a serialized report contain an undecided verdict anywhere?"""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in ("verdict", "minimal_elliptic", "minimal"):
                if value == Verdict.UNKNOWN.value:
                    return True
            if key == "total" and value is None:
                return True
            if key == "entries" and isinstance(value, list):
                if any(isinstance(e, list) and None in e for e in value):
                    return True
            if _has_unknown(value):
                return True
        return False
    if isinstance(payload, list):
        return any(_has_unknown(x) for x in payload)
    return False


def _analyze(command: str, d, args) -> tuple[object, int]:
    """Run one command on a parsed divisor; exceptions handled by the caller."""
    if command == "proper":
        report = is_proper(d)
        if report.verdict == Verdict.NO:
            return report, EXIT_INVALID
        return report, EXIT_OK

    if command in _NEEDS_PROPER:
        prop = is_proper(d)
        if prop.verdict == Verdict.NO:
            payload = {
                "error": "not-proper",
                "reason": prop.reason,
                "witness": prop.witness,
            }
            return payload, EXIT_INVALID
        if prop.verdict == Verdict.UNKNOWN and command != "classify":
            payload = {
                "verdict": Verdict.UNKNOWN,
                "criterion": "properness-undecided",
                "reason": prop.reason,
            }
            return payload, EXIT_UNKNOWN

    if command == "classify":
        return classify_report(d, isolated=args.isolated), EXIT_OK
    if command == "rational":
        return rational_singularities(d), EXIT_OK
    if command == "cm":
        return cohen_macaulay(d, isolated=args.isolated), EXIT_OK
    if command == "gorenstein":
        return gorenstein(d), EXIT_OK
    if command == "elliptic":
        ell = elliptic_singularity(d)
        gor = gorenstein(d)
        payload = {
            "verdict": ell.verdict,
            "criterion": ell.criterion,
            "witness_m": ell.witness_m,
            "minimal": minimal_elliptic_verdict(ell, gor),
        }
        return payload, EXIT_OK
    if command == "h1":
        return h1_report(d, m_max=args.m_max), EXIT_OK
    if command == "profile":
        degrees = floor_degree_profile(d, args.m_max)
        return {"m_max": args.m_max, "degrees": list(degrees)}, EXIT_OK
    if command == "toric":
        cone = toric_cone(d)
        return {"cone": cone, "diagnostics": cone_diagnostics(cone)}, EXIT_OK
    if command == "ring":
        return ring_presentation(d, args.max_degree), EXIT_OK
    raise AssertionError(command)


def _process(text: str, command: str, args) -> tuple[object, int]:
    """Parse one document and run one command, mapping errors to exit codes."""
    try:
        d = parse_problem(text)
    except ParseError as exc:
        payload = {
            "error": "parse",
            "message": str(exc),
            "line": exc.line,
            "column": exc.column,
        }
        return payload, EXIT_PARSE
    except InvalidInputError as exc:
        return {"error": "invalid-input", "violations": exc.violations}, EXIT_INVALID
    except InternalError as exc:
        return {"error": "internal", "message": str(exc)}, EXIT_INVALID

    try:
        result, code = _analyze(command, d, args)
    except NotProperError as exc:
        payload = {"error": "not-proper", "message": str(exc), "witness": exc.witness}
        return payload, EXIT_INVALID
    except InternalError as exc:
        # a consistency check failed: a bug in polydiv, not a property of the input
        return {"error": "internal", "message": str(exc)}, EXIT_INVALID
    except PolydivError as exc:
        # the divisor is fine but this command does not apply to it
        return {"error": "domain", "message": str(exc)}, EXIT_INVALID

    payload = report_payload(result)
    if code == EXIT_OK and _has_unknown(payload):
        code = EXIT_UNKNOWN
    return payload, code


def _run_batch(directory: str, args) -> tuple[object, int]:
    root = Path(directory)
    if not root.is_dir():
        return {"error": "read", "message": f"not a directory: {directory}"}, EXIT_PARSE
    docs = sorted(root.glob("*.json"))
    if not docs:
        return {"error": "read", "message": f"no *.json documents in {directory}"}, EXIT_INVALID
    results = {}
    codes = []
    for doc in docs:
        try:
            text = doc.read_text(encoding="utf-8")
        except OSError as exc:
            results[doc.name] = {"error": "read", "message": str(exc)}
            codes.append(EXIT_PARSE)
            continue
        payload, code = _process(text, "classify", args)
        results[doc.name] = payload
        codes.append(code)
    return results, _worst(codes)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "classify" and args.batch is not None:
        if args.input is not None:
            build_parser().error("classify takes an input document or --batch, not both")
        payload, code = _run_batch(args.batch, args)
    else:
        if args.command == "classify" and args.input is None:
            build_parser().error("classify needs an input document or --batch")
        try:
            text = _read_text(args.input)
        except OSError as exc:
            payload, code = {"error": "read", "message": str(exc)}, EXIT_PARSE
        else:
            payload, code = _process(text, args.command, args)

    sys.stdout.write(emit_report(payload, format=args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
