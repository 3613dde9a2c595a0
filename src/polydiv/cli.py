"""Command-line front end.

Every command reads one problem document (a path, or ``-`` for standard
input), runs the requested computation and prints a report, or an error
payload, on standard output in the selected format. classify, rational, cm,
gorenstein, elliptic and h1 refuse a divisor that is not proper (classify
reports every verdict pending when properness is undecided); proper,
profile, toric and ring do not ask. elliptic reads the Gorenstein report
only when its elliptic verdict is not no: a singularity that is not elliptic
is not minimally elliptic either.

_process is the one place that turns a run's outcome into its payload and
exit code, with one except clause per exception class:

- OSError or UnicodeError, which only reading raises: error "read", exit 2;
- ParseError: error "parse" with its line and column, exit 2;
- NotProperError, which only analysis raises: the divisor's cached
  properness report, error "not-proper" with exit 3 or criterion
  "properness-undecided" with exit 4 (error "internal" if it says yes);
- InternalError, a failed consistency check: error "internal", exit 3;
- any other PolydivError: error "invalid-input" if no divisor was built yet
  (an InvalidInputError's violations, else the message as the one
  violation), otherwise error "domain"; exit 3;
- any other Exception: error "internal" with "Type: message", exit 3; a
  BaseException that is not an Exception propagates;
- no exception: exit 3 for a proper report with verdict no, 4 for a report
  with an undecided verdict, otherwise 0.

A batch exits with the most severe code of its documents, in the order 2,
3, 4, 0; a command line that does not parse exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from .classify import (
    ClassifyReport,
    H1Report,
    classify_report,
    cohen_macaulay,
    elliptic_singularity,
    gorenstein,
    h1_report,
    minimal_elliptic_verdict,
    rational_singularities,
)
from .errors import InternalError, InvalidInputError, NotProperError, ParseError, PolydivError
from .pdiv import is_proper
from .problem_io import emit_report, parse_problem
from .sections import ring_presentation
from .toric import cone_diagnostics, toric_cone
from .verdicts import Verdict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_UNKNOWN = 4

# exit-code priority when several conditions hold: parse > invalid > unknown
_SEVERITY = {EXIT_OK: 0, EXIT_UNKNOWN: 1, EXIT_INVALID: 2, EXIT_PARSE: 3}

def _worst(codes) -> int:
    return max(codes, key=_SEVERITY.__getitem__, default=EXIT_OK)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main call."""
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


def _undecided(result) -> bool:
    """Does a report carry an undecided verdict or an undecidable h1 total?

    An undecidable h1 entry makes the total undecidable too: listed entries
    up to the bound are a prefix of the summed series, and entries past the
    bound are never undecidable.
    """
    if isinstance(result, dict):
        return Verdict.UNKNOWN in (result.get("verdict"), result.get("minimal"))
    if isinstance(result, H1Report):
        return result.total is None
    if isinstance(result, ClassifyReport):
        parts = (
            result.properness,
            result.rational,
            result.cohen_macaulay,
            result.gorenstein,
            result.elliptic,
        )
        return (
            any(part.verdict == Verdict.UNKNOWN for part in parts)
            or result.minimal_elliptic == Verdict.UNKNOWN
            or (result.h1 is not None and result.h1.total is None)
        )
    return getattr(result, "verdict", None) == Verdict.UNKNOWN


def _report(command: str, d, args):
    """The report of one command on a parsed divisor."""
    if command == "proper":
        return is_proper(d)
    if command == "classify":
        return classify_report(d, isolated=args.isolated)
    if command == "rational":
        return rational_singularities(d)
    if command == "cm":
        return cohen_macaulay(d, isolated=args.isolated)
    if command == "gorenstein":
        return gorenstein(d)
    if command == "elliptic":
        ell = elliptic_singularity(d)
        minimal = Verdict.NO
        if ell.verdict != Verdict.NO:
            minimal = minimal_elliptic_verdict(ell, gorenstein(d))
        return {
            "verdict": ell.verdict,
            "criterion": ell.criterion,
            "witness_m": ell.witness_m,
            "minimal": minimal,
        }
    if command == "h1":
        return h1_report(d, m_max=args.m_max)
    if command == "profile":
        return {"m_max": args.m_max, "degrees": list(d.floor_degrees(args.m_max))}
    if command == "toric":
        cone = toric_cone(d)
        return {"cone": cone, "diagnostics": cone_diagnostics(cone)}
    return ring_presentation(d, args.max_degree)


def _process(source: str, command: str, args) -> tuple[object, int]:
    """Read one document (a path, or - for stdin), parse it and run one
    command: the report, or an error payload, for emit_report, and the exit
    code. The one place that maps a run's outcome to both; the module
    docstring lists the mapping."""
    d = None
    try:
        d = parse_problem(_read_text(source))
        report = _report(command, d, args)
    except (OSError, UnicodeError) as exc:
        # a missing file, or bytes that are not UTF-8 text
        return {"error": "read", "message": str(exc)}, EXIT_PARSE
    except ParseError as exc:
        payload = {"error": "parse", "message": str(exc), "line": exc.line, "column": exc.column}
        return payload, EXIT_PARSE
    except NotProperError as exc:
        # the library's one properness gate refused the divisor; the report
        # it read is cached on the divisor
        prop = is_proper(d)
        if prop.verdict == Verdict.NO:
            payload = {"error": "not-proper", "reason": prop.reason, "witness": prop.witness}
            return payload, EXIT_INVALID
        if prop.verdict == Verdict.UNKNOWN:
            payload = {
                "verdict": Verdict.UNKNOWN,
                "criterion": "properness-undecided",
                "reason": prop.reason,
            }
            return payload, EXIT_UNKNOWN
        return {"error": "internal", "message": f"a proper divisor was refused: {exc}"}, EXIT_INVALID
    except InternalError as exc:
        # a consistency check failed: a bug in polydiv, not a property of the input
        return {"error": "internal", "message": str(exc)}, EXIT_INVALID
    except PolydivError as exc:
        if d is not None:
            # the divisor is fine but this command does not apply to it
            return {"error": "domain", "message": str(exc)}, EXIT_INVALID
        # the document failed validation, or a structural precondition of
        # the divisor failed, e.g. a tail cone that is not pointed
        violations = exc.violations if isinstance(exc, InvalidInputError) else [str(exc)]
        return {"error": "invalid-input", "violations": violations}, EXIT_INVALID
    except Exception as exc:
        # last resort: a failure no other clause foresaw is a bug in polydiv,
        # answered like a failed consistency check rather than a traceback
        return {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}, EXIT_INVALID
    if command == "proper" and report.verdict == Verdict.NO:
        return report, EXIT_INVALID
    return report, EXIT_UNKNOWN if _undecided(report) else EXIT_OK


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
        results[doc.name], code = _process(str(doc), "classify", args)
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
        payload, code = _process(args.input, args.command, args)

    sys.stdout.write(emit_report(payload, format=args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
