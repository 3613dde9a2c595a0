"""End-to-end checks of the command-line surface: payloads and exit codes."""

import json
from pathlib import Path
from time import monotonic

import pytest

from hard_documents import brieskorn_pham, period
import polydiv.classify as classify
import polydiv.cli as cli
import polydiv.geometry as geometry
from polydiv.cli import build_parser, main
from polydiv.errors import (
    InternalError,
    InvalidInputError,
    NotProperError,
    ParseError,
    ShapeError,
)
from polydiv.problem_io import report_payload
from polydiv.verdicts import Verdict

DATA = Path(__file__).parent / "data"
GOLDEN_DOCUMENTS = Path(__file__).parent / "golden" / "documents"

GOLDEN_ONE = str(DATA / "golden_one.json")
GOLDEN_THREE = str(DATA / "golden_three.json")
AFFINE_PLANE = str(DATA / "affine_plane.json")
ELLIPTIC_PAIR = str(DATA / "elliptic_pair.json")

NON_PROPER_DOC = """{
  "lattice_rank": 1,
  "tail_cone": {"rays": [[1]]},
  "base": {"kind": "P1"},
  "coefficients": [
    {"point": "0", "vertices": [["1/2"]]},
    {"point": "inf", "vertices": [["-1/2"]]}
  ]
}
"""

# degree zero along the boundary ray (1, 0) with a non-principal evaluation
# on an abstract genus-one curve: properness stays undecided
UNDECIDED_DOC = """{
  "lattice_rank": 2,
  "tail_cone": {"rays": [[1, 0], [0, 1]]},
  "base": {"kind": "abstract", "genus": 1},
  "coefficients": [
    {"point": "p", "vertices": [["1/2", "0"]]},
    {"point": "q", "vertices": [["-1/2", "0"]]},
    {"point": "r", "vertices": [["0", "1"]]}
  ]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_proper_reports_yes_and_exits_zero(capsys):
    code, payload = run_json(capsys, "proper", GOLDEN_ONE)
    assert code == 0
    assert payload["verdict"] == "yes"


def test_classify_golden_one(capsys):
    code, payload = run_json(capsys, "classify", GOLDEN_ONE)
    assert code == 0
    assert payload["rational"] == {
        "verdict": "no",
        "criterion": "floor-degrees-at-least-minus-one",
        "witness": [1],
    }
    assert payload["cohen_macaulay"]["verdict"] == "yes"
    assert payload["gorenstein"]["verdict"] == "yes"
    assert payload["gorenstein"]["canonical_index"] == "1"
    assert payload["elliptic"]["verdict"] == "yes"
    assert payload["elliptic"]["witness_m"] == 1
    assert payload["minimal_elliptic"] == "yes"
    assert payload["h1"]["total"] == 1


def test_classify_golden_three_is_not_gorenstein(capsys):
    code, payload = run_json(capsys, "classify", GOLDEN_THREE)
    assert code == 0
    assert payload["elliptic"]["verdict"] == "yes"
    assert payload["elliptic"]["witness_m"] == 2
    assert payload["gorenstein"]["verdict"] == "no"
    assert payload["minimal_elliptic"] == "no"


def test_elliptic_command_includes_minimality(capsys):
    code, payload = run_json(capsys, "elliptic", GOLDEN_ONE)
    assert code == 0
    assert payload == {
        "verdict": "yes",
        "criterion": "unique-floor-degree-minus-two",
        "witness_m": 1,
        "minimal": "yes",
    }

    code, payload = run_json(capsys, "elliptic", GOLDEN_THREE)
    assert code == 0
    assert payload["witness_m"] == 2
    assert payload["minimal"] == "no"


def test_text_format_flag_in_both_positions(capsys):
    code, out = run(capsys, "--format", "text", "rational", GOLDEN_ONE)
    assert code == 0
    assert out.splitlines() == [
        "verdict: no",
        "criterion: floor-degrees-at-least-minus-one",
        "witness: [1]",
    ]

    code, after = run(capsys, "rational", "--format", "text", GOLDEN_ONE)
    assert code == 0
    assert after == out


def test_h1_command_truncates_entries(capsys):
    code, payload = run_json(capsys, "h1", "--m-max", "3", GOLDEN_ONE)
    assert code == 0
    assert payload["total"] == 1
    assert payload["entries"] == [[0, 0], [1, 1], [2, 0], [3, 0]]


def test_profile_command(capsys):
    code, payload = run_json(capsys, "profile", "--m-max", "8", GOLDEN_ONE)
    assert code == 0
    assert payload == {"m_max": 8, "degrees": [0, -2, -1, 0, 1, -1, 0, 1, 2]}


def test_ring_command_reports_generators_and_first_relation(capsys):
    code, payload = run_json(capsys, "ring", "--max-degree", "12", GOLDEN_ONE)
    assert code == 0
    assert payload["dimensions"] == [1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 4]
    assert [g["degree"] for g in payload["generators"]] == [3, 4, 4]
    last = payload["blocks"][-1]
    assert last["degree"] == 12
    assert last["kernel_dim"] == 1
    assert len(last["relations"]) == 1


def test_toric_command_reports_cone_and_diagnostics(capsys):
    code, payload = run_json(capsys, "toric", AFFINE_PLANE)
    assert code == 0
    assert payload["cone"]["rays"] == [[-1, 2, 0], [1, 0, 0], [2, 0, 3]]
    assert payload["diagnostics"]["simplicial"] is True
    assert payload["diagnostics"]["multiplicity"] == 6
    assert payload["diagnostics"]["smooth"] is False


def test_toric_command_rejects_curve_bases(capsys):
    code, payload = run_json(capsys, "toric", GOLDEN_ONE)
    assert code == 3
    assert payload["error"] == "domain"


def test_parse_error_exits_two(capsys, tmp_path):
    doc = tmp_path / "broken.json"
    doc.write_text('{"lattice_rank": 1,}\n')
    code, payload = run_json(capsys, "classify", str(doc))
    assert code == 2
    assert payload["error"] == "parse"
    assert payload["line"] == 1


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
    ids=["arrays", "objects"],
)
def test_deeply_nested_document_is_a_parse_error(capsys, tmp_path, text):
    doc = tmp_path / "nested.json"
    doc.write_text(text)
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 2
    assert payload["error"] == "parse"
    assert "nested too deeply" in payload["message"]


def test_invalid_input_exits_three(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "P1"},'
        ' "coefficients": [{"point": "1/0", "vertices": [["0"]]}]}\n'
    )
    code, payload = run_json(capsys, "classify", str(doc))
    assert code == 3
    assert payload["error"] == "invalid-input"
    assert any("point" in v for v in payload["violations"])


def test_exponent_notation_is_invalid_input_without_delay(capsys, tmp_path):
    doc = tmp_path / "exponent.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "P1"},'
        ' "coefficients": [{"point": "0", "vertices": [["-1e-2000"]]},'
        ' {"point": "inf", "vertices": [["1"]]}]}\n'
    )
    start = monotonic()
    code, payload = run_json(capsys, "classify", str(doc))
    assert monotonic() - start < 5.0
    assert code == 3
    assert payload == {
        "error": "invalid-input",
        "violations": ["coefficients[0].vertices[0][0]: cannot read '-1e-2000' as a rational"],
    }


def test_non_list_extra_rays_is_invalid_input(capsys, tmp_path):
    doc = tmp_path / "extra.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "P1"},'
        ' "coefficients": [{"point": "0", "vertices": [["1/2"]], "extra_rays": 5}]}\n'
    )
    code, payload = run_json(capsys, "classify", str(doc))
    assert code == 3
    assert payload["error"] == "invalid-input"
    assert payload["violations"] == ["coefficients[0].extra_rays: expected a list of rays"]


@pytest.mark.parametrize(
    "argv",
    [["proper"], ["classify"], ["h1"], ["profile", "--m-max", "2"], ["toric"], ["ring", "--max-degree", "2"]],
)
def test_non_pointed_tail_is_invalid_input(capsys, tmp_path, argv):
    # parsing rejects it, after the document itself validated
    doc = tmp_path / "line_tail.json"
    doc.write_text(
        '{"lattice_rank": 2, "tail_cone": {"rays": [[1, -1], [-1, 1]]},'
        ' "base": {"kind": "affine_space", "dim": 1},'
        ' "coefficients": [{"point": {"hyperplane": 1}, "vertices": [[0, 0]]}]}\n'
    )
    code, payload = run_json(capsys, *argv, str(doc))
    assert code == 3
    assert payload == {"error": "invalid-input", "violations": ["the tail cone must be pointed"]}


def test_oversized_document_is_invalid_input(capsys, tmp_path):
    doc = tmp_path / "rank_1500.json"
    doc.write_text(
        '{"lattice_rank": 1500, "tail_cone": {"rays": []}, "base": {"kind": "affine_space", "dim": 1}}\n'
    )
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload == {"error": "invalid-input", "violations": ["lattice_rank: at most 32 is supported"]}


def test_failed_consistency_check_is_internal_error(capsys, monkeypatch):
    real = classify.h1_report

    def wrong_total(d, m_max=None):
        report = real(d, m_max)
        return classify.H1Report(report.bound, report.entries, report.total + 1)

    monkeypatch.setattr(classify, "h1_report", wrong_total)
    code, payload = run_json(capsys, "classify", GOLDEN_ONE)
    assert code == 3
    assert payload["error"] == "internal"
    assert "h1 total 2" in payload["message"]


def test_an_elliptic_singularity_reported_rational_is_internal_error(capsys, monkeypatch):
    def rational_yes(d):
        return classify.RationalReport(Verdict.YES, "floor-degrees-at-least-minus-one")

    monkeypatch.setattr(classify, "rational_singularities", rational_yes)
    code, payload = run_json(capsys, "classify", GOLDEN_ONE)
    assert code == 3
    assert payload == {
        "error": "internal",
        "message": "elliptic singularity reported with rationality verdict yes",
    }


def test_a_rational_singularity_with_cohomology_is_internal_error(capsys, monkeypatch, tmp_path):
    # x^2 + y^3 + z^5 = 0 is rational, not elliptic, and has h1 total 0
    doc = tmp_path / "e8.json"
    doc.write_text(brieskorn_pham(2, 3, 5))
    real = classify.h1_report

    def one_more(d, m_max=None):
        report = real(d, m_max)
        return classify.H1Report(report.bound, report.entries, report.total + 1)

    monkeypatch.setattr(classify, "h1_report", one_more)
    code, payload = run_json(capsys, "classify", str(doc))
    assert code == 3
    assert payload == {
        "error": "internal",
        "message": "rationality verdict yes disagrees with h1 total 1",
    }


def test_a_chamber_that_is_not_a_linearity_region_is_internal_error(capsys, monkeypatch, tmp_path):
    # the wall m1 = 0 cuts the upper half plane in two; a triangulation that
    # ignores it hands _minimizers a simplex on which the support is not linear
    doc = tmp_path / "wall.json"
    doc.write_text(
        '{"lattice_rank": 2, "tail_cone": {"rays": [[0, 1]]}, "base": {"kind": "P1"},'
        ' "coefficients": [{"point": "0", "vertices": [[0, 0], [1, 0]]}]}\n'
    )
    monkeypatch.setattr(geometry, "_triangulate", lambda dd, rank: [((-1, 1), (1, 1))])
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload == {"error": "internal", "message": "chamber is not a linearity region"}


@pytest.mark.parametrize(
    "base,first,second,shown",
    [
        ({"kind": "P1"}, "0", "0/3", "0"),
        ({"kind": "affine_line"}, "1/2", "2/4", "1/2"),
        ({"kind": "elliptic", "a": "0", "b": "-2"}, {"x": "3", "y": "5"}, {"x": "3", "y": "5"}, "(3, 5)"),
        ({"kind": "abstract", "genus": 1}, "p", "p", "p"),
        ({"kind": "affine_space", "dim": 2}, {"hyperplane": 1}, {"hyperplane": 1}, "1"),
    ],
    ids=["P1", "affine-line", "elliptic", "abstract", "affine-space"],
)
def test_a_point_given_twice_is_invalid_input(capsys, tmp_path, base, first, second, shown):
    # two coefficients at one point, spelled alike or not
    doc = tmp_path / "twice.json"
    doc.write_text(
        json.dumps(
            {
                "lattice_rank": 1,
                "tail_cone": {"rays": [[1]]},
                "base": base,
                "coefficients": [
                    {"point": first, "vertices": [["1/2"]]},
                    {"point": second, "vertices": [["1/2"]]},
                ],
            }
        )
    )
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload == {
        "error": "invalid-input",
        "violations": [f"coefficient attached twice to {shown}"],
    }


def test_non_proper_input_exits_three(capsys, tmp_path):
    doc = tmp_path / "nonproper.json"
    doc.write_text(NON_PROPER_DOC)

    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload["verdict"] == "no"

    code, payload = run_json(capsys, "rational", str(doc))
    assert code == 3
    assert payload["error"] == "not-proper"


def test_undecided_properness_exits_four(capsys, tmp_path):
    doc = tmp_path / "undecided.json"
    doc.write_text(UNDECIDED_DOC)

    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 4
    assert payload["verdict"] == "unknown"

    code, payload = run_json(capsys, "rational", str(doc))
    assert code == 4
    assert payload["criterion"] == "properness-undecided"


def test_unknown_verdict_in_report_exits_four(capsys):
    code, payload = run_json(capsys, "cm", ELLIPTIC_PAIR)
    assert code == 4
    assert payload["verdict"] == "unknown"

    code, payload = run_json(capsys, "cm", "--isolated", ELLIPTIC_PAIR)
    assert code == 0
    assert payload == {
        "verdict": "no",
        "criterion": "matches-rationality-isolated-singularity",
    }


def test_stdin_input(capsys, monkeypatch, tmp_path):
    with open(GOLDEN_ONE, encoding="utf-8") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        code, payload = run_json(capsys, "rational", "-")
    assert code == 0
    assert payload["verdict"] == "no"


def test_missing_file_exits_two(capsys):
    code, payload = run_json(capsys, "classify", "/no/such/file.json")
    assert code == 2
    assert payload["error"] == "read"


def test_batch_classifies_every_document(capsys):
    code, payload = run_json(capsys, "classify", "--batch", str(DATA))
    assert code == 4  # the rank-two instance leaves Cohen-Macaulay open
    assert set(payload) == {
        "golden_one.json",
        "golden_three.json",
        "affine_plane.json",
        "elliptic_pair.json",
    }
    assert payload["golden_one.json"]["minimal_elliptic"] == "yes"
    assert payload["affine_plane.json"]["rational"]["verdict"] == "yes"
    assert payload["elliptic_pair.json"]["cohen_macaulay"]["verdict"] == "unknown"


def test_batch_on_a_missing_directory_is_a_read_error(capsys, tmp_path):
    code, payload = run_json(capsys, "classify", "--batch", str(tmp_path / "missing"))
    assert code == 2
    assert payload["error"] == "read"


def test_batch_on_a_directory_without_documents_exits_three(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("not a document\n")
    code, payload = run_json(capsys, "classify", "--batch", str(tmp_path))
    assert code == 3
    assert payload["error"] == "read"


def test_batch_reports_an_unreadable_entry_and_classifies_the_rest(capsys, tmp_path):
    (tmp_path / "a.json").write_text(Path(GOLDEN_ONE).read_text())
    (tmp_path / "b.json").mkdir()
    code, payload = run_json(capsys, "classify", "--batch", str(tmp_path))
    assert code == 2
    assert set(payload) == {"a.json", "b.json"}
    assert payload["b.json"]["error"] == "read"
    assert payload["a.json"]["minimal_elliptic"] == "yes"


NOT_UTF8 = b'{"lattice_rank": 1, \xff\xfe}'


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_a_document_that_is_not_utf8_is_a_read_error(capsys, monkeypatch, tmp_path, source):
    doc = tmp_path / "bytes.json"
    doc.write_bytes(NOT_UTF8)
    with open(doc, encoding="utf-8") as stdin:
        if source == "stdin":
            # standard input decoded strictly, as in a UTF-8 locale
            monkeypatch.setattr("sys.stdin", stdin)
        code, payload = run_json(capsys, "proper", str(doc) if source == "path" else "-")
    assert code == 2
    assert payload["error"] == "read"
    assert "utf-8" in payload["message"]


def test_batch_reports_a_document_that_is_not_utf8_and_classifies_the_rest(capsys, tmp_path):
    (tmp_path / "a.json").write_text(Path(GOLDEN_ONE).read_text())
    (tmp_path / "b.json").write_bytes(NOT_UTF8)
    code, payload = run_json(capsys, "classify", "--batch", str(tmp_path))
    assert code == 2
    assert payload["b.json"]["error"] == "read"
    assert payload["a.json"]["minimal_elliptic"] == "yes"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_point_label_utf8_cannot_encode_is_invalid_input(capsys, tmp_path, fmt):
    # a lone surrogate parses from a JSON escape, but no output can print it
    doc = tmp_path / "surrogate.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "abstract", "genus": 0},'
        ' "coefficients": [{"point": "\\ud800", "vertices": [["1/2"]]}]}\n'
    )
    code, out = run(capsys, "--format", fmt, "gorenstein", str(doc))
    assert code == 3
    assert "invalid-input" in out and "coefficients[0].point" in out
    if fmt == "json":
        (violation,) = json.loads(out)["violations"]
        assert violation.startswith("coefficients[0].point: ")


def test_a_document_that_is_not_an_object_is_invalid_input(capsys, tmp_path):
    doc = tmp_path / "list.json"
    doc.write_text("[]\n")
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload["error"] == "invalid-input"
    assert payload["violations"] == ["the document must be a JSON object"]


def test_classify_requires_exactly_one_input_source(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify"])
    assert info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        main(["classify", GOLDEN_ONE, "--batch", str(DATA)])
    assert info.value.code == 2
    capsys.readouterr()


def test_negative_bounds_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["profile", "--m-max", "-3", GOLDEN_ONE])
    assert info.value.code == 2
    capsys.readouterr()


def run_captured(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "first,second",
    [
        (("classify", "--format", "text", GOLDEN_ONE), ("classify", GOLDEN_ONE)),
        (("--format", "text", "classify", GOLDEN_ONE), ("classify", GOLDEN_ONE)),
        (("h1", "--m-max", "3", GOLDEN_ONE), ("h1", GOLDEN_ONE)),
        (("classify", "-", "--batch", str(DATA)), ("proper", GOLDEN_ONE)),
        (("classify", "-", "--batch", str(DATA)), ("classify", "--batch", str(DATA))),
    ],
)
def test_runs_in_one_process_match_runs_alone(capsys, first, second):
    # the parser is built once per process; no option of one run may leak
    # into the next
    alone = []
    for argv in (first, second):
        build_parser.cache_clear()
        alone.append(run_captured(capsys, argv))
    build_parser.cache_clear()
    together = [run_captured(capsys, argv) for argv in (first, second, first, second)]
    assert together == alone + alone
    assert build_parser() is build_parser()
    second_out = alone[1][1]
    if second[0] == "classify" and "--format" not in second:
        json.loads(second_out)


def test_unforeseen_analysis_exception_is_internal_error(capsys, monkeypatch):
    def broken(d):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(classify, "elliptic_singularity", broken)
    code, payload = run_json(capsys, "elliptic", GOLDEN_ONE)
    assert code == 3
    assert payload == {"error": "internal", "message": "ZeroDivisionError: division by zero"}


def test_unforeseen_parse_exception_is_internal_error_in_a_batch(capsys, monkeypatch):
    def broken(text):
        raise ValueError("no value")

    monkeypatch.setattr(cli, "parse_problem", broken)
    code, payload = run_json(capsys, "classify", "--batch", str(DATA))
    assert code == 3
    assert len(payload) == 4
    assert all(p == {"error": "internal", "message": "ValueError: no value"} for p in payload.values())


# one row per (phase, exception): the payload's error field and the exit
# code; parsing is cli.parse_problem, analysis the elliptic command's
# library call, classify.elliptic_singularity
EXIT_CONTRACT = [
    ("parse", ParseError("no document", line=1, column=1), "parse", 2),
    ("parse", InvalidInputError(["lattice_rank: expected a positive integer"]), "invalid-input", 3),
    ("parse", InternalError("a failed check"), "internal", 3),
    ("parse", ShapeError("the tail cone must be pointed"), "invalid-input", 3),
    ("parse", ValueError("no value"), "internal", 3),
    ("analysis", InvalidInputError(["no such weight"]), "domain", 3),
    ("analysis", InternalError("a failed check"), "internal", 3),
    ("analysis", ShapeError("rank-one classification needs a nontrivial tail ray"), "domain", 3),
    ("analysis", ValueError("no value"), "internal", 3),
    ("analysis", NotProperError("not a proper polyhedral divisor: refused"), "internal", 3),
]


@pytest.mark.parametrize(
    "phase, exc, error, exit_code",
    EXIT_CONTRACT,
    ids=[f"{phase}-{type(exc).__name__}" for phase, exc, _, _ in EXIT_CONTRACT],
)
def test_each_exception_maps_to_one_error_and_exit_code(capsys, monkeypatch, phase, exc, error, exit_code):
    def broken(*args, **kwargs):
        raise exc

    target = (cli, "parse_problem") if phase == "parse" else (classify, "elliptic_singularity")
    monkeypatch.setattr(*target, broken)
    code, payload = run_json(capsys, "elliptic", GOLDEN_ONE)
    assert (payload["error"], code) == (error, exit_code)


def test_unforeseen_read_exception_is_internal_error(capsys, monkeypatch):
    def broken(source):
        raise ValueError("no value")

    monkeypatch.setattr(cli, "_read_text", broken)
    code, payload = run_json(capsys, "elliptic", GOLDEN_ONE)
    assert code == 3
    assert payload == {"error": "internal", "message": "ValueError: no value"}


def test_signals_that_are_not_exceptions_still_propagate(capsys, monkeypatch):
    class Stop(BaseException):
        pass

    def interrupted(d):
        raise Stop()

    monkeypatch.setattr(classify, "elliptic_singularity", interrupted)
    with pytest.raises(Stop):
        main(["elliptic", GOLDEN_ONE])
    capsys.readouterr()


def test_elliptic_on_a_period_of_about_one_hundred_million_answers_fast(capsys, tmp_path):
    doc = tmp_path / "period_1e8.json"
    doc.write_text(period("4239528/107972737"))
    start = monotonic()
    code, payload = run_json(capsys, "elliptic", str(doc))
    assert monotonic() - start < 1.0
    assert code == 0
    assert payload["verdict"] == "no" and payload["witness_m"] == 1


# ---------------------------------------------------------------------------
# the typed unknown check against the scan of serialized key names it replaced


def reference_has_unknown(payload) -> bool:
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
            if reference_has_unknown(value):
                return True
        return False
    if isinstance(payload, list):
        return any(reference_has_unknown(x) for x in payload)
    return False


# abstract genus two: floor degrees 0 .. 2 leave h1 entries undecidable
GENUS_TWO_DOC = """{
  "lattice_rank": 1,
  "tail_cone": {"rays": [[1]]},
  "base": {"kind": "abstract", "genus": 2},
  "coefficients": [
    {"point": "p", "vertices": [["1/3"]]},
    {"point": "q", "vertices": [["1/5"]]}
  ]
}
"""

TYPED_CHECK_ARGV = (
    ("classify",),
    ("classify", "--isolated"),
    ("proper",),
    ("rational",),
    ("cm",),
    ("cm", "--isolated"),
    ("gorenstein",),
    ("elliptic",),
    ("h1",),
    ("h1", "--m-max", "2"),
    ("h1", "--m-max", "40"),
    ("profile", "--m-max", "6"),
    ("toric",),
    ("ring", "--max-degree", "4"),
)


def test_typed_unknown_check_agrees_with_the_serialized_scan(tmp_path):
    extra = {"undecided.json": UNDECIDED_DOC, "genus_two.json": GENUS_TWO_DOC}
    for name, text in extra.items():
        (tmp_path / name).write_text(text)
    docs = [*sorted(DATA.glob("*.json")), *sorted(GOLDEN_DOCUMENTS.glob("*.json"))]
    docs += [tmp_path / name for name in extra]
    outcomes = set()
    for doc in docs:
        for argv in TYPED_CHECK_ARGV:
            args = build_parser().parse_args([*argv, str(doc)])
            result, _ = cli._process(str(doc), args.command, args)
            want = reference_has_unknown(report_payload(result))
            assert cli._undecided(result) == want, (doc.name, argv)
            outcomes.add((argv[0], want))
    assert {("classify", True), ("classify", False), ("h1", True), ("h1", False)} <= outcomes
    assert {("cm", True), ("proper", True), ("rational", True), ("elliptic", False)} <= outcomes


# ---------------------------------------------------------------------------
# the properness gate: the library refuses, the CLI maps the refusal

GATED = ("classify", "rational", "cm", "gorenstein", "elliptic", "h1")


def proper_report(capsys, path):
    code, payload = run_json(capsys, "proper", path)
    assert code in (3, 4)
    return payload


@pytest.mark.parametrize("command", GATED)
def test_every_gated_command_refuses_a_divisor_that_is_not_proper(capsys, tmp_path, command):
    doc = tmp_path / "nonproper.json"
    doc.write_text(NON_PROPER_DOC)
    prop = proper_report(capsys, str(doc))
    code, payload = run_json(capsys, command, str(doc))
    assert code == 3
    assert payload == {"error": "not-proper", "reason": prop["reason"], "witness": prop["witness"]}
    assert payload["reason"] == "the degree vanishes at an interior weight, hence everywhere"
    assert payload["witness"] == ["1"]


@pytest.mark.parametrize("command", GATED)
def test_every_gated_command_answers_undecided_properness_with_exit_four(capsys, tmp_path, command):
    doc = tmp_path / "undecided.json"
    doc.write_text(UNDECIDED_DOC)
    prop = proper_report(capsys, str(doc))
    code, payload = run_json(capsys, command, str(doc))
    assert code == 4
    if command == "classify":
        assert payload["properness"] == prop
        for part in ("rational", "cohen_macaulay", "gorenstein", "elliptic"):
            assert payload[part]["verdict"] == "unknown"
            assert payload[part]["criterion"] == "properness-undecided"
        assert payload["minimal_elliptic"] == "unknown"
        assert payload["h1"] is None
    else:
        assert payload == {
            "verdict": "unknown",
            "criterion": "properness-undecided",
            "reason": prop["reason"],
        }


def test_commands_outside_the_gate_do_not_ask_about_properness(capsys, tmp_path):
    doc = tmp_path / "nonproper.json"
    doc.write_text(NON_PROPER_DOC)
    code, payload = run_json(capsys, "profile", "--m-max", "4", str(doc))
    assert code == 0
    assert payload == {"m_max": 4, "degrees": [0, -1, 0, -1, 0]}
    code, payload = run_json(capsys, "ring", "--max-degree", "4", str(doc))
    assert code == 0
    assert payload["dimensions"] == [1, 0, 1, 0, 1]
    # every divisor on affine space is proper, so toric meets only curve
    # bases that are not, and answers with its own domain error
    code, payload = run_json(capsys, "toric", str(doc))
    assert code == 3
    assert payload == {"error": "domain", "message": "the toric model needs an affine-space base"}


def test_a_proper_divisor_refused_by_a_classifier_is_internal_error(capsys, monkeypatch):
    def refuse(d):
        raise NotProperError("not a proper polyhedral divisor: refused")

    monkeypatch.setattr(classify, "rational_singularities", refuse)
    code, payload = run_json(capsys, "rational", GOLDEN_ONE)
    assert code == 3
    assert payload == {
        "error": "internal",
        "message": "a proper divisor was refused: not a proper polyhedral divisor: refused",
    }


# ---------------------------------------------------------------------------
# base validation and text output


def test_a_singular_elliptic_base_is_invalid_input(capsys, tmp_path):
    doc = tmp_path / "cusp.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "elliptic", "a": 0, "b": 0}}\n'
    )
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload == {
        "error": "invalid-input",
        "violations": ["base: singular Weierstrass equation: 4a^3 + 27b^2 = 0"],
    }


def test_an_abstract_base_with_an_unknown_key_is_invalid_input(capsys, tmp_path):
    doc = tmp_path / "abstract.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "abstract", "genus": 1, "points": 3}}\n'
    )
    code, payload = run_json(capsys, "proper", str(doc))
    assert code == 3
    assert payload == {"error": "invalid-input", "violations": ["base: unknown key 'points'"]}


def test_text_toric_prints_the_diagnostic_booleans(capsys):
    code, out = run(capsys, "--format", "text", "toric", AFFINE_PLANE)
    assert code == 0
    lines = out.splitlines()
    assert "diagnostics.simplicial: true" in lines
    assert "diagnostics.smooth: false" in lines


def test_gorenstein_on_an_abstract_genus_zero_document_prints_its_labels(capsys, tmp_path):
    doc = tmp_path / "genus_zero.json"
    doc.write_text(
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]},'
        ' "base": {"kind": "abstract", "genus": 0},'
        ' "coefficients": [{"point": "p", "vertices": [["-1/2"]]},'
        ' {"point": "q", "vertices": [["-1/2"]]}, {"point": "r", "vertices": [["3/2"]]}]}\n'
    )
    code, payload = run_json(capsys, "gorenstein", str(doc))
    assert code == 0
    assert payload["verdict"] == "yes"
    assert payload["vertical_multiplicities"] == [["p", "0"], ["q", "0"], ["r", "-2"]]
