"""End-to-end checks of the command-line surface: payloads and exit codes."""

import json
from pathlib import Path
from time import monotonic

import pytest

import polydiv.classify as classify
from polydiv.cli import main

DATA = Path(__file__).parent / "data"

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
    monkeypatch.setattr("sys.stdin", open(GOLDEN_ONE, encoding="utf-8"))
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
