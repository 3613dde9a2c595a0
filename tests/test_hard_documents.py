"""The pins of tests/hard_documents.py, in process, and the script's check.

The cases that end well under a second run through cli.main here, so the
tier-1 run under ``python -O`` checks their bytes too; the script runs
every case in a subprocess under its bound.
"""

import contextlib
import hashlib
import io
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import hard_documents
from hard_documents import (
    CASES,
    SCALING,
    elliptic_family,
    orthant_scaling,
    positive_slack,
    run_case,
    tiny_degree,
    torsion_family,
)
from polydiv.cli import main
from polydiv.problem_io import parse_problem

# each takes 0.35 s or more in process, and the two elliptic scans are there
# for the memory cap of the script's subprocess; the script covers them
SCRIPT_ONLY = {
    "ring_p1 ring 200",
    "ring_many_generators ring 12",
    "slopes_3_1_1 ring 9",
    "positive_slack_1e-6 elliptic",
    "bp_101_103_107 elliptic",
}
FAST = [case for case in CASES if case.name not in SCRIPT_ONLY]


@pytest.mark.parametrize("case", FAST, ids=[case.name for case in FAST])
def test_case_prints_its_pin(case, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.text()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*case.argv, "-"])
    assert code == case.exit
    assert hashlib.sha1(out.getvalue().encode()).hexdigest() == case.sha1


def test_the_script_reports_every_broken_pin(monkeypatch):
    case = next(case for case in CASES if case.name == "cm_small cm")
    assert run_case(case)["ok"]
    for doctored in (replace(case, sha1="0" * 40), replace(case, exit=4), replace(case, bound=0)):
        line = run_case(doctored)
        assert line["case"] == case.name and line["ok"] is False, doctored
    assert run_case(replace(case, bound=0))["exit"] is None
    # no interpreter starts in 4 MB of address space
    monkeypatch.setattr(hard_documents, "MEMORY_MB", 4)
    assert run_case(case)["ok"] is False


@pytest.mark.parametrize("optimize", [0, 1, 2])
def test_the_script_runs_each_case_at_its_own_optimize_level(monkeypatch, optimize):
    # python -O tests/hard_documents.py checks the CLI under python -O
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, 0, b"", b"")

    flags = SimpleNamespace(optimize=optimize)
    monkeypatch.setattr(hard_documents, "sys", SimpleNamespace(executable="python", flags=flags))
    monkeypatch.setattr(hard_documents.subprocess, "run", run)
    case = CASES[0]
    run_case(case)
    assert argvs == [["python", *["-O"] * optimize, "-m", "polydiv.cli", *case.argv, "-"]]


def test_orthant_scaling_reproduces_the_golden_documents():
    for rank, n in ((2, 1000), (3, 125)):
        golden = (SCALING / f"orthant_r{rank}_eps{n}.json").read_text(encoding="utf-8")
        assert parse_problem(orthant_scaling(rank, n)) == parse_problem(golden)


def test_the_measured_documents_have_the_stated_degrees():
    for delta in (Fraction(1, 3 * 10**9), Fraction(7, 300000)):
        assert parse_problem(tiny_degree(delta)).ray_degrees[(1,)] == delta
    assert '"196669/100000"' in tiny_degree(Fraction(7, 300000))
    assert '"1966666667/1000000000"' in tiny_degree(Fraction(1, 3 * 10**9))
    for eps in (Fraction(1, 10**5), Fraction(1, 3 * 10**9)):
        assert parse_problem(positive_slack(eps)).ray_degrees[(1,)] == eps
    for d in (20, 160):
        assert parse_problem(elliptic_family(d)).ray_degrees[(1,)] == Fraction(1, d)
    # the evaluation at (1, 0) has degree zero, so properness asks whether
    # its class is torsion
    assert parse_problem(torsion_family(5)).ray_degrees[(1, 0)] == 0
