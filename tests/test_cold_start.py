"""What a cold polydiv process loads.

proper and profile run on the divisor core alone: a fresh
``python -m polydiv.cli proper`` never imports the analysis layer (classify,
sections, toric). The first analysis command imports all three together, so
after it every layer module the benchmark's spans wrap is loaded.

Each check runs in a fresh interpreter at this interpreter's optimize level,
with every warning an error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydiv

ROOT = Path(__file__).resolve().parent.parent
DOCUMENT = ROOT / "tests" / "data" / "golden_one.json"
ANALYSIS = ("polydiv.classify", "polydiv.sections", "polydiv.toric")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(polydiv.__file__).parent.parent)}
    argv = [sys.executable, *["-O"] * sys.flags.optimize, "-W", "error", *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)


def imported_modules(importtime_log: str) -> set[str]:
    """Every module name an ``-X importtime`` log lists."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("argv", [["proper"], ["profile", "--m-max", "3"]], ids=["proper", "profile"])
def test_a_core_command_loads_no_analysis_module(argv):
    done = fresh_python("-X", "importtime", "-m", "polydiv.cli", *argv, str(DOCUMENT))
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)
    loaded = imported_modules(done.stderr)
    assert {"polydiv", "polydiv.problem_io", "polydiv.pdiv"} <= loaded
    assert loaded.isdisjoint(ANALYSIS)


SPANS_AFTER_ONE_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans
from polydiv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["rational", sys.argv[2]])
missing = [layer for layer in spans.LAYERS if f"polydiv.{layer}" not in sys.modules]
rec = spans.Recorder()
rec.install()
rec.uninstall()
classify = sys.modules["polydiv.classify"]
print(json.dumps({
    "code": code,
    "missing": missing,
    "wrapped": rec.names,
    "restored": not hasattr(classify.rational_singularities, "__wrapped__"),
}))
"""


def test_one_analysis_command_loads_every_layer_the_spans_wrap():
    done = fresh_python("-c", SPANS_AFTER_ONE_RUN, str(ROOT / "bench"), str(DOCUMENT))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert result["missing"] == []
    assert {"classify.rational_singularities", "sections.ring_presentation",
            "toric.toric_cone", "pdiv.is_proper"} <= set(result["wrapped"])
    assert result["restored"]
