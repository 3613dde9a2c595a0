"""Byte-for-byte CLI output on every tests/data document under every command.

The expected outputs in golden/cli_outputs.json were written by the CLI
before the integer chamber kernel and the cached chamber fan replaced the
per-point floor-degree search; any change to them is a change of behaviour.
Regenerate them only for a deliberate output change, by running this file
as a script with the intended ``polydiv`` on the path.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from polydiv.cli import main

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden" / "cli_outputs.json"

# every command, with the options that change what it computes
COMMANDS = (
    ("proper",),
    ("rational",),
    ("cm",),
    ("cm", "--isolated"),
    ("gorenstein",),
    ("elliptic",),
    ("h1",),
    ("h1", "--m-max", "5"),
    ("profile", "--m-max", "12"),
    ("toric",),
    ("ring", "--max-degree", "8"),
    ("classify",),
    ("classify", "--isolated"),
    ("--format", "text", "classify"),
)


def golden_cases():
    """(case name, argv) for every document and command, then the batch run."""
    cases = []
    for doc in sorted(p.name for p in DATA.glob("*.json")):
        for command in COMMANDS:
            cases.append((f"{doc} {' '.join(command)}", [*command, str(DATA / doc)]))
    cases.append(("classify --batch", ["classify", "--batch", str(DATA)]))
    return cases


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_expected()) == sorted(name for name, _ in golden_cases())


@pytest.mark.parametrize("name,argv", golden_cases(), ids=[n for n, _ in golden_cases()])
def test_cli_output_is_byte_identical(name, argv):
    expected = _expected()[name]
    code, out = run_cli(argv)
    assert code == expected["exit"]
    assert out == expected["stdout"]


if __name__ == "__main__":
    records = {}
    for name, argv in golden_cases():
        code, out = run_cli(argv)
        records[name] = {"exit": code, "stdout": out}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(records)} cases to {GOLDEN}\n")
