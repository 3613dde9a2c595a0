"""Byte-for-byte CLI output on every tests/data document under every command.

The expected outputs in golden/cli_outputs.json were written by the CLI
before the integer chamber kernel and the cached chamber fan replaced the
per-point floor-degree search. The cases on golden/documents were written
before the kept slopes, the single pruning in dual_cone and the
column-reduced toric multiplicity replaced their predecessors; the ring
cases to degree 60 and on ring_rational_points.json were written before the
per-ring table, the closed-form monomials and the incremental echelon basis
of the section-ring presentation, and the case on ring_many_generators.json
before the one-pass presentation replaced the separate generator pass. Any
change to them is a change of behaviour.

One deliberate change rewrote eleven cases: h1, h1 --m-max 5, classify,
classify --isolated and --format text classify on golden_one.json and
golden_three.json, and the classify --batch run. Both documents are rank
one over P1, where the h1 bound became max(V, 1), V the vanishing degree
from which every entry vanishes, in place of max(ceil(count / deg1), 1):
their bound moved and the known zero entries past it were dropped, while
every total, verdict, witness and nonzero entry stayed the same.
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
DOCUMENTS = HERE / "golden" / "documents"

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

# documents outside tests/data, each run under the commands that reach the
# paths it covers: the whole-lattice weight cone of a trivial tail, a
# non-simplicial toric cone, a simplicial one of multiplicity 2, a section
# ring presented up to degrees 30 and 60, a section ring whose finite
# marked points are not integers, and a section ring with four generators
# in degree 1 and three relations in each of degrees 2 and 3
DOCUMENT_COMMANDS = (
    ("trivial_tail_6x3.json", ("toric",)),
    ("trivial_tail_6x3.json", ("classify",)),
    ("square_coefficient.json", ("toric",)),
    ("square_coefficient.json", ("classify",)),
    ("ring_p1.json", ("ring", "--max-degree", "30")),
    ("ring_p1.json", ("ring", "--max-degree", "60")),
    ("ring_rational_points.json", ("ring", "--max-degree", "30")),
    ("ring_many_generators.json", ("ring", "--max-degree", "5")),
)


def golden_cases():
    """(case name, argv) for every document and command, the batch run, then
    the golden/documents cases."""
    cases = []
    for doc in sorted(p.name for p in DATA.glob("*.json")):
        for command in COMMANDS:
            cases.append((f"{doc} {' '.join(command)}", [*command, str(DATA / doc)]))
    cases.append(("classify --batch", ["classify", "--batch", str(DATA)]))
    for doc, command in DOCUMENT_COMMANDS:
        cases.append((f"documents/{doc} {' '.join(command)}", [*command, str(DOCUMENTS / doc)]))
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
