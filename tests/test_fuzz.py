"""Seeded mutation fuzz of the command-line surface.

Every run must end with a documented exit code (0, 2, 3 or 4), print one
JSON payload and finish within RUN_SECONDS: never a traceback, a hang or
output of unbounded size. The mutations start from the documents in
tests/data and tests/golden/documents and are drawn from the stdlib
``random`` module with fixed seeds, so every failure replays.

The value pool keeps rationals at small denominators. A vertex such as
1/10^40 makes the degree of a rank-one divisor tiny, and the h1, elliptic
and floor-degree scans then run for about 1/degree weights: that is the
open work-budget item of the roadmap, not something a mutation should
rediscover on every run.
"""

import copy
import io
import json
import signal
import sys
import time
from pathlib import Path
from random import Random

import pytest

from hard_documents import period
from polydiv.cli import main

TESTS = Path(__file__).parent
SOURCES = sorted((TESTS / "data").glob("*.json")) + sorted(
    (TESTS / "golden" / "documents").glob("*.json")
)
DOCUMENTS = [json.loads(p.read_text(encoding="utf-8")) for p in SOURCES]

EXIT_CODES = {0, 2, 3, 4}
RUN_SECONDS = 2.0
MUTATED_RUNS = 2000

POOL = (
    0, 1, -1, 2, 3, 32, 33, 10**30, 1.5, True, None, "", "x",
    "0", "1", "-1", "1/2", "-1/3", "7/5", "-3/7", "5/12", "1/0", "2/-3", "1e3",
    "inf", "O", "P1", "abstract", "elliptic", "affine_space", "affine_line",
    [], {}, [[1]], [[0]], [[1, 0], [0, 1]], [[1, -1], [-1, 1]], [["1/2"]],
    {"hyperplane": 3}, {"x": "0", "y": "0"}, {"kind": "abstract", "genus": 2},
)
KEYS = ("lattice_rank", "tail_cone", "base", "coefficients", "rays", "kind",
        "genus", "dim", "point", "vertices", "extra_rays", "a", "b", "junk")
CHARS = '{}[],:"-/0123456789 ae'

COMMANDS = ("classify", "proper", "rational", "cm", "gorenstein", "elliptic",
            "h1", "profile", "toric", "ring")


class RunTimeout(BaseException):
    """Raised by the alarm; a BaseException, so the CLI's last-resort
    handler for Exception does not turn a hang into a payload."""


def _alarm(signum, frame):
    raise RunTimeout


def run_cli(argv, text):
    """Exit code, stdout and wall time of one CLI run on text as stdin."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    guard = hasattr(signal, "setitimer")
    if guard:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 3 * RUN_SECONDS)
    start = time.perf_counter()
    try:
        code = main([*argv, "-"])
        out = sys.stdout.getvalue()
    except RunTimeout:
        code, out = None, ""
    finally:
        elapsed = time.perf_counter() - start
        if guard:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        sys.stdin, sys.stdout = stdin, stdout
    return code, out, elapsed


def check_run(argv, text):
    code, out, elapsed = run_cli(argv, text)
    where = f"{argv} on {text[:300]!r}"
    assert code is not None, f"no answer within {3 * RUN_SECONDS} s: {where}"
    assert code in EXIT_CODES, f"exit {code}: {where}"
    assert elapsed < RUN_SECONDS, f"{elapsed:.2f} s: {where}"
    payload = json.loads(out)
    assert isinstance(payload, dict), where
    if code == 2:
        assert payload.get("error") in ("parse", "read"), where
    if code == 3:
        # an error payload, or a properness report whose verdict is no
        assert "error" in payload or payload.get("verdict") == "no", where
    return code, payload


def _slots(node, out):
    """Every (container, key) pair under node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def perturb(rng, value):
    """A value of the same kind: another small rational, integer or label."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return copy.deepcopy(rng.choice(POOL))
    if isinstance(value, int):
        return value + rng.choice((-2, -1, 1, 2))
    q = rng.randint(1, 12)
    return f"{rng.randint(-2 * q, 2 * q)}/{q}" if q > 1 else str(rng.randint(-3, 3))


def mutate_tree(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        slots = _slots(doc, [])
        if not slots:
            break
        op = rng.randrange(8)
        if op >= 5:
            # most mutations keep the shape and change one number or label
            leaves = [(p, k) for p, k in slots if not isinstance(p[k], (dict, list))]
            parent, key = rng.choice(leaves)
            parent[key] = perturb(rng, parent[key])
            continue
        parent, key = rng.choice(slots)
        if op == 0:
            parent[key] = copy.deepcopy(rng.choice(POOL))
        elif op == 1:
            del parent[key]
        elif op == 2 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == 3 and isinstance(parent, dict):
            parent[rng.choice(KEYS)] = copy.deepcopy(rng.choice(POOL))
        else:
            # graft a subtree of another document
            other = _slots(copy.deepcopy(rng.choice(DOCUMENTS)), [])
            donor, donor_key = rng.choice(other)
            parent[key] = donor[donor_key]
    return json.dumps(doc)


def mutate_text(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 4) :]
        else:
            text = text[:i]
    return text


def command_argv(rng):
    command = rng.choice(COMMANDS)
    argv = [command]
    if command == "profile":
        argv += ["--m-max", str(rng.randint(0, 40))]
    elif command == "ring":
        argv += ["--max-degree", str(rng.randint(0, 12))]
    elif command == "h1" and rng.random() < 0.5:
        argv += ["--m-max", str(rng.randint(0, 40))]
    elif command in ("classify", "cm") and rng.random() < 0.3:
        argv.append("--isolated")
    return argv


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_mutated_documents_end_in_a_documented_outcome(seed):
    rng = Random(seed)
    codes = set()
    for _ in range(MUTATED_RUNS // 4):
        doc = rng.choice(DOCUMENTS)
        if rng.random() < 0.8:
            text = mutate_tree(rng, doc)
        else:
            text = mutate_text(rng, json.dumps(doc, indent=2))
        code, _ = check_run(command_argv(rng), text)
        codes.add(code)
    # the mutations reach past the parser, not only into it
    assert {0, 2, 3} <= codes, codes


NON_POINTED_TAIL = json.dumps({
    "lattice_rank": 2,
    "tail_cone": {"rays": [[1, -1], [-1, 1]]},
    "base": {"kind": "P1"},
    "coefficients": [{"point": "0", "vertices": [["0", "0"]]}],
})

DEEP_NESTING = "[" * 100_000 + "]" * 100_000

# slopes -1/97, -1/101, -1/103 and 1/10: period lcm(q) = 10,090,910, while
# every h1 entry vanishes from weight 29 on
LARGE_PERIOD = period("1/10")


@pytest.mark.parametrize("command", COMMANDS)
def test_non_pointed_tail_is_invalid_input(command):
    argv = [command] + {"profile": ["--m-max", "3"], "ring": ["--max-degree", "3"]}.get(
        command, []
    )
    code, payload = check_run(argv, NON_POINTED_TAIL)
    assert code == 3 and payload["error"] == "invalid-input"


@pytest.mark.parametrize("command", ["proper", "h1", "classify"])
def test_deeply_nested_document_is_a_parse_error(command):
    code, payload = check_run([command], DEEP_NESTING)
    assert code == 2 and payload["error"] == "parse"


@pytest.mark.parametrize("command", ["h1", "classify", "elliptic", "rational"])
def test_large_period_document_answers_in_bounded_output(command):
    code, out, elapsed = run_cli([command], LARGE_PERIOD)
    assert code in EXIT_CODES and elapsed < RUN_SECONDS, (code, elapsed)
    assert len(out) < 64 * 1024, len(out)
    payload = json.loads(out)
    if command in ("h1", "classify"):
        h1 = payload["h1"] if command == "classify" else payload
        assert h1["bound"] == 29
        assert len(h1["entries"]) == 30
