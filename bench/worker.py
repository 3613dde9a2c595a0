"""Closed-loop client: runs one corpus through polydiv's CLI in this process.

run.py starts this script and writes one JSON job on its standard input:

    {"src": <dir holding the polydiv package>, "docs": [[argv, text], ...],
     "warmup": [doc index, ...], "seconds": S, "limit": L,
     "setup": null | {"cmd": [...], "env": {...}, "text": ...},
     "trace": null | <spans path>}

Each document goes through polydiv.cli.main(argv + ["-"]) with the text on
standard input and standard output captured, one after the other, with no
threads. Whole passes over the corpus repeat while the next one still fits
in S seconds. With "setup" set, a cold CLI process is timed on that
document twice before the first pass in each quarter of S and twice at the
end, so the set-up samples spread over the whole run. With "trace" set, one more pass runs with every public layer
function wrapped (spans.py), and its spans are written to that path.

Every result goes back as one JSON line on the real standard output:
{"t": "doc", ...} per document run, {"t": "trace", ...} for the traced pass
and {"t": "end", ...} last.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import spans


class DocTimeout(BaseException):
    """Raised by the alarm when a document runs past the limit."""


def _alarm(signum, frame):
    raise DocTimeout()


def probe() -> float:
    """Seconds for a fixed pure-Python load of Fraction and dict work.

    The shared machine's speed drifts by tens of percent over seconds to
    minutes, and polydiv, pure Python too, drifts largely with this probe;
    run.py divides each time by the local probe time to factor most of the
    drift out.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 240):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        table[i % 13] = table.get(i % 13, 0) + (i * i) // 7
    return time.perf_counter() - start


class Client:
    def __init__(self, main, docs, limit: float, channel):
        self.main = main
        self.docs = docs
        self.limit = limit
        self.channel = channel
        self.first_digest: dict[int, str] = {}

    def run_one(self, i: int):
        """(exit code or 'timeout'/'exception', seconds, stdout, error text)."""
        argv, text = self.docs[i]
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                code = self.main(argv + ["-"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DocTimeout:
            code = "timeout"
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = "exception", traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
        return code, elapsed, out, error

    def send(self, record) -> None:
        self.channel.write(json.dumps(record) + "\n")
        self.channel.flush()

    def run_pass(self, number: int, label: str, before=None) -> tuple[float, list]:
        """One pass over the corpus; returns the seconds spent inside main and
        the exit codes."""
        busy = 0.0
        codes = []
        for i in range(len(self.docs)):
            if before is not None:
                before(i)
            probe_s = probe()
            code, elapsed, out, error = self.run_one(i)
            busy += elapsed
            codes.append(code)
            digest = hashlib.sha1(out.encode()).hexdigest()
            record = {"t": "doc", "phase": label, "pass": number, "i": i, "code": code,
                      "dt": elapsed, "probe": probe_s, "bytes": len(out.encode()),
                      "error": error}
            if i not in self.first_digest:
                self.first_digest[i] = digest
                record["out"] = out
            else:
                record["same"] = digest == self.first_digest[i]
            self.send(record)
        return busy, codes


def cold_start(setup) -> tuple[float, float]:
    """Wall time of one fresh CLI process answering the set-up document, and
    the median probe time over about 40 ms of probes just before it."""
    probes = [probe() for _ in range(40)]
    probe_s = sorted(probes)[len(probes) // 2]
    start = time.perf_counter()
    done = subprocess.run(setup["cmd"], input=setup["text"], capture_output=True, text=True,
                          env=setup["env"], timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or json.loads(done.stdout).get("verdict") != "yes":
        raise RuntimeError(f"cold start failed: {done.stderr[-400:]}")
    return elapsed, probe_s


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    from polydiv import cli

    channel = sys.stdout
    client = Client(cli.main, [(list(a), t) for a, t in job["docs"]], job["limit"], channel)
    signal.signal(signal.SIGALRM, _alarm)

    # lazy imports and first-call costs stay out of the timed passes
    for i in job["warmup"]:
        client.run_one(i)
    setup = job.get("setup")
    setup_s = []
    if setup:
        cold_start(setup)  # the first launch also compiles bytecode
    gc.collect()
    gc.freeze()

    passes = []
    started = time.perf_counter()
    next_setup = 0.0
    while True:
        if setup and time.perf_counter() - started >= next_setup:
            setup_s += [cold_start(setup), cold_start(setup)]
            next_setup += job["seconds"] / 4
        wall = time.perf_counter()
        busy, _ = client.run_pass(len(passes), "plain")
        passes.append({"busy_s": busy, "wall_s": time.perf_counter() - wall})
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > job["seconds"]:
            break

    if job.get("trace"):
        rec = spans.Recorder()
        rec.install()

        def enter(i):
            rec.doc_id = i

        _, codes = client.run_pass(len(passes), "traced", before=enter)
        rec.uninstall()
        # the *.per_doc base: classify documents that reached a verdict
        classify_docs = {i for i, (argv, _) in enumerate(client.docs)
                         if argv[0] == "classify" and codes[i] in (0, 4)}
        summary = spans.summarize(rec, classify_docs)
        rec.write(job["trace"])
        client.send({"t": "trace", "metrics": summary})

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if setup:
        setup_s += [cold_start(setup), cold_start(setup)]
    client.send({"t": "end", "passes": passes, "setup_s": setup_s, "peak_rss_kb": peak_kb})
    return 0


if __name__ == "__main__":
    sys.exit(main())
