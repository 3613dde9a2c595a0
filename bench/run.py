"""polydiv benchmark: time to verdict for the CLI on four seeded workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is taken from src/ next to this directory.

Workloads (corpus.py): small-docs, rank1-scan, higher-rank-search,
ring-toric. One client in one process sends the documents one after the
other (a closed loop, no threads) through polydiv.cli.main, in a worker
process (worker.py), and whole passes over the corpus repeat for about
--seconds. Every answer is checked against an oracle in oracles.py; any
disagreement makes the run exit 1.

Times are reported at reference speed. On a shared 2-CPU container the
speed drifts by 20-40% over seconds to minutes, and pure-Python code such as
polydiv drifts with it. So the worker times a fixed pure-Python probe
(worker.probe) before every document, and each measured time t is reported
as t * PROBE_REF_S / (local probe time): the time the run would take on a
machine where the probe takes PROBE_REF_S. The run record keeps the raw wall
times too, under "unscaled".

--trace 0 prints the end-to-end metrics:
  setup_s         median time of a cold `python -m polydiv.cli proper` on the
                  smallest proper document, over launches spread through the
                  run (two in each quarter of it, two at the end)
  docs_per_s      documents answered per second of time inside the CLI
  latency_p50_ms  median, over documents, of each document's median time
  latency_p90_ms  90th percentile of the same per-document times
  answered_ratio  document runs answered as expected / runs attempted
  peak_rss_mb     peak resident memory of the worker process
--trace 1 runs the same passes for half the time, then exactly one pass with
spans around every public function of the layer modules (spans.py), and
prints the per-layer metrics of that pass: calls and self time (wall
seconds) per layer and per watched function, calls per classify document
that reached a verdict, the floor-search hit ratio, emitted bytes per
document, and traced over untraced docs_per_s. The pass covers a fixed
corpus, so for one seed the counts repeat exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records provenance: git
describe, Python version, nproc, seed and a digest of the corpus. A run
record goes to .bench_runs/ under the root: provenance, the result, the raw
(unscaled) metrics, every failure, each document's output sha1 (recorded,
not gated on) and every timed sample; a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_runs"
DOC_LIMIT_S = 20.0
PROBE_REF_S = 1e-3  # reference duration of worker.probe
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "answered_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def provenance(workload: str, seed: int, docs) -> dict:
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable"
    return {
        "workload": workload,
        "seed": seed,
        "git_describe": describe,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "corpus_docs": len(docs),
        "corpus_sha256": corpus.digest(docs),
    }


def run_worker(job: dict, deadline: float) -> list[dict]:
    """Start worker.py on the job and collect its JSON records."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py"))],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        records = [json.loads(line) for line in proc.stdout]
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not records or records[-1].get("t") != "end":
        raise RuntimeError(f"worker exited with {proc.returncode} before finishing")
    return records


def judge(docs, records):
    """Per document run: failed or not; plus every oracle disagreement."""
    verdict: dict[int, str | None] = {}
    mismatches = []
    failures = []
    outcome = []
    for r in records:
        if r.get("t") != "doc":
            continue
        doc = docs[r["i"]]
        reason = None
        if r["code"] in ("exception", "timeout"):
            reason = r["error"].strip().splitlines()[-1] if r["error"] else r["code"]
        elif "out" in r:
            bad = oracles.check(doc, r["code"], r["out"])
            verdict[r["i"]] = "; ".join(bad) if bad else None
            reason = verdict[r["i"]]
            if bad:
                mismatches.append({"doc": doc["id"], "argv": doc["argv"], "disagreements": bad})
        elif not r["same"]:
            reason = "output differs from the first pass"
            mismatches.append({"doc": doc["id"], "argv": doc["argv"], "disagreements": [reason]})
        else:
            reason = verdict.get(r["i"])
        if reason:
            failures.append({"doc": doc["id"], "phase": r["phase"], "pass": r["pass"], "reason": reason})
        outcome.append((r, reason is not None))
    return outcome, failures, mismatches


def scaled_times(records) -> list[float]:
    """Each run's time at reference speed: dt * PROBE_REF_S / local probe time.

    The local probe time is the median of the probes taken before the nine
    document runs centred on this one, so one slow probe does not move it.
    """
    probes = [r["probe"] for r in records]
    out = []
    for j, r in enumerate(records):
        local = statistics.median(probes[max(0, j - 4):j + 5])
        out.append(r["dt"] * PROBE_REF_S / local)
    return out


def end_to_end(outcome, setup_samples, scale: bool = True) -> dict:
    """The end-to-end metrics; scale=False gives them in raw wall time."""
    plain = [(r, failed) for r, failed in outcome if r["phase"] == "plain"]
    times = scaled_times([r for r, _ in plain]) if scale else [r["dt"] for r, _ in plain]
    per_doc: dict[int, list] = {}
    for (r, failed), t in zip(plain, times):
        # a failed run misses any latency limit: it counts as the document limit
        per_doc.setdefault(r["i"], []).append(DOC_LIMIT_S if failed else t)
    answered = sum(1 for r, _ in plain if r["code"] not in ("exception", "timeout"))
    doc_times = sorted(statistics.median(ts) for ts in per_doc.values())
    setup = [t * PROBE_REF_S / p if scale else t for t, p in setup_samples]
    return {
        "setup_s": statistics.median(setup) if setup else None,
        "docs_per_s": answered / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(doc_times),
        "latency_p90_ms": 1e3 * statistics.quantiles(doc_times, n=10, method="inclusive")[8],
        "answered_ratio": sum(1 for _, f in plain if not f) / len(plain),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polydiv" / "cli.py").is_file():
        print(f"benchmark: no polydiv sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    docs = corpus.generate(args.workload, args.seed)
    info = provenance(args.workload, args.seed, docs)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    warmup = {}
    for i, d in enumerate(docs):
        if d["oracle"]["kind"] != "error":
            cmd = d["argv"][0]
            if cmd not in warmup or len(d["text"]) < len(docs[warmup[cmd]]["text"]):
                warmup[cmd] = i
    job = {
        "src": str(SRC),
        "docs": [[d["argv"], d["text"]] for d in docs],
        "warmup": sorted(warmup.values()),
        "seconds": args.seconds / 2 if args.trace else args.seconds,
        "limit": DOC_LIMIT_S,
        "trace": str(OUT_DIR / f"{stem}.spans.tsv.gz") if args.trace else None,
        "setup": None,
    }
    if not args.trace:
        proper = [d for d in docs if d["oracle"]["kind"] in ("p1_rank1", "affine", "orthant")]
        job["setup"] = {
            "cmd": [sys.executable, "-m", "polydiv.cli", "proper", "-"],
            "env": {**os.environ, "PYTHONPATH": str(SRC)},
            "text": min(proper, key=lambda d: len(d["text"]))["text"],
        }
    metrics: dict[str, float] = {}

    records = run_worker(job, deadline)
    outcome, failures, mismatches = judge(docs, records)
    end = records[-1]
    e2e = end_to_end(outcome, end["setup_s"])
    if args.trace:
        metrics.update(next(r for r in records if r.get("t") == "trace")["metrics"])
        first = [r for r in records if r.get("t") == "doc" and "out" in r]
        metrics["problem_io.emit_bytes"] = statistics.fmean(r["bytes"] for r in first)
        traced = [r for r in records if r.get("t") == "doc" and r["phase"] == "traced"]
        traced_rate = len(traced) / sum(scaled_times(traced))
        metrics["trace.overhead_ratio"] = traced_rate / e2e["docs_per_s"]
        units = {m["name"]: m["unit"] for m in spans.per_layer_metrics()}
        names = list(units)
    else:
        metrics.update(e2e)
        metrics["peak_rss_mb"] = end["peak_rss_kb"] / 1024
        names = list(END_TO_END_UNITS)
        units = END_TO_END_UNITS

    attempted = sum(1 for r, _ in outcome if r["phase"] == "plain")
    failed = sum(1 for r, f in outcome if r["phase"] == "plain" and f)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    record = {**info, "seconds": args.seconds, "trace": args.trace, "doc_limit_s": DOC_LIMIT_S,
              "passes": end["passes"], "result": result,
              "unscaled": end_to_end(outcome, end["setup_s"], scale=False),
              "output_sha1": {docs[r["i"]]["id"]: hashlib.sha1(r["out"].encode()).hexdigest()
                              for r in records if r.get("t") == "doc" and "out" in r},
              "failures": failures[:200], "mismatches": mismatches[:50],
              "samples": [[r["i"], r["pass"], r["dt"], r["probe"]] for r, _ in outcome
                          if r["phase"] == "plain"]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for m in mismatches[:10]:
        print(f"oracle mismatch: {m['doc']} {' '.join(m['argv'])}: {m['disagreements'][:3]}",
              file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
