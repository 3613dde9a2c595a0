"""Digest of the CLI's answers over the benchmark corpora.

Runs every document of the four workloads in bench/corpus.py, for seeds 7,
31, 201 and 977, through polydiv.cli.main(argv + ["-"]) with the document on
standard input, and prints the number of documents and a sha1 over each
document's id, exit code and standard output, in corpus order. The corpora
are only read. Any change to an answer, an exit code or the corpus changes
the digest.

    PYTHONPATH=src python tests/corpus_digest.py
"""

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from corpus import WORKLOADS, generate  # noqa: E402

from polydiv.cli import main  # noqa: E402

SEEDS = (7, 31, 201, 977)


def run(argv, text: str) -> tuple[object, str]:
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        try:
            code = main(argv + ["-"])
        except SystemExit as exc:
            code = exc.code
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


def corpus_digest() -> tuple[int, str]:
    h = hashlib.sha1()
    count = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for doc in generate(workload, seed):
                code, out = run(doc["argv"], doc["text"])
                h.update(f"{doc['id']}|{code}|".encode())
                h.update(out.encode())
                count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    print(*corpus_digest())
