"""The byte-identity corpus: one digest per in-process ``cli.entry`` call.

Every 2-connected outerplane multigraph with m <= 9 (the 292 graphs of
``enumerate_outerplane(9)``; every third one written without an
``outer:`` line, so the CLI searches its order) goes through ``label``,
``count --fib`` and ``gen`` under each ``--tiebreak`` value, and every
listing ``gen`` wrote through ``verify --class pof|pivot|any``.  A case's
digest covers its exit code, stdout and stderr, so refusals, pass lines
and violation strings are all pinned.  ``identity_corpus.json`` holds the
digests; ``test_identity_corpus.py`` recomputes them and names each case
that changed.  A change that alters output on purpose rewrites the JSON
with this script and lists each changed case and why:

    PYTHONPATH=src python tests/identity_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from spangray import cli, counting

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "identity_corpus.json")
TIEBREAKS = ("closest", "prefer-pivot", "prefer-face", "prefer-face-inner",
             "prefer-paf", "prefer-pof")
CLASSES = ("pof", "pivot", "any")


def graph_text(emb, outer: bool) -> str:
    g = emb.graph
    head = f"{g.n} {g.m}\n"
    if outer:
        head += "outer: " + " ".join(map(str, emb.outer_order)) + "\n"
    return head + "".join(f"{u} {v}\n" for u, v in g.edges)


def run(argv) -> tuple[str, str | None]:
    """``spangray <argv>`` in process: the case's digest (the first 64
    bits of a sha256) and its stdout if it exited 0, else None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.entry(list(argv), out=out)
    text = out.getvalue()
    blob = f"{rc}\n".encode() + text.encode() + b"\0" + err.getvalue().encode()
    return hashlib.sha256(blob).hexdigest()[:16], text if rc == 0 else None


def cases(workdir: str):
    """``(name, digest)`` of every case, in a fixed order; the files go
    to ``workdir``.  A listing that two tie rules wrote alike is
    verified once."""
    for i, emb in enumerate(counting.enumerate_outerplane(9)):
        name = f"g{i:03d}"
        path = os.path.join(workdir, name + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graph_text(emb, outer=i % 3 != 2))
        yield f"{name} label", run(["label", path])[0]
        yield f"{name} count --fib", run(["count", path, "--fib"])[0]
        verified = {}      # (listing text, class) -> digest
        for rule in TIEBREAKS:
            digest, listing = run(["gen", path, "--tiebreak", rule])
            yield f"{name} gen --tiebreak {rule}", digest
            if listing is None:
                continue
            listing_path = os.path.join(workdir, f"{name}.{rule}.listing")
            with open(listing_path, "w", encoding="utf-8") as fh:
                fh.write(listing)
            for klass in CLASSES:
                key = (listing, klass)
                if key not in verified:
                    verified[key] = run(["verify", path, listing_path, "--class", klass])[0]
                yield f"{name} verify {rule} --class {klass}", verified[key]


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as workdir:
        return dict(cases(workdir))


def main() -> int:
    digests = compute()
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({"cases": digests}, fh, indent=0)
        fh.write("\n")
    print(f"{len(digests)} cases written to {JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
