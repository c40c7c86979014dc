"""The byte-identity corpus: one digest per in-process ``cli.entry`` call.

Every 2-connected outerplane multigraph with m <= 9 (the 292 graphs of
``enumerate_outerplane(9)``; every third one written without an
``outer:`` line, so the CLI searches its order) goes through ``label``,
``count --fib`` and ``gen`` under each ``--tiebreak`` value, and every
listing ``gen`` wrote through ``verify --class pof|pivot|any``.  Every
third graph also gets a ``prefer-pof`` listing from a seeded
``random_spanning_tree`` (``--initial``), and every third another one
each with ``--root`` at its lowest and highest outer edge (``label``,
``gen`` and ``verify`` alike).  One member of the extremal family per
m <= 57 gets ``gen --max-trees 5000``, which crosses the renderer's
chunk boundaries, and the m=22 strip its whole 28,657-tree listing; each
of these listings goes through ``verify --class pof``.  A case's digest
covers its exit code, stdout and stderr, so refusals, pass lines and
violation strings are all pinned.  ``identity_corpus.json`` holds the
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
import random
import sys
import tempfile

from spangray import cli, counting, embedgraph, treegen

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "identity_corpus.json")
TIEBREAKS = ("closest", "prefer-pivot", "prefer-face", "prefer-face-inner",
             "prefer-paf", "prefer-pof")
CLASSES = ("pof", "pivot", "any")
STRIP_MAX_M = 57
STRIP_MAX_TREES = 5000


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


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cli_embedding(path: str):
    """The embedding and labeling the CLI gives the graph file."""
    with open(path, encoding="utf-8") as fh:
        parsed = embedgraph.parse_graph(fh.read())
    emb = cli._embed(parsed.graph, parsed.outer)
    return emb, cli._labeling_for(emb, None)[2]


def gen_verify(name: str, path: str, args, klass: str = "pof", verify_args=()):
    """``gen path *args`` and, if it exited 0, ``verify --class klass``
    of its listing."""
    digest, listing = run(["gen", path, *args])
    yield f"{name} gen {' '.join(args)}", digest
    if listing is not None:
        listing_path = write(path + ".listing", listing)
        yield (f"{name} verify {' '.join(args)} --class {klass}",
               run(["verify", path, listing_path, *verify_args, "--class", klass])[0])


def cases(workdir: str):
    """``(name, digest)`` of every case, in a fixed order; the files go
    to ``workdir``.  A listing that two tie rules wrote alike is
    verified once."""
    for i, emb in enumerate(counting.enumerate_outerplane(9)):
        name = f"g{i:03d}"
        path = write(os.path.join(workdir, name + ".txt"), graph_text(emb, outer=i % 3 != 2))
        yield f"{name} label", run(["label", path])[0]
        yield f"{name} count --fib", run(["count", path, "--fib"])[0]
        verified = {}      # (listing text, class) -> digest
        for rule in TIEBREAKS:
            digest, listing = run(["gen", path, "--tiebreak", rule])
            yield f"{name} gen --tiebreak {rule}", digest
            if listing is None:
                continue
            listing_path = write(os.path.join(workdir, f"{name}.{rule}.listing"), listing)
            for klass in CLASSES:
                key = (listing, klass)
                if key not in verified:
                    verified[key] = run(["verify", path, listing_path, "--class", klass])[0]
                yield f"{name} verify {rule} --class {klass}", verified[key]
        if i % 3 == 0:
            cli_emb, labeling = cli_embedding(path)
            tree = treegen.random_spanning_tree(cli_emb.graph, labeling, random.Random(i))
            initial = ",".join(map(str, sorted(tree.labels())))
            yield from gen_verify(name, path,
                                  ("--tiebreak", "prefer-pof", "--initial", initial))
        elif i % 3 == 1:
            cli_emb = cli_embedding(path)[0]
            outer = [e for e in range(cli_emb.graph.m) if cli_emb.is_outer_edge(e)]
            for root in sorted({outer[0], outer[-1]}):
                yield f"{name} label --root {root}", run(["label", path, "--root", str(root)])[0]
                yield from gen_verify(name, path,
                                      ("--tiebreak", "prefer-pof", "--root", str(root)),
                                      verify_args=("--root", str(root)))
    for m in range(2, STRIP_MAX_M + 1):
        # one member of the extremal family per m, then m = 2k + 1 - digons;
        # the odd m alternate between no end digon and two
        digons = 1 if m % 2 == 0 else m % 4 // 2 * 2
        k = (m - 1 + digons) // 2
        name = f"strip k={k} digons={digons}"
        path = write(os.path.join(workdir, f"strip{m}.txt"),
                     graph_text(counting.extremal_family(k, digons), outer=True))
        yield from gen_verify(name, path, ("--tiebreak", "prefer-pof", "--max-trees",
                                           str(STRIP_MAX_TREES)))
        if m == 22:         # 28,657 trees
            yield from gen_verify(name, path, ("--tiebreak", "prefer-pof"))


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
