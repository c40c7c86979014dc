"""The three benchmark workloads: inputs, operations and output oracles.

A workload's set-up writes graph files and draws seeded initial trees;
its plan is a fixed list of operations that one pass runs in order.
Every workload has every operation kind, so every end-to-end metric is
defined on every workload; the sizes give each workload its character:

strip  the paper's extremal family (t = f_{m+1}): many trees on a small
       m, so classification, tie-breaking, rendering, verification,
       the O(T^2) flip graph and O(trees) memory dominate.
wide   eight large outerplane multigraphs walked for 1,000 trees each:
       long tree paths and a large m make the per-step tree rebuild
       dominate, with about one classification per step.
small  every 2-connected outerplane multigraph with m <= 9: thousands
       of millisecond calls, dominated by per-call set-up, plus the
       flip-graph experiment sweeps.

The run seed picks the initial trees.  The graphs themselves are fixed
per workload: the spanning-tree walk and the exponential count cost up
to twice as much on one random member as on another, so graphs drawn
from the run seed would make the seed the main source of spread.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from inputs import check_outerplane, graph_text, random_outerplane

KINDS = ("gen", "verify", "count", "flip", "certify", "experiment")
DIGEST_KINDS = ("gen", "flip", "experiment")


class OracleError(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Op:
    """One timed operation.  ``run`` is timed; ``check`` is not, and
    returns the number of trees the operation produced or checked."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    digest: Callable[[object], bytes] | None = None


@dataclass
class Plan:
    workload: str
    ops: list[Op]


def _cli(sg, argv, out_path=None):
    """Run ``spangray <argv>`` in-process; stdout goes to a string, or
    to a file as a shell redirect would send it."""
    def run():
        if out_path is None:
            buf = io.StringIO()
            rc = sg.cli.entry(list(argv), out=buf)
            return rc, buf.getvalue()
        with open(out_path, "w", encoding="utf-8") as fh:
            rc = sg.cli.entry(list(argv), out=fh)
        return rc, None
    return run


def _text(res, out_path=None):
    rc, text = res
    if rc != 0:
        raise OracleError(f"exit code {rc}")
    if text is None:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    return text


def _fields(line: str) -> dict[str, str]:
    return dict(p.split("=", 1) for p in line.split() if "=" in p)


class _Builder:
    """Collects a workload's operations and the files they read."""

    def __init__(self, sg, workdir: str, seed: int):
        self.sg = sg
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        # keyed by id(); the value keeps the embedding alive, so that a
        # later embedding can never reuse a freed one's id and file
        self._paths: dict[int, tuple[object, str]] = {}

    def plan(self, workload: str) -> Plan:
        """The operations, each kind spread evenly over the pass, so
        that every kind's time samples the whole pass and not one
        stretch of it.  Ties keep KINDS order, so the i-th verify still
        follows the i-th gen whose listing it reads."""
        by_kind: dict[str, list[Op]] = {k: [] for k in KINDS}
        for op in self.ops:
            by_kind[op.kind].append(op)
        keyed = [((i + 0.5) / len(ops), KINDS.index(kind), op)
                 for kind, ops in by_kind.items() for i, op in enumerate(ops)]
        keyed.sort(key=lambda x: x[:2])
        return Plan(workload, [op for _, _, op in keyed])

    def emb_file(self, emb) -> str:
        """The graph file of an embedding, checked and written once."""
        if id(emb) in self._paths:
            return self._paths[id(emb)][1]
        g = emb.graph
        check_outerplane(self.sg.embedgraph, g.n, g.edges, emb.outer_order)
        path = os.path.join(self.workdir, f"g{len(self._paths)}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graph_text(g.n, g.edges, emb.outer_order))
        self._paths[id(emb)] = (emb, path)
        return path

    def initial_labels(self, emb) -> str:
        """A seeded random spanning tree, as the --initial label list of
        the labeling the CLI uses by default."""
        dt = self.sg.dualtree
        sd = dt.split_dual(emb)
        lab = dt.dual_tree_labeling(dt.orient_split_dual(sd, dt.default_root_leaf(sd)))
        t = self.sg.treegen.random_spanning_tree(emb.graph, lab, self.rng)
        return ",".join(map(str, sorted(t.labels())))

    def gen_verify(self, emb, tiebreak: str, klass: str,
                   max_trees: int | None = None) -> None:
        """``gen`` to a listing file, then ``verify`` of that file."""
        path = self.emb_file(emb)
        listing = path[:-4] + ".listing"
        argv = ["gen", path, "--tiebreak", tiebreak,
                "--initial", self.initial_labels(emb)]
        if max_trees is None:
            # a complete listing has every tree; a truncated one is
            # checked by its length only (t(G) is far above max_trees)
            want = self.sg.counting.count_matrix_tree(emb.graph)
            summary = {"trees": str(want), "expected": str(want), "complete": "yes"}
        else:
            argv += ["--max-trees", str(max_trees)]
            want = max_trees
            summary = {"trees": str(want), "complete": "no"}

        def check_gen(res):
            text = _text(res, listing)
            lines = text.splitlines()
            f = _fields(lines[-1])
            if (any(f.get(k) != v for k, v in summary.items()) or f.get("genlex") != "yes"
                    or (klass != "any" and f.get(f"all-{klass}") != "yes")
                    or len(lines) != 2 * want):
                raise OracleError(f"gen summary {lines[-1]!r}, want trees={want}")
            return want

        self.ops.append(Op("gen", path, _cli(self.sg, argv, listing), check_gen,
                           lambda res: _text(res, listing).encode()))
        vargv = ["verify", path, listing, "--class", klass]
        if max_trees is None:
            vargv.append("--expect-complete")

        def check_verify(res):
            text = _text(res)
            if ("genlex: ok" not in text
                    or f"exchanges: ok class={klass} trees={want}" not in text):
                raise OracleError(f"verify said {text!r}")
            return want

        self.ops.append(Op("verify", path, _cli(self.sg, vargv), check_verify))

    def count(self, emb, extremal: bool = False) -> None:
        path = self.emb_file(emb)
        g = emb.graph
        fib = self.sg.counting.fib(g.m + 1)

        def check(res):
            lines = _text(res).splitlines()
            t1 = lines[0].split("=", 1)[1]
            t2 = lines[1].split("=", 1)[1]
            f = _fields(lines[2])
            ok = t1 == t2 == f.get("t") and int(t1) <= fib
            if extremal:
                ok = ok and t1 == str(fib) and f.get("equality") == "yes"
            if not ok:
                raise OracleError(f"count said {lines!r}")
            return 0

        self.ops.append(Op("count", path, _cli(self.sg, ["count", path, "--fib"]), check))

    def flip(self, emb) -> None:
        path = self.emb_file(emb)
        trees = self.sg.counting.count_matrix_tree(emb.graph)

        def check(res):
            text = _text(res)
            nodes = sum(1 for line in text.splitlines() if line.endswith('"];')
                        and "--" not in line)
            if not text.startswith("graph flip {") or nodes != trees:
                raise OracleError(f"flip export has {nodes} nodes, want {trees}")
            return trees

        argv = ["flip", path, "--restriction", "pof", "--format", "dot"]
        self.ops.append(Op("flip", path, _cli(self.sg, argv), check,
                           lambda res: res[1].encode()))

    def certify(self, emb, trees_per_root: int) -> None:
        """Library certification for every root and a few seeded random
        initial trees: labeling, initial tree, greedy_listing with
        classification and pof ties, then verify_gray."""
        sg = self.sg
        g = emb.graph
        sd = sg.dualtree.split_dual(emb)
        for root in sd.leaves():
            for _ in range(trees_per_root):
                seed = self.rng.randrange(2 ** 32)

                def run(root=root, seed=seed):
                    dt, tg = sg.dualtree, sg.treegen
                    sd = dt.split_dual(emb)
                    lab = dt.dual_tree_labeling(dt.orient_split_dual(sd, root))
                    init = tg.random_spanning_tree(g, lab, random.Random(seed))
                    listing = tg.greedy_listing(
                        g, labeling=lab, embedding=emb, initial=init,
                        tiebreak=tg.tiebreak_prefer("pof"), check=True,
                        classify=True)
                    return listing, tg.verify_gray(listing, required_class="pof")

                def check(res):
                    listing, rep = res
                    if not rep.ok or not listing.complete:
                        raise OracleError(f"certification failed: {rep.violations[:1]}")
                    return rep.count

                self.ops.append(Op("certify", f"root {root}", run, check))

    def experiment(self, kind: str, max_n: int) -> None:
        argv = ["experiment", "--kind", kind, "--max-n", str(max_n), "--no-timings"]

        def check(res):
            last = _text(res).splitlines()[-1]
            if not last.startswith("# summary ") or _fields(last).get("discrepancies") != "0":
                raise OracleError(f"experiment summary {last!r}")
            return 0

        self.ops.append(Op("experiment", f"{kind} {max_n}", _cli(self.sg, argv), check,
                           lambda res: res[1].encode()))


def _strips(sg, max_m: int):
    """Every member of the extremal family with at most max_m edges."""
    out = []
    for k in range(1, max_m):
        for digons in range(min(2, k) + 1):
            emb = sg.counting.extremal_family(k, digons)
            if emb.graph.m <= max_m:
                out.append(emb)
    return out


def _random_embs(sg, sizes, family_seed: int):
    """Fixed members of the random outerplane family, one per
    (n, chords, parallels) entry."""
    rng = random.Random(family_seed)
    out = []
    for n, chords, parallels in sizes:
        n, edges, outer = random_outerplane(n, chords, parallels, rng)
        g = sg.embedgraph.MultiGraph(n, edges)
        out.append(sg.embedgraph.build_embedding(g, outer))
    return out


def plan_strip(sg, workdir: str, seed: int) -> Plan:
    b = _Builder(sg, workdir, seed)
    ext = sg.counting.extremal_family
    # a short pass (about 4 s at reference speed), so that a run's median
    # is over seven to ten passes and a slow stretch of the machine
    # moves few of them
    b.gen_verify(ext(11, 1), "prefer-pof", "pof")        # m=22, 28,657 trees
    b.count(ext(60, 0), extremal=True)                   # m=121
    for _ in range(2):
        b.flip(ext(7, 0))                                # m=15, 987 trees
    # m <= 11 puts the latency p50 and p90 each inside the samples of
    # one graph size (m = 8 and m = 11), not on the step between two
    for emb in _strips(sg, 11):
        b.certify(emb, trees_per_root=4)
    for _ in range(2):
        for kind, n in (("paf", 5), ("pivot", 4), ("arborescence", 3)):
            b.experiment(kind, n)
    return b.plan("strip")


WIDE_GEN = [(160, 112, 8)] * 8      # n, chords, parallels: m = 280
WIDE_COUNT = [(18, 7, 1)] * 3       # m = 26; deletion-contraction is exponential
WIDE_FLIP = [(9, 4, 1)] * 6         # m = 14, about 500 trees
# mostly n=7, so the latency p50 falls among many close samples and
# not on the step between the n=6 and the n=7 certifications
WIDE_CERTIFY = [(6, 2, 1), (7, 3, 1), (7, 2, 2), (7, 3, 0)] * 8


def plan_wide(sg, workdir: str, seed: int) -> Plan:
    b = _Builder(sg, workdir, seed)
    for emb in _random_embs(sg, WIDE_GEN, 1):
        b.gen_verify(emb, "closest", "any", max_trees=1000)
    for emb in _random_embs(sg, WIDE_COUNT, 2):
        b.count(emb)
    for emb in _random_embs(sg, WIDE_FLIP, 3):
        b.flip(emb)
    for emb in _random_embs(sg, WIDE_CERTIFY, 4):
        b.certify(emb, trees_per_root=2)
    for _ in range(2):
        for kind, n in (("pivot", 5), ("paf", 4), ("arborescence", 3)):
            b.experiment(kind, n)
    return b.plan("wide")


def plan_small(sg, workdir: str, seed: int) -> Plan:
    b = _Builder(sg, workdir, seed)
    graphs = list(sg.counting.enumerate_outerplane(9))
    for emb in graphs:
        b.gen_verify(emb, "prefer-pof", "pof")
    for emb in graphs:
        b.count(emb)
    for emb in graphs:
        b.flip(emb)
    for emb in graphs:
        b.certify(emb, trees_per_root=1)
    for kind, n in (("pivot", 5), ("paf", 5), ("arborescence", 4)):
        b.experiment(kind, n)
    return b.plan("small")


PLANS = {"strip": plan_strip, "wide": plan_wide, "small": plan_small}


def digest_outputs(chunks: list[bytes]) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()


def modules() -> SimpleNamespace:
    import spangray.cli
    import spangray.counting
    import spangray.dualtree
    import spangray.embedgraph
    import spangray.flipgraph
    import spangray.treegen
    return SimpleNamespace(cli=spangray.cli, counting=spangray.counting,
                           dualtree=spangray.dualtree,
                           embedgraph=spangray.embedgraph,
                           flipgraph=spangray.flipgraph,
                           treegen=spangray.treegen)
