"""Command line front end.

Subcommands: label (print the dual-tree edge labeling), gen (generate
a listing), verify (re-check a listing file), count (spanning tree
counts), experiment (small-graph sweeps), flip (export a flip graph).

Exit codes: 0 success, 1 verification failure, 2 bad input or usage,
141 (128 + SIGPIPE) when the reader of the output closes it early.
All output is deterministic; experiment timings can be zeroed with
--no-timings to make runs byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import counting, flipgraph, treegen
from .dualtree import (default_root_leaf, dual_tree_labeling,
                       orient_split_dual, split_dual)
from .embedgraph import (EdgeLabeling, EmbeddedGraph, MultiGraph, ParsedGraph, _ints,
                         blocks, build_embedding, parse_graph)
from .errors import CertificationError, GraphError, ParseError


def _read(path: str) -> str:
    """The file's UTF-8 text; a byte that is not UTF-8 is a ParseError
    naming its line.  The graph and listing readers split lines with
    ``splitlines``, which ends a line at CR LF and at a lone CR too, so
    the text needs no newline translation."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    return _decode(data, path, 0)


def _decode(data: bytes, path: str, before: int) -> str:
    """``data`` as UTF-8, from a file whose earlier bytes hold ``before``
    whole lines; a byte that is not UTF-8 is a ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, counted as the readers count
        line = before + len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"cannot read {path}: byte 0x{data[exc.start]:02x} "
                         "is not UTF-8", line)


# bytes per read of a listing file: a small, fixed buffer, and blocks
# long enough that a thousand lines are decoded in one batch
_BLOCK = 1 << 16


def _file_blocks(path: str):
    """The lines of the UTF-8 file ``path``, a block at a time.  Each
    block is read in :data:`_BLOCK` bytes and ends just after its last
    "\n" (a block with none grows until one comes or the file ends), so
    every cut is at a line end and the blocks' lines are those of
    ``splitlines`` on the whole text."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    with fh:
        before = 0          # the lines of the blocks so far
        parts = []          # the bytes read since the last "\n"
        while True:
            try:
                data = fh.read(_BLOCK)
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc.strerror}")
            cut = data.rfind(b"\n") + 1
            if data and not cut:
                parts.append(data)
                continue
            parts.append(data[:cut])
            block = b"".join(parts)
            parts = [data[cut:]]
            if block:
                lines = _decode(block, path, before).splitlines()
                before += len(lines)
                yield lines
            if not data:
                return


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc.strerror}")


def _undirected(args: argparse.Namespace) -> ParsedGraph:
    parsed = parse_graph(_read(args.path))
    if parsed.directed:
        raise GraphError(f"{args.command} expects an undirected graph")
    return parsed


def _embed(g: MultiGraph, outer) -> EmbeddedGraph:
    """Embedding from the given outer order, or a searched one."""
    if outer is not None:
        return build_embedding(g, outer)
    if not g.is_connected():
        raise GraphError("graph is disconnected; embed components separately")
    if g.n > 9:
        raise GraphError("no 'outer:' line and graph too large to search "
                         "for an outerplane order")
    order = flipgraph.find_outerplane_order(g)
    if order is None:
        raise GraphError("graph has no outerplane embedding")
    return build_embedding(g, order)


def _labeling_for(emb: EmbeddedGraph, root_edge: int | None):
    sd = split_dual(emb)
    if root_edge is None:
        root = default_root_leaf(sd)
    else:
        if not 0 <= root_edge < emb.graph.m:
            raise GraphError(f"--root edge id {root_edge} out of range")
        root = sd.leaf_for_edge(root_edge)
    osd = orient_split_dual(sd, root)
    return sd, osd, dual_tree_labeling(osd)


def _print_labeling(emb: EmbeddedGraph, root_edge: int | None, vertices,
                    edge_ids, indent: str, out) -> None:
    """The root dart and every edge's label; ``vertices`` and
    ``edge_ids`` map the embedded graph's ids to the input file's."""
    g = emb.graph
    sd, osd, labeling = _labeling_for(emb, root_edge)
    e, tail = sd.leaf_darts[osd.root - sd.inner_count]
    print(f"{indent}root: dart ({vertices[tail]},{vertices[g.other_end(e, tail)]}) "
          f"of edge {edge_ids[e]}", file=out)
    for e, (u, v) in enumerate(g.edges):
        print(f"{indent}edge ({vertices[u]},{vertices[v]}) [id {edge_ids[e]}] "
              f"-> label {labeling.label(e)}", file=out)


def cmd_label(args: argparse.Namespace, out) -> int:
    if args.per_block and args.root is not None:
        raise GraphError("--root does not apply to --per-block: each block is "
                         "rooted at its default leaf")
    parsed = _undirected(args)
    g = parsed.graph
    if not args.per_block:
        _print_labeling(_embed(g, parsed.outer), args.root, range(g.n), range(g.m),
                        "", out)
        return 0
    pos = None if parsed.outer is None else {v: i for i, v in enumerate(parsed.outer)}
    for b_idx, bl in enumerate(blocks(g)):
        outer = None if pos is None else sorted(range(bl.graph.n),
                                                key=lambda lv: pos[bl.vertices[lv]])
        try:
            emb = _embed(bl.graph, outer)
        except GraphError as exc:
            raise GraphError(f"block {b_idx}: {exc}")
        print(f"block {b_idx}: vertices {','.join(map(str, bl.vertices))}", file=out)
        _print_labeling(emb, None, bl.vertices, bl.edge_ids, "  ", out)
    for e in g.loop_edges():
        v = g.edges[e][0]
        print(f"loop ({v},{v}) [id {e}] -> unlabeled", file=out)
    return 0


_TIEBREAKS = ("closest",) + tuple("prefer-" + k.replace("_", "-")
                                  for k in treegen.RESTRICTIONS if k != "any")


def _tiebreak_rule(name: str):
    if name == "closest":
        return treegen.tiebreak_closest
    kind = name[len("prefer-"):].replace("-", "_")
    return treegen.tiebreak_prefer(kind)


# lines per write of a gen listing: few writes, and the text of a few
# thousand lines in memory at a time, never the text of the whole listing
_WRITE_CHUNK = 4096


def cmd_gen(args: argparse.Namespace, out) -> int:
    parsed = _undirected(args)
    g = parsed.graph
    if args.max_trees is not None and args.max_trees < 1:
        raise GraphError(f"--max-trees must be at least 1, got {args.max_trees}")
    emb = _embed(g, parsed.outer)
    sd, osd, labeling = _labeling_for(emb, args.root)
    initial = None
    if args.initial is not None:
        initial = _ints([t.strip() for t in args.initial.split(",") if t.strip()],
                        "--initial expects comma-separated labels", None)
    listing = treegen.greedy_listing(
        g, labeling=labeling, embedding=emb, initial=initial,
        tiebreak=_tiebreak_rule(args.tiebreak), max_trees=args.max_trees,
        check=True, classify=True)
    lines = listing.render_lines()
    while chunk := list(itertools.islice(lines, _WRITE_CHUNK)):
        out.write("\n".join(chunk) + "\n")
    classes = {c for _, c in listing.steps}
    flags = {
        "all-pivot": all(c.pivot for c in classes),
        "all-face": all(c.face for c in classes),
        "all-paf": all(c.paf for c in classes),
        "all-pof": all(c.pof for c in classes),
    }
    trees = len(listing.tree_masks)
    # a certified listing has counted its trees; a truncated one counts here
    expected = trees if listing.complete else treegen._count_trees(g, emb)
    complete = "yes" if trees == expected else "no"
    parts = [f"# trees={trees}", f"expected={expected}",
             f"complete={complete}", "genlex=yes"]
    parts += [f"{k}={'yes' if v else 'no'}" for k, v in flags.items()]
    out.write(" ".join(parts) + "\n")
    return 0


def _step_tokens(line: str):
    """The two label tokens of a step line "- r + a [classes]", or None
    for a line of any other shape."""
    parts = line.split()
    if len(parts) in (4, 5) and parts[0] == "-" and parts[2] == "+":
        return parts[1], parts[3]
    return None


class _ListingReader:
    """Reads a listing in the cmd_gen format one block of lines at a
    time: chi lines alternating with "- <removed> + <added> [classes]"
    step lines; blank and "#" lines ignored.  :meth:`read` gives a
    block's tree masks and, aligned with them, the ``(removed, added)``
    pair of the step into each (None for the first tree); :meth:`finish`
    checks the end of the listing.  The parity of tree and step lines,
    the line count and the last step line carry from block to block.

    While the blocks keep gen's exact shape they are decoded in bulk;
    the first block that breaks it, and every block after, goes through
    the line reader, the only source of ParseErrors, which names the
    line of every fault.  The bulk blocks before it read as the line
    reader would read them, so the masks, pairs and errors are those of
    the line reader over the whole file."""

    def __init__(self, m: int):
        self.m = m
        self.label = {str(l): l for l in range(1, m + 1)}   # each label as written by gen
        self.bulk = True
        self.tree_next = True   # a tree line comes next: first, and after each step
        self.tail = False       # blank and "#" lines have begun, in bulk
        self.lineno = 0         # the lines read
        self.step_line = 1      # the line of the last step line
        self.trees = 0
        self.pending = [None]   # the pair of the step into the next tree

    def read(self, lines: list[str]) -> tuple[list[int], list]:
        masks, pairs = (self.bulk and self._bulk(lines)) or self._lines(lines)
        self.trees += len(masks)
        pairs = self.pending + pairs
        self.pending = pairs[len(masks):]
        del pairs[len(masks):]
        return masks, pairs

    def finish(self) -> None:
        if not self.trees:
            raise ParseError("listing contains no trees", max(self.lineno, 1))
        if self.tree_next:
            raise ParseError("trailing step line without a following tree", self.step_line)

    def _bulk(self, lines: list[str]):
        """The masks and step pairs of ``lines`` if they keep gen's exact
        shape, else None, which ends the bulk reading.  The shape: tree
        and step lines alternate from the first line of the file, with
        only blank and "#" lines after the last of them; every tree line
        is m 0/1 characters; every step line reads by the line reader's
        rules, with labels written as gen writes them.  (A listing that
        ends on a step line, or has no tree, keeps the shape, and
        :meth:`finish` names its fault as the line reader would.)  A
        block's tree lines are checked and converted as one batch, and
        each distinct step line is read once."""
        end = len(lines)
        while end and lines[end - 1].lstrip()[:1] in ("", "#"):
            end -= 1
        if self.tail and end:       # a tree or step line after the tail
            self.bulk = False
            return None
        first = 0 if self.tree_next else 1      # the index of the first tree line
        tree_next = self.tree_next == (end % 2 == 0)
        trees, steps = lines[first:end:2], lines[1 - first:end:2]
        # a tree line is not blank, so this also needs m >= 1
        if set(map(len, trees)) - {self.m}:
            self.bulk = False
            return None
        joined = "".join(trees)
        # deleting every 0 and 1 of the ASCII bytes must leave nothing
        if not joined.isascii() or joined.encode("ascii").translate(None, b"01"):
            self.bulk = False
            return None
        del joined      # freed before the masks are built
        pair, label = {}, self.label
        for line in set(steps):
            tokens = _step_tokens(line)
            removed = added = None
            if tokens is not None:
                removed, added = label.get(tokens[0]), label.get(tokens[1])
            if removed is None or added is None:
                self.bulk = False
                return None
            pair[line] = (removed, added)
        if steps:       # the last step line is at index end - 1 or end - 2
            self.step_line = self.lineno + end - (1 if tree_next else 2) + 1
        self.lineno += len(lines)
        self.tree_next, self.tail = tree_next, end < len(lines)
        # bit 0 is leftmost
        return [int(t[::-1], 2) for t in trees], list(map(pair.__getitem__, steps))

    def _lines(self, lines: list[str]):
        """The masks and step pairs of ``lines``, one line at a time: a
        line's first character tells which kind it is, and a ParseError
        names the line of any fault."""
        m, label = self.m, self.label
        masks: list[int] = []
        pairs: list[tuple[int, int]] = []
        tree_next, step_line = self.tree_next, self.step_line
        for lineno, raw in enumerate(lines, start=self.lineno + 1):
            line = raw.strip()
            first = line[:1]
            if first == "-":
                if tree_next:
                    raise ParseError("step line without a preceding tree", lineno)
                tokens = _step_tokens(line)
                if tokens is None:
                    raise ParseError(f"bad step line {line!r}", lineno)
                removed, added = label.get(tokens[0]), label.get(tokens[1])
                if removed is None or added is None:
                    removed, added = _ints(tokens, "step labels must be integers", lineno)
                    if not (1 <= removed <= m and 1 <= added <= m):
                        raise ParseError("step label out of range", lineno)
                pairs.append((removed, added))
                tree_next = True
                step_line = lineno
            elif first and first != "#":
                if not tree_next:
                    raise ParseError("tree line without a step line", lineno)
                if len(line) != m or line.strip("01"):
                    raise ParseError(f"expected {m} bits, got {line!r}", lineno)
                # the check above keeps out the "_" and sign int() would take;
                # bit 0 is leftmost
                masks.append(int(line[::-1], 2))
                tree_next = False
        self.lineno += len(lines)
        self.tree_next, self.step_line = tree_next, step_line
        return masks, pairs


def _listing_batches(blocks, m: int):
    """The ``(masks, pairs)`` of each block of lines, by
    :class:`_ListingReader`, and the end checked after the last.  A
    ParseError waits for the rest of the blocks: a byte that is not
    UTF-8 anywhere in the file is the error reported, as when the whole
    file is decoded before it is read."""
    reader = _ListingReader(m)
    blocks = iter(blocks)
    try:
        for lines in blocks:
            yield reader.read(lines)
        reader.finish()
    except ParseError:
        for _ in blocks:
            pass
        raise


def parse_listing(text: str, g: MultiGraph, labeling: EdgeLabeling,
                  embedding: EmbeddedGraph | None,
                  assume_complete: bool) -> treegen.Listing:
    """The listing ``text`` holds, read in one block by
    :class:`_ListingReader`, as a :class:`treegen.Listing`."""
    masks, pairs = [], []
    for batch, batch_pairs in _listing_batches([text.splitlines()], g.m):
        masks += batch
        pairs += batch_pairs
    return treegen.Listing(g, labeling, embedding, tuple(masks),
                           tuple((treegen.Exchange(r, a), None) for r, a in pairs[1:]),
                           truncated=not assume_complete,
                           complete=assume_complete or None)


def cmd_verify(args: argparse.Namespace, out) -> int:
    parsed = _undirected(args)
    g = parsed.graph
    emb = _embed(g, parsed.outer)
    sd, osd, labeling = _labeling_for(emb, args.root)

    def batches():
        return _listing_batches(_file_blocks(args.listing), g.m)

    # the listing streams through the verifier; a second read of its
    # masks is only for the repeat search of a listing that is not genlex
    genlex_ok, rep = treegen.verify_gray_masks(
        g, labeling, emb, batches(), lambda: (x for masks, _ in batches() for x in masks),
        truncated=not args.expect_complete, required_class=args.klass)
    print(f"genlex: {'ok' if genlex_ok else 'FAIL'}", file=out)
    if rep.ok:
        print(f"exchanges: ok class={args.klass} trees={rep.count}"
              + (f" expected={rep.expected}" if rep.expected is not None else ""),
              file=out)
    else:
        for v in rep.violations:
            print(f"exchanges: FAIL {v}", file=out)
    return 0 if genlex_ok and rep.ok else 1


# The deletion-contraction cross-check gives up past this many memo
# states: the m=3001 strip needs 8,998, but seeded random outerplane
# multigraphs of about a hundred edges need millions.
_CROSS_CHECK_STATES = 100_000


def cmd_count(args: argparse.Namespace, out) -> int:
    parsed = _undirected(args)
    g = parsed.graph
    # embedded before anything is counted, so input that --fib refuses
    # prints nothing and costs no count
    emb = _embed(g, parsed.outer) if args.fib else None
    t1 = counting.count_matrix_tree(g)
    t2 = counting.count_del_contract(g, _CROSS_CHECK_STATES)
    print(f"t(matrix-tree)={t1}", file=out)
    if t2 is None:
        print(f"t(deletion-contraction)=skipped (over {_CROSS_CHECK_STATES} states)",
              file=out)
    else:
        print(f"t(deletion-contraction)={t2}", file=out)
        if t1 != t2:
            print("count mismatch between methods", file=out)
            return 1
    if emb is not None:
        # the series-parallel count of the Fibonacci line is the third
        report = counting.check_fib_bound(emb)
        if report.count != t1:
            print("count mismatch between methods", file=out)
            return 1
        print(report.line(), file=out)
    return 0


def cmd_experiment(args: argparse.Namespace, out) -> int:
    # with --out the report goes to the file and only the summary to stdout
    lines: list[str] = []
    emit = lines.append if args.out is not None else (lambda line: print(line, file=out))
    emit(f"# experiment={args.kind} max-n={args.max_n} budget={args.budget}")
    report = flipgraph.run_experiment(
        args.kind, args.max_n, args.budget,
        on_record=lambda rec: emit(rec.line(not args.no_timings)))
    tail = report.summary_line()
    emit(tail)
    if args.out is not None:
        _write(args.out, "\n".join(lines) + "\n")
        print(tail, file=out)
    return 1 if report.discrepancies else 0


def cmd_flip(args: argparse.Namespace, out) -> int:
    parsed = parse_graph(_read(args.path))
    g = parsed.graph
    restriction = args.restriction or "any"
    if parsed.directed:
        if args.restriction is not None:
            raise GraphError("--restriction does not apply to directed input: "
                             "arborescences flip by arc exchanges")
        if args.root_vertex is None:
            raise GraphError("directed input needs --root-vertex")
        fg = flipgraph.arborescence_flip_graph(flipgraph.DiGraph(g.n, g.edges),
                                               args.root_vertex)
    elif args.root_vertex is not None:
        raise GraphError("--root-vertex does not apply to undirected input: "
                         "it roots the arborescences of a directed one")
    elif restriction in ("any", "pivot") and parsed.outer is None:
        fg = flipgraph.build_flip_graph(g, restriction)
    else:
        fg = flipgraph.build_flip_graph(_embed(g, parsed.outer), restriction)
    text = (flipgraph.to_dot(fg) if args.fmt == "dot" else flipgraph.to_text(fg))
    if args.out is None:
        print(text, file=out)
    else:
        _write(args.out, text + "\n")
    return 0


_COMMANDS = {
    "label": cmd_label,
    "gen": cmd_gen,
    "verify": cmd_verify,
    "count": cmd_count,
    "experiment": cmd_experiment,
    "flip": cmd_flip,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and costs a small part of building it."""
    p = argparse.ArgumentParser(
        prog="spangray",
        description="Gray codes of spanning trees of outerplane graphs")
    sub = p.add_subparsers(dest="command", required=True)

    lab = sub.add_parser("label", help="print the dual-tree edge labeling")
    lab.add_argument("path")
    lab.add_argument("--root", type=int, default=None, metavar="EDGE",
                     help="outer edge id whose dart roots the dual tree")
    lab.add_argument("--per-block", action="store_true",
                     help="label each biconnected block separately")

    gen = sub.add_parser("gen", help="generate a spanning tree listing")
    gen.add_argument("path")
    gen.add_argument("--root", type=int, default=None, metavar="EDGE")
    gen.add_argument("--tiebreak", choices=_TIEBREAKS, default="closest")
    gen.add_argument("--initial", default=None, metavar="LABELS",
                     help="comma-separated labels of the initial tree")
    gen.add_argument("--max-trees", type=int, default=None)

    ver = sub.add_parser("verify", help="re-check a listing file")
    ver.add_argument("path", help="graph file")
    ver.add_argument("listing", help="listing file as written by gen")
    ver.add_argument("--root", type=int, default=None, metavar="EDGE")
    ver.add_argument("--class", dest="klass", choices=treegen.RESTRICTIONS,
                     default="any")
    ver.add_argument("--expect-complete", action="store_true",
                     help="also require the listing to cover every tree")

    cnt = sub.add_parser("count", help="spanning tree counts")
    cnt.add_argument("path")
    cnt.add_argument("--fib", action="store_true",
                     help="also report the Fibonacci bound")

    exp = sub.add_parser("experiment", help="small-graph Hamilton sweeps")
    exp.add_argument("--kind", choices=("pivot", "paf", "arborescence"),
                     required=True)
    exp.add_argument("--max-n", type=int, required=True)
    exp.add_argument("--budget", type=int, default=2 * 10 ** 6)
    exp.add_argument("--out", default=None)
    exp.add_argument("--no-timings", action="store_true",
                     help="print time=0 so runs are byte-identical")

    flp = sub.add_parser("flip", help="export a flip graph")
    flp.add_argument("path")
    flp.add_argument("--restriction", choices=treegen.RESTRICTIONS,
                     default=None)
    flp.add_argument("--format", dest="fmt", choices=("dot", "text"),
                     default="text")
    flp.add_argument("--root-vertex", type=int, default=None,
                     help="root for arborescences of a directed input")
    flp.add_argument("--out", default=None)
    return p


def entry(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        # the reader left (`| head`): what is flushed at exit goes nowhere
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CertificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
