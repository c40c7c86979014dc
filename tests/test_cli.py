"""End-to-end command line behaviour: formats, exit codes, determinism."""

import collections
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import (random_outerplane_multigraph, reference_read_bulk,
                      reference_read_lines, reference_read_listing)
from spangray import cli, counting, flipgraph, treegen
from spangray.cli import entry, parse_listing
from spangray.embedgraph import EdgeLabeling, MultiGraph
from spangray.errors import ParseError
from spangray.treegen import _chi_line

FAN = "5 7\nouter: 0 1 2 3 4\n0 1\n1 2\n0 2\n2 3\n0 3\n3 4\n0 4\n"
DIAMOND = "4 5\nouter: 0 1 2 3\n0 1\n1 2\n0 2\n2 3\n0 3\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
BOWTIE = "5 6\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n"
DIRECTED = "3 4\ndirected\n0 1\n1 2\n2 0\n1 0\n"


def run(argv):
    buf = io.StringIO()
    rc = entry(argv, out=buf)
    return rc, buf.getvalue()


@pytest.fixture
def fan_file(tmp_path):
    p = tmp_path / "fan.txt"
    p.write_text(FAN)
    return str(p)


@pytest.fixture
def strip_file(tmp_path):
    """The m=22 strip, 28,657 trees, as a graph file with its outer line."""
    g = counting.extremal_family(11, 1).graph
    assert g.m == 22
    p = tmp_path / "strip.txt"
    p.write_text(f"{g.n} {g.m}\nouter: {' '.join(map(str, range(g.n)))}\n"
                 + "".join(f"{u} {v}\n" for u, v in g.edges))
    return str(p)


@pytest.mark.parametrize("command", ["count", "flip", "label", "gen", "verify"])
def test_header_without_vertices_rejected(tmp_path, capsys, command):
    graph = tmp_path / "empty.txt"
    graph.write_text("0 0\n")
    # verify's listing is never read: the graph file fails first
    listing = [str(graph)] if command == "verify" else []
    rc, out = run([command, str(graph), *listing])
    assert rc == 2 and out == ""
    assert capsys.readouterr().err == \
        "error: line 1: a graph needs at least one vertex\n"


@pytest.mark.parametrize("text, err", [
    ("3 2\n0 1\n2 5\n", "line 3: edge 1 endpoint out of range: (2, 5)"),
    ("3 2 1\n0 1\n1 2\n", "line 1: expected header 'n m'"),
    ("-3 2\n0 1\n1 2\n", "line 1: n and m must be nonnegative"),
    ("3 -2\n", "line 1: n and m must be nonnegative"),
    ("3 2\n0 1\ndirected\n1 2\n", "line 3: 'directed' must precede the edge lines"),
    ("3 2\n0 1\nouter: 0 1 2\n1 2\n", "line 3: 'outer:' must precede the edge lines"),
    ("3 1\n-1 0\n", "line 2: edge 0 endpoint out of range: (-1, 0)"),
    ("3 1\nouter: 0 1\n0 1\n", "line 2: outer order must list every vertex exactly once"),
    ("3 1\nouter: 0 1 2\nouter: 0 2 1\n0 1\n", "line 3: a second 'outer:' line"),
    ("3 1\n0 \u0663\n", "line 2: edge endpoints must be integers"),
    ("3 1\n0 1_0\n", "line 2: edge endpoints must be integers"),
    # past int's 4,300-digit limit for reading a string
    ("3 1\n0 " + "1" * 5000 + "\n", "line 2: edge endpoints must be integers"),
])
def test_bad_graph_file_names_the_line(tmp_path, capsys, text, err):
    graph = tmp_path / "bad.txt"
    graph.write_text(text, encoding="utf-8")
    rc, out = run(["label", str(graph)])
    assert rc == 2 and out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("command", ["label", "gen", "verify", "count", "flip"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("where, bad", [(0, b"\xff"), (3, b"\xe2\x82"), (-1, b"\xc3")])
def test_file_not_utf8_names_the_line(tmp_path, capsys, monkeypatch, fan_file, command,
                                      newline, where, bad):
    """A byte that is not UTF-8 exits 2 naming the line it is on, with
    LF, CR LF or CR line ends: in the graph file, or for verify in the
    listing, read in blocks of the default size and of 5 bytes, which
    counts the line over the earlier blocks.  ``where`` is the line
    index; on the last line the bad bytes end the file."""
    if command == "verify":
        text = run(["gen", fan_file])[1]
        argv = ["verify", fan_file]
    else:
        text = FAN
        argv = [command]
    lines = [line.encode() for line in text.splitlines()]
    i = where % len(lines)
    lines[i] = lines[i] + bad if where == -1 else lines[i][:1] + bad + lines[i][1:]
    data = newline.encode().join(lines) + (b"" if where == -1 else newline.encode())
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for block in (cli._BLOCK, 5)[:2 if command == "verify" else 1]:
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert run(argv + [str(path)]) == (2, "")
        assert capsys.readouterr().err == \
            f"error: line {i + 1}: cannot read {path}: byte 0x{bad[0]:02x} is not UTF-8\n"


def test_seeded_graph_file_mutations():
    """Seeded hostile graph files, and headers declaring 10^9 or 10^33
    vertices, through label, gen, count and flip, in a child process
    that caps its address space at 1 GiB (``tests/graph_mutants.py``).
    Each run exits 0, 1 or 2 with no exception escaping; a file that
    ``parse_graph`` refuses exits 2 naming the refused line, and any
    other exit 2 is one error line.  No huge-n file allocates by n."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
    child = subprocess.run([sys.executable, os.path.join(here, "graph_mutants.py"), "7", "300"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    runs = json.loads(child.stdout)
    assert len(runs) == 4 * (4 + 300)
    for r in runs:
        assert r["crash"] is None, (r["text"], r["command"], r["crash"])
        assert r["rc"] in (0, 1, 2) and "Traceback" not in r["err"], r
        if r["parse_line"] is not None:
            assert r["rc"] == 2 and r["err"].startswith(f"error: line {r['parse_line']}: "), r
        if r["rc"] == 2:
            assert re.fullmatch(r"error: .+\n", r["err"]), r
        elif r["rc"] == 0:
            assert r["err"] == "", r
    for r in runs[:16]:     # the huge-n headers come first
        n = int(r["text"].split()[0])
        # with the fan's outer line, that line is the first one at fault
        want = ("error: line 2: outer order must list every vertex exactly once\n"
                if "outer:" in r["text"] else
                f"error: line 1: {n} vertices need at least {n - 1} edges to be connected, "
                "found 7\n")
        assert (r["rc"], r["err"]) == (2, want)
    assert {r["rc"] for r in runs} >= {0, 2}


def test_closed_pipe_exits_quietly(strip_file):
    """A reader that takes one line of the m=22 strip's listing and
    closes the pipe, as `| head -1` does: gen stops with exit code 141
    (128 + SIGPIPE) and nothing on stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from spangray.cli import entry; sys.exit(entry())",
         "gen", strip_file],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (first, child.wait(timeout=60), err) == (b"1010101010101010101010\n", 141, b"")


@pytest.mark.parametrize("module", ["spangray", "spangray.cli"])
def test_module_entry_points(fan_file, module):
    """``python -m spangray`` and ``python -m spangray.cli`` run the
    command line: both print the fan's counts and exit 0."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = subprocess.run([sys.executable, "-m", module, "count", fan_file],
                           capture_output=True, text=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=src))
    assert (child.returncode, child.stdout, child.stderr) == (
        0, "t(matrix-tree)=21\nt(deletion-contraction)=21\n", "")


@pytest.mark.parametrize("command", ["label", "gen", "verify", "count"])
def test_directed_file_refused(tmp_path, capsys, command):
    """Every command but flip reads an undirected graph, and names
    itself when it gets a directed one."""
    p = tmp_path / "d.txt"
    p.write_text(DIRECTED)
    # verify's listing is never read: the graph file fails first
    listing = [str(p)] if command == "verify" else []
    assert run([command, str(p), *listing]) == (2, "")
    assert capsys.readouterr().err == f"error: {command} expects an undirected graph\n"


@pytest.mark.parametrize("command", ["label", "gen", "verify"])
def test_root_out_of_range(fan_file, capsys, command):
    listing = [fan_file] if command == "verify" else []
    assert run([command, fan_file, *listing, "--root", "99"]) == (2, "")
    assert capsys.readouterr().err == "error: --root edge id 99 out of range\n"


def test_disconnected_header_refused(tmp_path, capsys):
    """A header declaring more vertices than m + 1 names the header's
    line (no graph with n > m + 1 is connected; count printed t=0
    before), and so does a wrong edge count."""
    graph = tmp_path / "g.txt"
    for text, err in (("4 2\n0 1\n1 2\n",
                       "line 1: 4 vertices need at least 3 edges to be connected, found 2"),
                      ("# c\n3 3\n0 1\n1 2\n", "line 2: declared 3 edges but found 2"),
                      ("\n# c\n", "line 2: empty input, expected header 'n m'")):
        graph.write_text(text)
        for command in ("count", "flip", "label", "gen"):
            assert run([command, str(graph)]) == (2, "")
            assert capsys.readouterr().err == f"error: {err}\n"


class TestLabel:
    def test_fan_output(self, fan_file):
        rc, out = run(["label", fan_file])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "root: dart (1,0) of edge 0"
        assert lines[1] == "edge (0,1) [id 0] -> label 1"
        assert lines[7] == "edge (0,4) [id 6] -> label 7"

    def test_root_option_changes_labels(self, fan_file):
        rc0, out0 = run(["label", fan_file])
        rc1, out1 = run(["label", fan_file, "--root", "5"])
        assert rc0 == rc1 == 0
        assert out0 != out1

    def test_per_block(self, tmp_path):
        p = tmp_path / "bowtie.txt"
        p.write_text(BOWTIE)
        rc, out = run(["label", str(p), "--per-block"])
        assert rc == 0
        assert out.count("label 1") == 2  # each block labels from 1
        blocks = [l for l in out.splitlines() if l.startswith("block ")]
        assert blocks == ["block 0: vertices 2,3,4", "block 1: vertices 0,1,2"]

    def test_not_two_connected_without_per_block(self, tmp_path):
        p = tmp_path / "bowtie.txt"
        p.write_text(BOWTIE)
        rc, _ = run(["label", str(p)])
        assert rc == 2

    @pytest.mark.parametrize("root", ["5", "99"])
    def test_per_block_rejects_root(self, fan_file, capsys, root):
        """Each block is rooted at its default leaf, so a --root, in
        range or not, is refused rather than ignored."""
        rc, out = run(["label", fan_file, "--per-block", "--root", root])
        assert (rc, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--root" in err and "--per-block" in err

    def test_root_without_per_block_pinned(self, fan_file):
        rc, out = run(["label", fan_file, "--root", "5"])
        assert rc == 0
        assert out.splitlines() == [
            "root: dart (4,3) of edge 5"] + _edge_lines("", [
                (0, 1, 0, 5), (1, 2, 1, 6), (0, 2, 2, 4), (2, 3, 3, 7),
                (0, 3, 4, 3), (3, 4, 5, 1), (0, 4, 6, 2)])


BOWTIE_OUTER = "5 6\nouter: 4 3 2 1 0\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n"
BOWTIE_LOOPS = "5 8\n0 1\n1 2\n2 2\n0 2\n2 3\n3 4\n4 4\n2 4\n"
CHAIN = "7 10\n0 1\n1 2\n0 2\n1 2\n2 3\n3 4\n4 5\n5 6\n3 6\n3 5\n"
CHAIN_OUTER = ("7 10\nouter: 0 2 1 3 6 5 4\n0 1\n1 2\n0 2\n1 2\n2 3\n3 4\n"
               "4 5\n5 6\n3 6\n3 5\n")
TRIANGLE_ON_K4 = "6 9\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n3 5\n"


def _edge_lines(indent, rows):
    return [f"{indent}edge ({u},{v}) [id {e}] -> label {l}" for u, v, e, l in rows]


class TestLabelPinned:
    """Exact stdout of ``label`` and ``label --per-block``, as printed
    when each block had its own embedding and label printer."""

    CASES = {
        ("fan", False): (0, ["root: dart (1,0) of edge 0"] + _edge_lines("", [
            (0, 1, 0, 1), (1, 2, 1, 2), (0, 2, 2, 3), (2, 3, 3, 4),
            (0, 3, 4, 5), (3, 4, 5, 6), (0, 4, 6, 7)])),
        ("fan", True): (0, ["block 0: vertices 0,1,2,3,4", "  root: dart (1,0) of edge 0"]
                        + _edge_lines("  ", [
                            (0, 1, 0, 1), (1, 2, 1, 2), (0, 2, 2, 3), (2, 3, 3, 4),
                            (0, 3, 4, 5), (3, 4, 5, 6), (0, 4, 6, 7)])),
        ("bowtie", False): (2, []),
        ("bowtie", True): (0, (
            ["block 0: vertices 2,3,4", "  root: dart (3,2) of edge 3"]
            + _edge_lines("  ", [(2, 3, 3, 1), (3, 4, 4, 2), (2, 4, 5, 3)])
            + ["block 1: vertices 0,1,2", "  root: dart (1,0) of edge 0"]
            + _edge_lines("  ", [(0, 1, 0, 1), (1, 2, 1, 2), (0, 2, 2, 3)]))),
        ("bowtie-outer", False): (2, []),
        ("bowtie-outer", True): (0, (
            ["block 0: vertices 2,3,4", "  root: dart (2,3) of edge 3"]
            + _edge_lines("  ", [(2, 3, 3, 1), (3, 4, 4, 3), (2, 4, 5, 2)])
            + ["block 1: vertices 0,1,2", "  root: dart (0,1) of edge 0"]
            + _edge_lines("  ", [(0, 1, 0, 1), (1, 2, 1, 3), (0, 2, 2, 2)]))),
        ("bowtie-loops", False): (2, []),
        ("bowtie-loops", True): (0, (
            ["block 0: vertices 2,3,4", "  root: dart (3,2) of edge 4"]
            + _edge_lines("  ", [(2, 3, 4, 1), (3, 4, 5, 2), (2, 4, 7, 3)])
            + ["block 1: vertices 0,1,2", "  root: dart (1,0) of edge 0"]
            + _edge_lines("  ", [(0, 1, 0, 1), (1, 2, 1, 2), (0, 2, 3, 3)])
            + ["loop (2,2) [id 2] -> unlabeled", "loop (4,4) [id 6] -> unlabeled"])),
        ("chain", False): (2, []),
        ("chain", True): (0, (
            ["block 0: vertices 3,4,5,6", "  root: dart (4,3) of edge 5"]
            + _edge_lines("  ", [(3, 4, 5, 1), (4, 5, 6, 2), (5, 6, 7, 4),
                                 (3, 6, 8, 5), (3, 5, 9, 3)])
            + ["block 1: vertices 2,3", "  root: dart (2,3) of edge 4"]
            + _edge_lines("  ", [(2, 3, 4, 1)])
            + ["block 2: vertices 0,1,2", "  root: dart (1,0) of edge 0"]
            + _edge_lines("  ", [(0, 1, 0, 1), (1, 2, 1, 3), (0, 2, 2, 4),
                                 (1, 2, 3, 2)]))),
        ("chain-outer", False): (2, []),
        ("chain-outer", True): (0, (
            ["block 0: vertices 3,4,5,6", "  root: dart (3,4) of edge 5"]
            + _edge_lines("  ", [(3, 4, 5, 1), (4, 5, 6, 5), (5, 6, 7, 4),
                                 (3, 6, 8, 3), (3, 5, 9, 2)])
            + ["block 1: vertices 2,3", "  root: dart (2,3) of edge 4"]
            + _edge_lines("  ", [(2, 3, 4, 1)])
            + ["block 2: vertices 0,1,2", "  root: dart (0,1) of edge 0"]
            + _edge_lines("  ", [(0, 1, 0, 1), (1, 2, 1, 4), (0, 2, 2, 2),
                                 (1, 2, 3, 3)]))),
        # the blocks before the first one that fails are printed
        ("triangle-on-k4", True): (2, (
            ["block 0: vertices 3,4,5", "  root: dart (4,3) of edge 6"]
            + _edge_lines("  ", [(3, 4, 6, 1), (4, 5, 7, 2), (3, 5, 8, 3)]))),
    }
    FILES = {"fan": FAN, "bowtie": BOWTIE, "bowtie-outer": BOWTIE_OUTER,
             "bowtie-loops": BOWTIE_LOOPS, "chain": CHAIN, "chain-outer": CHAIN_OUTER,
             "triangle-on-k4": TRIANGLE_ON_K4}

    @pytest.mark.parametrize("name,per_block", CASES)
    def test_stdout(self, tmp_path, name, per_block):
        p = tmp_path / f"{name}.txt"
        p.write_text(self.FILES[name])
        rc, out = run(["label", str(p)] + (["--per-block"] if per_block else []))
        want_rc, want = self.CASES[name, per_block]
        assert (rc, out) == (want_rc, "".join(line + "\n" for line in want))

    @pytest.mark.parametrize("text,block", [(K4, 0), (TRIANGLE_ON_K4, 1)])
    def test_error_names_the_block(self, tmp_path, capsys, text, block):
        p = tmp_path / "g.txt"
        p.write_text(text)
        assert run(["label", str(p), "--per-block"])[0] == 2
        err = capsys.readouterr().err
        assert f"block {block}" in err and "no outerplane embedding" in err


class TestSearchCap:
    """Without an 'outer:' line the CLI searches (n-1)! vertex orders,
    so it refuses every graph, and every block, above 9 vertices."""

    CYCLE_10 = "10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10))

    @pytest.mark.parametrize("argv", [
        ["label"], ["label", "--per-block"], ["gen"], ["verify", "LISTING"],
        ["count", "--fib"], ["flip", "--restriction", "pof"]])
    def test_every_command_refuses(self, tmp_path, monkeypatch, capsys, argv):
        def search(g):
            raise AssertionError(f"searched the orders of {g.n} vertices")

        monkeypatch.setattr(flipgraph, "find_outerplane_order", search)
        p = tmp_path / "cycle.txt"
        p.write_text(self.CYCLE_10)
        listing = tmp_path / "listing.txt"
        listing.write_text("1" * 9 + "0\n")
        argv = [argv[0], str(p)] + [str(listing) if a == "LISTING" else a
                                    for a in argv[1:]]
        assert run(argv)[0] == 2
        assert "too large to search" in capsys.readouterr().err


class TestDisconnected:
    """A disconnected graph gets the same error with or without an
    'outer:' line, at any size, from every command that embeds it."""

    @pytest.mark.parametrize("argv", [
        ["label"], ["gen"], ["verify", "LISTING"], ["count", "--fib"],
        ["flip", "--restriction", "pof"]])
    @pytest.mark.parametrize("triangles", [2, 4])
    @pytest.mark.parametrize("outer", [False, True])
    def test_every_command_refuses(self, tmp_path, capsys, argv, triangles, outer):
        n = 3 * triangles
        p = tmp_path / "triangles.txt"
        p.write_text(f"{n} {n}\n" + (f"outer: {' '.join(map(str, range(n)))}\n" if outer else "")
                     + "".join(f"{v} {v + (1, 1, -2)[v % 3]}\n" for v in range(n)))
        listing = tmp_path / "listing.txt"
        listing.write_text("110" * triangles + "\n")
        argv = [argv[0], str(p)] + [str(listing) if a == "LISTING" else a
                                    for a in argv[1:]]
        assert run(argv)[0] == 2
        assert capsys.readouterr().err == (
            "error: graph is disconnected; embed components separately\n")


class TestGen:
    def test_fan_summary(self, fan_file):
        rc, out = run(["gen", fan_file])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "1101010"
        assert lines[-1] == ("# trees=21 expected=21 complete=yes genlex=yes "
                             "all-pivot=yes all-face=yes all-paf=yes "
                             "all-pof=yes")
        assert len(lines) == 42

    def test_prefer_pivot_all_pivot(self, fan_file):
        rc, out = run(["gen", fan_file, "--tiebreak", "prefer-pivot"])
        assert rc == 0
        assert "all-pivot=yes" in out.splitlines()[-1]

    def test_closest_all_paf(self, fan_file):
        rc, out = run(["gen", fan_file, "--tiebreak", "closest", "--initial",
                       "1,2,4,6"])
        assert rc == 0
        assert "all-paf=yes" in out.splitlines()[-1]

    def test_max_trees(self, fan_file):
        rc, out = run(["gen", fan_file, "--max-trees", "5"])
        assert rc == 0
        assert "trees=5" in out.splitlines()[-1]
        assert "complete=no" in out.splitlines()[-1]

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_max_trees_below_one_rejected(self, fan_file, k):
        rc, out = run(["gen", fan_file, "--max-trees", k])
        assert rc == 2
        assert out == ""

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_max_trees_checked_before_counting(self, tmp_path, monkeypatch, k):
        g = counting.extremal_family(150).graph
        assert g.m == 301
        p = tmp_path / "strip.txt"
        p.write_text(f"{g.n} {g.m}\nouter: {' '.join(map(str, range(g.n)))}\n"
                     + "".join(f"{u} {v}\n" for u, v in g.edges))

        def refuse(g):
            raise AssertionError("counted before checking --max-trees")

        for name in ("count_series_parallel", "count_matrix_tree"):
            monkeypatch.setattr(counting, name, refuse)
        assert run(["gen", str(p), "--max-trees", k]) == (2, "")

    def test_gen_certifies_with_series_parallel_count(self, fan_file, monkeypatch):
        def refuse(g):
            raise AssertionError("gen used the determinant")

        monkeypatch.setattr(counting, "count_matrix_tree", refuse)
        rc, out = run(["gen", fan_file])
        assert rc == 0
        assert "trees=21 expected=21 complete=yes" in out.splitlines()[-1]

    def test_deterministic(self, fan_file):
        _, a = run(["gen", fan_file])
        _, b = run(["gen", fan_file])
        assert a == b

    def test_nonouterplanar_rejected(self, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text(K4)
        rc, _ = run(["gen", str(p)])
        assert rc == 2

    def test_bad_initial(self, fan_file):
        rc, _ = run(["gen", fan_file, "--initial", "1,2,3,4"])
        assert rc == 2

    def test_initial_label_out_of_range(self, fan_file, capsys):
        assert run(["gen", fan_file, "--initial", "0,1,2,3"]) == (2, "")
        assert capsys.readouterr().err == "error: labels out of range\n"

    def test_repeated_initial_label(self, fan_file, capsys):
        """``--initial 1,2,5,6`` is a tree; repeating a label exits 2
        naming it."""
        rc, out = run(["gen", fan_file, "--initial", "1,2,5,6,6"])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == "error: label 6 is repeated\n"

    @pytest.mark.parametrize("labels", ["1,2,4,\u0666", "1,\uff12,4,6", "+1,2,4,6",
                                        "1,2,4,6_0"])
    def test_initial_labels_are_ascii_integers(self, fan_file, labels, capsys):
        """``--initial 1,2,4,6`` is a tree; the same labels with a
        non-ASCII digit, a sign or an underscore, which ``int`` reads,
        exit 2."""
        rc, out = run(["gen", fan_file, "--initial", labels])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == "error: --initial expects comma-separated labels\n"

    def test_missing_file(self):
        rc, _ = run(["gen", "/nonexistent/graph.txt"])
        assert rc == 2


class _Writes(io.StringIO):
    """A text stream that records how many lines each write carries."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


class TestGenWriter:
    """``gen`` writes the listing's lines in chunks of at most
    ``cli._WRITE_CHUNK``, and its output is exactly one line per
    ``render_lines`` line, then the summary line."""

    @staticmethod
    def _gen(argv, out, monkeypatch):
        """Run gen into ``out``; the Listing it rendered."""
        made = []
        build = treegen.greedy_listing

        def record(*args, **kwargs):
            made.append(build(*args, **kwargs))
            return made[-1]

        with monkeypatch.context() as mp:
            mp.setattr(treegen, "greedy_listing", record)
            assert entry(argv, out=out) == 0
        assert len(made) == 1
        return made[0]

    @staticmethod
    def _check(text, listing):
        body = "".join(line + "\n" for line in listing.render_lines())
        assert text.startswith(body)
        summary = text[len(body):]
        assert summary.startswith(f"# trees={len(listing.trees)} ") and summary.count("\n") == 1
        assert summary.endswith("\n")

    def test_fan(self, fan_file, monkeypatch):
        out = _Writes()
        listing = self._gen(["gen", fan_file], out, monkeypatch)
        self._check(out.getvalue(), listing)
        assert out.lines == [41, 1]

    def test_strip_in_chunks(self, strip_file, tmp_path, monkeypatch):
        """The m=22 strip, 28,657 trees, takes many chunks, and its
        output is the same in a string and in a file."""
        out = _Writes()
        listing = self._gen(["gen", strip_file, "--tiebreak", "prefer-pof"], out, monkeypatch)
        assert len(listing.trees) == 28657
        self._check(out.getvalue(), listing)
        assert max(out.lines) == cli._WRITE_CHUNK
        assert sum(out.lines) == 2 * 28657 and len(out.lines) > 2
        path = tmp_path / "listing.txt"
        with open(path, "w", encoding="utf-8") as fh:
            again = self._gen(["gen", strip_file, "--tiebreak", "prefer-pof"], fh, monkeypatch)
        assert again.tree_masks == listing.tree_masks
        assert path.read_text(encoding="utf-8") == out.getvalue()

    def test_gen_makes_no_tree_objects(self, fan_file, monkeypatch):
        """gen walks, certifies and prints on masks: it builds no
        SpanningTree, from the default initial tree or from --initial."""
        made = []

        class Counted(treegen.SpanningTree):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        plain = [run(["gen", fan_file, "--tiebreak", "prefer-pof", *extra])
                 for extra in ([], ["--initial", "1,2,5,6"])]
        monkeypatch.setattr(treegen, "SpanningTree", Counted)
        for extra, want in zip(([], ["--initial", "1,2,5,6"]), plain):
            assert run(["gen", fan_file, "--tiebreak", "prefer-pof", *extra]) == want
        assert made == [] and want[0] == 0

    def test_gen_memory_stays_small(self, strip_file):
        """gen of the m=22 strip keeps its 28,657 trees as ints and
        renders each shared step's line once: its tracemalloc peak stays
        under 3 MiB (it was 4.4 MiB with a SpanningTree per tree).  The
        output goes to a writer that keeps only the last write, so the
        peak is gen's own."""
        class Last:
            def write(self, text):
                self.text = text

        out = Last()
        entry(["gen", strip_file, "--tiebreak", "prefer-pof"], out=out)
        tracemalloc.start()
        try:
            assert entry(["gen", strip_file, "--tiebreak", "prefer-pof"], out=out) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.text.startswith("# trees=28657 expected=28657 complete=yes ")
        assert peak < 3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("extra", [0, 1])
    def test_max_trees_at_the_chunk_size(self, strip_file, extra, monkeypatch):
        """--max-trees of one chunk size, and one more: 2t - 1 listing
        lines in full chunks and a rest, then the summary line."""
        trees = cli._WRITE_CHUNK + extra
        out = _Writes()
        listing = self._gen(["gen", strip_file, "--max-trees", str(trees)], out, monkeypatch)
        assert len(listing.trees) == trees
        self._check(out.getvalue(), listing)
        chunk = cli._WRITE_CHUNK
        assert out.lines == ([chunk, chunk, 1, 1] if extra else [chunk, chunk - 1, 1])


class TestVerify:
    def test_roundtrip(self, fan_file, tmp_path):
        _, listing = run(["gen", fan_file, "--tiebreak", "prefer-pof"])
        lp = tmp_path / "listing.txt"
        lp.write_text(listing)
        rc, out = run(["verify", fan_file, str(lp), "--class", "pof",
                       "--expect-complete"])
        assert rc == 0
        assert "genlex: ok" in out
        assert "exchanges: ok class=pof trees=21" in out

    def test_tampered_tree_fails(self, fan_file, tmp_path):
        _, listing = run(["gen", fan_file])
        lines = listing.splitlines()
        lines[4] = lines[4][::-1]  # reverse one chi line
        lp = tmp_path / "bad.txt"
        lp.write_text("\n".join(lines))
        rc, out = run(["verify", fan_file, str(lp)])
        assert rc == 1
        assert "FAIL" in out

    def test_wrong_class_fails(self, fan_file, tmp_path):
        _, listing = run(["gen", fan_file])  # closest: paf but not face_inner
        lp = tmp_path / "l.txt"
        lp.write_text(listing)
        rc, out = run(["verify", fan_file, str(lp), "--class", "face_inner"])
        assert rc == 1

    def test_malformed_exits_2(self, fan_file, tmp_path):
        lp = tmp_path / "junk.txt"
        lp.write_text("--- what ---\n")
        rc, _ = run(["verify", fan_file, str(lp)])
        assert rc == 2

    def test_incomplete_with_flag_fails(self, fan_file, tmp_path):
        _, listing = run(["gen", fan_file, "--max-trees", "4"])
        lp = tmp_path / "part.txt"
        lp.write_text(listing)
        rc, _ = run(["verify", fan_file, str(lp)])
        assert rc == 0
        rc, _ = run(["verify", fan_file, str(lp), "--expect-complete"])
        assert rc == 1

    def test_expect_complete_counts_without_determinant(self, fan_file, tmp_path,
                                                       monkeypatch):
        """verify --expect-complete counts by series-parallel reduction:
        with the determinant refused, a complete and an incomplete
        listing print what they printed when it counted."""
        want = {}
        for k, text in ((None, "genlex: ok\nexchanges: ok class=pof trees=21 expected=21\n"),
                        ("4", "genlex: ok\nexchanges: FAIL listing has 4 trees, count says 21\n")):
            argv = ["gen", fan_file, "--tiebreak", "prefer-pof"]
            lp = tmp_path / f"listing-{k}.txt"
            lp.write_text(run(argv + (["--max-trees", k] if k else []))[1])
            want[str(lp)] = (0 if k is None else 1, text)

        def refuse(g):
            raise AssertionError("verify used the determinant")

        monkeypatch.setattr(counting, "count_matrix_tree", refuse)
        for lp, expected in want.items():
            assert run(["verify", fan_file, lp, "--class", "pof",
                        "--expect-complete"]) == expected

    def test_chi_lines_round_trip(self):
        """Every chi line _chi_line writes, m = 1 ... 70, reads back as
        its mask (for m = 0 it is the empty line, which reads as blank)."""
        rng = random.Random(3)
        for m in range(1, 71):
            g = MultiGraph(2, ((0, 1),) * m)
            lab = EdgeLabeling.identity(m)
            for mask in (0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(5))):
                listing = parse_listing(_chi_line(mask, m) + "\n", g, lab, None, False)
                assert listing.tree_masks == (mask,)

    @pytest.mark.parametrize("digit", ["\u0661", "\uff11", "\U0001d7cf"])
    def test_step_label_with_non_ascii_digit_exits_2(self, fan_file, tmp_path, digit,
                                                     capsys):
        """A step line whose label 1 is written with another script's
        digit one, which ``int`` reads as 1, exits 2 naming its line."""
        _, listing = run(["gen", fan_file])
        lines = listing.splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith("- 1 + "))
        lines[lineno - 1] = "- " + digit + lines[lineno - 1][3:]
        lp = tmp_path / "l.txt"
        lp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["verify", fan_file, str(lp)]) == (2, "")
        assert capsys.readouterr().err == \
            f"error: line {lineno}: step labels must be integers\n"

    @pytest.mark.parametrize("bad", ["1_0", "+10", "10+", "1 0"])
    def test_tree_line_with_stray_characters(self, bad):
        g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
        text = f"110\n- 1 + 3\n{bad}\n"
        with pytest.raises(ParseError) as exc:
            parse_listing(text, g, EdgeLabeling.identity(3), None, False)
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "listing contains no trees"),
        ("# note\n\n", 2, "listing contains no trees"),
        ("110\n- 1 + 3\n", 2, "trailing step line without a following tree"),
        ("110\n- 1 + 3 [pivot]\n\n# end\n", 2,
         "trailing step line without a following tree"),
    ])
    def test_listing_end_names_a_line(self, text, line, message):
        """No tree at all names the last line read (line 1 for an empty
        file); a step line with no tree after it names that step line."""
        g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ParseError) as exc:
            parse_listing(text, g, EdgeLabeling.identity(3), None, False)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_seeded_listing_mutations(self, fan_file, tmp_path, capsys):
        """Seeded mutations of the fan's listing file: cut lines, stray
        characters, 5,000-digit labels, labels 0 and m + 1, duplicated
        or swapped lines, blank and "#" lines.  verify exits 0, 1 or 2
        with no traceback, and exit 2 names a line, also when the fault
        is where the listing ends."""
        _, listing = run(["gen", fan_file, "--tiebreak", "prefer-pof"])
        base = listing.splitlines()
        steps = [i for i, line in enumerate(base) if line.startswith("-")]
        rng = random.Random(5)
        stray = "01-+#_ x\t\u0663"

        def label(text):
            parts = base[i].split()
            parts[rng.choice((1, 3))] = text
            return " ".join(parts)

        lp = tmp_path / "l.txt"
        codes = []
        for _ in range(300):
            lines = list(base)
            for _ in range(rng.randrange(1, 3)):
                i = rng.randrange(len(lines))
                kind = rng.randrange(7)
                if kind == 0:
                    del lines[i]
                elif kind == 1:
                    lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
                elif kind == 2:
                    j = rng.randrange(len(lines[i]) + 1)
                    lines[i] = lines[i][:j] + rng.choice(stray) + lines[i][j:]
                elif kind == 3:
                    i = rng.choice(steps)
                    lines[i] = label(rng.choice(("9" * 5000, "0", "8")))
                elif kind == 4:
                    lines.insert(i, lines[i])
                elif kind == 5:
                    j = rng.randrange(len(lines))
                    lines[i], lines[j] = lines[j], lines[i]
                else:
                    lines.insert(i, rng.choice(("", "   ", "#", "# note")))
            lp.write_text("\n".join(lines) + "\n", encoding="utf-8")
            rc, _ = run(["verify", fan_file, str(lp), "--class", "pof",
                         "--expect-complete"])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if rc == 2:
                assert re.fullmatch(r"error: line \d+: .+\n", err), err
            else:
                assert rc in (0, 1) and err == ""
            codes.append(rc)
        assert set(codes) == {0, 1, 2}

    def test_verify_makes_no_tree_or_exchange_objects(self, fan_file, tmp_path,
                                                      monkeypatch):
        """verify reads the listing as masks and label pairs: it builds
        no SpanningTree and no Exchange, where parse_listing builds one
        Exchange per step and, keeping the masks, no SpanningTree."""
        _, listing = run(["gen", fan_file, "--tiebreak", "prefer-pof"])
        lp = tmp_path / "l.txt"
        lp.write_text(listing)
        made = []

        def counted(cls):
            class Counted(cls):
                def __new__(klass, *args, **kwargs):
                    made.append(cls.__name__)
                    # a tuple takes its fields in __new__, a dataclass in __init__
                    if issubclass(cls, tuple):
                        return super().__new__(klass, *args, **kwargs)
                    return super().__new__(klass)
            return Counted

        monkeypatch.setattr(treegen, "SpanningTree", counted(treegen.SpanningTree))
        monkeypatch.setattr(treegen, "Exchange", counted(treegen.Exchange))
        assert run(["verify", fan_file, str(lp), "--class", "pof", "--expect-complete"]) \
            == (0, "genlex: ok\nexchanges: ok class=pof trees=21 expected=21\n")
        assert made == []
        g = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (3, 4), (0, 4)))
        parse_listing(listing, g, EdgeLabeling.identity(7), None, True)
        assert made.count("SpanningTree") == 0 and made.count("Exchange") == 20

    @staticmethod
    def _verify_peak(tmp_path, k, digons, max_trees=None):
        """The tracemalloc peak, in bytes, and the seconds of one
        ``verify --class pof`` of gen's listing of the strip
        ``extremal_family(k, digons)``, after one untraced run."""
        g = counting.extremal_family(k, digons).graph
        gp, lp = tmp_path / f"strip{g.m}.txt", tmp_path / f"strip{g.m}.listing"
        gp.write_text(f"{g.n} {g.m}\nouter: {' '.join(map(str, range(g.n)))}\n"
                      + "".join(f"{u} {v}\n" for u, v in g.edges))
        argv = ["gen", str(gp), "--tiebreak", "prefer-pof"]
        with open(lp, "w", encoding="utf-8") as fh:
            assert entry(argv + ([] if max_trees is None else ["--max-trees", str(max_trees)]),
                         out=fh) == 0
        argv = ["verify", str(gp), str(lp), "--class", "pof"]
        trees = max_trees
        if max_trees is None:
            argv.append("--expect-complete")
            trees = counting.fib(g.m + 1)
        want = (0, f"genlex: ok\nexchanges: ok class=pof trees={trees}"
                + ("" if max_trees else f" expected={trees}") + "\n")
        assert run(argv) == want
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert run(argv) == want
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, seconds

    def test_verify_memory_stays_small(self, tmp_path):
        """verify streams the listing through the verifier a block at a
        time and keeps no list of its lines or masks: on the m=22 strip,
        28,657 trees in 1.5 MiB of text, its tracemalloc peak stays
        under 2 MiB (about 0.7 MiB; 8.1 MiB when the reader held every
        line), and within 1 MiB of the peak on the m=17 strip, whose
        2,584 trees are 11 times fewer."""
        peaks = [self._verify_peak(tmp_path, *strip)[0] for strip in ((11, 1), (8, 0))]
        assert max(peaks) < 2 * 2 ** 20, [f"{p / 2 ** 20:.2f} MiB" for p in peaks]
        assert abs(peaks[0] - peaks[1]) < 2 ** 20

    @pytest.mark.slow
    def test_verify_memory_at_scale(self, tmp_path):
        """verify --class pof of gen's 1,000-tree listing of the m=10001
        strip, 9.5 MiB of text: a traced peak under 16 MiB (about
        10 MiB; 57 MiB when the reader held every line) in well under a
        minute (about 1 s traced)."""
        peak, seconds = self._verify_peak(tmp_path, 5000, 0, max_trees=1000)
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
        assert seconds < 60

    def test_parser_built_once(self, fan_file, tmp_path, monkeypatch, capsys):
        """gen, a usage error, gen again and verify in one process print
        with the one cached parser what a parser built per call prints."""
        lp = tmp_path / "l.txt"

        def session():
            outs = [run(["gen", fan_file, "--tiebreak", "prefer-pof"])]
            with pytest.raises(SystemExit) as exc:
                run(["gen", fan_file, "--tiebreak", "nearest"])
            outs.append((exc.value.code, capsys.readouterr().err))
            outs.append(run(["gen", fan_file, "--max-trees", "5", "--root", "3"]))
            lp.write_text(outs[0][1])
            outs.append(run(["verify", fan_file, str(lp), "--class", "pof",
                             "--expect-complete"]))
            return outs

        cached = session()
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = session()
        assert cached == fresh
        assert cached[1][0] == 2 and "invalid choice: 'nearest'" in cached[1][1]
        assert cached[3][0] == 0


def _read_outcome(read, *args):
    """What a listing reader returns, or the message and line of its ParseError."""
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc), exc.line


def _write(path, text: str) -> str:
    """Write ``text`` to ``path`` as UTF-8, line ends as they are; the path."""
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _batches_read(path, m: int):
    """The masks and step pairs verify's reader reads from the file."""
    masks, pairs = [], []
    for batch, batch_pairs in cli._listing_batches(cli._file_blocks(str(path)), m):
        masks += batch
        pairs += batch_pairs
    return masks, pairs[1:]


def _gen_text(emb, tiebreak) -> tuple[MultiGraph, str]:
    """The graph and gen's listing text for an embedded graph."""
    listing = treegen.greedy_listing(emb.graph, embedding=emb, tiebreak=tiebreak,
                                     classify=True)
    return emb.graph, "".join(line + "\n" for line in listing.render_lines()) \
        + f"# trees={len(listing.tree_masks)} genlex=yes\n"


class TestListingReader:
    """verify's listing reader, ``cli._listing_batches`` over the blocks
    of ``cli._file_blocks``, against the whole-text reference reader
    (``reference_read_listing``), whose bulk decoder and line reader
    agree on every listing.  Read in one block, and with the block size
    cut to a few bytes so that lines straddle blocks, the streaming
    reader gives the reference's masks and pairs, or a ParseError with
    its message and line, and decodes in bulk exactly the listings the
    reference's bulk decoder takes."""

    @staticmethod
    def _stream(blocks, m):
        """What ``_listing_batches`` reads from ``blocks``, as the
        reference returns it, and whether it read every block in bulk."""
        reader = cli._ListingReader(m)
        masks, pairs = [], []
        try:
            for lines in blocks:
                batch, batch_pairs = reader.read(lines)
                assert len(batch) == len(batch_pairs)
                masks += batch
                pairs += batch_pairs
            reader.finish()
        except ParseError as exc:
            return (str(exc), exc.line), False
        assert pairs[0] is None
        return (masks, pairs[1:]), reader.bulk

    @classmethod
    def _read_all(cls, g, text, path, block, monkeypatch):
        """The reference's outcome, checked equal for its two readers and
        for the streaming reader on ``text`` in one block and on its
        file in blocks of ``block`` bytes, and whether the reference's
        bulk decoder took the text."""
        m = g.m
        label = {str(l): l for l in range(1, m + 1)}
        lines = text.splitlines()
        whole = _read_outcome(reference_read_listing, text, g)
        assert whole == _read_outcome(reference_read_lines, lines, m, label)
        bulk = reference_read_bulk(lines, m, label) is not None
        assert cls._stream([lines], m) == (whole, bulk)
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert cls._stream(cli._file_blocks(_write(path, text)), m) == (whole, bulk)
        return whole, bulk

    @staticmethod
    def _strip(m):
        """The extremal strip with m edges, m >= 2."""
        return counting.extremal_family(m // 2, 1 - m % 2)

    def test_gen_listings_read_in_bulk(self, tmp_path, monkeypatch):
        """The strips with m = 2 ... 22 and every outerplane multigraph
        with m <= 7, under closest and prefer-pof: read in bulk, as the
        masks gen listed."""
        embs = [self._strip(m) for m in range(2, 23)]
        embs += counting.enumerate_outerplane(7)
        path = tmp_path / "l.txt"
        for i, emb in enumerate(embs):
            for tiebreak in (treegen.tiebreak_closest, treegen.tiebreak_prefer("pof")):
                g, text = _gen_text(emb, tiebreak)
                block = 4096 if g.m > 12 else 3 + i % 29
                (masks, pairs), bulk = self._read_all(g, text, path, block, monkeypatch)
                assert bulk, text[:200]
                assert len(masks) == counting.count_series_parallel(g) == len(pairs) + 1

    def test_empty_graph_listing(self, tmp_path, monkeypatch):
        """With m = 0 the one tree line is blank: both readers find no tree."""
        g = MultiGraph(1, ())
        text = "".join(line + "\n" for line in treegen.greedy_listing(g).render_lines())
        assert text == "\n"
        assert self._read_all(g, text + "# trees=1\n", tmp_path / "l.txt", 2,
                              monkeypatch) == (("line 2: listing contains no trees", 2), False)

    def test_line_reader_decodes_like_gen(self, tmp_path, monkeypatch):
        """Step labels written with a leading 0 and "#" lines between
        the steps send the 3-face strip's listing to the line reader,
        which reads each distinct step line once: it returns the masks
        and label pairs the walk listed.  A bad step line that repeats
        is named at its first line."""
        emb = counting.extremal_family(3)
        g = emb.graph
        listing = treegen.greedy_listing(g, embedding=emb, classify=True)
        lines = []
        for line in listing.render_lines():
            if line.startswith("-"):
                _, r, _, a, *flags = line.split()
                lines += [" ".join(["-", "0" + r, "+", "0" + a, *flags]), "# note"]
            else:
                lines.append(line)
        path = tmp_path / "l.txt"
        assert self._read_all(g, "\n".join(lines), path, 11, monkeypatch) == \
            ((list(listing.tree_masks), [(ex.removed, ex.added) for ex, _ in listing.steps]),
             False)
        repeated = [i for i, line in enumerate(lines) if line == lines[1]]
        assert len(repeated) > 1
        bad = lines[1].replace("+ 0", "+ 9")
        for at in (repeated, repeated[1:]):
            mutant = [bad if i in at else line for i, line in enumerate(lines)]
            assert self._read_all(g, "\n".join(mutant), path, 11, monkeypatch) == \
                ((f"line {at[0] + 1}: step label out of range", at[0] + 1), False)

    def test_block_boundaries(self, tmp_path, monkeypatch):
        """Cuts the block reader must get right, each read as the
        reference reads it: a lone-CR listing longer than one block,
        which is one block grown to the whole file; trailing "#" lines
        over two blocks; a block that ends on a step line, also where
        that step line ends the file.  And a bad step line in the first
        block with a byte that is not UTF-8 in a later one reports the
        byte, as decoding the whole text first does."""
        emb = counting.extremal_family(3)
        g, text = _gen_text(emb, treegen.tiebreak_prefer("pof"))
        lines = text.splitlines()
        path = tmp_path / "l.txt"

        def blocks(text, size):
            monkeypatch.setattr(cli, "_BLOCK", size)
            return list(cli._file_blocks(_write(path, text)))

        cr = "\r".join(lines) + "\r"
        assert len(cr) > 4 * 16 and blocks(cr, 16) == [lines]
        masks, pairs = self._read_all(g, cr, path, 16, monkeypatch)[0]
        assert len(masks) == 21 == len(pairs) + 1

        tail = text + "# one\n#\n# three\n\n# five\n"
        assert sum(any(line[:1] == "#" for line in b) for b in blocks(tail, 16)) >= 2
        assert self._read_all(g, tail, path, 16, monkeypatch)[1]

        size = len(lines[0]) + len(lines[1]) + 2
        assert blocks(text, size)[0] == lines[:2]
        assert self._read_all(g, text, path, size, monkeypatch)[1]
        cut = lines[0] + "\n" + lines[1] + "\n"
        assert blocks(cut, size) == [lines[:2]]
        assert self._read_all(g, cut, path, size, monkeypatch)[0] == \
            ("line 2: trailing step line without a following tree", 2)

        data = ("\n".join(lines[:3] + ["- 1 +"] + lines[4:]) + "\n").encode() + b"\xff\n"
        path.write_bytes(data)
        monkeypatch.setattr(cli, "_BLOCK", 16)
        line = len(lines) + 1
        assert _read_outcome(_batches_read, path, g.m) == \
            (f"line {line}: cannot read {path}: byte 0xff is not UTF-8", line)

    def test_seeded_mutants_read_alike(self, tmp_path, monkeypatch):
        """About 2,000 seeded mutants of small gen listings, and a few of
        the m=22 strip's: CR LF line ends, surrounding spaces, blank and
        "#" lines, step labels 0, m + 1, 07, +1, -1 and 5,000 digits,
        junk flag text, stray or replaced characters, and cut,
        duplicated, swapped and deleted lines; each read in blocks of a
        seeded 1 to 40 bytes (4,096 for the strip)."""
        rng = random.Random(19)
        bases = [_gen_text(self._strip(m), tiebreak)
                 for m in (2, 3, 7, 8)
                 for tiebreak in (treegen.tiebreak_closest, treegen.tiebreak_prefer("pof"))]
        bases += [_gen_text(emb, treegen.tiebreak_closest)
                  for emb in itertools.islice(counting.enumerate_outerplane(7), 0, None, 10)]
        stray = "01-+#_ x\t\u0661[]"

        def mutant(g, text):
            lines = text.splitlines()
            for _ in range(rng.randrange(1, 3)):
                steps = [i for i, line in enumerate(lines) if len(line.split()) >= 4]
                i = rng.randrange(len(lines))
                kind = rng.randrange(11)
                if kind == 0:
                    lines[i] = rng.choice((" ", "\t")) + lines[i]
                elif kind == 1:
                    lines[i] += rng.choice((" ", "  \t"))
                elif kind == 2:
                    lines.insert(i, rng.choice(("", "   ", "#", "# note")))
                elif kind in (3, 4) and steps:
                    k = rng.choice(steps)
                    parts = lines[k].split()
                    if kind == 3:
                        j = rng.choice((1, 3))
                        parts[j] = rng.choice(("0", str(g.m + 1), "0" + parts[j], "+1",
                                               "-1", "9" * 5000, "\u0661"))
                    else:
                        parts[4:] = rng.choice(([], ["[junk]"], ["x", "y"], ["[pivot,face]"]))
                    lines[k] = " ".join(parts)
                elif kind == 5:
                    lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
                elif kind == 6:
                    lines.insert(i, lines[i])
                elif kind == 7:
                    j = rng.randrange(len(lines))
                    lines[i], lines[j] = lines[j], lines[i]
                elif kind == 8:
                    del lines[i]
                    if not lines:
                        break
                else:
                    # kind 9 inserts a stray character, kind 10 puts one in place of another
                    j = rng.randrange(len(lines[i]) + 1)
                    rest = j + 1 if kind == 10 else j
                    lines[i] = lines[i][:j] + rng.choice(stray) + lines[i][rest:]
            newline = "\r\n" if rng.random() < 0.2 else "\n"
            return "".join(line + newline for line in lines)

        sizes = random.Random(20)
        path = tmp_path / "l.txt"
        seen = collections.Counter()    # (read in bulk, read without error)
        for n in range(2000):
            g, text = bases[n % len(bases)]
            outcome, bulk = self._read_all(g, mutant(g, text), path, sizes.randrange(1, 41),
                                           monkeypatch)
            seen[bulk, isinstance(outcome[0], list)] += 1
        g, text = _gen_text(self._strip(22), treegen.tiebreak_prefer("pof"))
        for _ in range(8):
            outcome, bulk = self._read_all(g, mutant(g, text), path, 4096, monkeypatch)
            seen[bulk, isinstance(outcome[0], list)] += 1
        # a bulk read never fails; the line reader both read and refused
        assert seen[True, False] == 0
        assert min(seen[True, True], seen[False, True], seen[False, False]) > 100, seen


class TestCount:
    def test_fan(self, fan_file):
        rc, out = run(["count", fan_file])
        assert rc == 0
        assert out.splitlines() == ["t(matrix-tree)=21",
                                    "t(deletion-contraction)=21"]

    def test_fib_line(self, fan_file):
        rc, out = run(["count", fan_file, "--fib"])
        assert rc == 0
        assert out.splitlines()[-1] == \
            "t=21 bound=f_8=21 equality=yes predicate=yes"

    def test_fib_runs_the_determinant_once(self, fan_file, monkeypatch):
        """The Fibonacci check counts by series-parallel reduction, so
        `count --fib` prints three independent counts and one of them is
        the determinant."""
        calls = []
        determinant = counting.count_matrix_tree
        monkeypatch.setattr(counting, "count_matrix_tree",
                            lambda g: calls.append(g) or determinant(g))
        rc, out = run(["count", fan_file, "--fib"])
        assert rc == 0
        assert out.splitlines()[-1].startswith("t=21 ")
        assert len(calls) == 1

    def test_mismatch_exits_1_before_fib(self, fan_file, monkeypatch):
        """Counts that disagree end stdout with the mismatch line, exit 1
        and print no Fibonacci line."""
        cross_check = counting.count_del_contract
        monkeypatch.setattr(counting, "count_del_contract",
                            lambda g, states: cross_check(g, states) + 1)
        rc, out = run(["count", fan_file, "--fib"])
        assert rc == 1
        assert out.splitlines() == ["t(matrix-tree)=21",
                                    "t(deletion-contraction)=22",
                                    "count mismatch between methods"]
        assert "bound=" not in out

    @pytest.mark.parametrize("states", [None, 3], ids=["checked", "skipped"])
    def test_fib_count_mismatch_exits_1(self, tmp_path, monkeypatch, states):
        """The Fibonacci line's series-parallel count is compared with the
        determinant, also when the cross-check is skipped.  The 5-cycle
        is below its bound, so a count one too high certifies."""
        p = tmp_path / "c5.txt"
        p.write_text("5 5\nouter: 0 1 2 3 4\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        reduction = counting.count_series_parallel
        monkeypatch.setattr(counting, "count_series_parallel",
                            lambda g: reduction(g) + 1)
        if states is not None:
            monkeypatch.setattr(cli, "_CROSS_CHECK_STATES", states)
        rc, out = run(["count", str(p), "--fib"])
        assert rc == 1
        cross_check = "5" if states is None else "skipped (over 3 states)"
        assert out.splitlines() == ["t(matrix-tree)=5",
                                    f"t(deletion-contraction)={cross_check}",
                                    "count mismatch between methods"]

    def test_nonouterplanar_counts_without_fib(self, tmp_path, monkeypatch):
        """--fib embeds first: a graph it refuses, K4 or a 10-cycle with
        no 'outer:' line, prints nothing and is never counted."""
        p = tmp_path / "k4.txt"
        p.write_text(K4)
        rc, out = run(["count", str(p)])
        assert rc == 0
        assert "t(matrix-tree)=16" in out

        def refuse(g, *args):
            raise AssertionError("counted a graph that --fib refuses")

        for name in ("count_matrix_tree", "count_del_contract",
                     "count_series_parallel"):
            monkeypatch.setattr(counting, name, refuse)
        assert run(["count", str(p), "--fib"]) == (2, "")
        p.write_text(TestSearchCap.CYCLE_10)
        assert run(["count", str(p), "--fib"]) == (2, "")

    def test_cross_check_budget(self, fan_file, monkeypatch):
        """Past its budget of memo states the deletion-contraction count
        is skipped, with no mismatch check; the other lines stay."""
        monkeypatch.setattr(cli, "_CROSS_CHECK_STATES", 3)
        rc, out = run(["count", fan_file, "--fib"])
        assert rc == 0
        assert out.splitlines() == [
            "t(matrix-tree)=21", "t(deletion-contraction)=skipped (over 3 states)",
            "t=21 bound=f_8=21 equality=yes predicate=yes"]

    @pytest.mark.slow
    def test_long_strip(self, tmp_path):
        """The m=3001 strip counts by both methods in seconds."""
        g = counting.extremal_family(1500).graph
        assert g.m == 3001
        p = tmp_path / "strip.txt"
        p.write_text(f"{g.n} {g.m}\nouter: {' '.join(map(str, range(g.n)))}\n"
                     + "".join(f"{u} {v}\n" for u, v in g.edges))
        start = time.perf_counter()
        rc, out = run(["count", str(p), "--fib"])
        elapsed = time.perf_counter() - start
        t = counting.fib(3002)
        assert rc == 0
        assert out.splitlines() == [
            f"t(matrix-tree)={t}", f"t(deletion-contraction)={t}",
            f"t={t} bound=f_3002={t} equality=yes predicate=yes"]
        assert elapsed < 15

    @pytest.mark.slow
    def test_random_graph_ends_within_budget(self, tmp_path):
        """A seeded outerplane multigraph whose deletion-contraction
        count needs over a million memo states."""
        g = random_outerplane_multigraph(63, random.Random(32))
        assert g.m == 97
        p = tmp_path / "random.txt"
        p.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        rc, out = run(["count", str(p)])
        assert rc == 0
        assert out.splitlines() == [
            f"t(matrix-tree)={counting.count_series_parallel(g)}",
            f"t(deletion-contraction)=skipped (over {cli._CROSS_CHECK_STATES} states)"]


class TestExperiment:
    def test_paf_stdout(self):
        rc, out = run(["experiment", "--kind", "paf", "--max-n", "4",
                       "--no-timings"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# experiment=paf")
        assert lines[1] == "graph=0 result=cyclic time=0"
        assert lines[-1] == "# summary cyclic=8 discrepancies=0"

    def test_out_file_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["experiment", "--kind", "pivot", "--max-n", "4",
             "--no-timings", "--out", str(p1)])
        run(["experiment", "--kind", "pivot", "--max-n", "4",
             "--no-timings", "--out", str(p2)])
        assert p1.read_text() == p2.read_text()
        assert p1.read_text().endswith("discrepancies=0\n")

    @pytest.mark.parametrize("n", ["-1", "1"])
    def test_max_n_below_two_rejected(self, n):
        rc, out = run(["experiment", "--kind", "paf", "--max-n", n])
        assert rc == 2
        assert "# summary" not in out

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, budget, capsys):
        """A budget under 1 would search nothing and report every graph
        unknown; it is a usage error instead."""
        rc, out = run(["experiment", "--kind", "pivot", "--max-n", "4",
                       "--budget", budget])
        assert rc == 2
        assert "# summary" not in out
        assert capsys.readouterr().err == f"error: experiment needs budget >= 1, got {budget}\n"

    def test_unwritable_out(self, tmp_path, capsys):
        """An --out path that cannot be written is an error, exit 2."""
        bad = str(tmp_path / "missing" / "x.txt")
        rc, out = run(["experiment", "--kind", "pivot", "--max-n", "3",
                       "--no-timings", "--out", bad])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == \
            f"error: cannot write {bad}: No such file or directory\n"

    def test_arborescence_ids_carry_roots(self):
        rc, out = run(["experiment", "--kind", "arborescence", "--max-n", "3",
                       "--no-timings"])
        assert rc == 0
        assert "graph=1r0 result=path time=0" in out


class TestFlip:
    def test_text(self, fan_file):
        rc, out = run(["flip", fan_file, "--restriction", "paf"])
        assert rc == 0
        assert out.splitlines()[0] == "nodes=21 edges=59 restriction=paf"

    def test_dot(self, tmp_path, fan_file):
        rc, out = run(["flip", fan_file, "--format", "dot"])
        assert rc == 0
        assert out.startswith("graph flip {")

    def test_out_file(self, tmp_path, fan_file):
        p = tmp_path / "fg.dot"
        rc, out = run(["flip", fan_file, "--format", "dot", "--out", str(p)])
        assert rc == 0
        assert p.read_text().startswith("graph flip {")

    def test_unwritable_out(self, tmp_path, fan_file, capsys):
        """An --out path that cannot be written is an error, exit 2."""
        bad = str(tmp_path / "missing" / "x.txt")
        rc, out = run(["flip", fan_file, "--out", bad])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == \
            f"error: cannot write {bad}: No such file or directory\n"

    def test_directed(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text(DIRECTED)
        rc, out = run(["flip", str(p), "--root-vertex", "0"])
        assert rc == 0
        assert out.splitlines()[0].startswith("nodes=1")
        rc, _ = run(["flip", str(p)])
        assert rc == 2

    def test_directed_refuses_restriction(self, tmp_path, capsys):
        """An arborescence flip graph has no exchange classes: any
        --restriction on a directed file exits 2."""
        p = tmp_path / "d.txt"
        p.write_text(DIRECTED)
        for restriction in ("pof", "any"):
            rc, out = run(["flip", str(p), "--root-vertex", "0",
                           "--restriction", restriction])
            assert (rc, out) == (2, "")
            assert capsys.readouterr().err == (
                "error: --restriction does not apply to directed input: "
                "arborescences flip by arc exchanges\n")

    @pytest.mark.parametrize("root", ["0", "5"])
    def test_undirected_refuses_root_vertex(self, fan_file, capsys, root):
        """--root-vertex roots arborescences only; on an undirected file
        it exits 2, in range or not."""
        rc, out = run(["flip", fan_file, "--root-vertex", root])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: --root-vertex does not apply to undirected input: "
            "it roots the arborescences of a directed one\n")

    def test_restriction_defaults_to_any(self, fan_file):
        assert run(["flip", fan_file]) == run(["flip", fan_file, "--restriction", "any"])
        assert run(["flip", fan_file])[1].splitlines()[0] == \
            "nodes=21 edges=76 restriction=any"

    def test_pivot_without_outer_ok(self, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text(K4)
        rc, out = run(["flip", str(p), "--restriction", "pivot"])
        assert rc == 0
        assert out.splitlines()[0] == "nodes=16 edges=48 restriction=pivot"
        rc, _ = run(["flip", str(p), "--restriction", "face"])
        assert rc == 2
