"""Tests of the benchmark itself: its input generator, the traced mode
and the metric names it reports."""

import gc
import io
import json
import random
import re
import weakref
from pathlib import Path

import pytest

import run
import workloads
from inputs import check_outerplane, graph_text, random_outerplane
from tracer import Tracer

FAN = "5 7\nouter: 0 1 2 3 4\n0 1\n1 2\n0 2\n2 3\n0 3\n3 4\n0 4\n"
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", (3, 8, 60))
def test_generator_yields_two_connected_outerplane(seed, n):
    sg = workloads.modules()
    chords, parallels = (n - 3) // 2, 2
    n_out, edges, outer = random_outerplane(n, chords, parallels, random.Random(seed))
    assert n_out == n and len(edges) == n + chords + parallels
    check_outerplane(sg.embedgraph, n, edges, outer)
    parsed = sg.embedgraph.parse_graph(graph_text(n, edges, outer))
    assert parsed.outer == outer and parsed.graph.edges == edges
    bl = sg.embedgraph.blocks(parsed.graph)
    assert len(bl) == 1 and bl[0].graph.n == n


def test_generator_is_seeded():
    a = random_outerplane(30, 10, 3, random.Random(7))
    assert a == random_outerplane(30, 10, 3, random.Random(7))
    assert a != random_outerplane(30, 10, 3, random.Random(8))


def _gen(sg, path):
    buf = io.StringIO()
    assert sg.cli.entry(["gen", str(path), "--tiebreak", "prefer-pof"], out=buf) == 0
    return buf.getvalue()


def test_traced_gen_output_is_byte_identical(tmp_path):
    path = tmp_path / "fan.txt"
    path.write_text(FAN)
    sg = workloads.modules()
    entry, classify = sg.cli.entry, sg.treegen.classify_exchange
    plain = _gen(sg, path)
    with Tracer(sg) as tr:
        traced = _gen(sg, path)
        assert sg.cli.entry is not entry
    assert traced == plain
    assert sg.cli.entry is entry and sg.treegen.classify_exchange is classify
    assert tr.calls["cli.entry"] == 1
    assert tr.calls["treegen.greedy_listing"] == 1
    assert tr.counts["treegen.trees"] == 21       # the fan has 21 spanning trees
    # 21 tree lines, 20 step lines, and the next() that ends the generator
    assert tr.calls["Listing.render_lines"] == 42


def test_metric_names_are_well_formed():
    names = [m["name"] for sec in ("end_to_end", "per_layer") for m in SPEC[sec]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_per_layer_metrics_match_the_tracer():
    produced = set(Tracer(workloads.modules()).layer_metrics(1)) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_metrics_match_the_runner():
    produced = set(run.PER_PASS) | {"setup_s", "listing_ms.p50", "listing_ms.p90",
                                    "peak_rss_mib"}
    assert produced == {m["name"] for m in SPEC["end_to_end"]}


def test_graph_files_of_dropped_embeddings_stay_distinct(tmp_path):
    """Files are keyed by id(embedding), and a plan keeps no other
    reference to most embeddings, so the builder must keep each one
    alive: a freed one's id could be reused by a later, different graph,
    which would then be given the earlier graph's file."""
    sg = workloads.modules()
    b = workloads._Builder(sg, str(tmp_path), 0)
    emb = sg.counting.extremal_family(3, 0)
    first = b.emb_file(emb)
    ref = weakref.ref(emb)
    del emb
    gc.collect()
    assert ref() is not None
    other = sg.counting.extremal_family(4, 0)
    second = b.emb_file(other)
    assert second != first
    assert Path(second).read_text().split()[1] == str(other.graph.m)
