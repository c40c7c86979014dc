"""Acceptance gate: ten checks, one test per criterion.

Every test prints exactly one "criterion N: PASS/FAIL" line (visible
with -rP or -s); the pytest -v status line per test carries the same
verdict.  Timing limits are pinned inside the tests that have them.
"""

import functools
import io
import random
import time

import pytest

from conftest import (bundle_graph, complete_graph, cycle_graph,
                      diamond_graph, fan_graph, k33_graph, loopy_triangle,
                      reference_spanning_trees, triangle_with_parallel,
                      wheel_graph)
from spangray.cli import entry
from spangray.counting import (check_fib_bound, check_fib_product,
                               count_bruteforce, count_del_contract,
                               count_matrix_tree, enumerate_outerplane,
                               extremal_family, fib)
from spangray.dualtree import (alternative_pof_exchange,
                               check_face_label_order,
                               check_vertex_label_chain, default_root_leaf,
                               dual_tree_labeling, orient_split_dual,
                               split_dual)
from spangray.embedgraph import EdgeLabeling, build_embedding, is_triangulation
from spangray.flipgraph import run_experiment
from spangray.treegen import (Exchange, SpanningTree, TieContext,
                              classify_exchange, greedy_listing,
                              random_spanning_tree, spanning_tree_from_labels,
                              tiebreak_closest, tiebreak_prefer,
                              tiebreak_random, valid_exchanges,
                              verify_genlex_masks)

FAN_FILE_TEXT = "5 7\nouter: 0 1 2 3 4\n0 1\n1 2\n0 2\n2 3\n0 3\n3 4\n0 4\n"


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL ({label})")
                raise
            print(f"criterion {num}: PASS ({label})")
        return wrapper
    return deco


def _labelings_by_root(emb):
    sd = split_dual(emb)
    for root in sd.leaves():
        yield dual_tree_labeling(orient_split_dual(sd, root))


def _initial_trees(g, labeling):
    """Every spanning tree, expressed in the labeling's label space."""
    for t in reference_spanning_trees(g):
        labels = [labeling.label(e) for e in range(g.m) if t.mask >> e & 1]
        yield spanning_tree_from_labels(g, labeling, labels)


def _edges_share_vertex(g, labeling, ex):
    a = g.edges[labeling.edge(ex.removed)]
    b = g.edges[labeling.edge(ex.added)]
    return len(set(a) & set(b)) > 0


@criterion(1, "fan regression through the CLI, closest ties are paf")
def test_criterion_01_fan_regression(tmp_path):
    p = tmp_path / "fan.txt"
    p.write_text(FAN_FILE_TEXT)
    buf = io.StringIO()
    t0 = time.perf_counter()
    rc = entry(["gen", str(p), "--tiebreak", "closest"], out=buf)
    elapsed = time.perf_counter() - t0
    assert rc == 0
    lines = buf.getvalue().splitlines()
    chis = [l for l in lines if set(l) <= {"0", "1"}]
    assert len(chis) == 21
    assert len(set(chis)) == 21
    summary = lines[-1]
    assert "genlex=yes" in summary
    assert "complete=yes" in summary
    assert "all-paf=yes" in summary
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"


@criterion(2, "frozen exchange set of one fan tree and its closest tie")
def test_criterion_02_exchange_set():
    g = fan_graph()
    lab = EdgeLabeling.identity(7)
    t = spanning_tree_from_labels(g, lab, [1, 2, 5, 6])
    got = {ex.pair() for ex in valid_exchanges(g, lab, t)}
    assert got == {(1, 3), (2, 3), (1, 4), (2, 4), (4, 5), (5, 7), (6, 7)}
    ties = tuple(ex for ex in valid_exchanges(g, lab, t) if ex.larger == 4)
    ctx = TieContext(g, lab, None, t.mask, ties)
    assert tiebreak_closest(ctx).pair() == (2, 4)


@criterion(3, "all m<=9 triangulations, every root and initial tree: "
              "complete genlex all-pivot listings")
def test_criterion_03_triangulation_sweep():
    t0 = time.perf_counter()
    graphs = runs = 0
    for emb in enumerate_outerplane(9, triangulations_only=True):
        g = emb.graph
        expected = count_matrix_tree(g)
        graphs += 1
        for lab in _labelings_by_root(emb):
            rule = tiebreak_prefer("pivot")
            for init in _initial_trees(g, lab):
                listing = greedy_listing(g, labeling=lab, embedding=emb,
                                         initial=init, tiebreak=rule,
                                         check=False, classify=False)
                masks = listing.tree_masks
                assert len(masks) == expected
                assert len(set(masks)) == expected
                assert verify_genlex_masks(masks, g.m)
                for ex, _ in listing.steps:
                    assert _edges_share_vertex(g, lab, ex)
                runs += 1
    elapsed = time.perf_counter() - t0
    assert graphs == 98 and runs == 11988
    assert elapsed < 600, f"took {elapsed:.1f}s, limit 600s"


@criterion(4, "all m<=9 outerplane multigraphs, every root and initial "
              "tree: complete genlex all-pof listings")
def test_criterion_04_outerplane_sweep():
    graphs = runs = 0
    for emb in enumerate_outerplane(9):
        g = emb.graph
        expected = count_matrix_tree(g)
        graphs += 1
        for lab in _labelings_by_root(emb):
            rule = tiebreak_prefer("pof")
            for init in _initial_trees(g, lab):
                listing = greedy_listing(g, labeling=lab, embedding=emb,
                                         initial=init, tiebreak=rule,
                                         check=False, classify=False)
                masks = listing.tree_masks
                assert len(masks) == expected
                assert len(set(masks)) == expected
                assert verify_genlex_masks(masks, g.m)
                for ex, _ in listing.steps:
                    cls = classify_exchange(emb, lab, ex)
                    assert cls.pof
                runs += 1
    assert graphs == 292 and runs == 46417


@criterion(5, "1000 random labeling/initial/tie-break triples per pool "
              "graph stay complete and genlex")
def test_criterion_05_random_robustness():
    pool = [fan_graph(), diamond_graph(), cycle_graph(4), complete_graph(4),
            k33_graph(), wheel_graph(4), bundle_graph(4), loopy_triangle(),
            triangle_with_parallel()]
    assert all(g.m <= 9 for g in pool)
    rng = random.Random(20260815)
    for g in pool:
        expected = count_matrix_tree(g)
        for _ in range(1000):
            lab = EdgeLabeling.shuffled(g.m, rng)
            init = random_spanning_tree(g, lab, rng)
            rule = rng.choice([tiebreak_closest, tiebreak_random(rng)])
            listing = greedy_listing(g, labeling=lab, initial=init,
                                     tiebreak=rule, check=False,
                                     classify=False)
            masks = listing.tree_masks
            assert len(masks) == expected
            assert len(set(masks)) == expected
            assert verify_genlex_masks(masks, g.m)


@criterion(6, "matrix-tree = deletion-contraction = brute force on the "
              "m<=10 sweep and the named graphs")
def test_criterion_06_counting_equivalence():
    assert count_matrix_tree(diamond_graph()) == 8
    assert count_matrix_tree(fan_graph()) == 21
    for m in range(2, 11):
        assert count_matrix_tree(bundle_graph(m)) == m
    checked = 0
    for emb in enumerate_outerplane(10):
        g = emb.graph
        a = count_matrix_tree(g)
        assert a == count_del_contract(g) == count_bruteforce(g)
        checked += 1
    assert checked == 782


@criterion(7, "Fibonacci bound with exact equality predicate on the m<=9 "
              "sweep; product inequality for i,j <= 30")
def test_criterion_07_fib_bound():
    for emb in enumerate_outerplane(9):
        rep = check_fib_bound(emb)
        assert rep.count <= rep.bound
        assert rep.equality == rep.predicate, emb.graph.edges
        assert rep.certified
    for i in range(1, 31):
        for j in range(1, 31):
            check_fib_product(i, j)  # raises on any violation
    assert fib(51) == 20365011074


@criterion(8, "labeling invariants hold at every root; alternative exchange "
              "is pof with smaller label everywhere (m<=8)")
def test_criterion_08_invariant_suite():
    for emb in enumerate_outerplane(9):
        sd = split_dual(emb)
        for root in sd.leaves():
            osd = orient_split_dual(sd, root)
            lab = dual_tree_labeling(osd)
            assert check_face_label_order(osd, lab).ok
            assert check_vertex_label_chain(osd, lab).ok
    checked = 0
    for emb in enumerate_outerplane(8):
        g = emb.graph
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        lab = dual_tree_labeling(osd)
        tri = is_triangulation(emb, multi=True)
        for tree in reference_spanning_trees(g):
            labels = frozenset(lab.label(e) for e in range(g.m)
                               if tree.mask >> e & 1)
            st = spanning_tree_from_labels(g, lab, labels)
            for ex in valid_exchanges(g, lab, st):
                ld, lf = alternative_pof_exchange(osd, lab, labels, ex)
                assert lf == ex.larger and ld < lf
                cls = classify_exchange(emb, lab,
                                        Exchange(removed=ld, added=lf))
                assert cls.pof
                if tri:
                    assert cls.pivot
                checked += 1
    assert checked > 10000


@criterion(9, "desk-scale experiments: pivot and paf cycles, "
              "arborescence paths, no none/unknown in range")
def test_criterion_09_experiments():
    rep = run_experiment("pivot", 5)
    assert rep.discrepancies == ()
    assert {r.result for r in rep.records} == {"cyclic"}
    rep = run_experiment("paf", 5)
    assert rep.discrepancies == ()
    assert {r.result for r in rep.records} == {"cyclic"}
    rep = run_experiment("arborescence", 4)
    assert rep.discrepancies == ()
    assert {r.result for r in rep.records} == {"path"}


@criterion(10, "at least 10^5 trees/second on the 50-edge strip")
def test_criterion_10_throughput():
    emb = extremal_family(25, digon_ends=1)
    g = emb.graph
    assert g.m == 50
    sd = split_dual(emb)
    lab = dual_tree_labeling(orient_split_dual(sd, default_root_leaf(sd)))
    target = 30000
    t0 = time.perf_counter()
    listing = greedy_listing(g, labeling=lab, max_trees=target,
                             check=False, classify=False)
    elapsed = time.perf_counter() - t0
    assert len(listing.tree_masks) == target
    rate = target / elapsed
    assert verify_genlex_masks(listing.tree_masks, g.m)
    assert rate >= 10 ** 5, f"{rate:.0f} trees/s is below 10^5"
