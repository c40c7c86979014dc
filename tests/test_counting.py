"""Exact counts, Fibonacci bounds, extremal families, the outerplane sweep."""

import hashlib
import random
import sys
import time
import tracemalloc

import pytest

from collections import Counter

from conftest import (bundle_graph, complete_graph, cube_graph, cycle_graph,
                      diamond_graph, fan_graph, k33_graph, loopy_triangle,
                      petersen_graph, random_outerplane_multigraph,
                      reference_chord_sets, reference_fib_predicate,
                      reference_del_contract, reference_matrix_tree,
                      triangle_with_parallel)
from spangray import counting, dualtree, embedgraph
from spangray.counting import (check_fib_bound, check_fib_product,
                               count_bruteforce, count_del_contract,
                               count_matrix_tree, count_series_parallel,
                               enumerate_outerplane, extremal_family, fib)
from spangray.embedgraph import MultiGraph, blocks, build_embedding
from spangray.errors import GraphError


class TestFib:
    def test_small_values(self):
        assert [fib(k) for k in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_large_value(self):
        assert fib(51) == 20365011074

    def test_refusals(self):
        with pytest.raises(GraphError, match="^negative Fibonacci index$"):
            fib(-1)
        with pytest.raises(GraphError, match="^indices must be >= 1$"):
            check_fib_product(0, 1)


KNOWN_COUNTS = [
    (fan_graph(), 21),
    (diamond_graph(), 8),
    (cycle_graph(5), 5),
    (bundle_graph(5), 5),
    (complete_graph(4), 16),
    (complete_graph(5), 125),
    (k33_graph(), 81),
    (loopy_triangle(), 3),
    (triangle_with_parallel(), 5),
    (MultiGraph(1, ()), 1),
    (MultiGraph(2, ((0, 1),)), 1),
]


class TestCounts:
    def test_known_values(self):
        for g, want in KNOWN_COUNTS:
            assert count_matrix_tree(g) == want

    def test_three_methods_agree(self):
        for g, want in KNOWN_COUNTS:
            assert count_del_contract(g) == want
            assert count_bruteforce(g) == want
            if g not in (complete_graph(4), complete_graph(5), k33_graph()):
                assert count_series_parallel(g) == want     # no K4 minor

    def test_disconnected_is_zero(self):
        g = MultiGraph(4, ((0, 1), (2, 3)))
        assert count_matrix_tree(g) == 0
        assert count_del_contract(g) == 0
        assert count_bruteforce(g) == 0
        assert count_series_parallel(g) == 0

    def test_random_multigraphs(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(2, 6)
            m = rng.randrange(n - 1, 9)
            edges = []
            for i in range(1, n):
                edges.append((rng.randrange(i), i))  # keep it connected
            while len(edges) < m:
                u, v = rng.randrange(n), rng.randrange(n)
                edges.append((min(u, v), max(u, v)))
            g = MultiGraph(n, tuple(edges))
            a = count_matrix_tree(g)
            assert a == count_del_contract(g) == count_bruteforce(g)

    def test_block_multiplicativity(self):
        bowtie = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        assert count_matrix_tree(bowtie) == 9
        prod = 1
        for b in blocks(bowtie):
            prod *= count_matrix_tree(b.graph)
        assert prod == 9
        chain = MultiGraph(6, ((0, 1), (1, 2), (0, 2), (2, 3),
                               (3, 4), (4, 5), (3, 5)))
        assert count_matrix_tree(chain) == 9  # bridge contributes factor 1

    @pytest.mark.parametrize("count", [count_matrix_tree, count_del_contract,
                                       count_bruteforce, count_series_parallel])
    def test_no_vertices_rejected(self, count):
        with pytest.raises(GraphError, match="^a graph needs at least one vertex$"):
            count(MultiGraph(0, ()))

    def test_bruteforce_guard(self):
        g = bundle_graph(21)
        with pytest.raises(GraphError):
            count_bruteforce(g)


class TestMatrixTree:
    """The sparse elimination against the dense reference."""

    def test_matches_reference_on_sweep(self):
        graphs = [emb.graph for emb in enumerate_outerplane(9)]
        assert len(graphs) == 292
        for g in graphs:
            assert count_matrix_tree(g) == reference_matrix_tree(g)

    def test_matches_reference_on_random_multigraphs(self):
        """Loops, parallels, isolated vertices, graphs that are
        disconnected with no isolated vertex, and n = 1."""
        rng = random.Random(29)
        seen = Counter()
        for _ in range(2000):
            n = rng.randrange(1, 13)
            edges = tuple((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randrange(31)))
            g = MultiGraph(n, edges)
            want = reference_matrix_tree(g)
            assert count_matrix_tree(g) == want, g
            ends = {x for u, v in edges if u != v for x in (u, v)}
            seen["loop"] += any(u == v for u, v in edges)
            seen["parallel"] += len({tuple(sorted(e)) for e in edges}) < len(edges)
            seen["single"] += n == 1
            seen["isolated"] += n > 1 and len(ends) < n
            seen["split"] += n > 1 and len(ends) == n and want == 0
            seen["nonzero"] += want > 0
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("g,want", [
        *((complete_graph(n), n ** (n - 2)) for n in range(2, 8)),   # Cayley
        (k33_graph(), 81), (cube_graph(), 384), (petersen_graph(), 2000)],
        ids=[*(f"K{n}" for n in range(2, 8)), "K33", "cube", "petersen"])
    def test_non_outerplane(self, g, want):
        assert count_matrix_tree(g) == reference_matrix_tree(g) == want

    def test_bound_past_the_prime_table(self, monkeypatch):
        """The prime must exceed the Hadamard bound: the triangle's is 4,
        under 2^3 - 1; K4's is 27."""
        monkeypatch.setattr(counting, "_MERSENNE_EXPONENTS", (2, 3))
        assert count_matrix_tree(cycle_graph(3)) == 3
        with pytest.raises(GraphError, match="^graph too large for the Matrix-Tree count$"):
            count_matrix_tree(complete_graph(4))

    def test_strips_are_fibonacci(self):
        sizes = []
        for k in (1, 2, 5, 30, 100, 250, 500):
            for digons in range(min(2, k) + 1):
                g = extremal_family(k, digons).graph
                assert count_matrix_tree(g) == fib(g.m + 1)
                sizes.append(g.m)
        assert max(sizes) == 1001

    def test_long_strip_is_sparse(self):
        """The m=1001 strip's elimination stays far below the 500 x 500
        slots, 2 MB of pointers, of one dense matrix of its minor."""
        g = extremal_family(500).graph
        assert g.m == 1001 and g.n - 1 == 501
        tracemalloc.start()
        try:
            count = count_matrix_tree(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == fib(1002)
        assert peak < 500 ** 2 * 8 // 4

    @pytest.mark.slow
    def test_strip_at_scale(self):
        """The m=10001 strip, with no modular inverse per pivot, counts
        in well under a second."""
        g = extremal_family(5000).graph
        assert g.m == 10001
        start = time.perf_counter()
        count = count_matrix_tree(g)
        elapsed = time.perf_counter() - start
        assert count == fib(10002)
        assert elapsed < 5


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDelContract:
    def test_matches_kirchhoff_on_random_multigraphs(self):
        """Loops, parallels and disconnected graphs, n <= 7."""
        rng = random.Random(41)
        seen = {"loop": 0, "parallel": 0, "zero": 0, "nonzero": 0}
        for _ in range(2000):
            n = rng.randrange(1, 8)
            edges = tuple((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randrange(12)))
            g = MultiGraph(n, edges)
            want = count_matrix_tree(g)
            assert count_del_contract(g) == want, g
            seen["loop"] += any(u == v for u, v in edges)
            seen["parallel"] += len({tuple(sorted(e)) for e in edges}) < len(edges)
            seen["zero" if want == 0 else "nonzero"] += 1
        assert min(seen.values()) >= 200, seen

    def test_matches_kirchhoff_on_sweep(self):
        graphs = [emb.graph for emb in enumerate_outerplane(9)]
        assert len(graphs) == 292
        for g in graphs:
            assert count_del_contract(g) == count_matrix_tree(g)

    def test_calls_no_other_counter(self, monkeypatch):
        def refuse(g):
            raise AssertionError("deletion-contraction called another counter")

        for name in ("count_matrix_tree", "count_series_parallel",
                     "count_bruteforce"):
            monkeypatch.setattr(counting, name, refuse)
        assert count_del_contract(fan_graph()) == 21
        assert count_del_contract(complete_graph(5)) == 125
        strip = extremal_family(20, 1).graph
        assert count_del_contract(strip) == fib(strip.m + 1)

    def test_no_recursion(self):
        strip = extremal_family(60).graph
        assert strip.m == 121
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 50)
        try:
            assert count_del_contract(strip) == fib(122)
        finally:
            sys.setrecursionlimit(limit)

    def test_gives_up_past_max_states(self):
        """The m=121 strip needs 358 memo states."""
        strip = extremal_family(60).graph
        assert count_del_contract(strip, 358) == fib(122)
        assert count_del_contract(strip, 357) is None

    def test_bridge_has_no_deleted_child(self):
        """A path on 5 vertices is four bridges: one state per vertex
        count, with no state in which a vertex is isolated."""
        path = MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        assert count_del_contract(path, 5) == 1
        assert count_del_contract(path, 4) is None
        assert reference_del_contract(path) == (1, 9)

    def test_counts_within_the_old_budget(self):
        """The bridge rule only drops states, so every graph counts within
        the states the search without it needed, to the same value: the
        sweep, seeded random multigraphs and every strip with m <= 121."""
        graphs = [emb.graph for emb in enumerate_outerplane(9)]
        rng = random.Random(43)
        for _ in range(2000):
            n = rng.randrange(1, 8)
            graphs.append(MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n))
                                              for _ in range(rng.randrange(12)))))
        strips = [extremal_family(k, d).graph for d in range(3)
                  for k in range(max(d, 1), 62) if 2 * k - d + 1 <= 121]
        assert max(g.m for g in strips) == 121 and len(strips) == 180
        for g in graphs + strips:
            want, states = reference_del_contract(g)
            assert count_del_contract(g, states) == want, g

    def test_long_strip_is_fibonacci(self):
        strip = extremal_family(500).graph
        assert strip.m == 1001
        assert count_del_contract(strip) == fib(1002)


class TestDisconnectedIsCheap:
    @pytest.mark.parametrize("edges", [((0, 1),), ((0, 0),) * 100_000],
                             ids=["one-edge", "all-loops"])
    def test_no_matrix_for_a_disconnected_graph(self, edges):
        """100,000 vertices, too few edges or only loops: a determinant
        would allocate 10^10 entries."""
        g = MultiGraph(100_000, edges)
        tracemalloc.start()
        try:
            counts = [count(g) for count in (count_matrix_tree,
                                             count_del_contract,
                                             count_series_parallel)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == [0, 0, 0]
        assert peak < 32 * 2 ** 20


class TestSeriesParallel:
    def test_matches_kirchhoff_on_sweep(self):
        graphs = [emb.graph for emb in enumerate_outerplane(9)]
        assert len(graphs) == 292
        for g in graphs:
            assert count_series_parallel(g) == count_matrix_tree(g)

    def test_matches_kirchhoff_on_random_outerplane(self):
        rng = random.Random(23)
        for n in (2, 3, 4, 7, 12, 30, 60, 120, 200):
            for _ in range(2 if n >= 120 else 6):
                g = random_outerplane_multigraph(n, rng)
                build_embedding(g, range(n))     # outerplane on the circle
                assert count_series_parallel(g) == count_matrix_tree(g)

    def test_long_strip_is_fibonacci(self):
        g = extremal_family(1500).graph
        assert g.m == 3001
        assert count_series_parallel(g) == fib(3002)

    def test_edge_cases(self):
        assert count_series_parallel(MultiGraph(1, ())) == 1
        assert count_series_parallel(MultiGraph(1, ((0, 0), (0, 0)))) == 1
        looped = MultiGraph(5, fan_graph().edges + ((0, 0), (3, 3), (3, 3)))
        assert count_series_parallel(looped) == 21
        assert count_series_parallel(MultiGraph(5, complete_graph(4).edges)) == 0
        for g in (complete_graph(4), complete_graph(5), k33_graph()):
            with pytest.raises(GraphError):
                count_series_parallel(g)


class TestFibBound:
    def test_fan_line(self):
        rep = check_fib_bound(build_embedding(fan_graph(), (0, 1, 2, 3, 4)))
        assert rep.line() == "t=21 bound=f_8=21 equality=yes predicate=yes"
        assert rep.certified

    def test_cycle_line(self):
        rep = check_fib_bound(build_embedding(cycle_graph(4), (0, 1, 2, 3)))
        assert rep.line() == "t=4 bound=f_5=5 equality=no predicate=no"

    def test_digon_strip(self):
        emb = build_embedding(triangle_with_parallel(), (0, 1, 2))
        rep = check_fib_bound(emb)
        assert rep.count == 5 and rep.bound == fib(5)
        assert rep.equality and rep.predicate

    def test_digon_off_outer_face_not_extremal(self):
        # triangle with the middle spoke doubled: the digon only meets
        # inner faces, so equality must fail
        g = MultiGraph(4, ((0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (0, 3)))
        rep = check_fib_bound(build_embedding(g, (0, 1, 2, 3)))
        assert not rep.equality and not rep.predicate

    def test_equality_iff_on_sweep(self):
        for emb in enumerate_outerplane(8):
            rep = check_fib_bound(emb)
            assert rep.count <= rep.bound
            assert rep.equality == rep.predicate, emb.graph.edges

    @staticmethod
    def _embeddings():
        """The m <= 10 sweep, the strips of fewer than 40 faces, 3,000
        seeded random outerplane multigraphs (one in three with a loop
        added), the bowtie and one vertex."""
        yield from enumerate_outerplane(10)
        for k in range(1, 40):
            for d in range(min(k, 2) + 1):
                yield extremal_family(k, d)
        rng = random.Random(24)
        for i in range(3000):
            n = rng.randrange(2, 13)
            g = random_outerplane_multigraph(n, rng)
            if i % 3 == 0:
                v = rng.randrange(n)
                g = MultiGraph(n, g.edges + ((v, v),))
            yield build_embedding(g, tuple(range(n)))
        bowtie = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        yield build_embedding(bowtie, (4, 3, 2, 1, 0))
        yield build_embedding(MultiGraph(1, ()), (0,))

    def test_predicate_equals_reference(self):
        """One pass over the inner faces decides what the five separate
        tests of the reference decide."""
        total = holds = 0
        for emb in self._embeddings():
            rep = check_fib_bound(emb)
            assert rep.predicate == reference_fib_predicate(emb), emb.graph.edges
            total += 1
            holds += rep.predicate
        assert (total, holds) == (3900, 525)

    def test_predicate_builds_no_weak_dual(self, monkeypatch):
        """No weak dual, no triangulation test, and no connectivity test
        but the one the series-parallel count makes of the graph."""
        def refuse(*args, **kwargs):
            raise AssertionError("check_fib_bound left its one pass")

        cases = ((extremal_family(6, 1), True), (extremal_family(1, 1), True),
                 (build_embedding(cycle_graph(4), (0, 1, 2, 3)), False))
        monkeypatch.setattr(dualtree, "weak_dual", refuse)
        monkeypatch.setattr(embedgraph, "is_triangulation", refuse)
        monkeypatch.setattr(counting, "is_triangulation", refuse)
        connected = MultiGraph.is_connected
        seen = []
        monkeypatch.setattr(MultiGraph, "is_connected",
                            lambda g: seen.append(g) or connected(g))
        for emb, predicate in cases:
            assert check_fib_bound(emb).predicate == predicate
            assert seen == [emb.graph]
            seen.clear()
        assert not hasattr(counting, "_is_path_graph")
        assert not hasattr(counting, "weak_dual")

    def test_product_inequality(self):
        for i in range(1, 13):
            for j in range(1, 13):
                check_fib_product(i, j)


class TestExtremalFamily:
    def test_shapes(self):
        for k, d in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 0), (4, 2)):
            emb = extremal_family(k, digon_ends=d)
            g = emb.graph
            assert g.m == 2 * k + 1 - d
            assert len(emb.inner_faces()) == k
            rep = check_fib_bound(emb)
            assert rep.equality and rep.predicate

    def test_strip_50_edges(self):
        emb = extremal_family(25, digon_ends=1)
        g = emb.graph
        assert g.n == 26 and g.m == 50
        assert count_matrix_tree(g) == fib(51) == 20365011074

    def test_pure_bundle(self):
        emb = extremal_family(2, digon_ends=2)
        assert emb.graph.n == 2 and emb.graph.m == 3

    def test_bad_args(self):
        with pytest.raises(GraphError):
            extremal_family(1, digon_ends=2)
        with pytest.raises(GraphError):
            extremal_family(0)
        with pytest.raises(GraphError, match="^digon_ends must be 0, 1, or 2$"):
            extremal_family(3, 3)


class TestEnumeration:
    def test_frozen_counts(self):
        assert sum(1 for _ in enumerate_outerplane(5)) == 13
        assert sum(1 for _ in enumerate_outerplane(7, triangulations_only=True)) == 28
        assert sum(1 for _ in enumerate_outerplane(6, simple=True)) == 7

    @pytest.mark.parametrize("max_m,kw,count,digest", [
        (9, {}, 292, "c280a9d1e687cc243a77887dda9a1d8754869902fd08a7597c6c1cb6cb3d1e8b"),
        (8, {"triangulations_only": True}, 49,
         "99503cf05be8c3fe5d0d89f33e1c02673678bc2449a5ddc41134fe13720851a3"),
        (8, {"simple": True}, 17,
         "b10f6e503ff649f62f1fe9a1b9b1303c6aa9288389a1244a0bfddfc6da34afcb"),
        # pinned when the chord sets got their size bound
        (10, {}, 782, "09f9b6a9643c6088b161b1cc0bc0750ab1094ac217d6a14cbb1e11b035b19d44"),
        (9, {"simple": True}, 30,
         "3957179a240a06541d7b020bd5d30d9ca75b1f98fa7311930257afdea6b9229e"),
        (10, {"triangulations_only": True}, 199,
         "ba46ed25f139f5fd557facbb766eb0bf6b965dfbc64275da237deff1177f138d"),
    ])
    def test_pinned_sequence(self, max_m, kw, count, digest):
        """The order of the sweep, as first written with a composition
        walk per total and a two-branch dihedral minimum."""
        seq = [(e.graph.n, e.graph.edges, e.outer_order)
               for e in enumerate_outerplane(max_m, **kw)]
        assert len(seq) == count
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest

    def test_chord_sets_equal_reference(self):
        """The bounded build gives the unbounded one's sets of at most
        ``max_size`` chords, in its order, for every bound up to past
        the n - 3 chords of a triangulation."""
        for n in range(3, 10):
            every = reference_chord_sets(n)
            for max_size in range(n - 1):
                assert (counting._chord_sets(n, max_size)
                        == [s for s in every if len(s) <= max_size]), (n, max_size)

    def test_all_two_connected_outerplane(self):
        from spangray.dualtree import split_dual
        for emb in enumerate_outerplane(7):
            g = emb.graph
            assert g.is_connected()
            bl = blocks(g)
            assert len(bl) == 1 and bl[0].graph.n == g.n
            split_dual(emb)  # raises if the weak dual is not a tree

    def test_triangulation_filter(self):
        from spangray.embedgraph import is_triangulation
        for emb in enumerate_outerplane(7, triangulations_only=True):
            assert is_triangulation(emb, multi=True)

    def test_simple_filter(self):
        for emb in enumerate_outerplane(7, simple=True):
            g = emb.graph
            assert len(set(g.edges)) == g.m
            assert not g.loop_edges()

    def test_no_duplicate_invariants(self):
        """Weak sanity against double counting: (n, m, t, degree
        multiset, face length multiset) collides only rarely; we pin
        the exact histogram size for m <= 6."""
        seen = {}
        for emb in enumerate_outerplane(6):
            g = emb.graph
            key = (g.n, g.m, count_matrix_tree(g),
                   tuple(sorted(g.degree(v) for v in range(g.n))),
                   tuple(sorted(f.length for f in emb.inner_faces())))
            seen[key] = seen.get(key, 0) + 1
        assert sum(seen.values()) == 25
        dupes = {k: c for k, c in seen.items() if c > 1}
        assert not dupes, dupes
