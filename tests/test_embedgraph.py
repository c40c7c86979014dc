"""Graph container, parsing, circle embeddings, blocks."""

import random
import re

import pytest

from conftest import (bundle_graph, cycle_graph, diamond_graph, fan_graph,
                      loopy_triangle, random_outerplane_multigraph,
                      reference_embedding, triangle_with_parallel)
from spangray.counting import enumerate_outerplane
from spangray.dualtree import default_root_leaf, split_dual
from spangray.embedgraph import (EdgeLabeling, MultiGraph, _check_crossings,
                                 blocks, build_embedding, is_triangulation,
                                 parse_graph)
from spangray.errors import (EmbeddingError, GraphError, NotTwoConnectedError,
                             ParseError)


class TestMultiGraph:
    def test_basics(self, fan):
        assert fan.n == 5 and fan.m == 7
        assert fan.degree(0) == 4
        assert fan.other_end(0, 0) == 1 and fan.other_end(0, 1) == 0

    def test_loops_and_parallels(self):
        g = loopy_triangle()
        assert g.is_loop(3)
        assert g.loop_edges() == (3,)
        assert g.degree(1) == 2  # loop ends do not count
        assert triangle_with_parallel().m == 4

    def test_bad_edges(self):
        with pytest.raises(GraphError):
            MultiGraph(2, ((0, 2),))

    def test_other_end_of_a_stranger(self):
        with pytest.raises(GraphError, match="^vertex 2 is not an endpoint of edge 0$"):
            MultiGraph(3, ((0, 1), (1, 2))).other_end(0, 2)

    def test_connectivity(self):
        assert fan_graph().is_connected()
        assert not MultiGraph(3, ((0, 1),)).is_connected()
        assert MultiGraph(1, ()).is_connected()

    def test_connectivity_matches_bfs(self):
        """``is_connected`` against a breadth-first search from vertex 0
        on n = 0, n = 1 and seeded multigraphs with loops, parallel edges
        and isolated vertices."""
        def bfs_connected(g):
            seen, queue = {0}, [0]
            for v in queue:
                for u, w in g.edges:
                    for a, b in ((u, w), (w, u)):
                        if a == v and b not in seen:
                            seen.add(b)
                            queue.append(b)
            return len(seen) == g.n

        assert MultiGraph(0, ()).is_connected()
        assert MultiGraph(1, ((0, 0), (0, 0))).is_connected()
        rng = random.Random(21)
        verdicts = []
        for _ in range(400):
            n = rng.randrange(1, 9)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
            edges += rng.sample(edges, min(2, len(edges)))      # parallel edges
            g = MultiGraph(n, tuple(edges))
            assert g.is_connected() == bfs_connected(g), g
            verdicts.append(g.is_connected())
        assert 50 <= sum(verdicts) <= 350

    def test_is_spanning_tree(self, fan):
        assert fan.is_spanning_tree((0, 1, 3, 5))
        assert not fan.is_spanning_tree((0, 1, 2, 3))  # cycle 0-1-2
        assert not fan.is_spanning_tree((0, 1, 3))  # too few
        assert not fan.is_spanning_tree((0, 0, 1, 3))  # repeat
        g = loopy_triangle()
        assert not g.is_spanning_tree((0, 3))  # loop never helps

    def test_joining_edges_in_order(self, fan):
        # edge 2 closes the cycle 0-1-2, the second 3 repeats
        assert fan.joining_edges([0, 1, 2, 3, 3]) == [0, 1, 3]
        assert fan.joining_edges([6, 5, 4]) == [6, 5]
        assert loopy_triangle().joining_edges([3, 0]) == [0]

    @pytest.mark.parametrize("ids", [(0, 1, 3, -2), (0, 1, 3, 7), (0, 1, 3, 5, 9)])
    def test_edge_ids_out_of_range(self, fan, ids):
        with pytest.raises(GraphError):
            fan.is_spanning_tree(ids)
        with pytest.raises(GraphError):
            fan.joining_edges(ids)


class TestEdgeLabeling:
    def test_identity_roundtrip(self):
        lab = EdgeLabeling.identity(5)
        for e in range(5):
            assert lab.label(e) == e + 1
            assert lab.edge(e + 1) == e

    def test_shuffled_is_permutation(self):
        import random
        lab = EdgeLabeling.shuffled(8, random.Random(7))
        assert sorted(lab.label_of) == list(range(1, 9))
        for e in range(8):
            assert lab.edge(lab.label(e)) == e

    def test_bad_labels(self):
        with pytest.raises(GraphError):
            EdgeLabeling((1, 1, 2))


class TestParseGraph:
    GOOD = "5 7\nouter: 0 1 2 3 4\n0 1\n1 2\n0 2\n2 3\n0 3\n3 4\n0 4\n"

    def test_good(self):
        p = parse_graph(self.GOOD)
        assert p.graph.n == 5 and p.graph.m == 7
        assert p.outer == (0, 1, 2, 3, 4)
        assert not p.directed

    def test_comments_and_blanks(self):
        p = parse_graph("# hello\n\n2 1 # inline\n\n0 1\n")
        assert p.graph.m == 1

    def test_directed_flag(self):
        p = parse_graph("2 2\ndirected\n0 1\n1 0\n")
        assert p.directed

    def test_errors(self):
        for text in ("", "x y\n", "2 1\n0 1\n0 1\n", "2 2\n0 1\n",
                     "2 1\n0 1 2\n", "2 1\nouter: 0\n0 1\n",
                     "2 1\n0 5\n"):
            with pytest.raises(ParseError):
                parse_graph(text)

    def test_error_carries_line(self):
        try:
            parse_graph("2 1\n0 zap\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize("text, line, message", [
        ("3 2\n0 1\n2 5\n", 3, "edge 1 endpoint out of range: (2, 5)"),
        ("3 1\n# c\n-1 0\n", 3, "edge 0 endpoint out of range: (-1, 0)"),
        ("3 1\nouter: 0 1\n0 1\n", 2, "outer order must list every vertex exactly once"),
        ("3 1\nouter: 0 1 1\n0 1\n", 2, "outer order must list every vertex exactly once"),
        ("3 1\nouter: 0 1 2\nouter: 0 2 1\n0 1\n", 3, "a second 'outer:' line"),
        ("3 1\n0 \u0663\n", 2, "edge endpoints must be integers"),
        ("3 1\n0 1_0\n", 2, "edge endpoints must be integers"),
        ("3 1\n+0 1\n", 2, "edge endpoints must be integers"),
        ("1_0 1\n0 1\n", 1, "expected integers in header 'n m'"),
        ("\u0663 1\n0 1\n", 1, "expected integers in header 'n m'"),
        ("3 1\nouter: 0 1 \u0662\n0 1\n", 2, "bad vertex in outer order"),
        ("3 1\n0 1" + "0" * 5000 + "\n", 2, "edge endpoints must be integers"),
    ])
    def test_errors_name_their_line(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_signed_and_padded_integers(self):
        p = parse_graph("03 2\nouter: 2 -0 1\n0 01\n1 2\n")
        assert (p.graph.n, p.graph.edges, p.outer) == (3, ((0, 1), (1, 2)), (2, 0, 1))


def crossing_pairs(g, pos):
    """Reference: every pair of edges that cross as chords between their
    outer positions, by testing all pairs (loops and chords sharing an
    end position never cross)."""
    n = g.n
    chords = [(e, pos[u], pos[v]) for e, (u, v) in enumerate(g.edges) if u != v]
    out = set()
    for i, (e1, a, b) in enumerate(chords):
        span = (b - a) % n
        for e2, c, d in chords[i + 1:]:
            if c in (a, b) or d in (a, b):
                continue
            if (0 < (c - a) % n < span) != (0 < (d - a) % n < span):
                out.add((e1, e2))
    return out


def sweep_verdict(g, pos):
    """The pair of edges _check_crossings names, or None if it passes."""
    try:
        _check_crossings(g, pos)
    except EmbeddingError as exc:
        e1, e2 = re.match(r"edges (\d+) \(.*?\) and (\d+) ", str(exc)).groups()
        return int(e1), int(e2)
    return None


class TestEmbedding:
    def test_fan_faces(self, fan_emb):
        inner = fan_emb.inner_faces()
        assert len(inner) == 3
        assert len(fan_emb.faces) == 4
        walks = sorted(tuple(sorted(f.edge_ids)) for f in inner)
        assert walks == [(0, 1, 2), (2, 3, 4), (4, 5, 6)]
        outer = fan_emb.faces[fan_emb.outer_face]
        assert sorted(outer.edge_ids) == [0, 1, 3, 5, 6]

    def test_euler(self):
        for g, order in ((fan_graph(), (0, 1, 2, 3, 4)),
                         (bundle_graph(4), (0, 1)),
                         (cycle_graph(6), tuple(range(6))),
                         (loopy_triangle(), (0, 1, 2))):
            emb = build_embedding(g, order)
            nonloop = g.m - len(g.loop_edges())
            assert g.n - nonloop + len(emb.faces) == 2

    def test_outer_edges(self, fan_emb):
        assert fan_emb.is_outer_edge(0)
        assert not fan_emb.is_outer_edge(2)
        assert not fan_emb.is_outer_edge(4)

    def test_crossing_rejected(self):
        g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)))
        with pytest.raises(EmbeddingError):
            build_embedding(g, (0, 1, 2, 3))

    def test_crossing_sweep_matches_pair_scan(self):
        """The stack sweep rejects exactly the chord sets that the pair
        scan finds a crossing in, and names a crossing pair: seeded
        random chord sets (parallels and loops included), and every
        2-connected outerplane multigraph with m <= 9 under its own
        order and under a seeded shuffled one."""
        rng = random.Random(21)
        cases = []
        for _ in range(3000):
            n = rng.randrange(1, 9)
            edges = tuple((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randrange(8)))
            cases.append((MultiGraph(n, edges), rng.sample(range(n), n)))
        for emb in enumerate_outerplane(9):
            g = emb.graph
            cases.append((g, list(range(g.n))))
            cases.append((g, rng.sample(range(g.n), g.n)))
        rejected = 0
        for g, pos in cases:
            want = crossing_pairs(g, pos)
            got = sweep_verdict(g, pos)
            assert (got is None) == (not want), (g, pos)
            assert got is None or got in want
            rejected += got is not None
        assert 500 < rejected < len(cases) - 500

    def test_bundle_faces(self):
        emb = build_embedding(bundle_graph(3), (0, 1))
        assert len(emb.inner_faces()) == 2
        assert all(f.length == 2 for f in emb.inner_faces())

    def test_disconnected_rejected(self):
        with pytest.raises((EmbeddingError, GraphError)):
            build_embedding(MultiGraph(3, ((0, 1),)), (0, 1, 2))

    def test_loops_have_no_darts(self):
        emb = build_embedding(loopy_triangle(), (0, 1, 2))
        for f in emb.faces:
            assert 3 not in f.edge_ids

    def test_bad_outer_order(self, fan):
        with pytest.raises((EmbeddingError, GraphError)):
            build_embedding(fan, (0, 1, 2, 3))

    @staticmethod
    def _seeded_multigraphs(rng):
        """Seeded outerplane multigraphs up to n = 90 with parallel edges
        and one to three loops, their vertices renamed by a seeded
        permutation that also orders the circle; every third one loses
        seeded edges, each while the rest stays connected, so it need not be
        2-connected.  As (graph, outer order) pairs."""
        out = []
        for n in list(range(1, 13)) * 4 + [20, 33, 47, 60, 75, 90] * 3:
            g = random_outerplane_multigraph(n, rng) if n > 1 else MultiGraph(1, ())
            edges = list(g.edges)
            for _ in range(rng.randrange(1, 4)):
                v = rng.randrange(n)
                edges.insert(rng.randrange(len(edges) + 1), (v, v))
            if len(out) % 3 == 2:
                for _ in range(len(edges) // 4):
                    e = rng.randrange(len(edges))
                    rest = edges[:e] + edges[e + 1:]
                    if MultiGraph(n, tuple(rest)).is_connected():
                        edges = rest
            name = rng.sample(range(n), n)
            g = MultiGraph(n, tuple((name[u], name[v]) for u, v in edges))
            out.append((g, tuple(name)))
        return out

    def test_equals_reference_embedding(self):
        """Every 2-connected outerplane multigraph with m <= 9 and the
        seeded multigraphs: the flat-dart tracing gives the rotation,
        the faces, the outer face, ``left_face`` (in tracing order), the
        per-edge faces and class bits, and for a 2-connected graph the
        split dual's ends and default root leaf, of the dict-keyed
        tracing; a graph that is not 2-connected has no split dual."""
        cases = [(emb.graph, emb.outer_order) for emb in enumerate_outerplane(9)]
        cases += self._seeded_multigraphs(random.Random(31))
        two_connected = 0
        for g, order in cases:
            emb, ref = build_embedding(g, order), reference_embedding(g, order)
            assert emb.rotation == ref.rotation
            assert [(f.id, f.darts, f.is_outer) for f in emb.faces] == list(ref.faces)
            assert emb.outer_face == ref.outer_face
            assert list(emb.left_face.items()) == list(ref.left_face.items())
            assert emb._class_bits == ref.class_bits
            for e, (u, v) in enumerate(g.edges):
                faces = () if u == v else (ref.left_face[(e, u)], ref.left_face[(e, v)])
                assert emb.faces_of_edge(e) == faces
                assert emb.is_outer_edge(e) == (ref.outer_face in faces)
            if ref.ends is None:
                with pytest.raises(NotTwoConnectedError):
                    split_dual(emb)
                continue
            sd = split_dual(emb)
            assert sd.ends == ref.ends
            assert default_root_leaf(sd) == ref.root_leaf
            two_connected += 1
        assert len(cases) == 358 and two_connected == 335

    @pytest.mark.parametrize("g, order", [
        (MultiGraph(4, ((0, 1), (2, 3), (1, 1))), (0, 1, 2, 3)),
        (MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))), (0, 1, 2, 3)),
        (MultiGraph(3, ((0, 1), (1, 2))), (0, 1, 1)),
        (MultiGraph(3, ((0, 1), (1, 2))), (0, 1)),
        (MultiGraph(3, ((0, 0), (1, 2), (2, 1), (0, 0))), (0, 1, 2)),
        (MultiGraph(1, ((0, 0), (0, 0))), (0,)),
    ], ids=["disconnected", "crossing", "repeated-vertex", "short-order",
            "loops-only-at-position-0", "one-vertex-loops"])
    def test_errors_equal_reference(self, g, order):
        """Refused input gets the error type and message of the
        dict-keyed tracing; one vertex with loops alone is no error."""
        try:
            ref = reference_embedding(g, order)
        except (EmbeddingError, GraphError) as exc:
            with pytest.raises(type(exc)) as got:
                build_embedding(g, order)
            assert str(got.value) == str(exc)
        else:
            emb = build_embedding(g, order)
            assert [(f.id, f.darts, f.is_outer) for f in emb.faces] == list(ref.faces)


class TestTriangulation:
    def test_simple(self, fan_emb):
        assert is_triangulation(fan_emb)

    def test_cycle_not(self):
        emb = build_embedding(cycle_graph(4), (0, 1, 2, 3))
        assert not is_triangulation(emb)

    def test_multi(self):
        emb = build_embedding(triangle_with_parallel(), (0, 1, 2))
        assert not is_triangulation(emb)  # digon face, strict sense
        assert is_triangulation(emb, multi=True)
        emb2 = build_embedding(cycle_graph(4), (0, 1, 2, 3))
        assert not is_triangulation(emb2, multi=True)


class TestBlocks:
    def test_two_connected_single_block(self, fan):
        bl = blocks(fan)
        assert len(bl) == 1
        assert bl[0].graph.n == 5 and bl[0].graph.m == 7

    def test_bowtie(self):
        g = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        bl = blocks(g)
        assert len(bl) == 2
        assert sorted(len(b.edge_ids) for b in bl) == [3, 3]
        covered = sorted(e for b in bl for e in b.edge_ids)
        assert covered == list(range(6))

    def test_bridges_are_blocks(self):
        g = MultiGraph(4, ((0, 1), (1, 2), (2, 3)))
        bl = blocks(g)
        assert len(bl) == 3
        assert all(b.graph.n == 2 and b.graph.m == 1 for b in bl)

    def test_loops_outside_blocks(self):
        bl = blocks(loopy_triangle())
        assert len(bl) == 1
        assert 3 not in bl[0].edge_ids

    def test_local_global_maps(self):
        g = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        for b in blocks(g):
            for le, (lu, lv) in enumerate(b.graph.edges):
                gu, gv = g.edges[b.edge_ids[le]]
                assert {b.vertices[lu], b.vertices[lv]} == {gu, gv}
