"""Split dual, dual-tree labelings, the two structural checkers, and
the alternative-exchange construction."""

import pytest

from conftest import (bundle_graph, cycle_graph, diamond_embedding,
                      fan_embedding, reference_labeling, reference_lobes,
                      reference_orientation, reference_split_dual,
                      triangle_with_parallel)
from spangray.dualtree import (alternative_pof_exchange,
                               check_face_label_order,
                               check_vertex_label_chain, default_root_leaf,
                               dual_tree_labeling, incidence_list, lobe,
                               orient_split_dual, oriented_faces, split_dual,
                               weak_dual)
from spangray.embedgraph import (EdgeLabeling, MultiGraph, blocks,
                                 build_embedding, is_triangulation)
from spangray.counting import enumerate_outerplane, extremal_family
from spangray.flipgraph import enumerate_small_graphs, find_outerplane_order
from spangray.errors import CertificationError, GraphError, NotTwoConnectedError
from spangray.treegen import (Exchange, classify_exchange, greedy_listing,
                              valid_exchanges)


def _all_labelings(emb):
    """One labeling per split-dual root leaf."""
    sd = split_dual(emb)
    for root in sd.leaves():
        osd = orient_split_dual(sd, root)
        yield osd, dual_tree_labeling(osd)


class TestWeakDual:
    def test_fan_is_path(self):
        d = weak_dual(fan_embedding())
        assert d.n == 3 and d.m == 2
        assert sorted(d.degree(v) for v in range(3)) == [1, 1, 2]

    def test_cycle_single_node(self):
        d = weak_dual(build_embedding(cycle_graph(5), tuple(range(5))))
        assert d.n == 1 and d.m == 0


class TestSplitDual:
    def test_fan_shape(self):
        sd = split_dual(fan_embedding())
        assert sd.inner_count == 3
        assert len(sd.leaves()) == 5  # one per outer boundary dart
        assert sd.node_count == 8

    def test_bundle_shape(self):
        sd = split_dual(build_embedding(bundle_graph(3), (0, 1)))
        assert sd.inner_count == 2
        assert len(sd.leaves()) == 2

    def test_not_two_connected(self):
        g = MultiGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
        emb = build_embedding(g, (0, 1, 2, 3))
        with pytest.raises(NotTwoConnectedError):
            split_dual(emb)

    def test_leaf_edge_map(self):
        sd = split_dual(fan_embedding())
        for leaf in sd.leaves():
            e = sd.leaf_edge(leaf)
            assert sd.leaf_for_edge(e) in sd.leaves()


REFUSAL = ("split dual is not a tree; the graph is not 2-connected "
           "(decompose with blocks() first)")


def _compare_with_references(emb):
    """``split_dual``, the orientation from every root leaf, the labeling
    and the lobes, against the search-based references in conftest.
    Returns the number of labelings compared, None for a refusal."""
    g = emb.graph
    bl = blocks(g)
    two_connected = g.n > 1 and len(bl) == 1 and bl[0].graph.n == g.n
    try:
        inner, ends, adj = reference_split_dual(emb)
    except NotTwoConnectedError as exc:
        with pytest.raises(NotTwoConnectedError) as got:
            split_dual(emb)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        assert not two_connected
        return None
    assert two_connected
    sd = split_dual(emb)
    assert sd.ends == ends and sd.node_count == len(adj)
    for root in sd.leaves():
        osd = orient_split_dual(sd, root)
        tail, head = reference_orientation(adj, g.m, root)
        assert (osd.tail_of, osd.head_of) == (tail, head)
        assert dual_tree_labeling(osd) == reference_labeling(emb, inner, adj, head, root)
        for of in oriented_faces(osd):
            node = sd.face_node(of.face_id)
            want = reference_lobes(adj, tail, head, node, of.edge_ids)
            assert tuple(lobe(osd, of, i + 1) for i in range(len(want))) == want
    return len(sd.leaves())


def _with_loop_and_parallel(g):
    """g, g with a loop at vertex 0, g with a copy of edge 0, and g
    with both (the last two only when g has an edge)."""
    yield g
    yield MultiGraph(g.n, g.edges + ((0, 0),))
    if g.m:
        yield MultiGraph(g.n, g.edges + (g.edges[0],))
        yield MultiGraph(g.n, g.edges + (g.edges[0], (0, 0)))


def _small_graph_sweep(sizes):
    """Every connected outerplane graph from ``enumerate_small_graphs``
    at the given sizes, with and without an added loop and parallel
    edge, embedded in its searched order."""
    refused = labelings = 0
    for n in sizes:
        for g in enumerate_small_graphs(n, "outerplane"):
            if not g.is_connected():
                continue
            order = find_outerplane_order(g)
            for h in _with_loop_and_parallel(g):
                got = _compare_with_references(build_embedding(h, order))
                if got is None:
                    refused += 1
                else:
                    labelings += got
    return refused, labelings


class TestAgainstReferences:
    """The split dual's outer-face tree test and its one rooted preorder
    give the refusals, orientations, labelings and lobes of the
    search-based references."""

    def test_outerplane_sweep_every_root(self):
        count = sum(_compare_with_references(emb) for emb in enumerate_outerplane(9))
        assert count == 1455

    def test_extremal_strips(self):
        for k in range(1, 30):
            for d in range(min(k, 2) + 1):
                assert _compare_with_references(extremal_family(k, d))

    def test_small_graphs_with_loops_and_parallels(self):
        assert _small_graph_sweep(range(1, 7)) == (206, 328)

    @pytest.mark.slow
    def test_small_graphs_n7(self):
        assert _small_graph_sweep([7]) == (608, 560)

    @pytest.mark.parametrize("g, order", [
        (MultiGraph(1, ()), (0,)),
        (MultiGraph(1, ((0, 0),)), (0,)),
        (MultiGraph(3, ((0, 1), (1, 2))), (0, 1, 2)),
        (MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))),
         (0, 1, 2, 3, 4)),
    ], ids=["vertex", "vertex-loop", "path", "bowtie"])
    def test_refusal_text(self, g, order):
        with pytest.raises(NotTwoConnectedError) as exc:
            split_dual(build_embedding(g, order))
        assert str(exc.value) == REFUSAL


class TestLabeling:
    def test_fan_identity(self):
        """With spokes and rim edges interleaved by id, the default
        root makes the dual-tree labeling the identity."""
        emb = fan_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        lab = dual_tree_labeling(osd)
        assert lab.label_of == (1, 2, 3, 4, 5, 6, 7)

    @pytest.mark.parametrize("k", [1, 2, 5, 40, 400, 1500])
    def test_strip_identity(self, k):
        """The strip numbers its edges in walk order, so the default
        labeling is the identity; k = 1500 (m = 3001) is deeper than
        the interpreter's recursion limit."""
        osd = orient_split_dual(split_dual(extremal_family(k)))
        assert dual_tree_labeling(osd) == EdgeLabeling.identity(2 * k + 1)

    def test_every_root_gives_bijection(self):
        for emb in (fan_embedding(), diamond_embedding(),
                    build_embedding(triangle_with_parallel(), (0, 1, 2)),
                    build_embedding(bundle_graph(4), (0, 1))):
            count = 0
            for osd, lab in _all_labelings(emb):
                count += 1
                assert sorted(lab.label_of) == list(range(1, emb.graph.m + 1))
            assert count == len(split_dual(emb).leaves())

    def test_loops_labeled_last(self):
        g = MultiGraph(3, ((0, 1), (1, 2), (0, 2), (0, 2), (1, 1)))
        emb = build_embedding(g, (0, 1, 2))
        for osd, lab in _all_labelings(emb):
            assert lab.label(4) == 5


class TestCheckers:
    def test_pass_on_dual_labelings(self):
        for emb in (fan_embedding(), diamond_embedding(),
                    build_embedding(triangle_with_parallel(), (0, 1, 2)),
                    build_embedding(bundle_graph(5), (0, 1)),
                    build_embedding(cycle_graph(6), tuple(range(6)))):
            for osd, lab in _all_labelings(emb):
                rep = check_face_label_order(osd, lab)
                assert rep.ok, rep.violations
                rep = check_vertex_label_chain(osd, lab)
                assert rep.ok, rep.violations

    def test_catch_bad_labeling(self):
        emb = fan_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        swapped = EdgeLabeling((7, 2, 3, 4, 5, 6, 1))
        face_rep = check_face_label_order(osd, swapped)
        chain_rep = check_vertex_label_chain(osd, swapped)
        assert not face_rep.ok or not chain_rep.ok

    def test_catch_reversed_labeling(self):
        emb = diamond_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        lab = dual_tree_labeling(osd)
        rev = EdgeLabeling(tuple(emb.graph.m + 1 - x for x in lab.label_of))
        face_rep = check_face_label_order(osd, rev)
        chain_rep = check_vertex_label_chain(osd, rev)
        assert not face_rep.ok or not chain_rep.ok


class TestIncidence:
    def test_fan_hub(self):
        emb = fan_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        lab = dual_tree_labeling(osd)
        inc = incidence_list(osd, 0)
        labels = [lab.label(e) for e in inc.edges]
        assert labels == [7, 5, 3, 1]
        assert all(inc.ccw_flags)

    def test_chain_structure(self):
        """cw-list at any vertex: ccw block then cw block, and reversed
        ccw labels followed by cw labels strictly increase."""
        emb = fan_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        lab = dual_tree_labeling(osd)
        for v in range(5):
            inc = incidence_list(osd, v)
            flags = list(inc.ccw_flags)
            k = flags.count(True)
            assert flags == [True] * k + [False] * (len(flags) - k)
            labels = [lab.label(e) for e in inc.edges]
            chain = list(reversed(labels[:k])) + labels[k:]
            assert chain == sorted(chain)


class TestOrientedFaces:
    def test_fan_faces_start_inward(self):
        emb = fan_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        lab = dual_tree_labeling(osd)
        for of in oriented_faces(osd):
            labels = [lab.label(e) for e in of.edge_ids]
            # boundary labels strictly increase ccw from the inward edge
            assert labels[1:] == sorted(labels[1:])
            assert all(labels[0] < x for x in labels[1:])

    def test_lobe_partition(self):
        emb = fan_embedding()
        sd = split_dual(emb)
        osd = orient_split_dual(sd, default_root_leaf(sd))
        for of in oriented_faces(osd):
            t = len(of.edge_ids)
            union = set()
            for i in range(1, t + 1):
                lb = lobe(osd, of, i)
                assert not (union & lb)
                union |= lb
            nonloop = set(range(emb.graph.m)) - set(emb.graph.loop_edges())
            assert union == nonloop


class TestAlternativeExchange:
    def _sweep(self, emb):
        g = emb.graph
        sd = split_dual(emb)
        checked = 0
        for root in sd.leaves():
            osd = orient_split_dual(sd, root)
            lab = dual_tree_labeling(osd)
            listing = greedy_listing(g, labeling=lab, embedding=emb)
            for tree in listing.trees:
                for ex in valid_exchanges(g, lab, tree):
                    ld, lf = alternative_pof_exchange(osd, lab,
                                                      tree.labels(), ex)
                    assert lf == ex.larger
                    assert ld < lf
                    cls = classify_exchange(emb, lab, Exchange(
                        removed=min(ld, lf), added=max(ld, lf)))
                    assert cls.pof
                    if is_triangulation(emb, multi=True):
                        assert cls.pivot
                    checked += 1
        return checked

    def test_fan_exhaustive(self):
        assert self._sweep(fan_embedding()) > 0

    def test_triangle_parallel_exhaustive(self):
        emb = build_embedding(triangle_with_parallel(), (0, 1, 2))
        assert self._sweep(emb) > 0

    def test_diamond_exhaustive(self):
        assert self._sweep(diamond_embedding()) > 0

    def test_bundle_exhaustive(self):
        assert self._sweep(build_embedding(bundle_graph(4), (0, 1))) > 0

    def test_rejects_bad_input(self):
        """A non-tree, or an exchange that does not lead to a tree, is
        bad input, not a failed construction."""
        osd = orient_split_dual(split_dual(extremal_family(4)))
        lab = dual_tree_labeling(osd)
        for labels, ex in (([1, 2], (2, 3)), ([1, 2, 3, 4, 5], (2, 6)),
                           ([0, 1, 2, 4, 6], (2, 3)), ([1, 2, 4, 6, 8], (4, 3)),
                           ([1, 2, 4, 6, 8], (8, 7))):
            with pytest.raises(GraphError):
                alternative_pof_exchange(osd, lab, labels, ex)

    def test_refuses_repeated_label(self):
        """The tree test is the walk's: [1, 2, 4, 6] is a tree of the
        3-face strip, and the same labels with 1 repeated are refused,
        as are labels out of range."""
        osd = orient_split_dual(split_dual(extremal_family(3)))
        lab = dual_tree_labeling(osd)
        assert alternative_pof_exchange(osd, lab, [1, 2, 4, 6], (1, 3)) == (2, 3)
        for labels, message in (([1, 2, 4, 6, 1], "label 1 is repeated"),
                                ([0, 1, 2, 4, 6], "labels out of range"),
                                ([1, 2, 4, 8], "labels out of range"),
                                ([1, 2], "labels [1, 2] do not form a spanning tree")):
            with pytest.raises(GraphError) as exc:
                alternative_pof_exchange(osd, lab, labels, (1, 3))
            assert str(exc.value) == message
