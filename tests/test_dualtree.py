"""Split dual, dual-tree labelings, the two structural checkers, and
the alternative-exchange construction."""

import pytest

from conftest import (bundle_graph, cycle_graph, diamond_embedding,
                      fan_embedding, triangle_with_parallel)
from spangray.dualtree import (alternative_pof_exchange,
                               check_face_label_order,
                               check_vertex_label_chain, default_root_leaf,
                               dual_tree_labeling, incidence_list, lobe,
                               orient_split_dual, oriented_faces, split_dual,
                               weak_dual)
from spangray.embedgraph import (EdgeLabeling, MultiGraph, build_embedding,
                                 is_triangulation)
from spangray.counting import extremal_family
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
