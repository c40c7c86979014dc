"""Split duals of outerplane embeddings and the edge labelings they induce.

The split dual of a 2-connected outerplane embedding is obtained from the
plane dual by splitting the outer-face vertex into one degree-1 leaf per
outer-boundary edge; the result is a tree with exactly one node per inner
face, one leaf per boundary edge, and one edge per (non-loop) edge of the
primal graph.  It is a tree exactly when the outer face walk passes every
vertex once, which :class:`SplitDual` reads off the outer face's length,
without a search.  One depth-first traversal from a root leaf, taking
the subtrees at each face node in ccw order, orients the tree away from
the root and assigns edge labels 1..m in its preorder, with strong
ordering properties around every face and every vertex.  Those
properties are what make class-restricted tie-breaking work in the greedy
spanning-tree generator, and this module also provides executable
checkers for them plus the constructive replacement exchange they imply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .embedgraph import (EdgeLabeling, EmbeddedGraph, MultiGraph, _fundamental,
                         _labels, _tree_mask)
from .errors import CertificationError, GraphError, NotTwoConnectedError


def weak_dual(emb: EmbeddedGraph) -> MultiGraph:
    """Graph on the inner faces; one edge per primal edge separating two
    distinct inner faces."""
    inner = [f.id for f in emb.faces if not f.is_outer]
    node = {fid: i for i, fid in enumerate(inner)}
    edges = []
    for e in range(emb.graph.m):
        fs = emb.faces_of_edge(e)
        if len(fs) == 2 and fs[0] != fs[1] and emb.outer_face not in fs:
            edges.append((node[fs[0]], node[fs[1]]))
    return MultiGraph(len(inner), tuple(edges))


def _outer_is_cycle(emb: EmbeddedGraph) -> bool:
    """True iff the outer face walk has one dart per vertex: for n >= 2,
    iff the graph is 2-connected (see :class:`SplitDual`)."""
    return len(emb.faces[emb.outer_face].darts) == emb.graph.n


class SplitDual:
    """The split dual tree of an embedding.

    Nodes 0..k-1 are the inner faces (in face order); nodes k.. are the
    leaves, one per outer-boundary dart, numbered along the boundary
    walk.  The tree edge for primal edge ``e`` joins the nodes
    ``ends[e]`` of the two faces bounding ``e``, a leaf standing in for
    the outer face; a loop has no tree edge, and ``ends[e]`` is None.

    It is a tree exactly when the outer face walk has n darts.  With F
    faces, D outer darts and m' non-loop edges it has N = (F - 1) + D
    nodes and m' edges.  ``build_embedding`` checks that the graph is
    connected and that n - m' + F = 2, so m' = N - 1 exactly when D = n;
    and it has no cycle, which would enclose a vertex, since every
    vertex lies on the outer face.
    """

    def __init__(self, emb: EmbeddedGraph):
        self.emb = emb
        g = emb.graph
        if not _outer_is_cycle(emb):
            raise NotTwoConnectedError(
                "split dual is not a tree; the graph is not 2-connected "
                "(decompose with blocks() first)")
        inner = [f.id for f in emb.faces if not f.is_outer]
        self.inner_count = len(inner)
        self.inner_face_ids = tuple(inner)
        self._node_of_face = {fid: i for i, fid in enumerate(inner)}
        self.leaf_darts = emb.faces[emb.outer_face].darts
        self.node_count = self.inner_count + len(self.leaf_darts)

        # per flat dart 2e + side (see embedgraph), the node of its left
        # face; the outer face's darts are then set to their leaves
        node_of_face = [0] * len(emb.faces)
        for i, fid in enumerate(inner):
            node_of_face[fid] = i
        node_of_dart = [node_of_face[f] for f in emb.face_of]
        edges = g.edges
        for k, (e, t) in enumerate(self.leaf_darts):
            node_of_dart[2 * e + (t != edges[e][0])] = self.inner_count + k
        self.ends = tuple(None if u == v else (node_of_dart[2 * e], node_of_dart[2 * e + 1])
                          for e, (u, v) in enumerate(edges))
        # per inner node, its face's edge ids in ccw order
        self._rotations = tuple([emb.faces[fid].edge_ids for fid in inner])

    def is_leaf(self, node: int) -> bool:
        return node >= self.inner_count

    def leaf_edge(self, leaf: int) -> int:
        return self.leaf_darts[leaf - self.inner_count][0]

    def node_face(self, node: int) -> int:
        """Face id a node stands for; leaves map to the outer face."""
        if self.is_leaf(node):
            return self.emb.outer_face
        return self.inner_face_ids[node]

    def face_node(self, fid: int) -> int:
        return self._node_of_face[fid]

    def rotation_at(self, node: int) -> tuple[int, ...]:
        """Primal edges at an inner node in ccw order (= face boundary)."""
        return self._rotations[node]

    def leaves(self) -> tuple[int, ...]:
        return tuple(range(self.inner_count, self.node_count))

    def leaf_for_edge(self, e: int) -> int:
        """The leaf of outer-boundary edge ``e`` (unique for m >= 2)."""
        hits = [self.inner_count + k for k, (ee, _) in enumerate(self.leaf_darts) if ee == e]
        if not hits:
            raise GraphError(f"edge {e} does not bound the outer face")
        return hits[0]


def split_dual(emb: EmbeddedGraph) -> SplitDual:
    return SplitDual(emb)


def default_root_leaf(sd: SplitDual) -> int:
    """Leaf of the outer-boundary edge with the smallest endpoint pair
    (ties by edge id, then boundary position)."""
    edges = sd.emb.graph.edges
    keys = []
    for k, (e, _) in enumerate(sd.leaf_darts):
        u, v = edges[e]
        keys.append((u, v, e, k) if u < v else (v, u, e, k))
    return sd.inner_count + min(keys)[3]


class OrientedSplitDual:
    """A split dual rooted at a leaf, every edge oriented away from the
    root by one depth-first walk that takes the subtrees at each face
    node in ccw order, starting right after the incoming edge.  ``order``
    lists the non-loop edges in its preorder; the walk leaves node
    ``tail_of[e]`` and enters ``head_of[e]`` by edge ``e`` (-1 for a loop)."""

    def __init__(self, sd: SplitDual, root: int):
        if not sd.is_leaf(root):
            raise GraphError(f"root {root} is not a leaf of the split dual")
        self.split = sd
        self.root = root
        m = sd.emb.graph.m
        ends, inner = sd.ends, sd.inner_count
        tail, head, order = [-1] * m, [-1] * m, []
        # preorder with an explicit stack: an edge's subtree is walked
        # before its next sibling, so siblings are pushed in reverse
        stack = [(sd.leaf_edge(root), root)]
        while stack:
            e, x = stack.pop()
            a, b = ends[e]
            y = b if a == x else a
            tail[e], head[e] = x, y
            order.append(e)
            if y < inner:
                rot = sd.rotation_at(y)
                i = rot.index(e)
                stack.extend((f, y) for f in reversed(rot[i + 1:] + rot[:i]))
        self.tail_of = tuple(tail)
        self.head_of = tuple(head)
        self.order = tuple(order)

    @property
    def emb(self) -> EmbeddedGraph:
        return self.split.emb

    @functools.cached_property
    def _runs(self) -> tuple[dict[int, int], list[int]]:
        """Each non-loop edge's position in ``order`` and the size of its
        subtree, which is the run of ``order`` from there."""
        into = {y: e for e, y in enumerate(self.head_of)}
        size = [1] * len(self.head_of)
        for e in reversed(self.order[1:]):
            size[into[self.tail_of[e]]] += size[e]
        return {e: k for k, e in enumerate(self.order)}, size


def orient_split_dual(sd: SplitDual, root: int | None = None) -> OrientedSplitDual:
    if root is None:
        root = default_root_leaf(sd)
    return OrientedSplitDual(sd, root)


def dual_tree_labeling(osd: OrientedSplitDual) -> EdgeLabeling:
    """Label the edges 1..m in the preorder of the rooted walk
    (``osd.order``).  Loops, which have no dual edge, get the labels
    after all non-loop edges, in id order."""
    g = osd.emb.graph
    walk = osd.order + g.loop_edges()
    if len(walk) != g.m:
        raise CertificationError("labeling walk did not cover every edge")
    label = [0] * g.m
    for k, e in enumerate(walk, 1):
        label[e] = k
    return EdgeLabeling(tuple(label))


@dataclass(frozen=True)
class OrientedFace:
    """An inner face as the ccw dart sequence starting at the unique edge
    whose dual is oriented toward the face node; edge_ids[k] is walked
    from corner darts[k][1]."""

    face_id: int
    darts: tuple[tuple[int, int], ...]

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.darts)

    def corner(self, i: int) -> int:
        """Vertex where the i-th boundary edge starts (1-based)."""
        return self.darts[i - 1][1]


def oriented_faces(osd: OrientedSplitDual) -> tuple[OrientedFace, ...]:
    sd = osd.split
    out = []
    for node in range(sd.inner_count):
        fid = sd.node_face(node)
        boundary = sd.emb.faces[fid].darts
        inward = [i for i, (e, _) in enumerate(boundary) if osd.head_of[e] == node]
        if len(inward) != 1:
            raise CertificationError(f"face {fid} has {len(inward)} inward dual edges")
        i = inward[0]
        out.append(OrientedFace(fid, boundary[i:] + boundary[:i]))
    return tuple(out)


def lobe(osd: OrientedSplitDual, oface: OrientedFace, i: int) -> frozenset[int]:
    """Edges dual to the maximal subtree through the i-th boundary edge of
    the face (1-based), i.e. everything hanging off the face node on that
    side, the boundary edge included."""
    t = len(oface.edge_ids)
    if not 1 <= i <= t:
        raise GraphError(f"lobe index {i} out of range 1..{t}")
    e = oface.edge_ids[i - 1]
    order = osd.order
    position, size = osd._runs
    a, b = position[e], position[e] + size[e]
    # a lobe is a run of the preorder: e's subtree if e leaves the face
    # node, else everything outside the node's subtree, e kept
    if osd.tail_of[e] == osd.split.face_node(oface.face_id):
        return frozenset(order[a:b])
    return frozenset(order[:a + 1] + order[b:])


@dataclass(frozen=True)
class IncidenceList:
    """Edges at a vertex in clockwise order (both ends bound the outer
    face), with a flag per edge: True when the oriented dual edge runs
    counterclockwise around the vertex."""

    vertex: int
    edges: tuple[int, ...]
    ccw_flags: tuple[bool, ...]


def incidence_list(osd: OrientedSplitDual, v: int) -> IncidenceList:
    emb = osd.emb
    sd = osd.split
    edges = tuple(reversed(emb.rotation[v]))
    flags = []
    for e in edges:
        # e' runs ccw around v iff it is oriented from the face on the cw
        # side of e at v to the face on the ccw side, and the ccw side is
        # the left face of the dart leaving v
        head_face = sd.node_face(osd.head_of[e])
        flags.append(head_face == emb.left_face[(e, v)])
    return IncidenceList(v, edges, tuple(flags))


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[str, ...]


def check_face_label_order(osd: OrientedSplitDual, labeling: EdgeLabeling) -> CheckReport:
    """Verify, for every inner face (e_1..e_t): labels strictly increase
    in ccw order, and every lobe at e_i (i >= 2) carries labels strictly
    between l(e_i) and l(e_{i+1}) (just above l(e_t) for the last)."""
    bad = []
    for of in oriented_faces(osd):
        labs = [labeling.label(e) for e in of.edge_ids]
        t = len(labs)
        for i in range(t - 1):
            if labs[i] >= labs[i + 1]:
                bad.append(f"face {of.face_id}: labels {labs} not increasing ccw")
                break
        for i in range(2, t + 1):
            li = labs[i - 1]
            upper = labs[i] if i < t else None
            for f in lobe(osd, of, i):
                lf = labeling.label(f)
                if f == of.edge_ids[i - 1]:
                    continue
                if lf <= li:
                    bad.append(f"face {of.face_id}: lobe {i} edge {f} label {lf} <= {li}")
                elif upper is not None and lf >= upper:
                    bad.append(f"face {of.face_id}: lobe {i} edge {f} label {lf} >= {upper}")
    return CheckReport(not bad, tuple(bad))


def check_vertex_label_chain(osd: OrientedSplitDual, labeling: EdgeLabeling) -> CheckReport:
    """Verify, for every vertex: the clockwise incidence list splits into
    ccw-edges followed by cw-edges, labels decreasing along the ccw block
    and increasing along the cw block, every ccw label below every cw
    label."""
    bad = []
    for v in range(osd.emb.graph.n):
        il = incidence_list(osd, v)
        if not il.edges:
            continue
        flags = il.ccw_flags
        i = flags.count(True)
        if flags != (True,) * i + (False,) * (len(flags) - i):
            bad.append(f"vertex {v}: flags {flags} are not ccw-block then cw-block")
            continue
        labs = [labeling.label(e) for e in il.edges]
        chain = list(reversed(labs[:i])) + labs[i:]
        if chain != sorted(chain) or len(set(chain)) != len(chain):
            bad.append(f"vertex {v}: labels {labs} with split {i} violate the chain order")
    return CheckReport(not bad, tuple(bad))


def alternative_pof_exchange(osd: OrientedSplitDual, labeling: EdgeLabeling,
                             tree_labels, exchange: tuple[int, int]) -> tuple[int, int]:
    """Given a valid exchange {e, f} (as labels, any order) for the
    spanning tree with the given labels, return a pof-exchange {d, f}
    with l(d) < l(f); on triangulations the result is a pivot-exchange.

    The replacement is constructed from the face alpha whose dual edge at
    f points away from it: if f is a tree edge, d is the face edge whose
    lobe contains e; otherwise d is the cycle edge next to f inside the
    lobe just before f on the face.
    """
    g = osd.emb.graph
    mask = _tree_mask(g, labeling, tree_labels)
    tree = frozenset(labeling.edge(l) for l in _labels(mask))
    la, lb = exchange
    if la == lb:
        raise GraphError("exchange must involve two distinct labels")
    le, lf = (la, lb) if la < lb else (lb, la)
    e_id, f_id = labeling.edge(le), labeling.edge(lf)
    in_t = [e_id in tree, f_id in tree]
    if in_t[0] == in_t[1]:
        raise GraphError("exchange must swap a tree edge with a non-tree edge")

    if g.is_loop(e_id) or g.is_loop(f_id):
        raise GraphError("loops cannot take part in an exchange")
    node = osd.tail_of[f_id]
    sd = osd.split
    if sd.is_leaf(node):
        raise CertificationError("dual edge of the larger label starts at a leaf")
    ofaces = {of.face_id: of for of in oriented_faces(osd)}
    of = ofaces[sd.node_face(node)]
    i = of.edge_ids.index(f_id) + 1
    if i == 1:
        raise CertificationError("larger-label edge is the inward face edge")

    non_tree = e_id if f_id in tree else f_id
    path = _fundamental(g, labeling, mask, g.m + 1)[labeling.label(non_tree)]
    cycle = {labeling.edge(l) for l in _labels(path)} | {non_tree}
    if e_id not in cycle or f_id not in cycle:
        raise GraphError(f"exchange {(le, lf)} is not valid for the tree")

    if f_id in tree:
        j = next(k for k in range(1, len(of.edge_ids) + 1)
                 if e_id in lobe(osd, of, k))
        if j >= i:
            raise CertificationError("smaller edge not in a lobe before the larger one")
        d_id = of.edge_ids[j - 1]
    else:
        # the cycle enters f's face corner through the lobe just before f
        corner = of.corner(i)
        cands = [c for c in cycle
                 if c != f_id and corner in g.edges[c]]
        if len(cands) != 1:
            raise CertificationError(
                f"expected one cycle edge at the corner, got {sorted(cands)}")
        d_id = cands[0]
        if d_id not in lobe(osd, of, i - 1):
            raise CertificationError("corner cycle edge escapes the previous lobe")

    ld = labeling.label(d_id)
    if ld >= lf:
        raise CertificationError("replacement label is not smaller")
    new_tree = tree ^ {d_id, f_id}
    if not g.is_spanning_tree(new_tree):
        raise CertificationError("replacement exchange is not valid")
    if not osd.emb.class_index(d_id, f_id) & 3:
        raise CertificationError("replacement exchange is neither pivot nor face")
    return (ld, lf)
