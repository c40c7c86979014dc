"""Shared graph builders for the test suite."""

from collections import Counter
from types import SimpleNamespace

import pytest

from spangray.dualtree import weak_dual
from spangray.embedgraph import (EdgeLabeling, MultiGraph, _check_crossings,
                                 build_embedding, is_triangulation)
from spangray.errors import (CertificationError, EmbeddingError, GraphError,
                             NotTwoConnectedError)
from spangray.treegen import SpanningTree, classify_exchange


def fan_graph():
    """Hub 0, rim path 1-2-3-4; spokes and rim edges interleaved so the
    dual-tree labeling is the identity for the natural root."""
    return MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (3, 4), (0, 4)))


def fan_embedding():
    return build_embedding(fan_graph(), (0, 1, 2, 3, 4))


def diamond_graph():
    return MultiGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3)))


def diamond_embedding():
    return build_embedding(diamond_graph(), (0, 1, 2, 3))


def cycle_graph(n):
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def bundle_graph(c):
    """Two vertices joined by c parallel edges."""
    return MultiGraph(2, tuple((0, 1) for _ in range(c)))


def complete_graph(n):
    return MultiGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def k33_graph():
    return MultiGraph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))


def cube_graph():
    """The 3-cube: vertices 0..7, joined when their bits differ in one place."""
    return MultiGraph(8, tuple((v, v ^ b) for v in range(8) for b in (1, 2, 4)
                               if v < v ^ b))


def petersen_graph():
    """Outer 5-cycle 0..4, spokes to 5..9, inner pentagram on 5..9."""
    return MultiGraph(10, tuple((i, (i + 1) % 5) for i in range(5))
                      + tuple((i, i + 5) for i in range(5))
                      + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)))


def wheel_graph(k):
    """Hub k joined to a k-cycle 0..k-1."""
    rim = tuple((i, (i + 1) % k) for i in range(k))
    return MultiGraph(k + 1, rim + tuple((i, k) for i in range(k)))


def triangle_with_parallel():
    """Triangle plus a parallel copy of one side; smallest mixed
    digon/triangle multigraph."""
    return MultiGraph(3, ((0, 1), (1, 2), (0, 2), (0, 2)))


def loopy_triangle():
    return MultiGraph(3, ((0, 1), (1, 2), (0, 2), (1, 1)))


def random_outerplane_multigraph(n, rng):
    """A seeded 2-connected outerplane multigraph on n >= 2 vertices
    drawn on the circle 0..n-1: the polygon, a random half of the
    diagonals of a random triangulation, and parallel copies of a few
    edges, in shuffled order."""
    edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    polygons = [list(range(n))]
    while polygons:
        poly = polygons.pop()
        k = len(poly)
        if k < 4:
            continue
        i, d = rng.randrange(k), rng.randrange(2, k - 1)
        j = (i + d) % k
        if rng.random() < 0.5:
            edges.append((poly[i], poly[j]))
        polygons.append([poly[(i + t) % k] for t in range(d + 1)])
        polygons.append([poly[(j + t) % k] for t in range(k - d + 1)])
    edges += rng.sample(edges, rng.randrange(min(len(edges), 8) + 1))
    rng.shuffle(edges)
    return MultiGraph(n, tuple(edges))


def reference_matrix_tree(g):
    """The Laplacian minor of the last vertex as a dense (n-1)^2 matrix,
    by fraction-free Bareiss elimination: each pivot of a connected
    graph is a positive leading principal minor, so no row is swapped,
    and a graph that is not connected counts 0 before its matrix is
    built.  The reference for ``counting.count_matrix_tree``."""
    n = g.n
    if n == 1:
        return 1
    if g.m < n - 1 or not g.is_connected():
        return 0
    d = n - 1
    a = [[0] * d for _ in range(d)]
    for u, v in g.edges:
        if u == v:
            continue
        if u < d:
            a[u][u] += 1
        if v < d:
            a[v][v] += 1
        if u < d and v < d:
            a[u][v] -= 1
            a[v][u] -= 1
    prev = 1
    for k in range(d - 1):
        akk = a[k][k]
        for i in range(k + 1, d):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, d):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return a[d - 1][d - 1]


def reference_fib_predicate(emb):
    """The equality case of the Fibonacci bound as five separate tests:
    no loops, 2-connected, every inner face of length at most 3, a weak
    dual that is a path, and every digon sharing an edge with the outer
    face.  The reference for ``counting.check_fib_bound``'s predicate."""
    g = emb.graph
    if g.loop_edges():
        return False
    # the outer walk of a 2-connected graph has one dart per vertex
    n_outer = len(emb.faces[emb.outer_face].darts)
    if not (g.m == 0 if g.n == 1 else n_outer == g.n):
        return False
    if not is_triangulation(emb, multi=True):
        return False
    d = weak_dual(emb)
    if d.n > 1:
        degree = Counter(x for u, v in d.edges if u != v for x in (u, v))
        if (d.m != d.n - 1 or not d.is_connected()
                or max(degree.values()) > 2):
            return False
    elif d.m:
        return False
    return all(any(emb.is_outer_edge(e) for e in f.edge_ids)
               for f in emb.faces if not f.is_outer and f.length == 2)


def reference_embedding(g, outer_order):
    """The embedding traced over ``(edge, tail)``-keyed dicts, with the
    values built on it: ``rotation``, ``faces`` as (id, darts, is_outer)
    triples, ``outer_face``, ``left_face``, the per-edge ``class_bits``,
    and for a 2-connected graph the split dual's ``ends`` and the
    ``root_leaf`` of ``default_root_leaf`` (None otherwise).  It raises
    the errors of ``build_embedding`` with the same messages.  The
    reference for ``build_embedding``, ``SplitDual.ends`` and
    ``default_root_leaf``."""
    outer_order = tuple(outer_order)
    if sorted(outer_order) != list(range(g.n)):
        raise GraphError("outer order must list every vertex exactly once")
    if not g.is_connected():
        raise GraphError("graph is disconnected; embed components separately")
    n = g.n
    pos = [0] * n
    for i, v in enumerate(outer_order):
        pos[v] = i
    _check_crossings(g, pos)
    ends = [[] for _ in range(n)]
    for e, (a, b) in enumerate(g.edges):
        if a != b:
            low = e if pos[a] < pos[b] else -e
            ends[a].append(((pos[b] - pos[a]) % n, low, e))
            ends[b].append(((pos[a] - pos[b]) % n, -low, e))
    rotation = tuple(tuple(e for _, _, e in sorted(at)) for at in ends)
    rot_index = {(e, v): i for v in range(n) for i, e in enumerate(rotation[v])}
    left_face = {}
    walks = []
    for e0, (u0, v0) in enumerate(g.edges):
        if u0 == v0:
            continue
        for t0 in (u0, v0):
            if (e0, t0) in left_face:
                continue
            walk = []
            e, t = e0, t0
            while (e, t) not in left_face:
                left_face[(e, t)] = len(walks)
                walk.append((e, t))
                head = g.other_end(e, t)
                e, t = rotation[head][rot_index[(e, head)] - 1], head
            walks.append(tuple(walk))
    if walks:
        v0 = outer_order[0]
        if not rotation[v0]:
            raise GraphError("vertex of outer position 0 has no non-loop edge")
        outer = left_face[(rotation[v0][-1], v0)]
    else:
        walks, outer = [()], 0
    nonloop = sum(1 for u, v in g.edges if u != v)
    if n - nonloop + len(walks) != 2:
        raise EmbeddingError("face count violates Euler's formula; embedding is broken")
    faces = tuple((i, walk, i == outer) for i, walk in enumerate(walks))
    class_bits = tuple(
        1 << u if u == v else
        1 << u | 1 << v | 1 << n + left_face[(e, u)] | 1 << n + left_face[(e, v)]
        for e, (u, v) in enumerate(g.edges))
    split_ends = root_leaf = None
    if len(walks[outer]) == n:
        inner = [i for i in range(len(walks)) if i != outer]
        node_of_dart = {d: len(inner) + k for k, d in enumerate(walks[outer])}
        for i, fid in enumerate(inner):
            for d in walks[fid]:
                node_of_dart[d] = i
        split_ends = tuple(None if u == v else (node_of_dart[(e, u)], node_of_dart[(e, v)])
                           for e, (u, v) in enumerate(g.edges))
        leaves = range(len(inner), len(inner) + len(walks[outer]))
        root_leaf = min(leaves, key=lambda leaf: (
            sorted(g.edges[walks[outer][leaf - len(inner)][0]]),
            walks[outer][leaf - len(inner)][0], leaf))
    return SimpleNamespace(rotation=rotation, faces=faces, outer_face=outer,
                           left_face=left_face, class_bits=class_bits,
                           ends=split_ends, root_leaf=root_leaf)


def reference_prefer(kind):
    """The prefer rule of ``kind`` by its definition, for tests of the
    class rows: scan the candidates from the largest smaller label down
    and take the first of the class, by ``classify_exchange`` (a bare
    graph: pivot by a shared end); none raises the walk's error."""
    def rule(ctx):
        g, lab, emb = ctx.graph, ctx.labeling, ctx.embedding
        for x in reversed(ctx.candidates):
            if (classify_exchange(emb, lab, x).matches(kind) if emb is not None
                    else kind == "any" or g.shares_vertex(lab.edge(x.removed),
                                                           lab.edge(x.added))):
                return x
        raise CertificationError(
            f"no {kind} exchange in tie set {[x.pair() for x in ctx.candidates]}")

    return rule


def reference_spanning_trees(g):
    """Every spanning tree under the identity labeling, by recursive
    inclusion/exclusion over edge ids with its own union-find: each edge
    is taken before it is left out.  It shares no code with the greedy
    walk, so it is the oracle for the walk's completeness and for
    ``flipgraph.enumerate_spanning_trees``."""
    n, m = g.n, g.m
    if n == 1:
        return (SpanningTree(m, 0),)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    out = []

    def rec(i, picked, mask):
        if picked == n - 1:
            out.append(SpanningTree(m, mask))
            return
        if m - i < n - 1 - picked:
            return
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rec(i + 1, picked + 1, mask | (1 << i))
            parent[ru] = ru
        rec(i + 1, picked, mask)

    rec(0, 0, 0)
    return tuple(out)


def reference_split_dual(emb):
    """The split dual numbered as ``SplitDual`` numbers it, and the tree
    test by search it once ran: the inner face ids, each edge's two
    nodes (None for a loop) and each node's (edge, other node) list.
    It raises ``SplitDual``'s refusal when a depth-first search from
    node 0 misses a node or the edges are not one fewer than the
    nodes.  The reference for ``split_dual``."""
    g = emb.graph
    inner = [f.id for f in emb.faces if not f.is_outer]
    node_of_face = {fid: i for i, fid in enumerate(inner)}
    outer_darts = emb.faces[emb.outer_face].darts
    leaf_of_dart = {d: len(inner) + k for k, d in enumerate(outer_darts)}
    node_count = len(inner) + len(outer_darts)

    def node_for(dart):
        fid = emb.left_face[dart]
        return leaf_of_dart[dart] if fid == emb.outer_face else node_of_face[fid]

    ends = []
    adj = [[] for _ in range(node_count)]
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            ends.append(None)
            continue
        a, b = node_for((e, u)), node_for((e, v))
        ends.append((a, b))
        adj[a].append((e, b))
        adj[b].append((e, a))
    seen = [False] * node_count
    if node_count:
        seen[0] = True
        stack = [0]
        while stack:
            for _, y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    if not all(seen) or g.m - len(g.loop_edges()) != node_count - 1:
        raise NotTwoConnectedError(
            "split dual is not a tree; the graph is not 2-connected "
            "(decompose with blocks() first)")
    return inner, tuple(ends), adj


def reference_orientation(adj, m, root):
    """Each edge's tail and head (-1 for a loop) by a depth-first search
    over the adjacency from the root, which takes no rotation order.
    The reference for ``OrientedSplitDual.tail_of`` and ``head_of``."""
    tail, head = [-1] * m, [-1] * m
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for e, y in adj[x]:
            if y not in seen:
                seen.add(y)
                tail[e], head[e] = x, y
                stack.append(y)
    return tuple(tail), tuple(head)


def reference_labeling(emb, inner, adj, head, root):
    """The dual-tree labeling by a preorder of its own over the
    reference orientation: from the root leaf's edge, each face node's
    other edges in ccw order after the incoming one, each edge's
    subtree before its next sibling; loops last, in id order.  The
    reference for ``dual_tree_labeling``."""
    g = emb.graph
    label = [0] * g.m
    counter = 0
    stack = [adj[root][0][0]]
    while stack:
        e = stack.pop()
        counter += 1
        label[e] = counter
        node = head[e]
        if node < len(inner):
            rot = emb.faces[inner[node]].edge_ids
            idx = rot.index(e)
            t = len(rot)
            stack.extend(rot[(idx + k) % t] for k in range(t - 1, 0, -1))
    for e in g.loop_edges():
        counter += 1
        label[e] = counter
    return EdgeLabeling(tuple(label))


def reference_lobes(adj, tail, head, node, edge_ids):
    """Per edge of the face at ``node``, that edge and the edges of the
    component on its side once the node is removed, by search.  The
    reference for ``dualtree.lobe``."""
    parts = []
    for e in edge_ids:
        other = head[e] if tail[e] == node else tail[e]
        found = {e}
        seen = {other}
        stack = [other]
        while stack:
            for f, y in adj[stack.pop()]:
                if y != node and f not in found:
                    found.add(f)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        parts.append(frozenset(found))
    return tuple(parts)


@pytest.fixture
def fan():
    return fan_graph()


@pytest.fixture
def fan_emb():
    return fan_embedding()


@pytest.fixture
def diamond():
    return diamond_graph()


@pytest.fixture
def diamond_emb():
    return diamond_embedding()
