"""Shared graph builders for the test suite."""

import pytest

from spangray.embedgraph import MultiGraph, build_embedding
from spangray.treegen import SpanningTree


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
