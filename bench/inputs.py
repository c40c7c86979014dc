"""Seeded benchmark inputs, as plain edge lists and graph-file text.

Every graph the benchmark feeds to ``spangray`` is written with an
``outer:`` line, because without one the CLI searches (n-1)! vertex
orders and refuses graphs with more than 9 vertices.  This module does
not import ``spangray``: the set-up re-imports the package on every
repetition, and the generated graphs are checked with the fresh import.
"""

from __future__ import annotations

import random


def random_outerplane(n: int, chords: int, parallels: int, rng: random.Random):
    """A random 2-connected outerplane multigraph as (n, edges, outer).

    A polygon on n vertices, a random triangulation of it, a random
    subset of ``chords`` of its n-3 diagonals and ``parallels`` extra
    copies of random edges.  The polygon lists the outer order, and the
    edge lines are shuffled.
    """
    if n < 3 or not 0 <= chords <= n - 3 or parallels < 0:
        raise ValueError(f"bad size n={n} chords={chords} parallels={parallels}")
    diagonals = []
    stack = [list(range(n))]
    while stack:
        poly = stack.pop()
        if len(poly) < 3:
            continue
        k = rng.randrange(1, len(poly) - 1)
        for a, b in ((poly[0], poly[k]), (poly[k], poly[-1])):
            if b - a > 1 and not (a == 0 and b == n - 1):
                diagonals.append((a, b))
        stack.append(poly[:k + 1])
        stack.append(poly[k:])
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += rng.sample(sorted(diagonals), chords)
    edges += [rng.choice(edges) for _ in range(parallels)]
    rng.shuffle(edges)
    return n, tuple(edges), tuple(range(n))


def graph_text(n: int, edges, outer) -> str:
    lines = [f"{n} {len(edges)}", "outer: " + " ".join(map(str, outer))]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def check_outerplane(spangray_embedgraph, n: int, edges, outer) -> None:
    """Raise unless ``outer`` embeds the graph and it is 2-connected."""
    eg = spangray_embedgraph
    g = eg.MultiGraph(n, tuple(edges))
    eg.build_embedding(g, tuple(outer))
    bl = eg.blocks(g)
    if len(bl) != 1 or bl[0].graph.n != n:
        raise ValueError(f"generated graph on {n} vertices is not 2-connected")
