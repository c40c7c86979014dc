"""Flip graphs of spanning trees and arborescences, Hamilton search,
and the small-graph experiment sweeps.

The flip graph has one node per spanning tree and an edge for every
valid exchange; restrictions keep only exchanges of a given class.
Arborescence flip graphs connect arborescences differing in two arcs
(which then share their head).  Both are built by grouping the nodes
by each mask with one bit cleared: a group holds nodes one swap apart.
The Hamilton solver runs seeded rotation-extension, then a deterministic
backtracker, under one step budget, so "none" always means an
exhaustive search and "unknown" means the budget ran out.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from .embedgraph import (EdgeLabeling, EmbeddedGraph, MultiGraph, _check_crossings,
                         _labels, blocks, build_embedding)
from .errors import CertificationError, EmbeddingError, GraphError
from .treegen import SpanningTree, _chi_line, _class_rows, greedy_walk, tiebreak_closest


def enumerate_spanning_trees(g: MultiGraph) -> tuple[SpanningTree, ...]:
    """All spanning trees under the identity labeling (label = id + 1),
    () for a disconnected graph.  They are the trees of the greedy walk,
    which lists every spanning tree exactly once under any labeling
    (Merino, Mütze and Williams), sorted by chi line, descending: the
    order that takes each edge, by id, before leaving it out."""
    if g.m > 24:
        raise GraphError("guarded to m <= 24; use greedy_listing for larger graphs")
    m = g.m
    walk = greedy_walk(g, EdgeLabeling.identity(m), None, None, tiebreak_closest)
    try:
        masks = [next(walk)[0]]
    except GraphError:      # Kruskal's start finds no spanning tree
        return ()
    masks += [x for x, _ in walk]
    masks.sort(key=lambda x: _chi_line(x, m), reverse=True)
    return tuple(SpanningTree(m, x) for x in masks)


@dataclass(frozen=True)
class Arborescence:
    """Arc set (bitmask over arc ids) spanning a digraph away from root."""

    m: int
    root: int
    mask: int

    def arcs(self) -> frozenset[int]:
        return frozenset(l - 1 for l in _labels(self.mask))

    def chi(self) -> str:
        return _chi_line(self.mask, self.m)


class DiGraph:
    """Directed multigraph; arcs are (tail, head) pairs by id."""

    def __init__(self, n: int, arcs):
        self.n = n
        self.arcs = tuple((int(t), int(h)) for t, h in arcs)
        for t, h in self.arcs:
            if not (0 <= t < n and 0 <= h < n):
                raise GraphError("arc endpoint out of range")

    @property
    def m(self) -> int:
        return len(self.arcs)

    def underlying(self) -> MultiGraph:
        """Simple undirected graph on the same vertices (arc directions
        and multiplicities collapsed)."""
        pairs = sorted({(min(t, h), max(t, h)) for t, h in self.arcs if t != h})
        return MultiGraph(self.n, tuple(pairs))


def enumerate_arborescences(d: DiGraph, root: int) -> tuple[Arborescence, ...]:
    """All arborescences oriented away from the root: pick one in-arc
    per non-root vertex, keep the choices where everything is reachable."""
    if not 0 <= root < d.n:
        raise GraphError("root out of range")
    if d.n == 1:
        return (Arborescence(d.m, root, 0),)
    in_arcs = [[] for _ in range(d.n)]
    for i, (t, h) in enumerate(d.arcs):
        if t != h:
            in_arcs[h].append(i)
    choices = [in_arcs[v] for v in range(d.n) if v != root]
    if any(not c for c in choices):
        return ()
    total = 1
    for c in choices:
        total *= len(c)
        if total > 10 ** 6:
            raise GraphError("too many in-arc combinations; reduce the digraph")
    out = []
    for combo in itertools.product(*choices):
        seen = {root}
        stack = [root]
        arcs_by_tail = {}
        for i in combo:
            arcs_by_tail.setdefault(d.arcs[i][0], []).append(i)
        while stack:
            x = stack.pop()
            for i in arcs_by_tail.get(x, ()):
                h = d.arcs[i][1]
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        if len(seen) == d.n:
            mask = 0
            for i in combo:
                mask |= 1 << i
            out.append(Arborescence(d.m, root, mask))
    return tuple(out)


@dataclass(frozen=True)
class FlipGraph:
    """Nodes are trees (or arborescences); edges are permitted exchanges,
    labeled by the exchanged pair (smaller label first)."""

    nodes: tuple
    restriction: str
    adjacency: tuple[tuple[int, ...], ...]
    edge_labels: tuple[tuple[int, int, tuple[int, int]], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edge_labels)


def _flip_graph(nodes, restriction: str, rows) -> FlipGraph:
    """Flip graph on ``nodes``, distinct objects with a ``mask``.  Two
    masks are one swap apart exactly when clearing one set bit of each
    leaves the same core, so the nodes are grouped by each of their
    cores, each member with its label outside the core.  Every pair in a
    group is one swap, and an edge when the class table ``rows``
    (:func:`treegen._class_rows`; None keeps every swap) has the bit of
    one label in the other's row.  That is one dict insert per set bit
    of each node and one bit test per swap, not a scan of all pairs.
    Edges are listed by (i, j), i < j, so every adjacency comes out
    ascending."""
    groups = defaultdict(list)
    for i, t in enumerate(nodes):
        mask = x = t.mask
        while x:
            b = x & -x
            groups[mask ^ b].append((i, b.bit_length()))
            x ^= b
    labels = []
    for group in groups.values():
        for k, (i, r) in enumerate(group):
            row = -1 if rows is None else rows[r]
            for j, a in group[k + 1:]:
                if row >> a - 1 & 1:
                    labels.append((i, j, (r, a) if r < a else (a, r)))
    labels.sort()
    adjacency = [[] for _ in nodes]
    for i, j, _ in labels:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return FlipGraph(nodes, restriction, tuple(map(tuple, adjacency)), tuple(labels))


def build_flip_graph(g, restriction: str = "any") -> FlipGraph:
    """Flip graph of all spanning trees under the identity labeling.
    Face-based restrictions need an EmbeddedGraph."""
    emb, graph = (g, g.graph) if isinstance(g, EmbeddedGraph) else (None, g)
    trees = enumerate_spanning_trees(graph)     # its m <= 24 guard bounds the table
    rows = _class_rows(graph, emb, EdgeLabeling.identity(graph.m), restriction)
    return _flip_graph(trees, restriction, rows)


def arborescence_flip_graph(d: DiGraph, root: int) -> FlipGraph:
    """Nodes are the arborescences from the root; edges swap two arcs.
    The two arcs share their head: every non-root vertex has exactly one
    in-arc, so the arc that enters must replace the one that leaves."""
    return _flip_graph(enumerate_arborescences(d, root), "arc-exchange", None)


@dataclass(frozen=True)
class HamiltonResult:
    status: str  # found | none | unknown
    order: tuple[int, ...] | None
    steps: int


def hamilton_path(fg: FlipGraph, cycle: bool = False,
                  forced_endpoints: tuple[int, int] | None = None,
                  budget: int = 2 * 10 ** 6) -> HamiltonResult:
    """Deterministic search for a Hamilton path or cycle: Posa's
    rotation-extension heuristic for at most n^2 steps (and half the
    budget), then exhaustive backtracking on what is left of the budget.

    The budget counts the steps of both, so identical inputs always give
    identical outcomes; "none" comes only from the exhaustive search.  A
    single-node flip graph counts as having a trivial path and a trivial
    cycle.
    """
    n = fg.node_count
    if n == 0:
        raise GraphError("empty flip graph")
    if cycle and forced_endpoints is not None:
        raise GraphError("forced endpoints only apply to path search")
    if forced_endpoints is not None:
        a, b = forced_endpoints
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise GraphError("forced endpoints must be two distinct nodes")
    if n == 1:
        return HamiltonResult("found", (0,), 0)
    if cycle and n == 2:
        # a cycle would repeat the single flip edge
        return HamiltonResult("none", None, 0)
    adj = [0] * n
    for i, nbrs in enumerate(fg.adjacency):
        for j in nbrs:
            adj[i] |= 1 << j

    if cycle:
        start = 0
    else:
        # path search: a virtual node adjacent to everything (or to the
        # two forced endpoints) turns it into a cycle search
        virtual = n
        if forced_endpoints is None:
            vadj = (1 << n) - 1
        else:
            a, b = forced_endpoints
            vadj = (1 << a) | (1 << b)
        adj.append(vadj)
        for i in range(n):
            if vadj >> i & 1:
                adj[i] |= 1 << virtual
        n += 1
        start = virtual

    # rotation-extension first, for at most n^2 steps; only exhaustive
    # backtracking, on the rest of the budget, may answer "none"
    order, steps = _posa_cycle(adj, n, min(budget // 2, n * n))
    status = "found"
    if order is None:
        status, order, extra = _backtrack_cycle(adj, n, start, budget - steps)
        steps += extra
    if status != "found":
        return HamiltonResult(status, None, steps)
    for a, b in zip(order, order[1:] + (order[0],)):
        if not adj[a] >> b & 1:
            raise CertificationError("hamilton search produced a bad cycle")
    if cycle:
        return HamiltonResult("found", order, steps)
    # rotate the virtual node out and unroll the cycle into a path
    k = order.index(n - 1)
    return HamiltonResult("found", order[k + 1:] + order[:k], steps)


def _backtrack_cycle(adj, n: int, start: int, budget: int):
    """Exhaustive DFS for a Hamilton cycle; "none" means the whole
    space was searched within the budget."""
    full = (1 << n) - 1
    steps = 0
    path = [start]
    visited = 1 << start
    iters = [iter(_ordered_candidates(adj, start, visited))]
    while iters:
        if steps >= budget:
            return "unknown", None, steps
        nxt = next(iters[-1], None)
        if nxt is None:
            iters.pop()
            visited ^= 1 << path.pop()
            continue
        steps += 1
        cur = nxt
        visited |= 1 << cur
        path.append(cur)
        if visited == full:
            if adj[cur] >> start & 1:
                return "found", tuple(path), steps
            visited ^= 1 << path.pop()
            continue
        if _prunable(adj, visited, cur, start, full):
            visited ^= 1 << path.pop()
            continue
        iters.append(iter(_ordered_candidates(adj, cur, visited)))
    return "none", None, steps


def _posa_cycle(adj, n: int, budget: int):
    """Rotation-extension heuristic for a Hamilton cycle.  Choices come
    from a fixed linear congruential generator, so runs are repeatable.
    Returns (order, steps) with order None when the budget runs out."""
    mask64 = (1 << 64) - 1
    state = 0x9E3779B97F4A7C15

    def rnd(k: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) & mask64
        return (state >> 33) % k

    steps = 0
    start = 0
    path = [start]
    visited = 1 << start
    pos = [-1] * n
    pos[start] = 0
    while steps < budget:
        steps += 1
        h = path[-1]
        ext = adj[h] & ~visited
        if ext:
            cands = _labels(ext)
            v = cands[rnd(len(cands))] - 1
            pos[v] = len(path)
            path.append(v)
            visited |= 1 << v
            continue
        if len(path) == n and adj[h] >> start & 1:
            return tuple(path), steps
        rot = adj[h] & visited & ~(1 << h)
        if len(path) >= 2:
            rot &= ~(1 << path[-2])
        cands = _labels(rot)
        if not cands:
            start = rnd(n)
            path = [start]
            visited = 1 << start
            pos[start] = 0
            continue
        i = pos[cands[rnd(len(cands))] - 1]
        path[i + 1:] = path[:i:-1]
        for j in range(i + 1, len(path)):
            pos[path[j]] = j
    return None, steps


def _ordered_candidates(adj, cur: int, visited: int):
    unvisited = ~visited
    cands = []
    x = adj[cur] & unvisited
    while x:
        low = x & -x
        i = low.bit_length() - 1
        cands.append(((adj[i] & unvisited).bit_count(), i))
        x ^= low
    cands.sort()
    return [i for _, i in cands]


def _prunable(adj, visited: int, cur: int, start: int, full: int) -> bool:
    """Sound cut-offs only: the remaining route runs cur -> all free
    nodes -> start, so start must keep a free neighbour, and every free
    node must be floodable from cur through free nodes and must keep
    two usable links."""
    free = full & ~visited
    if free == 0:
        return False
    if not adj[start] & free:
        return True
    frontier = adj[cur] & free
    comp = frontier
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & free & ~comp
        comp |= frontier
    if comp != free:
        return True
    allowed = free | (1 << cur) | (1 << start)
    x = free
    while x:
        low = x & -x
        links = adj[low.bit_length() - 1] & allowed
        if links & (links - 1) == 0:
            # fewer than two links: the node cannot be passed through
            return True
        x ^= low
    return False


def find_outerplane_order(g: MultiGraph) -> tuple[int, ...] | None:
    """A circular vertex order with no two edges interleaving, if one
    exists (i.e. an outerplane embedding witness)."""
    if not g.is_connected():
        return None
    n = g.n
    if n <= 3:
        return tuple(range(n))
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        try:
            _check_crossings(g, pos)
        except EmbeddingError:
            continue
        return order
    return None


def _classes(n: int, pairs, image):
    """One subset of ``pairs`` per isomorphism class, the first by
    increasing bitmask, as a tuple of pairs; ``image(p, pair)`` is the
    pair under the vertex permutation ``p``.  The first subset of a
    class marks its images under all n! permutations, so each later
    copy costs one lookup.  Column k holds pair k's image bit under
    each permutation, so a subset's images are its columns summed
    position by position (the empty subset, the first, marks none)."""
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    cols = [[bit[image(p, pair)] for p in perms] for pair in pairs]
    seen = bytearray(1 << len(pairs))
    for bits in range(1 << len(pairs)):
        if seen[bits]:
            continue
        chosen = [k for k in range(len(pairs)) if bits >> k & 1]
        for img in map(sum, zip(*[cols[k] for k in chosen])):
            seen[img] = 1
        yield tuple(pairs[k] for k in chosen)


def _two_connected(g: MultiGraph) -> bool:
    """One block that holds every vertex (an edgeless graph has none)."""
    bl = blocks(g)
    return len(bl) == 1 and bl[0].graph.n == g.n


def enumerate_small_graphs(n: int, filter: str = "all"):
    """One simple graph on n vertices per isomorphism class that passes
    the filter: the first of its class by edge-subset bitmask over the
    pairs of the complete graph."""
    if n > 7:
        raise GraphError("guarded to n <= 7")
    keep = {"all": lambda g: True, "2-connected": _two_connected,
            "outerplane": lambda g: find_outerplane_order(g) is not None}.get(filter)
    if keep is None:
        raise GraphError(f"unknown filter {filter!r}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for edges in _classes(n, pairs, lambda p, e: tuple(sorted((p[e[0]], p[e[1]])))):
        g = MultiGraph(n, edges)
        if keep(g):
            yield g


def enumerate_small_digraphs(n: int):
    """One digraph on n vertices without loops or repeated arcs
    (opposite arc pairs allowed) per isomorphism class whose underlying
    graph is 2-connected: the first of its class by arc-subset bitmask."""
    if n > 5:
        raise GraphError("guarded to n <= 5")
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in _classes(n, arcs, lambda p, a: (p[a[0]], p[a[1]])):
        d = DiGraph(n, chosen)
        if _two_connected(d.underlying()):
            yield d


@dataclass(frozen=True)
class ExperimentRecord:
    ident: str
    result: str  # cyclic | path | none | unknown
    millis: int

    def line(self, with_timings: bool = True) -> str:
        ms = self.millis if with_timings else 0
        return f"graph={self.ident} result={self.result} time={ms}"


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    records: tuple[ExperimentRecord, ...]
    discrepancies: tuple[str, ...]

    def summary_line(self) -> str:
        """Records per result, in result order, and the discrepancy count."""
        counts = Counter(r.result for r in self.records)
        summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        return f"# summary {summary} discrepancies={len(self.discrepancies)}"


def _validate_certificate(fg: FlipGraph, order, cycle: bool) -> None:
    byset = {frozenset((i, j)) for i, j, _ in fg.edge_labels}
    seq = list(order) + ([order[0]] if cycle and len(order) > 1 else [])
    if sorted(order) != list(range(fg.node_count)):
        raise CertificationError("certificate does not visit every node once")
    for a, b in zip(seq, seq[1:]):
        if frozenset((a, b)) not in byset:
            raise CertificationError(f"certificate step {a}-{b} is not an edge")


def run_experiment(kind: str, max_n: int, budget: int = 2 * 10 ** 6,
                   on_record=None) -> ExperimentReport:
    """One of the three sweeps: "pivot" (2-connected simple graphs,
    pivot-restricted, Hamilton cycle), "paf" (connected outerplane
    simple graphs, paf-restricted, Hamilton cycle), "arborescence"
    (digraphs with 2-connected underlying graph, every root, Hamilton
    path).  A "none" result is a discrepancy with the expected claims.
    ``on_record`` is called with each ExperimentRecord as it is made.
    """
    if max_n < 2:
        raise GraphError(f"experiment needs max_n >= 2, got {max_n}")
    if budget < 1:
        raise GraphError(f"experiment needs budget >= 1, got {budget}")
    records = []
    discrepancies = []

    def note(ident: str, result: str, t0: float):
        ms = int((time.perf_counter() - t0) * 1000)
        rec = ExperimentRecord(ident, result, ms)
        records.append(rec)
        if result == "none":
            discrepancies.append(ident)
        if on_record is not None:
            on_record(rec)

    if kind == "pivot" or kind == "paf":
        if max_n > 6:
            raise GraphError("experiment guarded to n <= 6")
        idx = 0
        for n in range(2, max_n + 1):
            # paf keeps the graphs with an outerplane order, searched once
            flt = "2-connected" if kind == "pivot" else "all"
            for g in enumerate_small_graphs(n, flt):
                t0 = time.perf_counter()
                if kind == "paf":
                    order = find_outerplane_order(g)
                    if order is None:
                        continue
                    fg = build_flip_graph(build_embedding(g, order), "paf")
                else:
                    fg = build_flip_graph(g, "pivot")
                res = hamilton_path(fg, cycle=True, budget=budget)
                if res.status == "found":
                    _validate_certificate(fg, res.order, cycle=True)
                    note(str(idx), "cyclic", t0)
                else:
                    note(str(idx), res.status, t0)
                idx += 1
    elif kind == "arborescence":
        if max_n > 5:
            raise GraphError("experiment guarded to n <= 5")
        idx = 0
        for n in range(2, max_n + 1):
            for d in enumerate_small_digraphs(n):
                for root in range(n):
                    t0 = time.perf_counter()
                    fg = arborescence_flip_graph(d, root)
                    if not fg.node_count:
                        continue
                    res = hamilton_path(fg, cycle=False, budget=budget)
                    if res.status == "found":
                        _validate_certificate(fg, res.order, cycle=False)
                        note(f"{idx}r{root}", "path", t0)
                    else:
                        note(f"{idx}r{root}", res.status, t0)
                idx += 1
    else:
        raise GraphError(f"unknown experiment {kind!r}")
    return ExperimentReport(kind, tuple(records), tuple(discrepancies))


def to_dot(fg: FlipGraph) -> str:
    out = ["graph flip {"]
    for i, t in enumerate(fg.nodes):
        out.append(f'  t{i} [label="{t.chi()}"];')
    for i, j, (a, b) in fg.edge_labels:
        out.append(f'  t{i} -- t{j} [label="{{{a},{b}}}"];')
    out.append("}")
    return "\n".join(out)


def to_text(fg: FlipGraph) -> str:
    out = [f"nodes={fg.node_count} edges={fg.edge_count} restriction={fg.restriction}"]
    for i, t in enumerate(fg.nodes):
        out.append(f"{i}: {t.chi()}")
    for i, j, (a, b) in fg.edge_labels:
        out.append(f"{i} {j} {{{a},{b}}}")
    return "\n".join(out)
