"""Flip graphs, Hamilton search, arborescences, small-graph sweeps."""

import hashlib
import io
import itertools
import random
from collections import Counter

import pytest

from conftest import (bundle_graph, complete_graph, cycle_graph,
                      diamond_embedding, diamond_graph, fan_embedding,
                      fan_graph, k33_graph, reference_classes,
                      reference_spanning_trees)
from spangray import flipgraph, treegen
from spangray.cli import entry
from spangray.counting import (count_matrix_tree, enumerate_outerplane,
                               extremal_family)
from spangray.embedgraph import (EdgeLabeling, EmbeddedGraph, MultiGraph,
                                 blocks, build_embedding)
from spangray.errors import CertificationError, GraphError
from spangray.flipgraph import (Arborescence, DiGraph, FlipGraph,
                                arborescence_flip_graph, build_flip_graph,
                                enumerate_arborescences,
                                enumerate_small_digraphs,
                                enumerate_small_graphs,
                                enumerate_spanning_trees,
                                find_outerplane_order, hamilton_path,
                                run_experiment, to_dot, to_text,
                                _backtrack_cycle, _classes, _posa_cycle,
                                _prunable, _validate_certificate)
from spangray.treegen import (Exchange, ExchangeClass, RESTRICTIONS,
                              classify_exchange, greedy_listing)


def pair_scan_flip_graph(g, restriction="any"):
    """Reference for ``build_flip_graph``: the scan of all T(T-1)/2
    pairs of trees it replaced, with its own swap decoder and class
    filter (pivot by a shared end when there is no embedding)."""
    emb, graph = (g, g.graph) if isinstance(g, EmbeddedGraph) else (None, g)
    identity = EdgeLabeling.identity(graph.m)
    nodes = reference_spanning_trees(graph)
    adjacency = [[] for _ in nodes]
    labels = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        diff = nodes[i].mask ^ nodes[j].mask
        lo, hi = diff & nodes[i].mask, diff & nodes[j].mask
        if bin(lo).count("1") != 1 or bin(hi).count("1") != 1:
            continue
        pair = tuple(sorted((lo.bit_length(), hi.bit_length())))
        if restriction != "any":
            if emb is not None:
                cls = classify_exchange(emb, identity, Exchange(*pair))
            else:
                cls = ExchangeClass(graph.shares_vertex(pair[0] - 1, pair[1] - 1),
                                    False, False)
            if not cls.matches(restriction):
                continue
        adjacency[i].append(j)
        adjacency[j].append(i)
        labels.append((i, j, pair))
    return FlipGraph(nodes, restriction,
                     tuple(tuple(sorted(x)) for x in adjacency), tuple(labels))


def pair_scan_arborescence_flip_graph(d, root):
    """Reference for ``arborescence_flip_graph``: the pair scan it
    replaced, joining arborescences that differ in two arcs with the
    same head."""
    nodes = enumerate_arborescences(d, root)
    adjacency = [[] for _ in nodes]
    labels = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        diff = nodes[i].mask ^ nodes[j].mask
        if bin(diff).count("1") != 2:
            continue
        a, b = [k for k in range(d.m) if diff >> k & 1]
        if d.arcs[a][1] != d.arcs[b][1]:
            continue
        adjacency[i].append(j)
        adjacency[j].append(i)
        labels.append((i, j, (a + 1, b + 1)))
    return FlipGraph(nodes, "arc-exchange",
                     tuple(tuple(sorted(x)) for x in adjacency), tuple(labels))


def min_canonical_small_graphs(n, filter="all"):
    """Reference for ``enumerate_small_graphs``: the sweep it replaced,
    which filters every edge subset by increasing bitmask and keeps one
    per class by the minimum encoding over all vertex permutations."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[k] for k in range(len(pairs)) if bits >> k & 1)
        g = MultiGraph(n, edges)
        if filter == "2-connected":
            if n >= 3:
                bl = blocks(g)
                if len(bl) != 1 or bl[0].graph.n != n:
                    continue
            elif g.m == 0 or not g.is_connected():
                continue
        elif filter == "outerplane":
            if not g.is_connected() or find_outerplane_order(g) is None:
                continue
        canon = min(tuple(sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u])
                          for u, v in edges)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            yield g


def min_canonical_small_digraphs(n):
    """Reference for ``enumerate_small_digraphs``, as above over arc
    subsets whose underlying graph is 2-connected."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for bits in range(1 << len(arcs)):
        chosen = tuple(arcs[k] for k in range(len(arcs)) if bits >> k & 1)
        d = DiGraph(n, chosen)
        und = d.underlying()
        if n >= 3:
            bl = blocks(und)
            if len(bl) != 1 or bl[0].graph.n != n:
                continue
        elif und.m == 0:
            continue
        canon = min(tuple(sorted((p[t], p[h]) for t, h in chosen)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            yield d


def sweep_digest(seq):
    """sha256 of the repr of a list of edge or arc tuples."""
    return hashlib.sha256(repr(seq).encode()).hexdigest()


def make_flip(n, edges):
    """Bare flip graph for solver tests."""
    adj = [[] for _ in range(n)]
    labels = []
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
        labels.append((i, j, (1, 2)))

    class Node:
        def chi(self):
            return "x"

    return FlipGraph(tuple(Node() for _ in range(n)), "any",
                     tuple(tuple(sorted(a)) for a in adj), tuple(labels))


def petersen_flip():
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
             + [(i, 5 + i) for i in range(5)])
    return make_flip(10, edges)


def fork_search(fg, cycle=False, forced_endpoints=None, budget=2 * 10 ** 6):
    """Reference for ``hamilton_path``: the status of the search it
    replaced.  That ran exhaustive backtracking alone on up to 24 search
    nodes, and rotation-extension on half the budget first above that
    (a path search adds a virtual node joined to every node, or to the
    two forced endpoints, and looks for a cycle through it)."""
    n = fg.node_count
    if n == 1:
        return "found"
    if cycle and n == 2:
        return "none"
    adj = [sum(1 << j for j in nbrs) for nbrs in fg.adjacency]
    start = 0
    if not cycle:
        ends = range(n) if forced_endpoints is None else forced_endpoints
        for i in ends:
            adj[i] |= 1 << n
        adj.append(sum(1 << i for i in ends))
        n, start = n + 1, n
    steps = 0
    if n > 24:
        order, steps = _posa_cycle(adj, n, budget // 2)
        if order is not None:
            return "found"
    return _backtrack_cycle(adj, n, start, budget - steps)[0]


def sweep_flip_graphs(kind, max_n):
    """The flip graphs that ``run_experiment(kind, max_n)`` searches, in
    its order, each with the sweep's mode (cycle or path)."""
    for n in range(2, max_n + 1):
        if kind == "pivot":
            for g in enumerate_small_graphs(n, "2-connected"):
                yield build_flip_graph(g, "pivot"), True
        elif kind == "paf":
            for g in enumerate_small_graphs(n, "all"):
                order = find_outerplane_order(g)
                if order is not None:
                    yield build_flip_graph(build_embedding(g, order), "paf"), True
        else:
            for d in enumerate_small_digraphs(n):
                for root in range(n):
                    fg = arborescence_flip_graph(d, root)
                    if fg.node_count:
                        yield fg, False


def has_minor(g, h_edges, h_n):
    """Brute minor test: try all ways to map branch sets."""
    from itertools import combinations
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    def connected(part):
        part = set(part)
        stack = [next(iter(part))]
        seen = {stack[0]}
        while stack:
            x = stack.pop()
            for y in adj[x] & part:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == part

    verts = range(g.n)
    for assign in itertools.product(range(h_n + 1), repeat=g.n):
        parts = [[v for v in verts if assign[v] == k + 1] for k in range(h_n)]
        if any(not p for p in parts):
            continue
        if any(not connected(p) for p in parts):
            continue
        ok = True
        for a, b in h_edges:
            if not any(w in adj[u] for u in parts[a] for w in parts[b]):
                ok = False
                break
        if ok:
            return True
    return False


def outerplanar_by_minors(g):
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k23 = [(i, j) for i in range(2) for j in range(2, 5)]
    return not has_minor(g, k4, 4) and not has_minor(g, k23, 5)


@pytest.mark.parametrize("call, message", [
    (lambda: list(enumerate_small_graphs(4, "bogus")), "unknown filter 'bogus'"),
    (lambda: list(enumerate_small_digraphs(6)), "guarded to n <= 5"),
    (lambda: DiGraph(2, [(0, 2)]), "arc endpoint out of range"),
    (lambda: enumerate_arborescences(DiGraph(2, [(0, 1)]), 2), "root out of range"),
    (lambda: enumerate_arborescences(DiGraph(2, [(0, 1)]), -1), "root out of range"),
    (lambda: hamilton_path(FlipGraph((), "any", (), ())), "empty flip graph"),
], ids=["filter", "digraphs", "arc", "root-high", "root-low", "empty-flip"])
def test_library_refusals(call, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        call()


class TestEnumerateTrees:
    def test_counts_match_kirchhoff(self):
        for g in (fan_graph(), diamond_graph(), cycle_graph(5),
                  bundle_graph(4), complete_graph(4), k33_graph()):
            assert len(enumerate_spanning_trees(g)) == count_matrix_tree(g)

    def test_all_distinct_trees(self):
        seen = set()
        for t in enumerate_spanning_trees(fan_graph()):
            assert t.mask not in seen
            seen.add(t.mask)

    def test_equals_reference_on_sweep(self):
        """The walk plus its sort gives the recursive reference's exact
        tuple: every small simple graph with n <= 6, every outerplane
        multigraph with m <= 9, 300 seeded multigraphs with loops,
        parallel and disconnected cases, n = 1 with and without loops,
        and every extremal strip with m <= 24."""
        rng = random.Random(17)
        graphs = [g for n in range(1, 7) for g in enumerate_small_graphs(n)]
        graphs += [emb.graph for emb in enumerate_outerplane(9)]
        for _ in range(300):
            n = rng.randint(1, 7)
            graphs.append(MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n))
                                              for _ in range(rng.randint(0, 12)))))
        graphs += [MultiGraph(1, ()), MultiGraph(1, ((0, 0), (0, 0)))]
        for k in range(1, 24):
            for ends in range(min(k, 2) + 1):
                g = extremal_family(k, ends).graph
                if g.m <= 24:
                    graphs.append(g)
        empty = 0
        for g in graphs:
            want = reference_spanning_trees(g)
            assert enumerate_spanning_trees(g) == want, g.edges
            empty += not want
        assert empty > 100 and max(g.m for g in graphs) == 24

    def test_guard_suggests_generator(self):
        g = bundle_graph(25)
        with pytest.raises(GraphError, match="greedy_listing"):
            enumerate_spanning_trees(g)


class TestBuildFlipGraph:
    def test_diamond_pivot_drops_disjoint_pairs(self, diamond):
        fg_any = build_flip_graph(diamond, "any")
        fg_piv = build_flip_graph(diamond, "pivot")
        assert fg_any.node_count == 8
        assert fg_any.edge_count == 18
        assert fg_piv.edge_count == 16
        dropped = ({l for *_, l in fg_any.edge_labels}
                   - {l for *_, l in fg_piv.edge_labels})
        assert dropped == {(1, 4), (2, 5)}

    def test_restriction_monotonicity(self, fan_emb, diamond_emb):
        for emb in (fan_emb, diamond_emb):
            sets = {r: {(i, j) for i, j, _ in
                        build_flip_graph(emb, r).edge_labels}
                    for r in ("any", "pivot", "face", "face_inner",
                              "paf", "pof")}
            assert sets["paf"] <= sets["pivot"] <= sets["pof"] <= sets["any"]
            assert sets["paf"] <= sets["face"] <= sets["pof"]
            assert sets["face_inner"] <= sets["face"]

    def test_face_restriction_needs_embedding(self, diamond):
        with pytest.raises(GraphError):
            build_flip_graph(diamond, "face")

    def test_unknown_restriction(self, diamond):
        with pytest.raises(GraphError):
            build_flip_graph(diamond, "bogus")

    @staticmethod
    def _count_exchanges(monkeypatch):
        made = []

        class Counted(treegen.Exchange):
            def __new__(cls, *args, **kwargs):
                made.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(treegen, "Exchange", Counted)
        monkeypatch.setattr(flipgraph, "Exchange", Counted, raising=False)
        return made

    def test_builds_no_exchange_objects(self, fan_emb, monkeypatch):
        """The builder tests each swap on ints: given its nodes, a pof
        flip graph and an arborescence flip graph construct no
        Exchange."""
        nodes = enumerate_spanning_trees(fan_emb.graph)
        made = self._count_exchanges(monkeypatch)
        monkeypatch.setattr(flipgraph, "enumerate_spanning_trees", lambda g: nodes)
        assert build_flip_graph(fan_emb, "pof").edge_count > 0
        d = DiGraph(3, ((0, 1), (0, 2), (1, 2), (2, 1)))
        assert arborescence_flip_graph(d, 0).edge_count > 0
        assert made == []

    def test_enumerator_shares_its_steps(self, monkeypatch):
        """The walk behind the enumerator builds at most one Exchange
        per directed label pair, not one per tree: at most 15 * 14 for
        the 987 trees of the m=15 strip."""
        g = extremal_family(7).graph
        made = self._count_exchanges(monkeypatch)
        assert (g.m, len(enumerate_spanning_trees(g))) == (15, 987)
        assert 0 < len(made) <= 15 * 14

    def test_listing_is_flip_path(self, fan, fan_emb):
        fg = build_flip_graph(fan_emb, "pivot")
        index = {t.mask: i for i, t in enumerate(fg.nodes)}
        from spangray.treegen import tiebreak_prefer
        listing = greedy_listing(fan, embedding=fan_emb,
                                 tiebreak=tiebreak_prefer("pivot"))
        byset = {frozenset((i, j)) for i, j, _ in fg.edge_labels}
        walk = [index[x] for x in listing.tree_masks]
        assert len(set(walk)) == fg.node_count
        for a, b in zip(walk, walk[1:]):
            assert frozenset((a, b)) in byset


class TestFlipGraphMatchesPairScan:
    """The builder that groups nodes by shared core gives the same
    FlipGraph, field for field and in the same order, as the pair scan."""

    def test_outerplane_every_restriction(self):
        """Every 2-connected outerplane multigraph with m <= 8, and each
        one with m <= 7 with a loop added, embedded under every
        restriction and bare under any and pivot."""
        embs = list(enumerate_outerplane(8))
        embs += [build_embedding(MultiGraph(e.graph.n, e.graph.edges + ((v, v),)),
                                 e.outer_order)
                 for e in embs if e.graph.m <= 7 for v in (0, e.graph.n - 1)]
        for emb in embs:
            for r in RESTRICTIONS:
                assert build_flip_graph(emb, r) == pair_scan_flip_graph(emb, r)
            for r in ("any", "pivot"):
                assert build_flip_graph(emb.graph, r) == pair_scan_flip_graph(emb.graph, r)

    def test_two_connected_graphs(self):
        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "2-connected"):
                for r in ("any", "pivot"):
                    assert build_flip_graph(g, r) == pair_scan_flip_graph(g, r)

    def test_digraphs_every_root(self):
        for n in range(2, 5):
            for d in enumerate_small_digraphs(n):
                for root in range(n):
                    assert (arborescence_flip_graph(d, root)
                            == pair_scan_arborescence_flip_graph(d, root))

    def test_seeded_multidigraphs(self):
        """Seeded digraphs with loops and parallel arcs, at a random root."""
        rng = random.Random(17)
        with_edges = 0
        for _ in range(200):
            n = rng.randrange(1, 6)
            arcs = [(rng.randrange(n), rng.randrange(n))
                    for _ in range(rng.randrange(n, 3 * n + 1))]
            d, root = DiGraph(n, arcs), rng.randrange(n)
            fg = arborescence_flip_graph(d, root)
            assert fg == pair_scan_arborescence_flip_graph(d, root)
            with_edges += fg.edge_count > 0
        assert with_edges >= 50


class TestHamilton:
    def test_cycle_graph(self):
        fg = make_flip(20, [(i, (i + 1) % 20) for i in range(20)])
        r = hamilton_path(fg, cycle=True)
        assert r.status == "found" and len(r.order) == 20

    def test_petersen_no_cycle(self):
        r = hamilton_path(petersen_flip(), cycle=True)
        assert r.status == "none"

    def test_petersen_has_path(self):
        r = hamilton_path(petersen_flip(), cycle=False)
        assert r.status == "found"

    def test_forced_endpoints(self):
        fg = make_flip(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        r = hamilton_path(fg, forced_endpoints=(1, 2))
        assert r.status == "found"
        assert {r.order[0], r.order[-1]} == {1, 2}
        # adjacent corners cannot be the two ends of a 4-cycle path
        r = hamilton_path(make_flip(4, [(0, 1), (1, 2), (2, 3)]),
                          forced_endpoints=(0, 1))
        assert r.status == "none"

    def test_prune_when_start_has_no_free_neighbour(self):
        """Path 4 -> 0 -> 1 in K4 plus a node 4 joined to 0 and 1: the
        free nodes 2 and 3 are reachable from 1 and keep two links each,
        but the cycle cannot close at 4, whose neighbours are used."""
        adj = [0b11110, 0b11101, 0b01011, 0b00111, 0b00011]
        assert _prunable(adj, 0b10011, 1, 4, 0b11111)
        assert not _prunable(adj, 0b10001, 0, 4, 0b11111)

    def test_same_side_ends_of_bipartite_graph(self):
        """K_{6,6} has no Hamilton path with both ends on one side.  The
        exhaustive search says so after 99,363 steps; without the check
        that the cycle can still close at its start, it took 323,343."""
        edges = [(i, j) for i in range(6) for j in range(6, 12)]
        r = hamilton_path(make_flip(12, edges), forced_endpoints=(0, 1))
        assert (r.status, r.steps) == ("none", 99363)

    def test_trivial_sizes(self):
        one = make_flip(1, [])
        assert hamilton_path(one, cycle=True).status == "found"
        assert hamilton_path(one, cycle=False).order == (0,)
        two = make_flip(2, [(0, 1)])
        assert hamilton_path(two, cycle=True).status == "none"
        assert hamilton_path(two, cycle=False).status == "found"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bad_forced_endpoints_at_every_size(self, n):
        """The argument checks come before the 1- and 2-node answers:
        out-of-range or equal endpoints, and endpoints with a cycle,
        raise at every node count."""
        fg = make_flip(n, [(i, i + 1) for i in range(n - 1)])
        for ends in ((5, 7), (0, 0), (0, n)):
            with pytest.raises(GraphError, match="two distinct nodes"):
                hamilton_path(fg, forced_endpoints=ends)
        for ends in ((0, 0), (0, n - 1)):
            with pytest.raises(GraphError, match="only apply to path search"):
                hamilton_path(fg, cycle=True, forced_endpoints=ends)
        if n > 1:
            assert hamilton_path(fg, forced_endpoints=(0, n - 1)).status == "found"

    def test_budget_unknown(self):
        k5 = complete_graph(5)
        fg = build_flip_graph(k5, "pivot")
        r = hamilton_path(fg, cycle=True, budget=10)
        assert r.status == "unknown"

    def test_dense_found_and_deterministic(self):
        k5 = complete_graph(5)
        fg = build_flip_graph(k5, "pivot")
        r1 = hamilton_path(fg, cycle=True)
        r2 = hamilton_path(fg, cycle=True)
        assert r1.status == "found"
        assert r1.order == r2.order and r1.steps == r2.steps

    def test_disconnected_none(self):
        fg = make_flip(4, [(0, 1), (2, 3)])
        assert hamilton_path(fg, cycle=False).status == "none"

    def test_results_pinned(self):
        """sha256 of the repr of every HamiltonResult (status, order and
        steps) over a fixed sweep, cycle and path each: the pivot flip
        graphs of the 2-connected graphs with n <= 5 at budgets 10, 200
        and the default; the pof flip graphs of the outerplane
        multigraphs with m <= 7 at budgets 20, 60, 200 and the default,
        where backtracking finds some orders that rotation-extension
        missed; and the Petersen graph and two disjoint triangles, where
        it must prune."""
        results = []
        for n in range(1, 6):
            for g in enumerate_small_graphs(n, "2-connected"):
                fg = build_flip_graph(g, "pivot")
                for cycle in (True, False):
                    for budget in (10, 200, 2 * 10 ** 6):
                        results.append(hamilton_path(fg, cycle=cycle, budget=budget))
        for emb in enumerate_outerplane(7):
            fg = build_flip_graph(emb, "pof")
            for cycle in (True, False):
                for budget in (20, 60, 200, 2 * 10 ** 6):
                    results.append(hamilton_path(fg, cycle=cycle, budget=budget))
        for fg in (petersen_flip(),
                   make_flip(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])):
            results += [hamilton_path(fg, cycle=cycle) for cycle in (True, False)]
        assert Counter(r.status for r in results) == {"found": 417, "unknown": 86, "none": 7}
        assert sweep_digest(results) == (
            "5aa74c82cb1128d3aac9b7ea2eb954f28c15f12f7d9cd7bdd51d71245fc750da")


FAN_PIVOT = MultiGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)))


class TestHamiltonMatchesForkSearch:
    """Rotation-extension goes first at every size; every status must be
    the one the size fork gave, which is exhaustive backtracking alone on
    all but the largest graphs here, and every order found must be a
    certificate."""

    def check(self, fg, cycle=False, forced_endpoints=None):
        r = hamilton_path(fg, cycle=cycle, forced_endpoints=forced_endpoints)
        assert r.status == fork_search(fg, cycle, forced_endpoints)
        if r.status == "found":
            _validate_certificate(fg, r.order, cycle)
            if forced_endpoints is not None:
                assert {r.order[0], r.order[-1]} == set(forced_endpoints)
        return r.status

    @pytest.mark.parametrize("kind, max_n, count", [
        ("pivot", 5, 15), ("paf", 5, 21), ("arborescence", 4, 400)])
    def test_sweeps(self, kind, max_n, count):
        statuses = [self.check(fg, cycle) for fg, cycle in sweep_flip_graphs(kind, max_n)]
        assert len(statuses) == count and set(statuses) == {"found"}

    @pytest.mark.parametrize("fg, has_path", [
        (petersen_flip(), True),
        (make_flip(8, [(i, j) for i in range(3) for j in range(3, 8)]), False),
        (make_flip(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]), True),
        (make_flip(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), False),
    ], ids=["petersen", "k3,5", "cut-vertex", "disconnected"])
    def test_no_hamilton_cycle(self, fg, has_path):
        assert self.check(fg, cycle=True) == "none"
        assert self.check(fg) == ("found" if has_path else "none")

    def test_seeded_random_graphs(self):
        rng = random.Random(11)
        forced = Counter()
        for _ in range(300):
            # up to 10 nodes: the reference's forced-endpoint search on
            # dense 12-node graphs takes seconds
            n = rng.randrange(1, 11)
            p = rng.random()
            fg = make_flip(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < p])
            self.check(fg, cycle=True)
            self.check(fg)
            if n >= 2:
                forced[self.check(fg, forced_endpoints=tuple(rng.sample(range(n), 2)))] += 1
        assert forced["found"] >= 50 and forced["none"] >= 50

    def test_fan_found_by_rotation_extension(self):
        fg = build_flip_graph(FAN_PIVOT, "pivot")
        assert fg.node_count == 21
        r = hamilton_path(fg, cycle=True)
        assert r.status == "found" and r.steps <= 21 ** 2
        _validate_certificate(fg, r.order, cycle=True)
        assert hamilton_path(fg, cycle=True, budget=10).status == "unknown"


class TestArborescences:
    def bidirected(self, n):
        return DiGraph(n, tuple((a, b) for a in range(n)
                                for b in range(n) if a != b))

    def test_cayley(self):
        for n in (3, 4, 5):
            d = self.bidirected(n)
            for r in range(n):
                assert len(enumerate_arborescences(d, r)) == n ** (n - 2)

    def test_arcs_away_from_root(self):
        d = DiGraph(3, ((0, 1), (1, 2), (2, 0), (1, 0)))
        arbs = enumerate_arborescences(d, 0)
        assert len(arbs) == 1
        assert arbs[0].arcs() == frozenset({0, 1})

    def test_unreachable_gives_none(self):
        d = DiGraph(3, ((0, 1), (0, 2)))
        assert enumerate_arborescences(d, 1) == ()

    def test_flip_adjacency_same_head(self):
        d = self.bidirected(4)
        fg = arborescence_flip_graph(d, 0)
        assert fg.node_count == 16
        for i, j, _ in fg.edge_labels:
            diff = fg.nodes[i].mask ^ fg.nodes[j].mask
            a, b = [k for k in range(d.m) if diff >> k & 1]
            assert d.arcs[a][1] == d.arcs[b][1]

    def test_k4_hamilton_path(self):
        fg = arborescence_flip_graph(self.bidirected(4), 0)
        assert hamilton_path(fg, cycle=False).status == "found"


class TestSmallGraphs:
    def test_two_connected_counts(self):
        for n, want in ((3, 1), (4, 3), (5, 10)):
            assert sum(1 for _ in enumerate_small_graphs(n, "2-connected")) == want

    def test_all_count_n4(self):
        assert sum(1 for _ in enumerate_small_graphs(4, "all")) == 11

    def test_matches_min_canonical_reference(self):
        """The same graphs and digraphs, in the same order, as the
        minimum-over-permutations dedup: graphs with n <= 5 under every
        filter and digraphs with n <= 4."""
        for n in range(1, 6):
            for flt in ("all", "2-connected", "outerplane"):
                assert ([g.edges for g in enumerate_small_graphs(n, flt)]
                        == [g.edges for g in min_canonical_small_graphs(n, flt)]), (n, flt)
        for n in range(1, 5):
            assert ([d.arcs for d in enumerate_small_digraphs(n)]
                    == [d.arcs for d in min_canonical_small_digraphs(n)]), n

    def test_classes_equal_reference(self):
        """Marking a subset's images by summed columns keeps the classes
        and their order of the per-permutation marking: graphs with
        n <= 6 and digraphs with n <= 4."""
        for n in range(1, 7):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            image = lambda p, e: tuple(sorted((p[e[0]], p[e[1]])))
            assert list(_classes(n, pairs, image)) == list(reference_classes(n, pairs, image)), n
        for n in range(1, 5):
            arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
            image = lambda p, a: (p[a[0]], p[a[1]])
            assert list(_classes(n, arcs, image)) == list(reference_classes(n, arcs, image)), n

    def test_outerplane_matches_minor_oracle(self):
        for n in (3, 4, 5):
            mine = [g for g in enumerate_small_graphs(n, "all")
                    if g.is_connected()]
            by_order = [g for g in mine if find_outerplane_order(g) is not None]
            by_minor = [g for g in mine if outerplanar_by_minors(g)]
            assert len(by_order) == len(by_minor)
            got = sum(1 for _ in enumerate_small_graphs(n, "outerplane"))
            assert got == len(by_order)

    def test_guard(self):
        with pytest.raises(GraphError):
            list(enumerate_small_graphs(8))

    def test_digraph_counts(self):
        assert sum(1 for _ in enumerate_small_digraphs(3)) == 7
        assert sum(1 for _ in enumerate_small_digraphs(4)) == 129


class TestFindOuterOrder:
    def test_positive(self, diamond):
        order = find_outerplane_order(diamond)
        assert order is not None
        build_embedding(diamond, order)

    def test_negative(self):
        assert find_outerplane_order(complete_graph(4)) is None
        assert find_outerplane_order(
            MultiGraph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))) is None

    def test_disconnected(self):
        assert find_outerplane_order(MultiGraph(3, ((0, 1),))) is None


class TestExperiments:
    def test_pivot_small_all_cyclic(self):
        rep = run_experiment("pivot", 4)
        assert rep.discrepancies == ()
        assert {r.result for r in rep.records} == {"cyclic"}

    def test_paf_small_all_cyclic(self):
        rep = run_experiment("paf", 4)
        assert rep.discrepancies == ()
        assert {r.result for r in rep.records} == {"cyclic"}
        assert len(rep.records) == 8  # 1 + 2 + 5 connected outerplane classes

    def test_arborescence_small_all_paths(self):
        rep = run_experiment("arborescence", 3)
        assert rep.discrepancies == ()
        assert {r.result for r in rep.records} == {"path"}

    def test_record_format(self):
        rep = run_experiment("paf", 3)
        import re
        for rec in rep.records:
            assert re.fullmatch(
                r"graph=\S+ result=(cyclic|path|none|unknown) time=0", rec.line(False))

    def test_paf_records_pinned(self):
        """One record per connected outerplane class, numbered in the
        enumerator's order."""
        rep = run_experiment("paf", 5)
        assert [r.line(False) for r in rep.records] == [
            f"graph={i} result=cyclic time=0" for i in range(21)]

    @pytest.mark.parametrize("kind, max_n, digest", [
        ("pivot", 5, "7e853bc7834c8ca9dc0347922ecf7150ff9464288a77f08c15e22bdfa8d6660e"),
        ("arborescence", 4, "d02926d95afb25c05558ca4834ab81f4b1a7e71091e55dcbd046fd18af5dc453"),
    ])
    def test_cli_records_pinned(self, kind, max_n, digest):
        """sha256 of ``spangray experiment --no-timings`` stdout, as
        computed before rotation-extension ran first at every size."""
        buf = io.StringIO()
        assert entry(["experiment", "--kind", kind, "--max-n", str(max_n),
                      "--no-timings"], out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_streaming_callback(self):
        got = []
        run_experiment("paf", 3, on_record=got.append)
        assert [r.ident for r in got] == ["0", "1", "2"]

    def test_bad_kind(self):
        with pytest.raises(GraphError):
            run_experiment("nope", 3)

    def test_guards(self):
        with pytest.raises(GraphError):
            run_experiment("pivot", 7)
        with pytest.raises(GraphError):
            run_experiment("arborescence", 6)


class TestExport:
    def test_dot(self):
        fg = build_flip_graph(cycle_graph(3), "any")
        dot = to_dot(fg)
        assert dot.startswith("graph flip {")
        assert 't0 [label="110"];' in dot
        assert dot.strip().endswith("}")

    def test_text(self):
        fg = build_flip_graph(cycle_graph(3), "any")
        txt = to_text(fg).splitlines()
        assert txt[0] == "nodes=3 edges=3 restriction=any"
        assert txt[1] == "0: 110"


@pytest.mark.slow
class TestSweepDigests:
    """Counts and sha256 digests of the full sweeps, as computed once by
    ``min_canonical_small_graphs`` and ``min_canonical_small_digraphs``,
    which take minutes on them."""

    GRAPHS_N6 = {
        "all": (156, "88b6dc659a6ff0fec681f892caad0d3410e4ac53d9779b29eb1135dd0ed8505c"),
        "2-connected": (56, "e4e5ceccd9106ca4fd9a4a01c9c83dcbd7b2c0c0677d8dc1be9217fedf7d0d29"),
        "outerplane": (46, "1a56035926ef8207fa1e4c51324ffda6413b5c47bca8214985285a436bf684fb"),
    }

    @pytest.mark.parametrize("flt", GRAPHS_N6)
    def test_graphs_n6(self, flt):
        seq = [g.edges for g in enumerate_small_graphs(6, flt)]
        assert (len(seq), sweep_digest(seq)) == self.GRAPHS_N6[flt]

    def test_digraphs_n5(self):
        seq = [d.arcs for d in enumerate_small_digraphs(5)]
        assert (len(seq), sweep_digest(seq)) == (
            7447, "bcd24ed87d35f40d71303af000d746228e13b559d78e8a67c39e4ff7e764520f")


@pytest.mark.slow
class TestSixVertexExperiments:
    """The full published ranges."""

    def test_pivot_n6(self):
        rep = run_experiment("pivot", 6, budget=8 * 10 ** 6)
        assert rep.discrepancies == ()

    def test_paf_n6(self):
        rep = run_experiment("paf", 6, budget=8 * 10 ** 6)
        assert rep.discrepancies == ()

    def test_arborescence_n5(self):
        rep = run_experiment("arborescence", 5, budget=8 * 10 ** 6)
        assert rep.discrepancies == ()
