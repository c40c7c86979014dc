"""Greedy generation, tie rules, genlex verification, exchange classes."""

import copy
import dataclasses
import gc
import io
import itertools
import pickle
import random
import re
import tracemalloc
import types
import weakref

import pytest

from conftest import (bundle_graph, cycle_graph, k33_graph, loopy_triangle,
                      random_outerplane_multigraph, reference_prefer,
                      reference_render_lines, reference_spanning_trees,
                      wheel_graph)
from spangray import cli, treegen
from spangray.cli import entry, parse_listing
from spangray.counting import (count_matrix_tree, enumerate_outerplane,
                               extremal_family)
from spangray.dualtree import (default_root_leaf, dual_tree_labeling,
                               orient_split_dual, split_dual)
from spangray.embedgraph import (EdgeLabeling, MultiGraph, _fundamental, _labels, _links,
                                 build_embedding)
from spangray.errors import CertificationError, GraphError
from spangray.flipgraph import Arborescence
from spangray.treegen import (Exchange, ExchangeClass, Listing, RESTRICTIONS,
                              SpanningTree, TieContext, _class_rows,
                              _classifier, classify_exchange,
                              greedy_listing,
                              greedy_walk, kruskal_tree, random_spanning_tree,
                              spanning_tree_from_labels, tiebreak_closest,
                              tiebreak_prefer, tiebreak_random,
                              valid_exchanges, verify_genlex,
                              verify_genlex_masks, verify_gray)


# a phrase of each violation verify_gray reports
VIOLATIONS = ("is not a spanning tree", "repeats tree", "count says",
              "do not differ", "records", "exchange (")


def run_cli(argv):
    """``spangray`` with argv, as (exit code, stdout)."""
    buf = io.StringIO()
    return entry(argv, out=buf), buf.getvalue()


def verify_stdout(genlex, rep, klass):
    """What ``spangray verify --class klass`` prints for the genlex
    verdict and the report."""
    out = f"genlex: {'ok' if genlex else 'FAIL'}\n"
    if rep.ok:
        return out + (f"exchanges: ok class={klass} trees={rep.count}"
                      + ("" if rep.expected is None else f" expected={rep.expected}") + "\n")
    return out + "".join(f"exchanges: FAIL {v}\n" for v in rep.violations)


def genlex_brute(masks, m):
    """Quadratic oracle: strings sharing a suffix must be consecutive."""
    for pos in range(m):
        shift = pos
        suffixes = [x >> shift for x in masks]
        seen = set()
        prev = None
        for s in suffixes:
            if s != prev:
                if s in seen:
                    return False
                seen.add(s)
                prev = s
    return True


def rooted(g, lab, mask):
    """The tree ``mask`` searched from vertex 0: per vertex its parent
    (-1 at the root), the label of the edge to it and its depth."""
    adj = [[] for _ in range(g.n)]
    for l in range(1, g.m + 1):
        if mask >> (l - 1) & 1:
            u, v = g.edges[lab.edge(l)]
            adj[u].append((v, l))
            adj[v].append((u, l))
    up, up_label, depth = [-1] * g.n, [0] * g.n, [0] * g.n
    todo = [0]
    while todo:
        x = todo.pop()
        for y, l in adj[x]:
            if y != up[x]:
                up[y], up_label[y], depth[y] = x, l, depth[x] + 1
                todo.append(y)
    return up, up_label, depth


def tree_paths(g, lab, mask):
    """``path(l)``: the labels on the tree path between the ends of
    label l, by climbing the tree ``mask`` searched from vertex 0."""
    up, up_label, depth = rooted(g, lab, mask)

    def path(l):
        u, v = g.edges[lab.edge(l)]
        labels = []
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            labels.append(up_label[u])
            u = up[u]
        return labels

    return path


def reference_cut(g, lab, mask, k):
    """``_fundamental`` by path searches: per non-tree label below k the
    tree labels below k on its path, per tree label below k the non-tree
    labels below k whose path runs through it, 0 elsewhere."""
    path = tree_paths(g, lab, mask)
    cut = [0] * (g.m + 1)
    for l in range(1, k):
        if not mask >> (l - 1) & 1:
            for t in path(l):
                if t < k:
                    cut[l] |= 1 << t - 1
                    cut[t] |= 1 << l - 1
    return cut


def _partners(bit, mask, path, f):
    """The labels e < f that exchange with f in the tree ``mask``,
    ascending, from the tree paths: a tree label's partners are the
    smaller non-tree labels whose path runs through it (a loop's path
    is empty), a non-tree label's the smaller labels on its path."""
    if mask & bit[f]:
        return [e for e in range(1, f) if not mask & bit[e] and f in path(e)]
    return sorted(e for e in path(f) if e < f)


def visited_set_walk(g, lab, emb, initial, tiebreak, max_trees=None):
    """Reference greedy walk that remembers every tree it listed: each
    step takes the smallest larger label f with a partner e whose
    exchange reaches an unlisted tree, and breaks the tie among those.
    It searches the whole tree again for every tree."""
    bit = [0] + [1 << (l - 1) for l in range(1, g.m + 1)]
    mask = initial.mask
    visited, masks, steps = {mask}, [mask], []

    while len(masks) != max_trees:
        path = tree_paths(g, lab, mask)
        for f in range(1, g.m + 1):
            f_in = mask & bit[f]
            cands = tuple(Exchange(removed=f, added=e) if f_in
                          else Exchange(removed=e, added=f)
                          for e in _partners(bit, mask, path, f)
                          if mask ^ bit[f] ^ bit[e] not in visited)
            if cands:
                break
        else:
            return masks, steps
        ex = tiebreak(TieContext(g, lab, emb, mask, cands))
        mask ^= bit[ex.removed] ^ bit[ex.added]
        visited.add(mask)
        masks.append(mask)
        steps.append(ex)
    return masks, steps


def reference_class(emb, a, b):
    """The class of edges a and b by their end vertices and the faces
    both bound, as the class bits must give it."""
    fb = emb.faces_of_edge(b)
    common = [f for f in emb.faces_of_edge(a) if f in fb]
    return ExchangeClass(emb.graph.shares_vertex(a, b), bool(common),
                         any(f != emb.outer_face for f in common))


def from_scratch_report(listing, klass):
    """Reference for ``verify_gray``: the union-find check of every
    listed tree from scratch (a bit at m or above is no tree), repeats
    by search, completeness by the matrix-tree count, and each step
    decoded from its two masks, its class read from the end vertices
    and faces (``reference_class``); the violations in ``verify_gray``'s
    order."""
    g, lab, emb, m = listing.graph, listing.labeling, listing.embedding, listing.graph.m
    masks = list(listing.tree_masks)
    pairs = [(ex.removed, ex.added) for ex, _ in listing.steps]
    bad = []
    for i, x in enumerate(masks):
        if x >> m or not g.is_spanning_tree([lab.edge(p + 1) for p in range(m) if x >> p & 1]):
            bad.append(f"tree {i} is not a spanning tree")
            break
    for i, x in enumerate(masks):
        if x in masks[:i]:
            bad.append(f"tree {i} repeats tree {masks.index(x)}")
            break
    expected = None
    if not listing.truncated:
        expected = count_matrix_tree(g)
        if len(masks) != expected:
            bad.append(f"listing has {len(masks)} trees, count says {expected}")
    for i in range(1, len(masks)):
        out_bits, in_bits = masks[i - 1] & ~masks[i], masks[i] & ~masks[i - 1]
        if bin(out_bits).count("1") != 1 or bin(in_bits).count("1") != 1:
            bad.append(f"trees {i - 1},{i} do not differ in one exchange")
            continue
        r, a = out_bits.bit_length(), in_bits.bit_length()
        swap = tuple(sorted((r, a)))
        if i <= len(pairs) and pairs[i - 1] != (r, a):
            bad.append(f"step {i - 1} records {tuple(sorted(pairs[i - 1]))}, "
                       f"trees differ by {swap}")
        if klass != "any" and (r > m or a > m or not reference_class(
                emb, lab.edge(r), lab.edge(a)).matches(klass)):
            bad.append(f"step {i - 1} exchange {swap} is not {klass}")
    return treegen.GrayReport(not bad, tuple(bad), len(masks), expected)


def off_path_swaps(g, lab, mask):
    """Every (r, a) with a a non-tree label and r a tree label off the
    tree path of a, split by whether r lies above the lowest common
    ancestor of a's ends in the tree rooted at vertex 0."""
    up, up_label, _ = rooted(g, lab, mask)

    def climb(x):
        labels = set()
        while up[x] >= 0:
            labels.add(up_label[x])
            x = up[x]
        return labels

    tree = [l for l in range(1, g.m + 1) if mask >> (l - 1) & 1]
    above, aside = [], []
    for a in range(1, g.m + 1):
        if not mask >> (a - 1) & 1:
            cu, cv = (climb(v) for v in g.edges[lab.edge(a)])
            for r in tree:
                if r not in cu ^ cv:
                    (above if r in cu else aside).append((r, a))
    return above, aside


def exchange_walk(g, lab, mask, steps, rng):
    """A seeded walk of valid exchanges, not genlex: step j picks among
    the exchanges whose larger label is at most a cap that rises from 2
    to m (or is the smallest there is), so a verifier that widens its
    tree meets ever larger labels."""
    masks, exs = [mask], []
    for j in range(steps):
        cands = valid_exchanges(g, lab, SpanningTree(g.m, mask))
        if not cands:
            break
        cap = max(2 + j * g.m // steps, cands[0].larger)
        ex = rng.choice([x for x in cands if x.larger <= cap])
        mask ^= 1 << ex.removed - 1 | 1 << ex.added - 1
        masks.append(mask)
        exs.append(ex)
    return masks, exs


def with_loop(g, rng):
    """The graph with a loop at a seeded vertex, at a seeded edge id."""
    edges = list(g.edges)
    v = rng.randrange(g.n)
    edges.insert(rng.randrange(g.m + 1), (v, v))
    return MultiGraph(g.n, tuple(edges))


def swapped_below(g, lab, mask, k, rng):
    """The tree ``mask`` after up to three seeded exchanges of two labels
    below k, each a tree label on the added label's tree path."""
    for _ in range(3):
        path = tree_paths(g, lab, mask)
        swaps = [(r, a) for a in range(1, k) if not mask >> (a - 1) & 1
                 for r in path(a) if r < k]
        if not swaps:
            break
        r, a = rng.choice(swaps)
        mask ^= 1 << r - 1 ^ 1 << a - 1
    return mask


def corrupted_listings(listing, rng):
    """The listing and seeded corruptions of it, as (name, Listing): a
    first tree that is not a tree, swaps whose removed label is off the
    added label's path (above the LCA of its ends or aside), a repeated
    tree, bits at or above m and loop labels (each alone and in a swap),
    and a two-swap step followed by valid swaps."""
    g, lab, m = listing.graph, listing.labeling, listing.graph.m
    masks = list(listing.tree_masks)

    def make(ms):
        return Listing(g, lab, listing.embedding, tuple(ms), listing.steps,
                       listing.truncated, None)

    yield "valid", listing
    yield "first_not_tree", make([masks[0] ^ 1 << rng.randrange(m)] + masks[1:])
    if len(masks) < 2:
        return
    i = rng.randrange(1, len(masks))
    for name, swaps in zip(("above_lca", "aside"), off_path_swaps(g, lab, masks[i - 1])):
        if swaps:
            r, a = rng.choice(swaps)
            yield name, make(masks[:i] + [masks[i - 1] ^ 1 << r - 1 ^ 1 << a - 1]
                             + masks[i + 1:])
    yield "repeat", make(masks[:i] + masks[i - 1:])
    yield "high_bit", make(masks[:i] + [masks[i] | 1 << m] + masks[i + 1:])
    r = masks[i - 1] & -masks[i - 1]
    yield "high_bit_swap", make(masks[:i] + [masks[i - 1] ^ r | 1 << m] + masks[i + 1:])
    for e in g.loop_edges():
        loop = 1 << lab.label(e) - 1
        yield "loop_bit", make(masks[:i] + [masks[i] | loop] + masks[i + 1:])
        yield "loop_swap", make(masks[:i] + [masks[i - 1] ^ r ^ loop] + masks[i + 1:])
    two = [j for j in range(1, len(masks) - 1)
           if bin(masks[j - 1] ^ masks[j + 1]).count("1") == 4]
    if two:
        j = rng.choice(two)
        yield "two_swap", make(masks[:j] + masks[j + 1:])


class TestSpanningTree:
    def test_chi_and_labels(self):
        t = SpanningTree(7, 0b0101011)
        assert t.chi() == "1101010"
        assert t.labels() == frozenset({1, 2, 4, 6})

    def test_chi_matches_per_bit_reference(self):
        """The one-call chi line equals the per-bit rendering (label 1
        leftmost) for m = 0..70 on seeded masks, and so does the
        arborescence export's."""
        rng = random.Random(13)
        for m in range(71):
            for mask in {0, (1 << m) - 1} | {rng.getrandbits(m) for _ in range(20)}:
                want = "".join("1" if mask >> l & 1 else "0" for l in range(m))
                assert SpanningTree(m, mask).chi() == want
                assert Arborescence(m, 0, mask).chi() == want
        assert SpanningTree(0, 0).chi() == ""

    def test_from_labels_valid(self, fan):
        lab = EdgeLabeling.identity(7)
        t = spanning_tree_from_labels(fan, lab, [1, 2, 4, 6])
        assert t.chi() == "1101010"

    def test_from_labels_rejects(self, fan):
        lab = EdgeLabeling.identity(7)
        with pytest.raises(GraphError):
            spanning_tree_from_labels(fan, lab, [1, 2, 3, 4])  # cycle
        with pytest.raises(GraphError):
            spanning_tree_from_labels(fan, lab, [1, 2, 4])

    def test_from_labels_rejects_repeats(self, fan):
        """A repeated label is an error, not the tree of the distinct
        labels."""
        lab = EdgeLabeling.identity(7)
        with pytest.raises(GraphError, match="^label 6 is repeated$"):
            spanning_tree_from_labels(fan, lab, [1, 2, 5, 6, 6])

    def test_kruskal(self, fan):
        lab = EdgeLabeling.identity(7)
        assert kruskal_tree(fan, lab).labels() == frozenset({1, 2, 4, 6})

    def test_random_tree_valid(self, fan):
        lab = EdgeLabeling.identity(7)
        rng = random.Random(3)
        for _ in range(20):
            t = random_spanning_tree(fan, lab, rng)
            assert fan.is_spanning_tree(lab.edge(l) for l in t.labels())


class TestExchange:
    def test_parts(self):
        ex = Exchange(removed=5, added=2)
        assert ex.larger == 5 and ex.smaller == 2
        assert ex.pair() == (2, 5)

    def test_class_flags(self):
        c = ExchangeClass(pivot=True, face=False, face_inner=False)
        assert not c.paf and c.pof
        assert c.matches("pivot") and c.matches("pof") and c.matches("any")
        assert not c.matches("face") and not c.matches("paf")
        assert "pivot" in RESTRICTIONS and "any" in RESTRICTIONS


class TestValidExchanges:
    def test_fan_frozen_set(self, fan):
        """The full exchange fan-out of one specific tree."""
        lab = EdgeLabeling.identity(7)
        t = spanning_tree_from_labels(fan, lab, [1, 2, 5, 6])
        got = {ex.pair() for ex in valid_exchanges(fan, lab, t)}
        assert got == {(1, 3), (2, 3), (1, 4), (2, 4), (4, 5), (5, 7), (6, 7)}

    def test_sorted_by_larger_then_smaller(self, fan):
        lab = EdgeLabeling.identity(7)
        t = spanning_tree_from_labels(fan, lab, [1, 2, 5, 6])
        pairs = [(ex.larger, ex.smaller) for ex in valid_exchanges(fan, lab, t)]
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_brute_force_oracle(self, shuffle):
        """Every tree of every outerplane multigraph with m <= 7: the
        exchanges are exactly the pairs (e, f) for which T - e + f is a
        spanning tree, ordered by (larger, smaller)."""
        rng = random.Random(11)
        for emb in enumerate_outerplane(7):
            g = emb.graph
            lab = EdgeLabeling.shuffled(g.m, rng) if shuffle else EdgeLabeling.identity(g.m)
            for t in reference_spanning_trees(g):
                tree = {lab.label(l - 1) for l in t.labels()}
                want = sorted(
                    (Exchange(removed=e, added=f) for e in tree
                     for f in set(range(1, g.m + 1)) - tree
                     if g.is_spanning_tree(lab.edge(l) for l in tree - {e} | {f})),
                    key=lambda x: (x.larger, x.smaller))
                mask = sum(1 << (l - 1) for l in tree)
                assert valid_exchanges(g, lab, SpanningTree(g.m, mask)) == tuple(want)

    def test_rejects_non_trees(self, fan):
        lab = EdgeLabeling.identity(7)
        with pytest.raises(GraphError):
            valid_exchanges(fan, lab, SpanningTree(7, 0b1111))  # cycle 1-2-3
        with pytest.raises(GraphError):
            valid_exchanges(fan, lab, SpanningTree(8, 0b0101011))  # m differs

    def test_loops_never_appear(self):
        g = loopy_triangle()
        lab = EdgeLabeling.identity(4)
        t = spanning_tree_from_labels(g, lab, [1, 2])
        for ex in valid_exchanges(g, lab, t):
            assert 4 not in ex.pair()


class TestTieRules:
    def test_closest_picks_max_smaller(self, fan):
        lab = EdgeLabeling.identity(7)
        t = spanning_tree_from_labels(fan, lab, [1, 2, 5, 6])
        cands = tuple(ex for ex in valid_exchanges(fan, lab, t)
                      if ex.larger == 4)
        ctx = TieContext(fan, lab, None, t.mask, cands)
        assert tiebreak_closest(ctx).pair() == (2, 4)

    def test_closest_is_prefer_any(self, fan):
        """The built-in closest rule is the prefer rule of class "any":
        on criterion 2's tie both pick (2, 4)."""
        lab = EdgeLabeling.identity(7)
        t = spanning_tree_from_labels(fan, lab, [1, 2, 5, 6])
        cands = tuple(ex for ex in valid_exchanges(fan, lab, t)
                      if ex.larger == 4)
        ctx = TieContext(fan, lab, None, t.mask, cands)
        assert tiebreak_prefer("any")(ctx).pair() == (2, 4)
        assert tiebreak_closest.kind == tiebreak_prefer("any").kind == "any"

    @pytest.mark.parametrize("name", ("closest", "random") + RESTRICTIONS)
    def test_empty_tie_set_raises(self, diamond, diamond_emb, name):
        """Every built-in rule: closest, random and prefer of each class."""
        rule = {"closest": tiebreak_closest,
                "random": tiebreak_random(random.Random(3))}.get(name)
        rule = rule or tiebreak_prefer(name)
        lab = EdgeLabeling.identity(5)
        t = spanning_tree_from_labels(diamond, lab, [1, 2, 5])
        ctx = TieContext(diamond, lab, diamond_emb, t.mask, ())
        with pytest.raises(GraphError, match="^empty tie set$"):
            rule(ctx)

    def test_prefer_filters_then_falls_back(self, diamond, diamond_emb):
        lab = EdgeLabeling.identity(5)
        t = spanning_tree_from_labels(diamond, lab, [1, 2, 5])
        cands = (Exchange(removed=1, added=4), Exchange(removed=2, added=4))
        ctx = TieContext(diamond, lab, diamond_emb, t.mask, cands)
        # (2,4) is a pivot, (1,4) is not; prefer-pivot must keep (2,4)
        assert tiebreak_prefer("pivot")(ctx).pair() == (2, 4)

    def test_unknown_class_refused(self):
        with pytest.raises(GraphError, match="^unknown exchange class 'bogus'$"):
            tiebreak_prefer("bogus")
        with pytest.raises(GraphError, match="^unknown exchange class 'bogus'$"):
            ExchangeClass(True, True, False).matches("bogus")

    def test_prefer_empty_set_raises(self, diamond, diamond_emb):
        lab = EdgeLabeling.identity(5)
        t = spanning_tree_from_labels(diamond, lab, [1, 2, 5])
        cands = (Exchange(removed=1, added=4), Exchange(removed=2, added=4))
        ctx = TieContext(diamond, lab, diamond_emb, t.mask, cands)
        # neither edge pair shares an inner face
        with pytest.raises(CertificationError):
            tiebreak_prefer("face_inner")(ctx)

    def test_rule_outside_tie_set_rejected(self, fan):
        """A rule without ``kind`` gets a TieContext and must answer
        with one of its candidates."""
        with pytest.raises(GraphError, match="^tie-breaking rule left the tie set$"):
            greedy_listing(fan, tiebreak=lambda ctx: Exchange(removed=1, added=99))

    @pytest.mark.parametrize("kind", ["pivot", "face_inner", "paf"])
    def test_walk_prefer_empty_set_message(self, kind):
        """Under shuffled labelings the preferred class can run out.  The
        walk then raises the message ``rule(ctx)`` raises, after the same
        trees: the rule as given picks on labels, the wrapper without
        ``kind`` hands it a TieContext per step.  Ties of one candidate
        and of several both occur."""
        rng = random.Random(31)
        sizes = set()
        for emb in enumerate_outerplane(6):
            g = emb.graph
            lab = EdgeLabeling.shuffled(g.m, rng)
            init = random_spanning_tree(g, lab, rng)
            runs = []
            for rule in (tiebreak_prefer(kind), lambda ctx, r=tiebreak_prefer(kind): r(ctx)):
                trees = []
                try:
                    for mask, _ in greedy_walk(g, lab, emb, init, rule):
                        trees.append(mask)
                except CertificationError as exc:
                    runs.append((trees, str(exc)))
                else:
                    runs.append((trees, None))
            assert runs[0] == runs[1]
            if runs[0][1] is not None:
                assert runs[0][1].startswith(f"no {kind} exchange in tie set [(")
                sizes.add(min(runs[0][1].count("("), 2))
        assert sizes == {1, 2}

    def test_random_rule_stays_in_set(self, fan):
        lab = EdgeLabeling.identity(7)
        t = spanning_tree_from_labels(fan, lab, [1, 2, 5, 6])
        cands = tuple(ex for ex in valid_exchanges(fan, lab, t)
                      if ex.larger == 4)
        rule = tiebreak_random(random.Random(11))
        for _ in range(10):
            assert rule(ctx := TieContext(fan, lab, None, t.mask, cands)) in cands


    def test_rule_may_answer_a_plain_tuple(self, fan, fan_emb):
        """An Exchange equals the tuple of its labels, so a rule that
        answers with a plain (removed, added) tuple stays in the tie set
        and gives the listing of the rule that answers with the Exchange;
        a tuple outside the set is refused."""
        want = greedy_listing(fan, embedding=fan_emb, tiebreak=lambda ctx: ctx.candidates[-1])
        got = greedy_listing(fan, embedding=fan_emb,
                             tiebreak=lambda ctx: tuple(ctx.candidates[-1]))
        assert got.tree_masks == want.tree_masks and got.steps == want.steps
        assert type(got.steps[0][0]) is Exchange
        with pytest.raises(GraphError, match="^tie-breaking rule left the tie set$"):
            greedy_listing(fan, embedding=fan_emb, tiebreak=lambda ctx: (0, 0))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rule_shares_classified_steps(self, seed):
        """A rule without ``kind`` gets the walk's one step path: every
        step is ``(Exchange(r, a), classify_exchange(...))`` for the
        labels r out and a in of its two trees, and the walk yields one
        step object per directed pair."""
        rng = random.Random(seed)
        g = random_outerplane_multigraph(6, rng)
        emb = build_embedding(g, tuple(range(6)))
        listing = greedy_listing(g, embedding=emb, tiebreak=tiebreak_random(rng), classify=True)
        lab = listing.labeling
        by_pair = {}
        for x, y, step in zip(listing.tree_masks, listing.tree_masks[1:], listing.steps):
            r, a = (x & ~y).bit_length(), (y & ~x).bit_length()
            assert step == (Exchange(r, a), classify_exchange(emb, lab, Exchange(r, a)))
            by_pair.setdefault((r, a), set()).add(id(step))
        assert all(len(ids) == 1 for ids in by_pair.values())
        assert len(by_pair) < len(listing.steps)


class TestClassify:
    def test_fan_cases(self, fan_emb):
        lab = EdgeLabeling.identity(7)
        c = classify_exchange(fan_emb, lab, Exchange(removed=1, added=3))
        assert c.pivot and c.face and c.face_inner and c.paf and c.pof
        # outer edges 2 (1,2) and 7 (0,4): only the outer face in common
        c = classify_exchange(fan_emb, lab, Exchange(removed=2, added=7))
        assert not c.pivot and c.face and not c.face_inner
        # inner spoke 3 (0,2) vs rim 6 (3,4): nothing in common
        c = classify_exchange(fan_emb, lab, Exchange(removed=3, added=6))
        assert not c.pivot and not c.face and not c.pof

    def test_outer_face_counts_for_face(self, diamond_emb):
        lab = EdgeLabeling.identity(5)
        # (0,1) and (2,3) share only the outer face
        c = classify_exchange(diamond_emb, lab, Exchange(removed=1, added=4))
        assert not c.pivot and c.face and not c.face_inner

    def test_class_bits_match_reference(self):
        """Every ordered edge pair, an edge with itself included, of
        every outerplane multigraph with m <= 8 and of a copy with two
        loops added: ``class_index`` and ``classify_exchange`` (under a
        shuffled labeling) give the class of the reference, and the
        latter returns one of the eight interned classes."""
        rng = random.Random(23)
        interned = {id(c) for c in treegen._CLASSES}
        seen, pairs = set(), 0
        for emb in enumerate_outerplane(8):
            g = emb.graph
            looped = with_loop(with_loop(g, rng), rng)
            for e in (emb, build_embedding(looped, emb.outer_order)):
                lab = EdgeLabeling.shuffled(e.graph.m, rng)
                for a in range(e.graph.m):
                    for b in range(e.graph.m):
                        want = reference_class(e, a, b)
                        got = e.class_index(a, b)
                        assert got == want.pivot | want.face << 1 | want.face_inner << 2
                        cls = classify_exchange(
                            e, lab, Exchange(removed=lab.label(a), added=lab.label(b)))
                        assert cls == want and id(cls) in interned
                        seen.add(got)
                        pairs += 1
        assert seen == {0, 1, 2, 3, 6, 7}       # face_inner implies face
        assert pairs == 16068


class TestClassTest:
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_agrees_with_classify(self, shuffle):
        """Every exchange of every tree of every outerplane multigraph
        with m <= 7, both ways round: each kind's class table, and the
        bare-graph pivot table, agree with ``classify_exchange``; the
        table of "any" is None."""
        rng = random.Random(13)
        checked = 0
        for emb in enumerate_outerplane(7):
            g = emb.graph
            lab = EdgeLabeling.shuffled(g.m, rng) if shuffle else EdgeLabeling.identity(g.m)
            assert _class_rows(g, emb, lab, "any") is None
            assert _class_rows(g, None, lab, "any") is None
            tables = [(k, _class_rows(g, emb, lab, k)) for k in RESTRICTIONS if k != "any"]
            tables.append(("pivot", _class_rows(g, None, lab, "pivot")))
            for t in reference_spanning_trees(g):
                mask = sum(1 << (lab.label(l - 1) - 1) for l in t.labels())
                for ex in valid_exchanges(g, lab, SpanningTree(g.m, mask)):
                    cls = classify_exchange(emb, lab, ex)
                    r, a = ex.removed, ex.added
                    for k, rows in tables:
                        want = cls.matches(k)
                        assert (rows[r] >> a - 1 & 1, rows[a] >> r - 1 & 1) == (want, want), \
                            (g.edges, ex, k)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_rows_match_classify_on_every_pair(self, shuffle):
        """Every ordered label pair, a label with itself included, of
        every outerplane multigraph with m <= 9 and of seeded multigraphs
        with loops and parallel edges: bit a-1 of each kind's row of f is
        set iff ``classify_exchange`` puts the exchange of f and a in
        that kind, and the bare-graph pivot row iff the two edges share
        an end (``MultiGraph.shares_vertex``).  A 70-cycle and a triangle
        with 68 parallel edges, with and without a loop, give faces and
        vertices of more than 64 edges, whose masks are built in bulk."""
        rng = random.Random(17)
        embs = list(enumerate_outerplane(9))
        for n in (2, 3, 5, 8):
            for _ in range(3):
                g = with_loop(with_loop(random_outerplane_multigraph(n, rng), rng), rng)
                embs.append(build_embedding(g, tuple(range(n))))
        triangle = MultiGraph(3, ((0, 1),) * 68 + ((1, 2), (0, 2)))
        for g in (cycle_graph(70), triangle):
            for h in (g, with_loop(g, rng)):
                embs.append(build_embedding(h, tuple(range(h.n))))
        pairs = 0
        for emb in embs:
            g = emb.graph
            lab = EdgeLabeling.shuffled(g.m, rng) if shuffle else EdgeLabeling.identity(g.m)
            rows = _classifier(g, emb, lab, "pof")
            bare = _classifier(g, None, lab, "pivot")
            for f in range(1, g.m + 1):
                for a in range(1, g.m + 1):
                    cls = classify_exchange(emb, lab, Exchange(f, a))
                    got = [row >> a - 1 & 1 for row in rows[f]]
                    assert got == [cls.matches(k) for k in RESTRICTIONS], (g.edges, f, a)
                    assert bare[f][1] >> a - 1 & 1 == g.shares_vertex(lab.edge(f), lab.edge(a))
                    pairs += 1
        assert pairs > 20000

    @pytest.mark.parametrize("kind", [k for k in RESTRICTIONS if k != "any"])
    def test_rule_and_walk_pick_as_reference(self, kind):
        """On every tie of walks over every outerplane multigraph with
        m <= 8, under shuffled labelings from seeded trees: the walk's
        own pick, ``rule(ctx)`` and the reference pick (the candidates
        scanned from the top with ``classify_exchange``) agree, and an
        empty preferred set raises the same error after the same
        trees."""
        rng = random.Random(5)
        rule = tiebreak_prefer(kind)
        ties = refused = 0

        def checked(ctx):
            nonlocal ties
            ties += 1
            try:
                want = reference_prefer(kind)(ctx)
            except CertificationError as exc:
                with pytest.raises(CertificationError, match=re.escape(str(exc))):
                    rule(ctx)
                raise
            assert rule(ctx) == want
            return want

        for emb in enumerate_outerplane(8):
            g = emb.graph
            lab = EdgeLabeling.shuffled(g.m, rng)
            init = random_spanning_tree(g, lab, rng)
            runs = []
            for tiebreak in (rule, checked):
                trees = []
                try:
                    for mask, step in greedy_walk(g, lab, emb, init, tiebreak, classify=True):
                        trees.append((mask, step))
                except CertificationError as exc:
                    runs.append((trees, str(exc)))
                else:
                    runs.append((trees, None))
            assert runs[0] == runs[1]
            refused += runs[0][1] is not None
        assert ties > 400 and refused

    def test_bundle_reads_few_rows(self):
        """A triangle with 3,998 parallel copies of one edge (m = 4000):
        a 50-tree ``prefer-pof`` listing from a fresh embedding builds
        the rows of the few labels it reads, so its traced peak stays far
        below what an up-front table of all m rows (about 2 MiB here) or
        a per-edge gather of vertex and face bits (about 1.3 MiB) holds,
        and the rows kept on the embedding are at most one per step."""
        m = 4000
        g = MultiGraph(3, ((0, 1),) * (m - 2) + ((1, 2), (0, 2)))
        emb = build_embedding(g, (0, 1, 2))
        lab = dual_tree_labeling(orient_split_dual(split_dual(emb)))
        emb = build_embedding(g, (0, 1, 2))
        tracemalloc.start()
        try:
            listing = greedy_listing(g, labeling=lab, embedding=emb,
                                     tiebreak=tiebreak_prefer("pof"), max_trees=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(listing.tree_masks) == 50 and all(cls.pof for _, cls in listing.steps)
        assert peak < 0.75 * 2 ** 20
        assert len(emb.class_rows) <= 49

    def test_kept_rows_hold_no_cycle(self, fan):
        """The embedding keeps the class rows of the walk's labeling for
        the verify that follows; the rows must not refer back to it, so
        reference counting alone frees both, with no garbage left for the
        cyclic collector after every ``gen`` and ``verify``."""
        emb = build_embedding(fan, (0, 1, 2, 3, 4))
        verify_gray(greedy_listing(fan, embedding=emb, tiebreak=tiebreak_prefer("pof")), "pof")
        assert emb.class_rows
        ref = weakref.ref(emb)
        gc.disable()
        try:
            del emb
            assert ref() is None
        finally:
            gc.enable()

    def test_rule_keeps_bare_graph_rows(self, fan, monkeypatch):
        """A bare graph has no embedding to keep its rows on, so a
        prefer rule keeps the rows of its last call: repeated calls on
        one graph and labeling build them once (a build gathers every
        edge, O(m) a call), and a new labeling builds new ones."""
        built = []

        class Counted(treegen._ClassRows):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(treegen, "_ClassRows", Counted)
        rule, want = tiebreak_prefer("pivot"), reference_prefer("pivot")
        lab = EdgeLabeling.identity(fan.m)
        masks = [mask for mask, _ in greedy_walk(fan, lab, None, None, tiebreak_closest)]
        built.clear()
        for mask in masks:
            cands = valid_exchanges(fan, lab, SpanningTree(fan.m, mask))
            for f in {x.larger for x in cands}:
                ctx = TieContext(fan, lab, None, mask,
                                 tuple(x for x in cands if x.larger == f))
                assert rule(ctx) == want(ctx)
        assert len(built) == 1
        rule(dataclasses.replace(ctx, labeling=EdgeLabeling(tuple(lab.label_of))))
        rule(dataclasses.replace(ctx, labeling=EdgeLabeling.shuffled(fan.m, random.Random(3))))
        assert len(built) == 2

    def test_errors(self, fan, fan_emb):
        lab = EdgeLabeling.identity(7)
        with pytest.raises(GraphError, match="unknown"):
            _class_rows(fan, fan_emb, lab, "bogus")
        for k in ("face", "face_inner", "paf", "pof"):
            with pytest.raises(GraphError, match="embedding"):
                _class_rows(fan, None, lab, k)


class TestGreedyListing:
    def test_fan_complete_genlex(self, fan, fan_emb):
        listing = greedy_listing(fan, embedding=fan_emb)
        assert len(listing.trees) == 21
        assert listing.complete
        assert verify_genlex(listing)
        assert verify_gray(listing, required_class="paf").ok

    def test_render_lines_by_step_value(self, fan, fan_emb, monkeypatch):
        """A classified listing and a listing read back by
        ``cli.parse_listing`` (steps with cls None) render, and so do
        listings with fewer or more steps than trees (a step line follows
        tree i iff step i exists) and listings whose classes equal the
        walk's but are other objects (a deepcopy, a pickle round-trip,
        classes built by hand).  A step's line is formatted once per
        distinct step value: ``_flag_text`` runs once per distinct
        classified step rendered, whether the listing shares its step
        objects (the walk), has a fresh object per step (copied, read
        back, built by hand) or one object for every step.  A strip
        listing of more than two render chunks renders as the per-line
        reference does, whole and cut or padded at a chunk boundary, and
        formats each distinct step once across chunks."""
        listing = greedy_listing(fan, embedding=fan_emb, tiebreak=tiebreak_prefer("pof"))
        text = "".join(line + "\n" for line in listing.render_lines())
        read = parse_listing(text, fan, listing.labeling, fan_emb, True)
        cut = Listing(fan, listing.labeling, fan_emb, listing.tree_masks, listing.steps[:7],
                      True, None)
        padded = Listing(fan, listing.labeling, fan_emb, listing.tree_masks[:5],
                         listing.steps, True, None)
        assert len(set(map(id, listing.steps))) < len(listing.steps) == 20
        same = Listing(fan, listing.labeling, fan_emb, listing.tree_masks,
                       listing.steps[:1] * 20, True, None)
        by_hand = tuple((ex, ExchangeClass(cls.pivot, cls.face, cls.face_inner))
                        for ex, cls in listing.steps)
        copies = (copy.deepcopy(listing), pickle.loads(pickle.dumps(listing)),
                  dataclasses.replace(listing, steps=by_hand))
        assert all(c.steps[0][1] is not listing.steps[0][1] for c in copies)
        flagged = []
        flag_text = treegen._flag_text
        monkeypatch.setattr(treegen, "_flag_text", lambda c: flagged.append(c) or flag_text(c))
        # a strip listing over two render chunks, and its unclassified,
        # cut and padded variants at a chunk boundary
        chunk = treegen._RENDER_CHUNK
        strip = extremal_family(9, 1)
        long = greedy_listing(strip.graph, embedding=strip, tiebreak=tiebreak_prefer("pof"))
        assert len(long.tree_masks) == 4181 > 2 * chunk
        # the memo must outlive a chunk for these steps to be formatted once
        assert set(long.steps[:chunk]) & set(long.steps[chunk:2 * chunk])
        at_boundary = (
            dataclasses.replace(long, steps=tuple((ex, None) for ex, _ in long.steps)),
            dataclasses.replace(long, steps=long.steps[:chunk - 1]),
            dataclasses.replace(long, steps=long.steps[:chunk]),
            dataclasses.replace(long, tree_masks=long.tree_masks[:chunk + 1]),
            # as many steps as trees: a step line follows the last tree
            dataclasses.replace(long, tree_masks=long.tree_masks[:chunk],
                                steps=long.steps[:chunk]),
            dataclasses.replace(long, tree_masks=long.tree_masks[:2 * chunk],
                                steps=long.steps[:2 * chunk]))
        for shown in (listing, read, cut, padded, same, *copies, long, *at_boundary):
            flagged.clear()
            lines = list(shown.render_lines())
            assert lines == list(reference_render_lines(shown))
            shown_steps = shown.steps[:len(shown.tree_masks)]
            assert len(flagged) == len({s for s in shown_steps if s[1] is not None})
            assert len(lines) == len(shown.tree_masks) + len(shown_steps)
        for shown in at_boundary[-2:]:
            ex, cls = shown.steps[-1]
            assert list(shown.render_lines())[-1] == f"- {ex.removed} + {ex.added}" + (
                flag_text(cls))
        assert [x.split(" [")[0] for x in listing.render_lines()] == list(read.render_lines())

    def test_trees_built_lazily_from_masks(self, fan, fan_emb):
        """A listing keeps ints; ``trees`` is their SpanningTree tuple,
        built at the first read and the same object after it."""
        listing = greedy_listing(fan, embedding=fan_emb, tiebreak=tiebreak_prefer("pof"))
        assert all(type(x) is int for x in listing.tree_masks)
        assert "trees" not in vars(listing)
        trees = listing.trees
        assert trees == tuple(SpanningTree(7, x) for x in listing.tree_masks)
        assert listing.trees is trees

    def test_fan_first_lines_frozen(self, fan, fan_emb):
        listing = greedy_listing(fan, embedding=fan_emb)
        lines = list(listing.render_lines())
        assert lines[0] == "1101010"
        assert lines[1] == "- 2 + 3 [pivot,face,face_inner]"
        assert lines[2] == "1011010"
        assert len(lines) == 41

    def test_tie_rules_give_claimed_classes(self, fan, fan_emb):
        for rule, klass in ((tiebreak_closest, "paf"),
                            (tiebreak_prefer("pivot"), "pivot"),
                            (tiebreak_prefer("pof"), "pof")):
            listing = greedy_listing(fan, embedding=fan_emb, tiebreak=rule)
            rep = verify_gray(listing, required_class=klass)
            assert rep.ok, rep.violations

    def test_greedy_choice_is_minimal(self, fan, fan_emb):
        """Re-derive every step independently: the step must use the
        smallest larger label over all exchanges reaching new trees."""
        listing = greedy_listing(fan, embedding=fan_emb)
        lab = listing.labeling
        seen = {listing.trees[0].mask}
        for idx, (ex, _) in enumerate(listing.steps):
            cur = listing.trees[idx]
            fresh = [e for e in valid_exchanges(fan, lab, cur)
                     if (cur.mask ^ (1 << e.removed - 1) ^ (1 << e.added - 1))
                     not in seen]
            assert fresh, "greedy stopped early"
            best = min(e.larger for e in fresh)
            assert ex.larger == best
            tie = [e for e in fresh if e.larger == best]
            assert all(e.larger == best for e in tie)
            seen.add(listing.trees[idx + 1].mask)

    def test_works_without_embedding(self, fan):
        listing = greedy_listing(fan)
        assert len(listing.trees) == 21
        assert listing.steps[0][1] is None

    def test_nonouterplanar_random_labelings(self):
        """Completeness and genlex hold for any connected graph and any
        labeling, not just outerplane duals."""
        rng = random.Random(20)
        for g in (k33_graph(), wheel_graph(4)):
            expected = count_matrix_tree(g)
            for _ in range(25):
                lab = EdgeLabeling.shuffled(g.m, rng)
                init = random_spanning_tree(g, lab, rng)
                rule = rng.choice([tiebreak_closest, tiebreak_random(rng)])
                listing = greedy_listing(g, labeling=lab, initial=init,
                                         tiebreak=rule)
                assert len(listing.trees) == expected
                assert verify_genlex(listing)

    def test_multigraph_with_loops(self):
        g = loopy_triangle()
        listing = greedy_listing(g, embedding=build_embedding(g, (0, 1, 2)))
        assert len(listing.trees) == 3
        assert verify_genlex(listing)

    def test_bundle(self):
        g = bundle_graph(5)
        listing = greedy_listing(g, embedding=build_embedding(g, (0, 1)))
        assert len(listing.trees) == 5
        assert verify_gray(listing, required_class="paf").ok

    def test_truncation(self, fan, fan_emb):
        full = greedy_listing(fan, embedding=fan_emb)
        part = greedy_listing(fan, embedding=fan_emb, max_trees=5)
        assert part.truncated and len(part.trees) == 5
        assert [t.mask for t in part.trees] == [t.mask for t in full.trees[:5]]

    def test_every_initial_tree(self, fan, fan_emb):
        """Any starting tree still covers everything (greedy restarts
        the scan from the new tree each step)."""
        base = greedy_listing(fan, embedding=fan_emb)
        for t in base.trees:
            listing = greedy_listing(fan, embedding=fan_emb, initial=t)
            assert len(listing.trees) == 21
            assert verify_genlex(listing)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            greedy_listing(MultiGraph(3, ((0, 1),)))

    @pytest.mark.parametrize("k", [0, -3])
    def test_max_trees_below_one_rejected(self, fan, k):
        with pytest.raises(GraphError):
            greedy_listing(fan, max_trees=k)


class TestWalk:
    @pytest.mark.parametrize("make, bare", [
        (lambda seed: tiebreak_closest, False),
        (lambda seed: tiebreak_prefer("pof"), False),
        (lambda seed: tiebreak_random(random.Random(seed)), False),
        (lambda seed: tiebreak_prefer("pivot"), True),
    ], ids=["closest", "prefer-pof", "random", "prefer-pivot-bare"])
    def test_matches_visited_set_walk(self, make, bare):
        """Every outerplane multigraph with m <= 7, every root, two
        seeded initial trees: the block-mask walk lists the same trees
        with the same steps as the walk that remembers its trees.  The
        ``bare`` case walks the triangulations, where pivot steps always
        exist, with no embedding."""
        rng = random.Random(5)
        runs = 0
        for emb in enumerate_outerplane(7, triangulations_only=bare):
            g = emb.graph
            sd = split_dual(emb)
            for root in sd.leaves():
                lab = dual_tree_labeling(orient_split_dual(sd, root))
                given = None if bare else emb
                for _ in range(2):
                    init = random_spanning_tree(g, lab, rng)
                    seed = rng.randrange(2 ** 32)
                    masks, steps = visited_set_walk(g, lab, given, init, make(seed))
                    listing = greedy_listing(g, labeling=lab, embedding=given,
                                             initial=init, tiebreak=make(seed))
                    assert list(listing.tree_masks) == masks
                    assert [ex for ex, _ in listing.steps] == steps
                    runs += 1
        assert runs == (176 if bare else 410)

    @pytest.mark.parametrize("make", [
        lambda seed: tiebreak_closest,
        lambda seed: tiebreak_prefer("pof"),
        lambda seed: tiebreak_random(random.Random(seed)),
    ], ids=["closest", "prefer-pof", "random"])
    def test_tree_state_matches_rebuild(self, make, monkeypatch):
        """The walk builds its cut/cycle masks O(log m) times and pivots
        them per exchange; after every step they equal the masks of the
        tree found by path searches with the same k.  Every outerplane
        multigraph with m <= 7, every root, two seeded initial trees."""
        held = []

        def build(*args):
            held.append((args[3], _fundamental(*args)))
            return held[-1][1]

        monkeypatch.setattr(treegen, "_fundamental", build)
        rng = random.Random(9)
        trees = 0
        for emb in enumerate_outerplane(7):
            g = emb.graph
            sd = split_dual(emb)
            for root in sd.leaves():
                lab = dual_tree_labeling(orient_split_dual(sd, root))
                for _ in range(2):
                    init = random_spanning_tree(g, lab, rng)
                    held.clear()
                    for mask, _ in greedy_walk(g, lab, emb, init,
                                               make(rng.randrange(2 ** 32))):
                        k, cut = held[-1]
                        assert cut == reference_cut(g, lab, mask, k)
                        trees += 1
                    assert len(held) <= 1 + g.m.bit_length()
        assert trees == 5148         # the trees of 410 complete walks

    @pytest.mark.parametrize("make", [
        lambda seed: tiebreak_closest,
        lambda seed: tiebreak_prefer("pof"),
        lambda seed: tiebreak_random(random.Random(seed)),
    ], ids=["closest", "prefer-pof", "random"])
    def test_larger_graphs_match_reference(self, make, monkeypatch):
        """Seeded 2-connected outerplane multigraphs up to n = 60, whose
        walks widen their cut/cycle masks several times: the first 300
        trees and steps equal those of the reference walk, and after
        every step the masks equal those found by path searches with the
        same k."""
        held = []

        def build(*args):
            held.append((args[3], _fundamental(*args)))
            return held[-1][1]

        rng = random.Random(13)
        for n in (12, 25, 40, 60):
            g = random_outerplane_multigraph(n, rng)
            emb = build_embedding(g, range(n))
            sd = split_dual(emb)
            lab = dual_tree_labeling(orient_split_dual(sd, default_root_leaf(sd)))
            init = random_spanning_tree(g, lab, rng)
            seed = rng.randrange(2 ** 32)
            masks, steps = visited_set_walk(g, lab, emb, init, make(seed), max_trees=300)
            held.clear()
            with monkeypatch.context() as mp:
                mp.setattr(treegen, "_fundamental", build)
                walk = []
                for mask, step in itertools.islice(
                        greedy_walk(g, lab, emb, init, make(seed)), 300):
                    k, cut = held[-1]
                    assert cut == reference_cut(g, lab, mask, k)
                    walk.append((mask, step))
            assert [mask for mask, _ in walk] == masks
            assert [step[0] for _, step in walk[1:]] == steps
            assert 3 <= len(held) <= 1 + g.m.bit_length()

    def test_tree_state_stays_small_at_scale(self, monkeypatch):
        """On the m = 3001 strip, a 1000-tree walk and the verify of its
        listing reach low levels only, so every cut/cycle build keeps its
        threshold k small: neither ever builds the whole fundamental
        matrix, whose masks would be m bits wide."""
        emb = extremal_family(1500, 0)
        g = emb.graph
        lab = dual_tree_labeling(orient_split_dual(split_dual(emb)))
        ks = []

        def build(*args):
            ks.append(args[3])
            return _fundamental(*args)

        monkeypatch.setattr(treegen, "_fundamental", build)
        listing = greedy_listing(g, labeling=lab, embedding=emb, max_trees=1000)
        walk_builds = len(ks)
        assert g.m == 3001 and len(listing.trees) == 1000
        assert verify_gray(listing, "pof").ok
        assert 0 < walk_builds < len(ks)
        assert max(ks) < 64

    def test_links_are_the_tree_test(self, fan):
        """``_links`` is None exactly for the masks that are no spanning
        tree, by the union-find test of ``is_spanning_tree``: every mask
        of the fan, the diamond with a loop and a parallel edge added,
        and the triangle with a loop, each also with a bit at m.  It
        ends on the masks of n - 1 labels that hold a cycle."""
        rng = random.Random(37)
        diamond = MultiGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 1), (2, 3)))
        for g in (fan, diamond, loopy_triangle()):
            lab = EdgeLabeling.shuffled(g.m, rng)
            cycles = 0
            for x in range(1 << g.m):
                ids = [lab.edge(l) for l in _labels(x)]
                tree = g.is_spanning_tree(ids)
                assert (_links(g, lab, x) is not None) == tree, (g, x)
                assert _links(g, lab, x | 1 << g.m) is None
                cycles += len(ids) == g.n - 1 and not tree
            assert cycles

    def test_contracted_paths_keep_the_low_labels(self):
        """For every threshold k, each non-tree label below k holds
        exactly the labels below k of its tree path (found here by a
        search of the whole tree), each tree label below k the non-tree
        labels below k whose path runs through it, and every label from
        k up holds nothing, as if its tree edge were contracted.  A
        loop's cycle is empty.  Shuffled labelings, loops added."""
        rng = random.Random(17)
        for n in (1, 2, 5, 12, 30):
            g = with_loop(random_outerplane_multigraph(n, rng), rng) if n > 1 \
                else MultiGraph(1, ((0, 0),))
            lab = EdgeLabeling.shuffled(g.m, rng)
            mask = random_spanning_tree(g, lab, rng).mask
            links = _links(g, lab, mask)
            for k in range(1, g.m + 2):
                cut = _fundamental(g, lab, mask, k)
                assert cut == reference_cut(g, lab, mask, k)
                assert not any(cut[k:])
                assert _fundamental(g, lab, mask, k, links) == cut
                # the links of the base tree serve every tree that
                # differs from it below k
                other = swapped_below(g, lab, mask, k, rng)
                assert _fundamental(g, lab, other, k, links) == reference_cut(g, lab, other, k)
            for e in g.loop_edges():
                assert cut[lab.label(e)] == 0

    def test_builds_read_the_labels_below_k_only(self, monkeypatch):
        """A 1000-tree walk and the verify of its listing, on the m = 3001
        and the m = 10001 strip: every build gets the links of its base
        tree and reads one ``edge_of`` entry per label below its k, so
        the builds read as many entries on both strips."""
        reads = []

        class Edges:
            def __init__(self, edge_of):
                self.edge_of = edge_of

            def __getitem__(self, i):
                reads.append(i)
                return self.edge_of[i]

        ks = []

        def build(g, lab, mask, k, links):
            assert links is not None
            ks.append(k)
            return _fundamental(g, types.SimpleNamespace(edge_of=Edges(lab.edge_of)),
                                mask, k, links)

        monkeypatch.setattr(treegen, "_fundamental", build)
        counts = []
        for size in (1500, 5000):
            emb = extremal_family(size, 0)
            g = emb.graph
            lab = dual_tree_labeling(orient_split_dual(split_dual(emb)))
            reads.clear()
            ks.clear()
            listing = greedy_listing(g, labeling=lab, embedding=emb,
                                     tiebreak=tiebreak_prefer("pof"), max_trees=1000)
            assert verify_gray(listing, "pof").ok
            assert len(reads) == sum(k - 1 for k in ks)
            counts.append((g.m, len(reads), ks[:]))
        assert [m for m, _, _ in counts] == [3001, 10001]
        assert counts[0][1:] == counts[1][1:]
        assert counts[0][1:] == (89, [4, 8, 16, 32, 4, 10, 22])

    @pytest.mark.parametrize("rule", [tiebreak_closest, tiebreak_prefer("pof")],
                             ids=["closest", "prefer-pof"])
    def test_builtin_rules_share_one_exchange_per_pair(self, rule, monkeypatch):
        """A rule with ``kind`` is picked on labels: no TieContext, no
        new ExchangeClass, and at most one Exchange per directed
        (removed, added) pair, shared by the steps that make it.  Every
        step equals the one built afresh from the two trees it joins,
        and the walk makes some exchange in both directions, which
        stays two steps."""
        emb = extremal_family(5)
        lab = dual_tree_labeling(orient_split_dual(split_dual(emb)))
        want = list(greedy_walk(emb.graph, lab, emb, None, rule, classify=True))
        made = []

        def exchange(*args, **kw):
            made.append(Exchange(*args, **kw))
            return made[-1]

        def refuse(*args, **kw):
            raise AssertionError("built a per-step object")

        with monkeypatch.context() as mp:
            mp.setattr(treegen, "Exchange", exchange)
            mp.setattr(treegen, "TieContext", refuse)
            mp.setattr(treegen, "ExchangeClass", refuse)
            got = list(greedy_walk(emb.graph, lab, emb, None, rule, classify=True))
        assert got == want and len(got) == 144       # t = f_12 on the 11-edge strip
        steps = [step for _, step in got[1:]]
        for (before, _), (after, step) in zip(got, got[1:]):
            fresh = Exchange((before & ~after).bit_length(), (after & ~before).bit_length())
            assert step == (fresh, classify_exchange(emb, lab, fresh))
        pairs = {(ex.removed, ex.added) for ex, _ in steps}
        assert len(made) == len(pairs) < len(steps)
        assert {id(ex) for ex, _ in steps} == {id(ex) for ex in made}
        assert len({id(step) for step in steps}) == len(pairs)
        assert any((a, r) in pairs for r, a in pairs)

    def test_stream_is_the_listing(self, fan, fan_emb):
        listing = greedy_listing(fan, embedding=fan_emb)
        stream = list(greedy_walk(fan, listing.labeling, fan_emb, None,
                                  tiebreak_closest, classify=True))
        assert [x for x, _ in stream] == list(listing.tree_masks)
        assert stream[0][1] is None
        assert tuple(step for _, step in stream[1:]) == listing.steps

    def test_memory_flat_in_trees(self):
        """Streaming the 17-edge strip keeps no per-tree state: the traced
        peak after all 2,584 trees stays within 1.5x of the peak after
        the first 250.  CPython keeps freed tuples on free lists that
        tracemalloc still counts, so a full walk of a larger strip first
        fills those lists and the peak shows live memory only."""
        def walk(k):
            emb = extremal_family(k)
            lab = dual_tree_labeling(orient_split_dual(split_dual(emb)))
            return greedy_walk(emb.graph, lab, emb, None, tiebreak_prefer("pof"),
                               classify=True)

        for _ in walk(9):
            pass
        stream = walk(8)
        tracemalloc.start()
        try:
            assert sum(1 for _ in itertools.islice(stream, 250)) == 250
            early = tracemalloc.get_traced_memory()[1]
            assert 250 + sum(1 for _ in stream) == 2584
            late = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert late <= 1.5 * early, (early, late)

    def test_face_kind_without_embedding_raises_at_first_tie(self, fan):
        """A face-based rule on a bare graph raises at the first tie,
        after the initial tree; a graph with one spanning tree has no
        tie, so its walk ends without raising."""
        lab = EdgeLabeling.identity(7)
        walk = greedy_walk(fan, lab, None, None, tiebreak_prefer("pof"))
        assert next(walk)[1] is None
        with pytest.raises(GraphError, match="needs an embedding"):
            next(walk)
        path = MultiGraph(3, ((0, 1), (1, 1), (1, 2)))
        walk = greedy_walk(path, EdgeLabeling.identity(3), None, None, tiebreak_prefer("pof"))
        assert [mask for mask, _ in walk] == [0b101]

    def test_rejects_bad_input(self, fan):
        lab = EdgeLabeling.identity(7)
        bad = [(EdgeLabeling.identity(6), None, False),
               (lab, SpanningTree(7, 0b1111), False),
               (lab, [1, 2, 3, 4], False),
               (lab, None, True)]
        for labeling, initial, classify in bad:
            with pytest.raises(GraphError):
                next(greedy_walk(fan, labeling, None, initial, tiebreak_closest,
                                 classify))
        with pytest.raises(GraphError, match="^label 6 is repeated$"):
            next(greedy_walk(fan, lab, None, [6, 1, 6, 2, 5], tiebreak_closest))


class TestVerifiers:
    def test_genlex_oracle_agreement_on_listings(self, fan, fan_emb):
        masks = greedy_listing(fan, embedding=fan_emb).tree_masks
        assert verify_genlex_masks(masks, 7) == genlex_brute(masks, 7)
        assert genlex_brute(masks, 7)

    def test_genlex_oracle_agreement_random(self):
        rng = random.Random(99)
        agree = 0
        for trial in range(400):
            m = rng.randrange(2, 9)
            k = rng.randrange(1, min(2 ** m, 40))
            masks = rng.sample(range(2 ** m), k)
            assert verify_genlex_masks(masks, m) == genlex_brute(masks, m)
            agree += 1
        assert agree == 400

    @pytest.mark.parametrize("order", ["shuffled", "sorted", "nudged"])
    def test_genlex_oracle_agreement_with_repeats(self, order):
        """Seeded sequences drawn with replacement, as drawn, sorted (an
        ascending or descending mask order is genlex), or sorted with one
        element moved, against the definition."""
        rng = random.Random(7)
        verdicts = set()
        for _ in range(600):
            m = rng.randrange(1, 9)
            masks = [rng.randrange(2 ** m) for _ in range(rng.randrange(1, 40))]
            if order != "shuffled":
                masks.sort(reverse=rng.random() < 0.5)
            if order == "nudged":
                masks.insert(rng.randrange(len(masks)), masks.pop(rng.randrange(len(masks))))
            want = genlex_brute(masks, m)
            assert verify_genlex_masks(masks, m) == want, (masks, m)
            verdicts.add(want)
        assert verdicts == ({True} if order == "sorted" else {True, False})

    def test_genlex_catches_swap(self, fan, fan_emb):
        masks = list(greedy_listing(fan, embedding=fan_emb).tree_masks)
        masks[3], masks[12] = masks[12], masks[3]
        assert not verify_genlex_masks(masks, 7)
        assert not genlex_brute(masks, 7)

    def test_gray_catches_repeat(self, fan, fan_emb):
        listing = greedy_listing(fan, embedding=fan_emb)
        masks = listing.tree_masks
        fake = Listing(listing.graph, listing.labeling, listing.embedding,
                       masks[:5] + masks[4:5] + masks[5:], listing.steps, True, None)
        rep = verify_gray(fake)
        assert not rep.ok

    def test_gray_refuses_bits_above_m(self):
        """A mask with a bit at m or above is no m-bit tree, though its
        bits below m are one: here every mask of the fan's complete pof
        listing carries bit m, so every step is still a valid swap and
        only the full tree test of the first mask can refuse it."""
        emb = extremal_family(3, 0)
        listing = greedy_listing(emb.graph, embedding=emb, tiebreak=tiebreak_prefer("pof"))
        m = emb.graph.m
        assert (m, len(listing.tree_masks)) == (7, 21)
        high = Listing(listing.graph, listing.labeling, emb,
                       tuple(x | 1 << m for x in listing.tree_masks), listing.steps,
                       False, None)
        assert verify_gray(high, "pof") == treegen.GrayReport(
            False, ("tree 0 is not a spanning tree",), 21, 21)

    def test_gray_catches_wrong_class_claim(self):
        # hand-built two-tree listing whose only step swaps opposite
        # C4 edges: a face exchange but not a pivot
        g = cycle_graph(4)
        emb = build_embedding(g, (0, 1, 2, 3))
        lab = EdgeLabeling.identity(4)
        steps = ((Exchange(removed=3, added=1), None),)
        fake = Listing(g, lab, emb, (0b1110, 0b1011), steps, True, None)
        assert verify_gray(fake, required_class="face").ok
        rep = verify_gray(fake, required_class="pivot")
        assert not rep.ok and rep.violations

    def test_gray_catches_non_tree(self, fan, fan_emb):
        listing = greedy_listing(fan, embedding=fan_emb)
        masks = list(listing.tree_masks)
        masks[2] = 0b0000111  # cycle 0-1-2 plus nothing
        fake = Listing(listing.graph, listing.labeling, listing.embedding,
                       tuple(masks), listing.steps, True, None)
        assert not verify_gray(fake).ok

    @staticmethod
    def _against_reference(listings, klass, monkeypatch, rng):
        """verify_gray on each listing and its corruptions gives the
        report of the from-scratch verifier; a listing of single swaps
        costs at most 1 + bit_length(m) tree builds.  Returns the
        corruption names met and the most builds one listing took."""
        built = []

        def build(*args):
            built.append(args[3])
            return _fundamental(*args)

        names, most = set(), 0
        for listing in listings:
            m = listing.graph.m
            for name, fake in corrupted_listings(listing, rng):
                plain = name.startswith("loop") or fake.embedding is None
                k = "any" if plain else klass
                built.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(treegen, "_fundamental", build)
                    rep = verify_gray(fake, k)
                assert rep == from_scratch_report(fake, k), name
                if name in ("valid", "above_lca", "aside"):
                    assert len(built) <= 1 + m.bit_length(), (name, built)
                    most = max(most, len(built))
                if name in ("first_not_tree", "above_lca", "aside", "loop_swap"):
                    assert "is not a spanning tree" in rep.violations[0]
                names.add(name)
        return names, most

    def test_gray_matches_reference_on_sweep(self, monkeypatch):
        """Every outerplane multigraph with m <= 7 and every root: a
        seeded greedy listing, a seeded walk of valid exchanges that is
        not genlex, the listing of the graph with a loop added, and
        their corruptions give the report of the from-scratch verifier."""
        rng = random.Random(21)
        listings = []
        for emb in enumerate_outerplane(7):
            g = emb.graph
            sd = split_dual(emb)
            for root in sd.leaves():
                lab = dual_tree_labeling(orient_split_dual(sd, root))
                init = random_spanning_tree(g, lab, rng)
                rule = rng.choice([tiebreak_closest, tiebreak_prefer("pof")])
                listings.append(greedy_listing(g, labeling=lab, embedding=emb,
                                               initial=init, tiebreak=rule))
                masks, exs = exchange_walk(g, lab, init.mask, 20, rng)
                listings.append(Listing(g, lab, emb, tuple(masks),
                                        tuple((ex, None) for ex in exs), True, None))
            gl = with_loop(g, rng)
            labl = EdgeLabeling.shuffled(gl.m, rng)
            listings.append(greedy_listing(gl, labeling=labl,
                                           initial=random_spanning_tree(gl, labl, rng)))
        assert len(listings) == 462
        for klass in ("any", "pof", "pivot"):
            names, _ = self._against_reference(listings, klass, monkeypatch, rng)
            assert names == {"valid", "first_not_tree", "above_lca", "aside", "repeat",
                             "high_bit", "high_bit_swap", "loop_bit", "loop_swap",
                             "two_swap"}

    def test_gray_matches_reference_on_larger_graphs(self, monkeypatch):
        """Seeded 2-connected outerplane multigraphs with n = 12 ... 60:
        300-tree greedy listings, 300-step exchange walks that widen the
        verifier's tree several times, the same with a loop added, and
        their corruptions give the report of the from-scratch verifier."""
        rng = random.Random(23)
        for n in (12, 25, 40, 60):
            g = random_outerplane_multigraph(n, rng)
            emb = build_embedding(g, range(n))
            sd = split_dual(emb)
            lab = dual_tree_labeling(orient_split_dual(sd, default_root_leaf(sd)))
            init = random_spanning_tree(g, lab, rng)
            listing = greedy_listing(g, labeling=lab, embedding=emb, initial=init,
                                     max_trees=300)
            masks, exs = exchange_walk(g, lab, init.mask, 300, rng)
            walk = Listing(g, lab, emb, tuple(masks),
                           tuple((ex, None) for ex in exs), True, None)
            gl = with_loop(g, rng)
            labl = EdgeLabeling.shuffled(gl.m, rng)
            looped = greedy_listing(gl, labeling=labl, max_trees=300,
                                    initial=random_spanning_tree(gl, labl, rng))
            names, _ = self._against_reference([listing, looped], "pof", monkeypatch, rng)
            assert {"above_lca", "aside", "repeat", "two_swap", "loop_swap"} <= names
            _, most = self._against_reference([walk], "pof", monkeypatch, rng)
            assert most >= 3

    def test_cli_matches_library_on_sweep(self, tmp_path, capsys):
        """Every outerplane multigraph with m <= 7, rooted at each outer
        edge: a seeded greedy listing, a seeded exchange walk and their
        corruptions, written with render_lines.  ``spangray verify``
        prints the genlex line of verify_genlex and exactly the FAIL
        lines of verify_gray, in order, with the same exit code.

        The corruptions that set bit m are left out: a chi line has no
        column for it.  A corruption that adds or drops a tree keeps
        one step line between each two trees, as gen writes them: its
        steps are cut, or padded with its last step."""
        rng = random.Random(29)
        classes = itertools.cycle(("any", "pof", "pivot", "face"))
        lp = tmp_path / "listing.txt"
        names, verdicts, kinds = set(), set(), set()
        for gi, emb in enumerate(enumerate_outerplane(7)):
            g = emb.graph
            gp = tmp_path / f"g{gi}.txt"
            gp.write_text(f"{g.n} {g.m}\nouter: {' '.join(map(str, emb.outer_order))}\n"
                          + "".join(f"{u} {v}\n" for u, v in g.edges))
            sd = split_dual(emb)
            for root_edge in sorted({e for e, _ in sd.leaf_darts}):
                lab = dual_tree_labeling(orient_split_dual(sd, sd.leaf_for_edge(root_edge)))
                init = random_spanning_tree(g, lab, rng)
                masks, exs = exchange_walk(g, lab, init.mask, 12, rng)
                for listing in (
                        greedy_listing(g, labeling=lab, embedding=emb, initial=init,
                                       tiebreak=rng.choice([tiebreak_closest,
                                                            tiebreak_prefer("pof")])),
                        Listing(g, lab, emb, tuple(masks),
                                tuple((ex, None) for ex in exs), True, None)):
                    for name, fake in corrupted_listings(listing, rng):
                        if name.startswith("high_bit"):
                            continue
                        n = len(fake.tree_masks) - 1
                        fake = Listing(g, lab, emb, fake.tree_masks,
                                       (fake.steps + fake.steps[-1:] * n)[:n],
                                       fake.truncated, None)
                        klass = next(classes)
                        genlex = verify_genlex(fake)
                        rep = verify_gray(fake, klass)
                        want = verify_stdout(genlex, rep, klass)
                        lp.write_text("".join(line + "\n" for line in fake.render_lines()))
                        argv = ["verify", str(gp), str(lp), "--root", str(root_edge),
                                "--class", klass]
                        if not fake.truncated:
                            argv.append("--expect-complete")
                        assert run_cli(argv) == (0 if genlex and rep.ok else 1, want), \
                            (name, argv)
                        assert capsys.readouterr().err == ""
                        names.add(name)
                        verdicts.add((genlex, rep.ok))
                        kinds.update(k for v in rep.violations for k in VIOLATIONS if k in v)
        assert kinds == set(VIOLATIONS)
        assert names == {"valid", "first_not_tree", "above_lca", "aside", "repeat",
                         "two_swap"}
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_gray_needs_embedding_for_classes(self):
        """A face-class check without an embedding raises even when no
        step reaches it, here on a listing of one tree; pivot reads the
        graph only."""
        g = cycle_graph(3)
        lab = EdgeLabeling.identity(3)
        one = Listing(g, lab, None, (0b011,), (), True, None)
        assert verify_gray(one).ok
        assert verify_gray(one, required_class="pivot").ok
        with pytest.raises(GraphError):
            verify_gray(one, required_class="pof")

    def test_gray_label_above_m_is_of_no_class(self):
        """A swap that brings in label m + 1 is reported as not of the
        class, not raised from the labeling; "any" reports only that the
        tree is not a spanning tree."""
        g = cycle_graph(3)
        emb = build_embedding(g, (0, 1, 2))
        lab = EdgeLabeling.identity(3)
        swap = Listing(g, lab, emb, (0b011, 0b1001), (), True, None)
        assert verify_gray(swap).violations == ("tree 1 is not a spanning tree",)
        for klass in ("pof", "pivot"):
            assert verify_gray(swap, klass).violations == (
                "tree 1 is not a spanning tree", f"step 0 exchange (2, 4) is not {klass}")

    def test_certification_counts_without_determinant(self, fan, fan_emb, monkeypatch):
        """An embedded graph is outerplane, so ``greedy_listing`` and
        ``verify_gray`` count its trees by series-parallel reduction;
        a bare graph still gets the determinant."""
        determinant = count_matrix_tree
        calls = []

        def refuse(g):
            raise AssertionError("counted with the determinant")

        monkeypatch.setattr(treegen.counting, "count_matrix_tree", refuse)
        listing = greedy_listing(fan, embedding=fan_emb)
        assert listing.complete and len(listing.trees) == 21
        rep = verify_gray(listing, required_class="pof")
        assert rep.ok and rep.expected == 21
        monkeypatch.setattr(treegen.counting, "count_matrix_tree",
                            lambda g: calls.append(g) or determinant(g))
        bare = greedy_listing(fan)
        assert bare.complete and verify_gray(bare).expected == 21
        assert calls == [fan, fan]

    def test_repeats_off_genlex_are_searched(self, fan, fan_emb, tmp_path, monkeypatch):
        """Repeats need the search over a second read of the masks only
        off genlex.  A listing file that is not genlex and repeats a
        tree eight lines after it: ``spangray verify`` reads the file
        twice and prints the report of the from-scratch verifier; the
        listing it came from is read once.  Library masks
        ``[x, x | 1 << m, x]`` are genlex on their low bits but repeat x
        out of line, and ``verify_gray`` finds it."""
        gp, lp = tmp_path / "fan.txt", tmp_path / "l.txt"
        g = fan
        gp.write_text(f"{g.n} {g.m}\nouter: {' '.join(map(str, fan_emb.outer_order))}\n"
                      + "".join(f"{u} {v}\n" for u, v in g.edges))
        reads = []
        file_blocks = cli._file_blocks
        monkeypatch.setattr(cli, "_file_blocks", lambda path: reads.append(path)
                            or file_blocks(path))
        argv = ["verify", str(gp), str(lp), "--class", "pof", "--expect-complete"]
        listing = greedy_listing(g, embedding=fan_emb, tiebreak=tiebreak_prefer("pof"))
        masks = listing.tree_masks
        repeat = Listing(g, listing.labeling, fan_emb, masks[:10] + masks[2:3] + masks[11:],
                         listing.steps, False, None)
        for fake, genlex, times in ((listing, True, 1), (repeat, False, 2)):
            assert verify_genlex(fake) is genlex
            lp.write_text("".join(line + "\n" for line in fake.render_lines()))
            reads.clear()
            rep = from_scratch_report(fake, "pof")
            assert run_cli(argv) == (0 if rep.ok else 1, verify_stdout(genlex, rep, "pof"))
            assert reads == [str(lp)] * times
        assert "tree 10 repeats tree 2" in rep.violations
        m = g.m
        x = masks[0]
        high = Listing(g, listing.labeling, fan_emb, (x, x | 1 << m, x), (), True, None)
        assert verify_genlex(high)
        assert verify_gray(high) == from_scratch_report(high, "any")
        assert verify_gray(high).violations == (
            "tree 1 is not a spanning tree", "tree 2 repeats tree 0",
            "trees 0,1 do not differ in one exchange", "trees 1,2 do not differ in one exchange")
        # on genlex, the first of two consecutive repeats is reported
        twice = Listing(g, listing.labeling, fan_emb, masks[:1] * 2 + masks[1:2] * 2,
                        listing.steps[:1] * 3, True, None)
        assert verify_genlex(twice)
        assert verify_gray(twice) == from_scratch_report(twice, "any")
        assert verify_gray(twice).violations[0] == "tree 1 repeats tree 0"

    def test_swap_memo_is_bounded(self):
        """The memo of decoded swaps is emptied at its bound, so a
        listing whose every step is a new swap keeps the verifier's
        memory flat.  On 2 vertices joined by m = 4,095 edges, the masks
        of label m and one of 1 ... m - 1, in increasing order: genlex,
        no tree, so no cut/cycle state is built, and 4,094 steps that
        each swap a new pair of labels up to m.  The traced peak stays
        under 1 MiB (0.34 MiB; 6.9 MiB with the memo unbounded)."""
        m = 4095
        top = 1 << m - 1
        listing = Listing(bundle_graph(m), EdgeLabeling.identity(m), None,
                          tuple(top | 1 << a for a in range(m - 1)), (), True, None)
        assert verify_genlex(listing)
        tracemalloc.start()
        try:
            rep = verify_gray(listing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.violations == ("tree 0 is not a spanning tree",)
        assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_first_build_is_at_level_2(self, fan, monkeypatch):
        """The first cut/cycle build of a walk and of a verify is that of
        level 2, with k = min(4, m + 1): the walk's scan starts at level
        2, and the verifier's first swap has a label of at least 2, so a
        build at level 1 would be rebuilt at once."""
        ks = []

        def build(*args):
            ks.append(args[3])
            return _fundamental(*args)

        monkeypatch.setattr(treegen, "_fundamental", build)
        rng = random.Random(31)
        graphs = [MultiGraph(2, ((0, 1),)), MultiGraph(2, ((0, 1), (0, 1))), cycle_graph(3),
                  fan, random_outerplane_multigraph(9, rng)]
        for g in graphs:
            lab = EdgeLabeling.shuffled(g.m, rng)
            ks.clear()
            listing = greedy_listing(g, labeling=lab)
            assert ks[0] == min(4, g.m + 1)
            ks.clear()
            assert verify_gray(listing).ok
            assert ks[0] == min(4, g.m + 1)

    def test_gray_completeness(self, fan, fan_emb):
        part = greedy_listing(fan, embedding=fan_emb, max_trees=6)
        forced = Listing(part.graph, part.labeling, part.embedding,
                         part.tree_masks, part.steps, False, None)
        rep = verify_gray(forced)
        assert not rep.ok  # claims completeness but has 6 of 21
