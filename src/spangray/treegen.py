"""Greedy generation of spanning-tree Gray codes.

The generator repeatedly applies, among all edge exchanges that lead to
a tree not listed yet, one that minimizes the larger of the two edge
labels; a tie-breaking rule picks among the remaining candidates, which
always share that larger edge.  Run this way, the listing visits every
spanning tree exactly once and is genlex on the characteristic vectors
(all trees sharing a suffix appear consecutively), for every labeling,
initial tree, and tie-breaking rule; Merino, Mütze and Williams (FUN
2022) prove this for every matroid.  Genlex order lets
:func:`greedy_walk` keep one block mask in place of the trees it listed.
With a dual-tree labeling of an outerplane graph, preferring pivot
exchanges (triangulations) or pivot-or-face exchanges (general case) in
ties yields Gray codes restricted to those exchange classes.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

from . import counting
from .dualtree import dual_tree_labeling, orient_split_dual, split_dual
from .embedgraph import (EdgeLabeling, EmbeddedGraph, MultiGraph, _fundamental, _labels,
                         _links, _pivot, _tree_mask)
from .errors import CertificationError, GraphError


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree as a bitmask over edge labels; bit l-1 holds
    label l, so chi() prints label 1 leftmost."""

    m: int
    mask: int

    def labels(self) -> frozenset[int]:
        return frozenset(_labels(self.mask))

    def chi(self) -> str:
        return _chi_line(self.mask, self.m)


def _chi_line(mask: int, m: int) -> str:
    """The m-bit mask as a 0/1 line, bit 0 leftmost ("" for m = 0)."""
    return bin(mask | 1 << m)[3:][::-1]


class Exchange(NamedTuple):
    """One exchange step: the label leaving the tree and the one entering."""

    removed: int
    added: int

    @property
    def larger(self) -> int:
        return max(self.removed, self.added)

    @property
    def smaller(self) -> int:
        return min(self.removed, self.added)

    def pair(self) -> tuple[int, int]:
        return (self.smaller, self.larger)


RESTRICTIONS = ("any", "pivot", "face", "face_inner", "paf", "pof")


class ExchangeClass(NamedTuple):
    """Classification flags of an exchange: common endpoint (pivot),
    common face with the outer face counted (face), common inner face."""

    pivot: bool
    face: bool
    face_inner: bool

    @property
    def paf(self) -> bool:
        return self.pivot and self.face

    @property
    def pof(self) -> bool:
        return self.pivot or self.face

    def matches(self, kind: str) -> bool:
        if kind not in RESTRICTIONS:
            raise GraphError(f"unknown exchange class {kind!r}")
        return kind == "any" or bool(getattr(self, kind))


def _flag_text(c: ExchangeClass) -> str:
    """The flags a listing prints after a step of class ``c``."""
    return " [" + ",".join(k for k in ("pivot", "face", "face_inner") if getattr(c, k)) + "]"


# the eight classes by EmbeddedGraph.class_index, and per kind, which of
# them are of that kind
_CLASSES = tuple(ExchangeClass(bool(i & 1), bool(i & 2), bool(i & 4)) for i in range(8))
_IN_CLASS = {k: tuple(c.matches(k) for c in _CLASSES) for k in RESTRICTIONS}


def spanning_tree_from_labels(g: MultiGraph, labeling: EdgeLabeling, labels) -> SpanningTree:
    return SpanningTree(g.m, _tree_mask(g, labeling, labels))


def _kruskal(g: MultiGraph, labeling: EdgeLabeling, labels) -> int:
    """The mask of the tree Kruskal's rule builds taking labels in the given order."""
    ids = g.joining_edges(labeling.edge(l) for l in labels)
    if len(ids) != g.n - 1:
        raise GraphError("graph is not connected; it has no spanning tree")
    mask = 0
    for e in ids:
        mask |= 1 << (labeling.label(e) - 1)
    return mask


def kruskal_tree(g: MultiGraph, labeling: EdgeLabeling) -> SpanningTree:
    """The spanning tree greedily built from the smallest labels."""
    return SpanningTree(g.m, _kruskal(g, labeling, range(1, g.m + 1)))


def random_spanning_tree(g: MultiGraph, labeling: EdgeLabeling,
                         rng: random.Random) -> SpanningTree:
    """Kruskal's tree for a random order of the labels: label l takes
    rank order[l - 1] of one shuffle of 1..m."""
    order = list(range(1, g.m + 1))
    rng.shuffle(order)
    return SpanningTree(g.m, _kruskal(g, labeling, sorted(range(1, g.m + 1),
                                                          key=lambda l: order[l - 1])))


def _widen(g: MultiGraph, labeling: EdgeLabeling, mask: int, f: int, links):
    """``(k, cut)``: the tree state of :func:`greedy_walk` and
    :func:`verify_gray_masks` once they reach level f, the fundamental
    cuts and cycles of ``mask`` (:func:`_fundamental`) below
    k = min(2f, m + 1).  ``links`` are the :func:`_links` of the base
    tree, the last tree the caller built them for: every exchange since
    then swapped labels below the old k, so the labels k and up of
    ``mask`` are still the base tree's, and the build costs O(k log n).
    Doubling k keeps the number of builds per walk O(log m) and their
    cost O(m log n) in all."""
    k = min(2 * f, g.m + 1)
    return k, _fundamental(g, labeling, mask, k, links)


def valid_exchanges(g: MultiGraph, labeling: EdgeLabeling,
                    tree: SpanningTree) -> tuple[Exchange, ...]:
    """All valid exchanges of the tree, sorted by (larger, smaller)."""
    if tree.m != g.m:
        raise GraphError(f"tree has {tree.m} labels, the graph {g.m} edges")
    spanning_tree_from_labels(g, labeling, tree.labels())
    mask = tree.mask
    cut = _fundamental(g, labeling, mask, g.m + 1)
    out = []
    for f in range(1, g.m + 1):
        f_in = mask >> (f - 1) & 1
        for e in _labels(cut[f] & (1 << f - 1) - 1):
            out.append(Exchange(removed=f, added=e) if f_in else Exchange(removed=e, added=f))
    return tuple(out)


def classify_exchange(emb: EmbeddedGraph, labeling: EdgeLabeling,
                      exchange: Exchange) -> ExchangeClass:
    return _CLASSES[emb.class_index(labeling.edge(exchange.removed),
                                    labeling.edge(exchange.added))]


def _classifier(g: MultiGraph, emb: EmbeddedGraph | None,
                labeling: EdgeLabeling, kind: str):
    """``(index, table)``: ``index(a, b)`` is the class index of the
    exchange of labels a and b, one call on class bits gathered here by
    label (:meth:`EmbeddedGraph.label_class_index`), and ``table[i]``
    tells whether class i is of the given kind.  Pivot reads the graph
    only, and without an embedding ``index`` gives the pivot bit alone;
    the face-based classes need the embedding."""
    if kind not in RESTRICTIONS:
        raise GraphError(f"unknown exchange class {kind!r}")
    edge = labeling.edge_of
    if emb is not None:
        return emb.label_class_index(edge), _IN_CLASS[kind]
    if kind not in ("any", "pivot"):
        raise GraphError(f"exchange class {kind!r} needs an embedding")
    return lambda a, b: int(g.shares_vertex(edge[a - 1], edge[b - 1])), _IN_CLASS[kind]


def _class_rows(g: MultiGraph, emb: EmbeddedGraph | None,
                labeling: EdgeLabeling, kind: str) -> list[int] | None:
    """The class table of ``kind``: None for "any", else a list whose
    row r has bit a set iff the exchange of labels r and a (r != a) is
    of that kind.  It costs m^2 :func:`_classifier` index calls, so it
    suits the flip-graph builder, which tests many pairs on a small m."""
    index, table = _classifier(g, emb, labeling, kind)
    if kind == "any":
        return None
    labels = range(1, g.m + 1)
    return [0] + [sum(1 << a for a in labels if table[index(r, a)]) for r in labels]


def _prefer(index, table, kind: str, f: int, partners: int) -> int:
    """The largest label in ``partners``, a bitmask of smaller labels
    that each exchange with the larger label f, whose exchange is of
    class ``kind``.  ``index`` and ``table`` come from
    :func:`_classifier`."""
    x = partners
    while x:
        e = x.bit_length()
        if table[index(e, f)]:
            return e
        x ^= 1 << e - 1
    raise CertificationError(
        f"no {kind} exchange in tie set {[(e, f) for e in _labels(partners)]}")


@dataclass(frozen=True)
class TieContext:
    """What a tie-breaking rule gets to look at: the current tree and
    the candidate exchanges, all sharing the same larger label, sorted
    by increasing smaller label."""

    graph: MultiGraph
    labeling: EdgeLabeling
    embedding: EmbeddedGraph | None
    tree_mask: int
    candidates: tuple[Exchange, ...]


# A rule with a ``kind`` attribute declares that it picks, among the
# candidates of that exchange class, the one with the largest smaller
# label; :func:`greedy_walk` then makes that pick itself, on labels.
def tiebreak_prefer(kind: str):
    """Rule that keeps only candidates of the given exchange class
    ("any" keeps them all) and picks the one with the maximum smaller
    label.  An empty tie set is a GraphError; an empty preferred set
    raises CertificationError: with a dual-tree labeling the theory
    guarantees a candidate of the preferred class in every tie."""
    if kind not in RESTRICTIONS:
        raise GraphError(f"unknown exchange class {kind!r}")

    def rule(ctx: TieContext) -> Exchange:
        """Pick, among the candidates of this rule's exchange class, the
        one with the maximum smaller label."""
        cands = ctx.candidates
        if not cands:
            raise GraphError("empty tie set")
        if kind == "any":
            return cands[-1]
        index, table = _classifier(ctx.graph, ctx.embedding, ctx.labeling, kind)
        partners = 0
        for x in cands:
            partners |= 1 << x.smaller - 1
        e = _prefer(index, table, kind, cands[-1].larger, partners)
        return next(x for x in reversed(cands) if x.smaller == e)

    rule.kind = kind
    return rule


# the candidate with the maximum smaller label
tiebreak_closest = tiebreak_prefer("any")


def tiebreak_random(rng: random.Random):
    def rule(ctx: TieContext) -> Exchange:
        if not ctx.candidates:
            raise GraphError("empty tie set")
        return ctx.candidates[rng.randrange(len(ctx.candidates))]

    return rule


@dataclass(frozen=True)
class Listing:
    """A listing of spanning trees: ``tree_masks`` holds the trees as
    label bitmasks (bit l-1 for label l) and ``steps`` the
    ``(Exchange, ExchangeClass | None)`` step into each tree after the
    first; ``truncated`` tells whether ``max_trees`` cut the walk short
    and ``complete`` whether it holds every tree (None if unknown).
    ``trees``, the masks as :class:`SpanningTree` objects, is built at
    its first read and kept."""

    graph: MultiGraph
    labeling: EdgeLabeling
    embedding: EmbeddedGraph | None
    tree_masks: tuple[int, ...]
    steps: tuple[tuple[Exchange, ExchangeClass | None], ...]
    truncated: bool
    complete: bool | None

    @functools.cached_property
    def trees(self) -> tuple[SpanningTree, ...]:
        m = self.graph.m
        return tuple(SpanningTree(m, x) for x in self.tree_masks)

    def render_lines(self):
        """The listing's lines: each tree's chi line, then the step
        after it, if any, with its class flags when classified.  A
        step's line is formatted once per distinct step value."""
        chi, m = _chi_line, self.graph.m
        masks = self.tree_masks
        text = {}       # step -> its line
        for x, step in zip(masks, self.steps):
            yield chi(x, m)
            line = text.get(step)
            if line is None:
                ex, cls = step
                line = f"- {ex.removed} + {ex.added}"
                if cls is not None:
                    line += _flag_text(cls)
                text[step] = line
            yield line
        for x in masks[len(self.steps):]:
            yield chi(x, m)


def greedy_walk(g: MultiGraph, labeling: EdgeLabeling,
                embedding: EmbeddedGraph | None, initial, tiebreak,
                classify: bool = False):
    """The greedy exchange walk as a stream of ``(mask, step)``, one per
    tree; ``step`` is the ``(Exchange, ExchangeClass | None)`` that
    reached the tree, None for the first.  ``initial`` is a SpanningTree,
    its labels, or None for :func:`kruskal_tree`.

    Bit f-1 of the block mask ``h`` is set while the tree lies in the
    second half of its level-f block, the run of trees sharing its labels
    above f.  The walk jumps over those levels by bit arithmetic; at the
    others every partner of f reaches an unlisted tree, so all of them
    form the tie set.  The tree state is one bitmask per label below a
    threshold k (:func:`_fundamental`): a tree label's fundamental cut,
    the non-tree labels whose tree path runs through it, and a non-tree
    label's fundamental cycle, the tree labels on its path.  The
    partners of f are then ``cut[f]`` below f, one AND.  An exchange
    updates the state in place by :func:`_pivot`, a pivot of the
    fundamental matrix in O(|cycle| + |cut|) XORs, so a step pays for
    labels below k only.  A level f >= k rebuilds it with k = 2f
    (:func:`_widen`), so it is built O(log m) times.  Every exchange
    swaps two labels below k, so the tree labels k and up stay those of
    the initial tree: one O(n log n) :func:`_links` pass over that tree
    lets each build read the labels below k only, in O(k log n).

    A rule with a ``kind`` attribute (the built-in ones) is not called:
    the walk picks the last partner of that class itself, on labels.
    Any other rule gets a :class:`TieContext` per step.  Either way the
    walk yields one shared step per directed (removed, added) pair,
    built and classified the first time it takes that exchange.
    """
    if labeling.m != g.m:
        raise GraphError("labeling size does not match the graph")
    if classify and embedding is None:
        raise GraphError("classification needs an embedding")
    if initial is None:
        mask = _kruskal(g, labeling, range(1, g.m + 1))
    else:
        mask = _tree_mask(g, labeling, initial.labels() if isinstance(initial, SpanningTree)
                          else initial)
    h = 0
    links = _links(g, labeling, mask)
    k, cut = _widen(g, labeling, mask, 1, links)
    full = (1 << g.m) - 1
    kind = getattr(tiebreak, "kind", None)
    index = None        # built at the first tie: a tree has none
    shared = {}         # r * (m + 1) + a -> the step that removes r and adds a
    width = g.m + 1
    yield mask, None
    while True:
        free = full & ~h
        while free:
            fbit = free & -free
            f = fbit.bit_length()
            if f >= k:
                k, cut = _widen(g, labeling, mask, f, links)
            partners = cut[f] & (fbit - 1)
            if partners:
                break
            free ^= fbit
        else:
            return
        f_in = mask & fbit
        if index is None:
            index, table = _classifier(g, embedding, labeling, kind or "any")
        if kind is None:
            cands = tuple(Exchange(f, e) if f_in else Exchange(e, f) for e in _labels(partners))
            chosen = tiebreak(TieContext(g, labeling, embedding, mask, cands))
            if chosen not in cands:
                raise GraphError("tie-breaking rule left the tie set")
            e = min(chosen)     # chosen may be a plain (removed, added) tuple
        elif kind == "any":
            e = partners.bit_length()
        else:
            e = _prefer(index, table, kind, f, partners)
        r, a = (f, e) if f_in else (e, f)
        step = shared.get(r * width + a)
        if step is None:
            step = shared[r * width + a] = (Exchange(r, a),
                                            _CLASSES[index(r, a)] if classify else None)
        mask ^= 1 << r - 1 ^ 1 << a - 1
        _pivot(cut, r, a)
        # the tree enters the second half of its level-f block, and
        # every lower level starts a new block
        h = (h | fbit) & -fbit
        yield mask, step


def greedy_listing(g: MultiGraph, labeling: EdgeLabeling | None = None,
                   embedding: EmbeddedGraph | None = None,
                   initial=None, tiebreak=None, max_trees: int | None = None,
                   check: bool = True, classify: bool | None = None) -> Listing:
    """The trees and steps of :func:`greedy_walk`, to its end or to
    ``max_trees`` trees; ``initial`` is as there.

    With check=True (and no truncation) the result is certified: the
    number of trees must match an independent count and the chi
    sequence must be genlex, else CertificationError.
    """
    if labeling is None:
        if embedding is not None:
            labeling = dual_tree_labeling(
                orient_split_dual(split_dual(embedding)))
        else:
            labeling = EdgeLabeling.identity(g.m)
    if max_trees is not None and max_trees < 1:
        raise GraphError(f"max_trees must be at least 1, got {max_trees}")
    if classify is None:
        classify = embedding is not None
    walk = greedy_walk(g, labeling, embedding, initial,
                       tiebreak_closest if tiebreak is None else tiebreak, classify)
    trees = []
    steps: list[tuple[Exchange, ExchangeClass | None]] = []
    for mask, step in itertools.islice(walk, max_trees):
        trees.append(mask)
        if step is not None:
            steps.append(step)

    m = g.m
    truncated = max_trees is not None and len(trees) >= max_trees
    complete: bool | None = None
    if check:
        if not verify_genlex_masks(trees, m):
            raise CertificationError("listing is not genlex")
        if not truncated:
            want = _count_trees(g, embedding)
            if len(trees) != want:
                raise CertificationError(
                    f"generated {len(trees)} trees, independent count says {want}")
            complete = True

    return Listing(g, labeling, embedding, tuple(trees), tuple(steps), truncated, complete)


def _count_trees(g: MultiGraph, emb: EmbeddedGraph | None) -> int:
    """The independent tree count a certification compares against: an
    embedded graph is outerplane, so it reduces series-parallel in O(m)
    steps; a bare graph gets the sparse Matrix-Tree determinant."""
    return counting.count_matrix_tree(g) if emb is None else counting.count_series_parallel(g)


def verify_genlex(listing: Listing) -> bool:
    """True iff all bitstrings sharing a suffix appear consecutively.

    Equivalently, the last-coordinate column reads 0^a 1^b or 1^a 0^b,
    and each constant block is genlex one coordinate shorter; see
    :func:`verify_genlex_masks`.
    """
    return verify_genlex_masks(listing.tree_masks, listing.graph.m)


def verify_genlex_masks(masks, m: int) -> bool:
    """True iff the m-bit masks are genlex, in one pass.

    Keeps the block mask of :func:`greedy_walk`: consecutive masks that
    first differ (from the top) at bit p stay in one block of the bits
    above p, and bit p may change only once per such block.
    """
    low = (1 << m) - 1
    h = 0
    masks = iter(masks)
    prev = next(masks, 0)
    for x in masks:
        d = (x ^ prev) & low
        if d:
            top = 1 << (d.bit_length() - 1)
            if h & top:
                return False
            h = (h | top) & -top
        prev = x
    return True


@dataclass(frozen=True)
class GrayReport:
    ok: bool
    violations: tuple[str, ...]
    count: int
    expected: int | None


def verify_gray(listing: Listing, required_class: str = "any") -> GrayReport:
    """:func:`verify_gray_masks` on the listing's masks and the label
    pairs its steps record."""
    return verify_gray_masks(listing.graph, listing.labeling, listing.embedding,
                             listing.tree_masks,
                             [(ex.removed, ex.added) for ex, _ in listing.steps],
                             listing.truncated, required_class)


def verify_gray_masks(g: MultiGraph, labeling: EdgeLabeling,
                      embedding: EmbeddedGraph | None, masks, pairs,
                      truncated: bool, required_class: str = "any") -> GrayReport:
    """Re-validate a listing given as its tree masks and the
    ``(removed, added)`` label pair each step records: every tree a
    spanning tree, no repeats, completeness against an independent
    count unless ``truncated``, one exchange per consecutive pair, the
    pair it records, and the requested class for every step.

    One pass decodes each swap once.  Up to the first mask that is not
    a tree, a mask one swap away from the tree before it (label r out,
    a in, both at most m) is a tree iff r lies on the fundamental cycle
    of a: one AND, ``cut[a] & bit r``, on the cut/cycle masks of the
    previous tree below k, kept as :func:`greedy_walk` keeps them
    (:func:`_pivot` per swap, :func:`_widen` once a swap reaches k, on
    the links of the last fully tested tree).  Any other mask gets the
    full union-find test, which a bit at m or above fails, and new
    links and a rebuild at k = 2."""
    check_class = required_class != "any"
    if check_class:
        index, table = _classifier(g, embedding, labeling, required_class)
    m = g.m
    non_tree = None
    step_bad = []
    recorded = len(pairs)
    k, cut, links = 0, None, None
    prev = 0            # no label leaves 0, so the first mask gets the full test
    for i, x in enumerate(masks):
        d = x ^ prev
        out_bit, in_bit = d & prev, d & x
        swap = out_bit and not out_bit & out_bit - 1 and in_bit and not in_bit & in_bit - 1
        if swap:
            r, a = out_bit.bit_length(), in_bit.bit_length()
        if non_tree is None:
            if swap and r <= m and a <= m:
                if r >= k or a >= k:
                    k, cut = _widen(g, labeling, prev, max(r, a), links)
                if cut[a] >> r - 1 & 1:
                    _pivot(cut, r, a)
                else:
                    non_tree = i
            elif not x >> m and g.is_spanning_tree([labeling.edge(l) for l in _labels(x)]):
                links = _links(g, labeling, x)
                k, cut = _widen(g, labeling, x, 1, links)
            else:
                non_tree = i
        prev = x
        if not i:
            continue
        if not swap:
            step_bad.append(f"trees {i - 1},{i} do not differ in one exchange")
            continue
        if i <= recorded and pairs[i - 1] != (r, a):
            step_bad.append(f"step {i - 1} records {tuple(sorted(pairs[i - 1]))}, "
                            f"trees differ by {tuple(sorted((r, a)))}")
        # a label above m names no edge, so the exchange is of no class
        if check_class and (r > m or a > m or not table[index(r, a)]):
            step_bad.append(f"step {i - 1} exchange {tuple(sorted((r, a)))} "
                            f"is not {required_class}")
    bad = []
    if non_tree is not None:
        bad.append(f"tree {non_tree} is not a spanning tree")
    if len(set(masks)) != len(masks):
        seen = {}
        for i, x in enumerate(masks):
            if x in seen:
                bad.append(f"tree {i} repeats tree {seen[x]}")
                break
            seen[x] = i
    expected = None if truncated else _count_trees(g, embedding)
    if expected is not None and len(masks) != expected:
        bad.append(f"listing has {len(masks)} trees, count says {expected}")
    bad += step_bad
    return GrayReport(not bad, tuple(bad), len(masks), expected)
