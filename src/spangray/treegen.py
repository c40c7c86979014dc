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
    """The m-bit mask as a 0/1 line, bit 0 leftmost ("" for m = 0): the
    binary digits after "0b1", the sentinel bit m, read backwards in one
    slice."""
    return bin(mask | 1 << m)[:2:-1]


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


# the eight classes by EmbeddedGraph.class_index
_CLASSES = tuple(ExchangeClass(bool(i & 1), bool(i & 2), bool(i & 4)) for i in range(8))


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


def _label_mask(edge_ids, label_of) -> int:
    """The mask with bit l-1 set for the label l of each edge of a
    nonempty list, in O(len + max) bit steps.  Up to 64 labels are ORed
    in one at a time, at most 64 * max bits; more are written as a 0/1
    string over the span of the labels and shifted into place, since an
    OR per label would cost O(len * max) bits, quadratic at a vertex of
    high degree."""
    if len(edge_ids) <= 64:
        mask = 0
        for e in edge_ids:
            mask |= 1 << label_of[e] - 1
        return mask
    labels = [label_of[e] for e in edge_ids]
    low, top = min(labels), max(labels)
    text = bytearray(b"0") * (top - low + 1)
    for l in labels:
        text[top - l] = 49      # "1"; the first character is label top
    return int(text, 2) << low - 1


def _dart_mask(darts, label_of) -> int:
    """:func:`_label_mask` of the edges of a face's ``(edge, tail)``
    darts, with no list of them built for a face of up to 64 darts."""
    if len(darts) <= 64:
        mask = 0
        for e, _ in darts:
            mask |= 1 << label_of[e] - 1
        return mask
    return _label_mask([e for e, _ in darts], label_of)


class _ClassRows(dict):
    """The class rows of a labeled graph, by label: ``rows[f]`` holds
    one row per class, in :data:`RESTRICTIONS` order, and the row of a
    kind has bit a-1 set iff the exchange of labels f and a is of that
    kind (f with itself counts as sharing its own ends and faces).

    With ends u, v and faces fl, fr of f's edge, the pivot row is the OR
    of the label masks of u and v (every edge at the vertex, loops too),
    the face row that of fl and fr (a loop has none), the face_inner row
    that of the inner ones among them; paf is their AND, pof their OR,
    and "any" is -1.  A bare graph (``emb`` None) has no face rows.  A
    label's rows, and the masks they read, are built at its first read
    and kept, so a caller pays for the labels it reads."""

    __slots__ = ("graph", "labeling", "_edges_at", "_faces", "_face_of", "_outer",
                 "_label_of", "_edge_of", "_vertex", "_face")

    def __init__(self, g: MultiGraph, emb: EmbeddedGraph | None, labeling: EdgeLabeling):
        super().__init__()
        self.graph = g
        if emb is not None and not emb.loop_edges:
            self._edges_at = emb.rotation       # every edge at each vertex, once
        else:
            self._edges_at = at = [[] for _ in range(g.n)]
            for e, (u, v) in enumerate(g.edges):
                at[u].append(e)
                if v != u:
                    at[v].append(e)
        # the parts of the embedding the rows read, not the embedding,
        # which keeps the rows (_classifier): no reference cycle
        self._faces, self._face_of, self._outer = (
            ((), None, -1) if emb is None else (emb.faces, emb.face_of, emb.outer_face))
        self.labeling = labeling
        self._label_of, self._edge_of = labeling.label_of, labeling.edge_of
        # per vertex and per face its label mask, None until a row reads it
        self._vertex = [None] * g.n
        self._face = [None] * len(self._faces)

    def __missing__(self, f: int) -> tuple[int, ...]:
        label, vertex, face_of = self._label_of, self._vertex, self._face_of
        e = self._edge_of[f - 1]
        u, v = self.graph.edges[e]
        pu = vertex[u]
        if pu is None:
            pu = vertex[u] = _label_mask(self._edges_at[u], label)
        pv = vertex[v]
        if pv is None:
            pv = vertex[v] = _label_mask(self._edges_at[v], label)
        pivot = pu | pv
        face = inner = 0
        fl = -1 if face_of is None else face_of[2 * e]
        if fl >= 0:             # not a loop, whose darts have face -1
            fr, faces = face_of[2 * e + 1], self._face
            ml, mr = faces[fl], faces[fr]
            if ml is None:
                ml = faces[fl] = _dart_mask(self._faces[fl].darts, label)
            if mr is None:
                mr = faces[fr] = _dart_mask(self._faces[fr].darts, label)
            face = ml | mr
            inner = (0 if fl == self._outer else ml) | (0 if fr == self._outer else mr)
        rows = self[f] = (-1, pivot, face, inner, pivot & face, pivot | face)
        return rows


def _classifier(g: MultiGraph, emb: EmbeddedGraph | None,
                labeling: EdgeLabeling, kind: str, kept: _ClassRows | None = None) -> _ClassRows:
    """The class rows of the labeled graph (:class:`_ClassRows`), once
    ``kind`` is known to be a class they can tell: pivot reads the graph
    only, the face-based classes need the embedding.  The one class test
    of the walk's ties, of ``verify --class`` and of the flip graphs:
    an exchange of labels f and a is of the kind iff bit a-1 of the
    kind's row of f is set, and the largest partner of f of the kind is
    the top bit of the partners ANDed with that row.  An embedding keeps
    the rows of the last labeling classified on it, so verifying a
    listing reads the rows its walk built; a bare graph has nowhere to
    keep them, so a caller may pass the rows of its last call as
    ``kept``, returned when they are of the same graph and labeling."""
    if kind not in RESTRICTIONS:
        raise GraphError(f"unknown exchange class {kind!r}")
    if emb is None:
        if kind not in ("any", "pivot"):
            raise GraphError(f"exchange class {kind!r} needs an embedding")
        if kept is not None and kept.graph is g and kept.labeling == labeling:
            return kept
        return _ClassRows(g, None, labeling)
    rows = emb.class_rows
    if rows is None or rows.labeling != labeling:
        rows = emb.class_rows = _ClassRows(emb.graph, emb, labeling)
    return rows


def _class_rows(g: MultiGraph, emb: EmbeddedGraph | None,
                labeling: EdgeLabeling, kind: str) -> list[int] | None:
    """The class table of ``kind``: None for "any", else the
    :func:`_classifier` row of every label, m row builds, row r at index
    r (index 0 is 0) with label a at bit a-1, for the flip-graph
    builder, which tests many pairs on a small m."""
    classes = _classifier(g, emb, labeling, kind)
    if kind == "any":
        return None
    slot = RESTRICTIONS.index(kind)
    return [0] + [classes[r][slot] for r in range(1, g.m + 1)]


def _no_exchange(kind: str, f: int, partners: int) -> CertificationError:
    """The error of a tie whose partners of f hold none of class ``kind``."""
    return CertificationError(
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
    slot = RESTRICTIONS.index(kind)
    bare = None         # the rows of the last bare graph, for the next call on it

    def rule(ctx: TieContext) -> Exchange:
        """Pick, among the candidates of this rule's exchange class, the
        one with the maximum smaller label."""
        nonlocal bare
        cands = ctx.candidates
        if not cands:
            raise GraphError("empty tie set")
        if kind == "any":
            return cands[-1]
        f = cands[-1].larger
        rows = _classifier(ctx.graph, ctx.embedding, ctx.labeling, kind, bare)
        if ctx.embedding is None:
            bare = rows
        row = rows[f][slot]
        for x in reversed(cands):
            if row >> x.smaller - 1 & 1:
                return x
        raise _no_exchange(kind, f, sum(1 << x.smaller - 1 for x in cands))

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
        """The listing's lines, one per ``next``: each tree's chi line,
        then the step after it, if any, with its class flags when
        classified.  The chi lines are formatted a chunk of
        :data:`_RENDER_CHUNK` trees at a time, so only that chunk's text
        is held, never the whole listing's.  A step's line is formatted
        once per distinct step value, in a memo kept across chunks."""
        m, masks, steps = self.graph.m, self.tree_masks, self.steps
        text = {}       # step -> its line
        for lo in range(0, len(masks), _RENDER_CHUNK):
            hi = lo + _RENDER_CHUNK
            chis = [_chi_line(x, m) for x in masks[lo:hi]]
            chunk_steps = steps[lo:hi]
            for chi, step in zip(chis, chunk_steps):
                yield chi
                line = text.get(step)
                if line is None:
                    ex, cls = step
                    line = f"- {ex.removed} + {ex.added}"
                    if cls is not None:
                        line += _flag_text(cls)
                    text[step] = line
                yield line
            yield from chis[len(chunk_steps):]


# trees per chunk of Listing.render_lines: few passes, little text at once
_RENDER_CHUNK = 2048


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
    form the tie set.  The scan starts at level 2: the partners of label
    1 are ``cut[1] & 0``, always empty, so leaving level 1 out changes
    no step or tie set, and the first build is that of level 2, with
    k = min(4, m + 1).  The tree state is one bitmask per label
    below a threshold k (:func:`_fundamental`): a tree label's
    fundamental cut, the non-tree labels whose tree path runs through
    it, and a non-tree label's fundamental cycle, the tree labels on its
    path.  The partners of f are then ``cut[f]`` below f, one AND.  An
    exchange updates the state in place by :func:`_pivot`, a pivot of
    the fundamental matrix in O(|cycle| + |cut|) XORs, so a step pays
    for labels below k only.  A level f >= k rebuilds it with k = 2f
    (:func:`_widen`), so it is built O(log m) times.  Every exchange
    swaps two labels below k, so the tree labels k and up stay those of
    the initial tree: one O(n log n) :func:`_links` pass over that tree
    lets each build read the labels below k only, in O(k log n).

    A rule with a ``kind`` attribute (the built-in ones) is not called:
    the walk picks the last partner of that class itself, the top bit of
    the partners ANDed with f's class row (:func:`_classifier`, built at
    the first tie at level f).  Any other rule gets a
    :class:`TieContext` per step.  Either way the walk yields one shared
    step per directed (removed, added) pair, built the first time it
    takes that exchange and classified from three rows of its larger
    label.
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
    k, cut = _widen(g, labeling, mask, 2, links)
    full = (1 << g.m) - 1 & ~1     # level 1 has no smaller partner
    kind = getattr(tiebreak, "kind", None)
    slot = RESTRICTIONS.index(kind or "any")
    classes = None      # built at the first tie: a tree has none
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
        if classes is None:
            classes = _classifier(g, embedding, labeling, kind or "any")
        if kind is None:
            cands = tuple(Exchange(f, e) if f_in else Exchange(e, f) for e in _labels(partners))
            chosen = tiebreak(TieContext(g, labeling, embedding, mask, cands))
            if chosen not in cands:
                raise GraphError("tie-breaking rule left the tie set")
            e = min(chosen)     # chosen may be a plain (removed, added) tuple
        elif kind == "any":
            e = partners.bit_length()
        else:
            e = (partners & classes[f][slot]).bit_length()
            if not e:
                raise _no_exchange(kind, f, partners)
        r, a = (f, e) if f_in else (e, f)
        step = shared.get(r * width + a)
        if step is None:
            cls = None
            if classify:        # numbered as EmbeddedGraph.class_index numbers it
                _, pivot, face, inner, _, _ = classes[f]
                cls = _CLASSES[pivot >> e - 1 & 1 | (face >> e - 1 & 1) << 1
                               | (inner >> e - 1 & 1) << 2]
            step = shared[r * width + a] = (Exchange(r, a), cls)
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
    pairs its steps record, as one batch."""
    masks, n = listing.tree_masks, len(listing.tree_masks)
    # an Exchange is the (removed, added) tuple; a step not recorded has None
    pairs = [None, *(ex for ex, _ in listing.steps[:n - 1])]
    pairs += [None] * (n - len(pairs))
    return verify_gray_masks(listing.graph, listing.labeling, listing.embedding,
                             [(masks, pairs)], lambda: masks, listing.truncated,
                             required_class)[1]


def verify_gray_masks(g: MultiGraph, labeling: EdgeLabeling,
                      embedding: EmbeddedGraph | None, batches, again,
                      truncated: bool, required_class: str = "any") -> tuple[bool, GrayReport]:
    """``(genlex, report)`` of a listing given as ``batches`` of
    ``(masks, pairs)``, read once and in order: ``pairs[j]`` is the
    ``(removed, added)`` label pair recorded for the step into
    ``masks[j]``, None where none is (always for the first tree).
    ``genlex`` is :func:`verify_genlex_masks` of the masks; the report
    checks every tree a spanning tree, no repeats, completeness against
    an independent count unless ``truncated``, one exchange per
    consecutive pair, the pair it records, and the requested class for
    every step.  ``again()`` gives the masks a second time; it is called
    only when the listing is not genlex or has a bit at m or above.

    One pass over the masks checks genlex, the tree test, the pair and
    the class together, so no batch is kept once read.  Each distinct
    ``d = x ^ prev`` of two labels up to m, a candidate swap, is decoded
    once: a memo holds its two bits and labels, its top bit (the bit of
    genlex's block mask it sets) and whether the swap is of the required
    class.  Listings reuse few swaps: the m=22 strip's 28,656 steps use
    38, a 1,000-tree walk on an n=160, m=280 graph 18 to 23, and the
    8,693 steps of the 292 outerplane multigraphs with m <= 9 use 2,416
    (at most 14 in one listing).  The memo
    is emptied when it reaches 64 + 2^18 / (m + 1) entries, which never
    happens on those: an entry holds four ints of at most m bits, so the
    memo stays under 2^20 bits plus O(m) words on any listing.

    Up to the first mask that is not a tree, a mask one swap away from
    the tree before it (label r out, a in) is a tree iff r lies on the
    fundamental cycle of a: one AND, ``cut[a] & bit r``, on the cut/cycle
    masks of the previous tree below k, kept as :func:`greedy_walk`
    keeps them (:func:`_pivot` per swap, :func:`_widen` once a swap
    reaches k, on the links of the last fully tested tree).  Any other
    mask gets the full test, the links of :func:`_links`, which are None
    for a mask that is not a tree (a bit at m or above included), and a
    rebuild at level 2.  A step's class is one bit of the class row of
    its larger label (:func:`_classifier`), the row the walk read at
    that step.

    Repeats need no set when the masks are genlex and below 2^m: all the
    trees that share the whole m-bit suffix of a tree are then
    consecutive, so the first repeat is the first pair of equal
    consecutive masks.  Otherwise ``again()`` is searched with a set; a
    bit at m or above breaks the shortcut, since ``[x, x | 1 << m, x]``
    is genlex on the low bits but repeats x out of line."""
    check_class = required_class != "any"
    if check_class:
        classes = _classifier(g, embedding, labeling, required_class)
        slot = RESTRICTIONS.index(required_class)
    m = g.m
    low = (1 << m) - 1
    memo = {}           # d -> (lo bit, hi bit, -hi, hi label, pair lo out, pair hi out, ok)
    limit = 64 + (1 << 18) // (m + 1)
    get = memo.get
    genlex, h = True, 0
    non_tree = first_equal = None
    high = False        # some mask has a bit at m or above
    step_bad = []
    k, cut, links = 0, None, None
    prev = 0
    i = -1
    for masks, pairs in batches:
        steps = enumerate(zip(masks, pairs), i + 1)
        if i < 0:
            for i, (x, _) in steps:
                high = bool(x >> m)
                links = _links(g, labeling, x)
                if links is None:
                    non_tree = 0
                else:
                    k, cut = _widen(g, labeling, x, 2, links)
                prev = x
                break
        for i, (x, pair) in steps:
            d = x ^ prev
            e = get(d)
            if e is None:
                lo = d & -d
                hi = d ^ lo
                if hi and not hi & hi - 1 and not hi >> m:
                    l, t = lo.bit_length(), hi.bit_length()
                    if len(memo) >= limit:
                        memo.clear()
                    e = memo[d] = (lo, hi, -hi, t, (l, t), (t, l),
                                   not check_class or classes[t][slot] >> l - 1 & 1)
            if e is not None:
                lo, hi, keep, t, lo_out, hi_out, ok = e
                added = x & d
                if added == hi or added == lo:
                    r, a = ra = lo_out if added == hi else hi_out
                    if h & hi:
                        genlex = False
                    h = (h | hi) & keep
                    if pair != ra and pair is not None:
                        step_bad.append(f"step {i - 1} records {tuple(sorted(pair))}, "
                                        f"trees differ by {lo_out}")
                    if not ok:
                        step_bad.append(f"step {i - 1} exchange {lo_out} "
                                        f"is not {required_class}")
                    if non_tree is None:
                        if t >= k:
                            k, cut = _widen(g, labeling, prev, t, links)
                        if cut[a] >> r - 1 & 1:
                            _pivot(cut, r, a)
                        else:
                            non_tree = i
                    prev = x
                    continue
            # not a swap of two labels up to m
            top = d & low
            if top:
                top = 1 << top.bit_length() - 1
                if h & top:
                    genlex = False
                h = (h | top) & -top
            elif not d and first_equal is None:
                first_equal = i
            if d >> m:
                high = True
            out_bit, in_bit = d & prev, d & x
            if out_bit and not out_bit & out_bit - 1 and in_bit and not in_bit & in_bit - 1:
                ra = out_bit.bit_length(), in_bit.bit_length()
                swap = tuple(sorted(ra))
                if pair != ra and pair is not None:
                    step_bad.append(f"step {i - 1} records {tuple(sorted(pair))}, "
                                    f"trees differ by {swap}")
                # a label above m names no edge, so the exchange is of no class
                if check_class:
                    step_bad.append(f"step {i - 1} exchange {swap} is not {required_class}")
            else:
                step_bad.append(f"trees {i - 1},{i} do not differ in one exchange")
            if non_tree is None:
                links = _links(g, labeling, x)
                if links is None:
                    non_tree = i
                else:
                    k, cut = _widen(g, labeling, x, 2, links)
            prev = x
    count = i + 1
    bad = []
    if non_tree is not None:
        bad.append(f"tree {non_tree} is not a spanning tree")
    if genlex and not high:
        if first_equal is not None:
            bad.append(f"tree {first_equal} repeats tree {first_equal - 1}")
    else:
        seen = {}
        for j, x in enumerate(again()):
            if x in seen:
                bad.append(f"tree {j} repeats tree {seen[x]}")
                break
            seen[x] = j
    expected = None if truncated else _count_trees(g, embedding)
    if expected is not None and count != expected:
        bad.append(f"listing has {count} trees, count says {expected}")
    bad += step_bad
    return genlex, GrayReport(not bad, tuple(bad), count, expected)
