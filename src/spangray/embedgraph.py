"""Outerplane multigraphs: parsing, circle embeddings, face tracing, blocks.

Conventions used by the whole package:

* Vertices of an embedded graph sit on a circle in the counterclockwise
  (ccw) order given by ``outer_order``, and every edge is drawn inside
  the circle.  Parallel edges are drawn as nested arcs; at the endpoint
  with the smaller outer position the arcs appear in ascending edge-id
  order in the ccw rotation, and in descending order at the other end.
* ``rotation[v]`` lists the non-loop edges at ``v`` in ccw order around
  ``v``.  Because all neighbours lie on the circle, that order is simply
  increasing circular distance from ``v``'s position.
* Faces are traced so that the face interior lies on the left of its
  darts.  Inner faces therefore come out with ccw boundaries, while the
  outer face walks the boundary clockwise.
* Loops are accepted, flagged, and excluded from rotations, faces, and
  everything built on top of them.

A dart is a directed edge end, written ``(edge_id, tail_vertex)``; the
head is the other endpoint of the edge.  Inside the package a dart of a
non-loop edge e = (u, v) is also numbered flat, d = 2e + side: 2e leaves
u and 2e + 1 leaves v, so ``d ^ 1`` is the reverse dart.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import EmbeddingError, GraphError, ParseError


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph.  Edges are identified by their position in
    ``edges``, so parallel edges and loops stay distinct objects."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e} endpoint out of range: ({u}, {v})")

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def loop_edges(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.m) if self.is_loop(e))

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {e}")

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex, the incident non-loop edges as (edge_id, other_end)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            if u != v:
                adj[u].append((e, v))
                adj[v].append((e, u))
        return adj

    def degree(self, v: int) -> int:
        """Number of non-loop edge ends at v."""
        return sum(1 for u, w in self.edges if u != w and (u == v or w == v))

    def is_connected(self) -> bool:
        """True iff a spanning forest of the graph has n - 1 edges."""
        return self.n == 0 or len(self.joining_edges(range(self.m))) == self.n - 1

    def shares_vertex(self, a: int, b: int) -> bool:
        """True iff edges a and b have a common endpoint (a pivot pair)."""
        u, v = self.edges[a]
        ends = self.edges[b]
        return u in ends or v in ends

    def joining_edges(self, edge_ids) -> list[int]:
        """The ids among ``edge_ids``, in order, whose edge joins two
        components of the forest grown from the ids before it (Kruskal's
        selection).  Loops and repeated ids never join; an id outside
        0..m-1 raises GraphError."""
        m, edges = self.m, self.edges
        parent = list(range(self.n))
        out = []
        for e in edge_ids:
            if not 0 <= e < m:
                raise GraphError(f"edge id {e} out of range 0..{m - 1}")
            u, v = edges[e]
            # each end to its root, halving its path
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                out.append(e)
        return out

    def is_spanning_tree(self, edge_ids) -> bool:
        """True iff the given edge ids form a spanning tree of the graph;
        an id outside 0..m-1 raises GraphError."""
        ids = list(edge_ids)
        return len(self.joining_edges(ids)) == len(ids) == self.n - 1


@dataclass(frozen=True)
class EdgeLabeling:
    """Bijection between edge ids and labels 1..m.

    ``label_of[e]`` is the label of edge ``e``; ``edge_of[k-1]`` is the
    edge carrying label ``k``.
    """

    label_of: tuple[int, ...]

    def __post_init__(self):
        m = len(self.label_of)
        if sorted(self.label_of) != list(range(1, m + 1)):
            raise GraphError("labeling is not a bijection onto 1..m")
        edge_of = [0] * m
        for e, lab in enumerate(self.label_of):
            edge_of[lab - 1] = e
        object.__setattr__(self, "edge_of", tuple(edge_of))

    @property
    def m(self) -> int:
        return len(self.label_of)

    def label(self, e: int) -> int:
        return self.label_of[e]

    def edge(self, lab: int) -> int:
        return self.edge_of[lab - 1]

    @classmethod
    def identity(cls, m: int) -> "EdgeLabeling":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def shuffled(cls, m: int, rng) -> "EdgeLabeling":
        labels = list(range(1, m + 1))
        rng.shuffle(labels)
        return cls(tuple(labels))


@dataclass(frozen=True)
class ParsedGraph:
    graph: MultiGraph
    outer: tuple[int, ...] | None
    directed: bool


_INT = re.compile(r"-?[0-9]+")


def _ints(tokens, message: str, lineno: int) -> list[int]:
    """The tokens as integers, each written ``-?[0-9]+`` (``int`` alone
    would also read ``1_0`` or non-ASCII digits) and short enough for
    ``int`` to read."""
    try:
        if all(_INT.fullmatch(t) for t in tokens):
            return [int(t) for t in tokens]
    except ValueError:
        pass
    raise ParseError(message, lineno)


def parse_graph(text: str) -> ParsedGraph:
    """Parse edge-list text.

    Format: first significant line ``n m``, then m lines ``u v`` with
    0-based endpoints.  Before the edge lines two optional header lines
    are recognised: ``directed`` and ``outer: v0 v1 ... v_{n-1}``.
    ``#`` starts a comment; blank lines are ignored.  Every error names
    a line: the line that causes it, the header's for a wrong edge count
    or for n > m + 1 (no such graph is connected), and the last line for
    input with no header.  Nothing is sized by n before it is checked
    against the edge lines.
    """
    graph_line = None
    outer = None
    directed = False
    edges: list[tuple[int, int]] = []
    n = m = 0
    lineno = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if graph_line is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", lineno)
            n, m = _ints(parts, "expected integers in header 'n m'", lineno)
            if n < 0 or m < 0:
                raise ParseError("n and m must be nonnegative", lineno)
            if n < 1:
                raise ParseError("a graph needs at least one vertex", lineno)
            graph_line = lineno
            continue
        if line == "directed":
            if edges:
                raise ParseError("'directed' must precede the edge lines", lineno)
            directed = True
            continue
        if line.startswith("outer:"):
            if edges:
                raise ParseError("'outer:' must precede the edge lines", lineno)
            if outer is not None:
                raise ParseError("a second 'outer:' line", lineno)
            outer = tuple(_ints(line[len("outer:"):].split(),
                                "bad vertex in outer order", lineno))
            if len(outer) != n or sorted(outer) != list(range(n)):
                raise ParseError("outer order must list every vertex exactly once", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge line 'u v', got {line!r}", lineno)
        u, v = parts
        try:
            # ASCII digits are what _ints reads, without its regex; a sign,
            # anything else and a token too long for int go through _ints
            if not (u.isascii() and u.isdigit() and v.isascii() and v.isdigit()):
                raise ValueError
            u, v = int(u), int(v)
        except ValueError:
            u, v = _ints(parts, "edge endpoints must be integers", lineno)
        if len(edges) >= m:
            raise ParseError("more edge lines than declared by header", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {len(edges)} endpoint out of range: ({u}, {v})", lineno)
        edges.append((u, v))
    if graph_line is None:
        # the last line read, line 1 for an empty file
        raise ParseError("empty input, expected header 'n m'", lineno)
    if len(edges) != m:
        raise ParseError(f"declared {m} edges but found {len(edges)}", graph_line)
    # before anything is sized by n: the header's n may be far beyond the file
    if n > m + 1:
        raise ParseError(f"{n} vertices need at least {n - 1} edges to be connected, "
                         f"found {m}", graph_line)
    return ParsedGraph(MultiGraph(n, tuple(edges)), outer, directed)


@dataclass(frozen=True)
class Face:
    """One face of an embedding.  ``darts`` walks the boundary with the
    face interior on the left; each dart is (edge_id, tail_vertex)."""

    id: int
    darts: tuple[tuple[int, int], ...]
    is_outer: bool

    @property
    def length(self) -> int:
        return len(self.darts)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.darts)


class EmbeddedGraph:
    """An outerplane embedding of a connected multigraph.

    Built by :func:`build_embedding`; carries the rotation system, the
    traced faces, and dart-to-face lookups.  :meth:`class_index` tells
    the exchange class of one pair of edges; callers that test many
    pairs by label read class rows built from the rotation and the faces
    (:func:`treegen._classifier`).
    """

    def __init__(self, graph: MultiGraph, outer_order: tuple[int, ...],
                 rotation: tuple[tuple[int, ...], ...], faces: tuple[Face, ...],
                 outer_face: int, face_of: tuple[int, ...]):
        self.graph = graph
        self.outer_order = outer_order
        self.rotation = rotation
        self.faces = faces
        self.outer_face = outer_face
        # per flat dart 2e + side, the id of the face on its left (-1 for
        # the darts of a loop)
        self.face_of = face_of
        self.loop_edges = graph.loop_edges()
        # the class rows of the last labeling classified, kept for the
        # next caller with that labeling (treegen._classifier)
        self.class_rows = None

    @functools.cached_property
    def left_face(self) -> dict[tuple[int, int], int]:
        """Per dart ``(edge_id, tail_vertex)``, the id of the face on its
        left, in the order the faces were traced."""
        return {d: f.id for f in self.faces for d in f.darts}

    def inner_faces(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if not f.is_outer)

    def faces_of_edge(self, e: int) -> tuple[int, ...]:
        """The ids of the faces the two sides of edge e bound (none for a
        loop)."""
        fl, fr = self.face_of[2 * e:2 * e + 2]
        return () if fl < 0 else (fl, fr)

    def class_index(self, a: int, b: int) -> int:
        """The exchange class of edges a and b as 0..7: bit 0 set iff
        they share an end vertex (pivot), bit 1 iff they bound a common
        face (face), bit 2 iff a common face is inner (face_inner).  A
        loop bounds no face.  One pair at a time, from the ends and
        faces themselves; a caller that classifies many exchanges by
        label reads class rows (:func:`treegen._classifier`)."""
        u, v = self.graph.edges[a]
        ends = self.graph.edges[b]
        common = set(self.faces_of_edge(a)).intersection(self.faces_of_edge(b))
        return ((u in ends or v in ends) | bool(common) << 1
                | bool(common - {self.outer_face}) << 2)

    def is_outer_edge(self, e: int) -> bool:
        return self.outer_face in self.face_of[2 * e:2 * e + 2]


def _check_crossings(g: MultiGraph, pos: list[int]) -> None:
    """Raise EmbeddingError naming two edges that cross when every edge
    is drawn as a chord between its endpoints' outer positions (loops
    and chords sharing an end position never cross).

    One sweep over the chords by near end, longest first, with a stack
    of open chords whose far ends never increase toward the top: chords
    ending at or before the near end are closed, and a chord reaching
    past the top's far end crosses the top.
    """
    chords = []
    for e, (u, v) in enumerate(g.edges):
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        if a != b:
            chords.append((a, -b, e))
    chords.sort()
    stack: list[tuple[int, int]] = []
    for a, b, e in chords:
        while stack and stack[-1][0] <= a:
            stack.pop()
        if stack and stack[-1][0] < -b:
            e1, e2 = sorted((stack[-1][1], e))
            raise EmbeddingError(
                f"edges {e1} {g.edges[e1]} and {e2} {g.edges[e2]} cross "
                f"under the given outer order")
        stack.append((-b, e))


def build_embedding(g: MultiGraph, outer_order) -> EmbeddedGraph:
    """Embed ``g`` with all vertices on the outer face in the given ccw order.

    Raises EmbeddingError if two edges would cross, GraphError if the
    graph is disconnected or the order is not a permutation of the
    vertices.
    """
    outer_order = tuple(outer_order)
    if sorted(outer_order) != list(range(g.n)):
        raise GraphError("outer order must list every vertex exactly once")
    if not g.is_connected():
        raise GraphError("graph is disconnected; embed components separately")
    pos = [0] * g.n
    for i, v in enumerate(outer_order):
        pos[v] = i
    _check_crossings(g, pos)
    n = g.n
    edges = g.edges
    tail = [x for uv in edges for x in uv]      # tail[d] of the flat dart d

    ends: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        if a != b:
            # nested parallel arcs: ascending id at the low-position end
            low = e if pos[a] < pos[b] else -e
            ends[a].append(((pos[b] - pos[a]) % n, low, 2 * e))
            ends[b].append(((pos[a] - pos[b]) % n, -low, 2 * e + 1))
    # per vertex, its out-darts in ccw order; prev_out[d] is the out-dart
    # before d at d's tail
    outs = [[d for _, _, d in sorted(at)] for at in ends]
    rotation = tuple([tuple([d >> 1 for d in out]) for out in outs])
    prev_out = [-1] * len(tail)
    for out in outs:
        for i, d in enumerate(out):
            prev_out[d] = out[i - 1]

    # face tracing: the successor of dart d is the out-dart before the
    # reverse of d in the ccw rotation at d's head
    face_of = [-1] * len(tail)
    walks: list[list[int]] = []
    for d0 in range(len(tail)):
        if face_of[d0] >= 0 or tail[d0] == tail[d0 ^ 1]:
            continue
        fid = len(walks)
        walk = []
        d = d0
        while face_of[d] < 0:
            face_of[d] = fid
            walk.append(d)
            d = prev_out[d ^ 1]
        walks.append(walk)

    if walks:
        # the outer face lies left of the last dart in the rotation at the
        # vertex of outer position 0 (that dart points most clockwise)
        v0 = outer_order[0]
        if not outs[v0]:
            raise GraphError("vertex of outer position 0 has no non-loop edge")
        outer_id = face_of[outs[v0][-1]]
        faces = [Face(fid, tuple((d >> 1, tail[d]) for d in walk), fid == outer_id)
                 for fid, walk in enumerate(walks)]
    else:
        # single vertex (possibly with loops): one outer face, empty boundary
        faces = [Face(0, (), True)]
        outer_id = 0

    nonloop = sum(1 for u, v in g.edges if u != v)
    if n - nonloop + len(faces) != 2:
        raise EmbeddingError("face count violates Euler's formula; embedding is broken")

    return EmbeddedGraph(g, outer_order, rotation, tuple(faces), outer_id, tuple(face_of))


def is_triangulation(emb: EmbeddedGraph, multi: bool = False) -> bool:
    """True iff every inner face is a triangle.

    With ``multi=True`` inner faces of length 2 (digons between parallel
    edges) are allowed as well, i.e. the test is length <= 3.
    """
    for f in emb.faces:
        if f.is_outer:
            continue
        if multi:
            if f.length > 3:
                return False
        else:
            if f.length != 3:
                return False
    return True


@dataclass(frozen=True)
class Block:
    """A biconnected component.  ``graph`` uses local vertex ids;
    ``vertices[i]`` and ``edge_ids[j]`` map back to the original graph."""

    graph: MultiGraph
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]


def blocks(g: MultiGraph) -> list[Block]:
    """Biconnected components of ``g``.  Bridges become 2-vertex blocks;
    loops belong to no block.  Works per connected component."""
    adj = g.adjacency()
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    edge_stack: list[int] = []
    out: list[list[int]] = []
    for root in range(g.n):
        if disc[root] or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # depth-first with an explicit stack of (vertex, tree edge in, edges left)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent_edge, rest = stack[-1]
            for e, w in rest:
                if e == parent_edge:
                    continue
                if disc[w] == 0:
                    edge_stack.append(e)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, e, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(e)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    comp = []
                    while True:
                        f = edge_stack.pop()
                        comp.append(f)
                        if f == parent_edge:
                            break
                    out.append(comp)

    result = []
    for comp in out:
        comp_sorted = tuple(sorted(comp))
        verts = sorted({x for e in comp_sorted for x in g.edges[e]})
        local = {v: i for i, v in enumerate(verts)}
        ledges = tuple((local[g.edges[e][0]], local[g.edges[e][1]]) for e in comp_sorted)
        result.append(Block(MultiGraph(len(verts), ledges), tuple(verts), comp_sorted))
    return result


def _tree_mask(g: MultiGraph, labeling: EdgeLabeling, labels) -> int:
    """The mask of the labels, which must form a spanning tree of g,
    each label once."""
    seen = set()
    for l in labels:
        if l in seen:
            raise GraphError(f"label {l} is repeated")
        seen.add(l)
    labels = seen
    if not all(1 <= l <= g.m for l in labels):
        raise GraphError("labels out of range")
    ids = [labeling.edge(l) for l in labels]
    if not g.is_spanning_tree(ids):
        raise GraphError(f"labels {sorted(labels)} do not form a spanning tree")
    mask = 0
    for l in labels:
        mask |= 1 << (l - 1)
    return mask


def _links(g: MultiGraph, labeling: EdgeLabeling, mask: int) -> tuple[list[int], list[int]]:
    """``(parent, stamp)``: the edges of the spanning tree ``mask`` joined
    by union by size in decreasing label order, each link stamped with
    the label that made it (a root has stamp 0).  The stamps fall from a
    vertex toward its root, so ``while stamp[v] >= k: v = parent[v]``
    finds the vertex that v merges into when every tree edge of label k
    or more is contracted, in O(log n) steps; no path is compressed,
    since that would skip stamps.  One O(n log n) pass; the tree labels
    come from the binary digits of ``mask``, highest first."""
    parent = list(range(g.n))
    stamp = [0] * g.n
    size = [1] * g.n
    edges, edge_of = g.edges, labeling.edge_of
    digits = bin(mask)
    i = digits.find("1", 2)
    while i >= 0:
        l = len(digits) - i
        u, v = edges[edge_of[l - 1]]
        while stamp[u]:
            u = parent[u]
        while stamp[v]:
            v = parent[v]
        if size[u] < size[v]:
            u, v = v, u
        parent[v], stamp[v] = u, l
        size[u] += size[v]
        i = digits.find("1", i + 1)
    return parent, stamp


def _fundamental(g: MultiGraph, labeling: EdgeLabeling, mask: int, k: int,
                 links=None) -> list[int]:
    """The fundamental cuts and cycles of the spanning tree whose labels
    are the set bits of ``mask``, restricted to the labels below ``k``,
    as one bitmask per label (index 0 unused; bit l-1 holds label l).
    For a tree label l < k, ``cut[l]`` holds the non-tree labels below k
    whose tree path runs through l; for a non-tree label l < k, the tree
    labels below k on its tree path (none for a loop).  Labels k and up
    are in no mask and have 0, as if their tree edges were contracted.

    ``mask`` must be a spanning tree, and ``links`` the :func:`_links` of
    a base tree whose labels k and up are those of ``mask`` (computed
    from ``mask`` itself when not given, one O(n log n) pass).  Only the
    labels below k are read: each end is mapped to its contracted vertex
    through the links in O(log n), so a build costs O(k log n).  On the
    contracted tree, a vertex's path bits from a root give the cycles, a
    subtree's incident non-tree bits the cuts.  :func:`_pivot` keeps it
    up to date across exchanges."""
    parent, stamp = _links(g, labeling, mask) if links is None else links
    edges, edge_of = g.edges, labeling.edge_of
    adj = {}        # contracted vertex -> [(contracted vertex, tree label)]
    at = {}         # contracted vertex -> its non-tree labels; a loop cancels
    chords = []
    for l in range(1, k):
        u, v = edges[edge_of[l - 1]]
        while stamp[u] >= k:
            u = parent[u]
        while stamp[v] >= k:
            v = parent[v]
        b = 1 << l - 1
        if mask & b:
            adj.setdefault(u, []).append((v, l))
            adj.setdefault(v, []).append((u, l))
        else:
            at[u] = at.get(u, 0) ^ b
            at[v] = at.get(v, 0) ^ b
            chords.append((l, u, v))
    # the contracted tree searched from vertex 0's contracted vertex
    x = 0
    while stamp[x] >= k:
        x = parent[x]
    root = {x: 0}           # tree labels below k on the path from x
    down = []               # (vertex, its parent, the label between)
    todo = [x]
    for x in todo:
        rx = root[x]
        for y, l in adj.get(x, ()):
            if y not in root:
                root[y] = rx | 1 << l - 1
                todo.append(y)
                down.append((y, x, l))
    cut = [0] * (g.m + 1)
    for y, x, l in reversed(down):
        cut[l] = a = at.get(y, 0)
        at[x] = at.get(x, 0) ^ a
    for l, u, v in chords:
        cut[l] = root[u] ^ root[v]
    return cut


def _pivot(cut: list[int], r: int, a: int) -> None:
    """Update ``cut`` from :func:`_fundamental` in place for the exchange
    that drops the tree label ``r`` and adds the non-tree label ``a``,
    both below its k, with r on a's cycle: the pivot of the fundamental
    matrix at (r, a).  Each other tree label on a's cycle XORs in r's
    cut and r (which drops a and adds r), each other non-tree label in
    r's cut XORs in a's cycle and a (which drops r and adds a), and a
    and r trade their masks.  O(|cycle of a| + |cut of r|) XORs."""
    br, ba = 1 << r - 1, 1 << a - 1
    cr, ca = cut[r], cut[a]
    row, col = cr ^ br, ca ^ ba
    x = ca ^ br
    while x:
        low = x & -x
        cut[low.bit_length()] ^= row
        x ^= low
    x = cr ^ ba
    while x:
        low = x & -x
        cut[low.bit_length()] ^= col
        x ^= low
    cut[a], cut[r] = row ^ ba, col ^ br


def _labels(x: int) -> list[int]:
    """The labels whose bits are set in ``x`` (bit l-1 holds label l),
    ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length())
        x ^= low
    return out
