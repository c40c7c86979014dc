"""Exact spanning-tree counting and the Fibonacci extremal bound.

Three independent counters serve as oracles for the generator: the
Kirchhoff determinant (any multigraph; sparse elimination in
minimum-degree order, O(1) fill per step on an outerplane graph, exact
modulo a Mersenne prime above its Hadamard bound, with rows scaled so
that one modular inverse at the end is its only division),
deletion-contraction (any multigraph, exponential, for cross-checks,
contracting a bridge with no deleted child, with an optional budget of
memo states) and series-parallel reduction (outerplane and other
K4-minor-free multigraphs, O(m) reductions).  The extremal checker
verifies t(G) <= f_{m+1} for outerplane multigraphs and the exact
characterization of equality (no loops, 2-connected, inner faces of
length at most 3, weak dual a path, every digon on the outer face) in
one pass: no loops, 2-connected, and every inner face of length at most
3 with an outer edge, since an inner face's degree in the weak dual, a
tree, is its number of edges off the outer face.  Every count is exact.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .dualtree import _outer_is_cycle
from .embedgraph import EmbeddedGraph, MultiGraph, build_embedding, is_triangulation
from .errors import CertificationError, GraphError

_fib = [0, 1]


def fib(k: int) -> int:
    if k < 0:
        raise GraphError("negative Fibonacci index")
    while len(_fib) <= k:
        _fib.append(_fib[-1] + _fib[-2])
    return _fib[k]


def _need_vertex(g: MultiGraph) -> None:
    """Every counter rejects a graph with no vertices the same way."""
    if g.n < 1:
        raise GraphError("a graph needs at least one vertex")


# The exponents p of the Mersenne primes 2^p - 1, in increasing order
_MERSENNE_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
    3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
    110503, 132049, 216091, 756839, 859433, 1257787, 1398269, 2976221,
    3021377, 6972593, 13466917, 20996011, 24036583, 25964951, 30402457,
    32582657, 37156667, 42643801, 43112609, 57885161)


def count_matrix_tree(g: MultiGraph) -> int:
    """Number of spanning trees by Kirchhoff's Matrix-Tree theorem: the
    determinant of the Laplacian with the row and column of one root
    vertex deleted, by elimination over sparse per-vertex rows.  Each
    step pivots on a vertex of least current degree, taken from a heap;
    an outerplane graph always has a vertex of degree at most 2, so its
    fill stays O(1) per step.

    The arithmetic is exact modulo one prime P = 2^p - 1, the least
    Mersenne prime above the Hadamard bound B, the product of deg(v)
    over v != root (deg counts non-loop edge ends).  Since 2^p = 1 mod
    P, a residue is reduced by folding, x = (x & P) + (x >> p); two
    folds bring a product of two residues back to about p bits.

    No step divides.  Before v, with stored pivot s and k neighbours, is
    eliminated, the row of each neighbour u is multiplied by s, which
    multiplies the determinant by s^k.  The update of T_uw for
    neighbours u and w is then s*T_uw - T_uv*T_vw, and the rest of row
    u is multiplied by s.  Scaling rows, where the congruence D*S*D
    would scale rows and columns, puts one factor s on an entry, not
    two, and leaves the entries of a strip exact and far below P.  The
    stored pivots and the scales are multiplied up apart and divided
    with one modular inverse at the end.

    The zero-pivot test is sound.  The reduced Laplacian is positive
    semidefinite with diagonal deg(v) >= 1 once no vertex is isolated,
    so each leading principal minor D_k of the elimination order lies in
    [0, B] by Hadamard's inequality, and D_k is 0 mod P only when it is
    0.  The k-th true pivot is D_k / D_(k-1), so the first true pivot
    that is 0 mod P marks a zero minor, hence a zero determinant
    (Fischer's inequality) and a disconnected graph: the count is 0.
    Scaling rows scales the Schur complements by the same rows, so a
    stored pivot is the true pivot times the scales its row took, each
    an earlier stored pivot and nonzero mod P: it is 0 mod P exactly
    when the true pivot is.  Otherwise every scale is invertible, the
    quotient is t(G) mod P, and t(G) <= B < P makes it exact."""
    _need_vertex(g)
    n = g.n
    if n == 1:
        return 1
    rows: list[dict[int, int] | None] = [{} for _ in range(n)]
    diag = [0] * n
    for u, v in g.edges:
        if u != v:
            diag[u] += 1
            diag[v] += 1
            rows[u][v] = rows[u].get(v, 0) - 1
            rows[v][u] = rows[v].get(u, 0) - 1
    if 0 in diag:
        return 0            # an isolated vertex
    # the root of greatest degree leaves the sparsest rows
    root = diag.index(max(diag))
    bound = math.prod(diag) // diag[root]
    # 2^p - 1 > bound exactly when p reaches the bit length of bound + 1
    i = bisect.bisect_left(_MERSENNE_EXPONENTS, (bound + 1).bit_length())
    if i == len(_MERSENNE_EXPONENTS):
        raise GraphError("graph too large for the Matrix-Tree count")
    p = _MERSENNE_EXPONENTS[i]
    mod = (1 << p) - 1
    for u in rows[root]:
        del rows[u][root]
    rows[root] = None
    heap = [(len(row), v) for v, row in enumerate(rows) if row is not None]
    heapq.heapify(heap)
    # t = det / scale.  A pivot s with k neighbours counts s over the s^k
    # its neighbours' rows took: det takes s when k = 0, scale s^(k-1)
    det = scale = 1
    while heap:
        k, v = heapq.heappop(heap)
        row = rows[v]
        if row is None or k != len(row):
            continue        # stale: v is gone or its degree has changed
        s = diag[v] % mod
        if not s:
            return 0
        rows[v] = None
        if not k:
            x = det * s
            x = (x & mod) + (x >> p)
            det = (x & mod) + (x >> p)
        elif k > 1:
            x = scale * pow(s, k - 1, mod)
            x = (x & mod) + (x >> p)
            scale = (x & mod) + (x >> p)
        for u, c in row.items():
            at = rows[u]
            a = at.pop(v)
            for w, x in at.items():
                if w not in row:
                    x *= s
                    x = (x & mod) + (x >> p)
                    at[w] = (x & mod) + (x >> p)
            x = s * diag[u] - a * c
            x = (x & mod) + (x >> p)
            diag[u] = (x & mod) + (x >> p)
            for w, b in row.items():
                if w != u:
                    x = s * at.get(w, 0) - a * b
                    x = (x & mod) + (x >> p)
                    at[w] = (x & mod) + (x >> p)
            heapq.heappush(heap, (len(at), u))
    return det * pow(scale, -1, mod) % mod


def count_series_parallel(g: MultiGraph) -> int:
    """Number of spanning trees by series, parallel and pendant
    reductions, O(m) reductions on bigints.  Each bundle of edges
    between two vertices carries (trees, forests): its spanning trees,
    and its spanning forests of two trees that separate the two ends.
    Loops are skipped and a disconnected graph has 0 trees; a graph that
    does not reduce to one vertex (it has a K4 minor, so it is not
    outerplane) raises GraphError."""
    _need_vertex(g)
    if not g.is_connected():
        return 0
    bundles: list[dict[int, tuple[int, int]] | None] = [{} for _ in range(g.n)]

    def join(u, v, t, f):
        # a bundle already between u and v goes in parallel
        if v in bundles[u]:
            t0, f0 = bundles[u][v]
            t, f = t0 * f + f0 * t, f0 * f
        bundles[u][v] = bundles[v][u] = (t, f)

    for u, v in g.edges:
        if u != v:
            join(u, v, 1, 1)
    trees = 1
    left = g.n
    todo = [v for v in range(g.n) if len(bundles[v]) <= 2]
    while todo and left > 1:
        v = todo.pop()
        at = bundles[v]
        if at is None:
            continue
        if len(at) == 1:
            # pendant: a spanning tree reaches v through one of t trees
            ((u, (t, _)),) = at.items()
            del bundles[u][v]
            trees *= t
            near = (u,)
        else:
            # series: v's two bundles become one between its neighbours
            (u, (t1, f1)), (x, (t2, f2)) = at.items()
            del bundles[u][v], bundles[x][v]
            join(u, x, t1 * t2, t1 * f2 + f1 * t2)
            near = (u, x)
        bundles[v] = None
        left -= 1
        todo.extend(w for w in near if len(bundles[w]) <= 2)
    if left > 1:
        raise GraphError("graph does not reduce by series and parallel steps "
                         "(it has a K4 minor)")
    return trees


def _branch(n: int, bundles: tuple):
    """One deletion-contraction step on a multigraph given as its bundles
    of parallel edges.  Returns (value, None) at a base case, else
    (None, (deleted, k, contracted)) with t = t(deleted) + k*t(contracted).
    The bundle split off is the first, in sorted order, at the vertex
    with the fewest distinct neighbours (lowest id first).  When that
    vertex has one neighbour the bundle is a bridge, every tree takes
    one of its k edges, t = k*t(contracted), and deleted is None."""
    if n == 1:
        return 1, None
    if sum(map(itemgetter(1), bundles)) < n - 1:
        return 0, None
    degree = [0] * n
    for (a, b), _ in bundles:
        degree[a] += 1
        degree[b] += 1
    v = degree.index(min(degree))
    if degree[v] == 0:
        return 0, None
    i = next(i for i, ((a, b), _) in enumerate(bundles) if v in (a, b))
    (a, b), k = bundles[i]
    u = a if b == v else b
    deleted = None if degree[v] == 1 else (n, bundles[:i] + bundles[i + 1:])
    # merge v into u, then rename the last vertex v, so ids stay 0..n-2;
    # bundles at neither vertex are shared with the parent state
    last = n - 1
    into = v if u == last else u
    moved: Counter = Counter()
    kept = []
    for bundle in bundles:
        (a, b), c = bundle
        if a != v and a != last and b != v and b != last:
            kept.append(bundle)
            continue
        a = into if a == v else (v if a == last else a)
        b = into if b == v else (v if b == last else b)
        if a != b:
            moved[(a, b) if a < b else (b, a)] += c
    merged = []
    for bundle in kept:
        if bundle[0] in moved:
            moved[bundle[0]] += bundle[1]
        else:
            merged.append(bundle)
    merged.extend(moved.items())
    merged.sort()
    return None, (deleted, k, (last, tuple(merged)))


def count_del_contract(g: MultiGraph, max_states: int | None = None) -> int | None:
    """Number of spanning trees by deletion-contraction over bundles:
    t(G) = t(G - P) + |P| * t(G / P), where P is all parallel edges
    between two vertices.  When P is a bridge, the only bundle at a
    vertex, t(G) = |P| * t(G / P): G - P isolates the vertex and counts
    0, so it is neither built nor stored.  A state is (n, sorted
    ((u, v), k) bundles), loops dropped, memoized per invocation, on an
    explicit post-order stack.  Exponential; shares no counting code
    with the other counters.

    Given max_states, it gives up and returns None as soon as its memo
    holds more states than that.  The bridge rule changes no other
    choice, so the states reached are a subset of those reached with a
    deleted child at every bridge, and the memo, which only grows, ends
    no larger: a graph that counted within a budget that way still
    does, to the same count."""
    _need_vertex(g)
    limit = math.inf if max_states is None else max_states
    mult = Counter((u, v) if u < v else (v, u) for u, v in g.edges if u != v)
    root = (g.n, tuple(sorted(mult.items())))
    memo: dict[tuple, int] = {}
    stack: list[tuple] = [(root, None)]
    while stack:
        state, split = stack[-1]
        if split is None:
            # not memoized: every waiting state is the deleted child of a
            # state whose contracted child, with fewer vertices, runs first
            value, split = _branch(*state)
            if split is not None:
                stack[-1] = (state, split)
                stack.extend((kid, None) for kid in (split[0], split[2])
                             if kid is not None and kid not in memo)
                continue
        else:
            deleted, k, contracted = split
            value = k * memo[contracted]
            if deleted is not None:
                value += memo[deleted]
        memo[state] = value
        stack.pop()
        if len(memo) > limit:
            return None
    return memo[root]


def count_bruteforce(g: MultiGraph) -> int:
    """Oracle: test every (n-1)-subset of edges.  Guarded to small m."""
    _need_vertex(g)
    if g.m > 20:
        raise GraphError("brute-force counting guarded to m <= 20")
    if g.n == 1:
        return 1
    hits = 0
    for sub in itertools.combinations(range(g.m), g.n - 1):
        if g.is_spanning_tree(sub):
            hits += 1
    return hits


@dataclass(frozen=True)
class FibBoundReport:
    count: int
    edges: int
    bound: int
    equality: bool
    predicate: bool
    certified: bool

    def line(self) -> str:
        yn = lambda b: "yes" if b else "no"
        return (f"t={self.count} bound=f_{self.edges + 1}={self.bound} "
                f"equality={yn(self.equality)} predicate={yn(self.predicate)}")


def check_fib_bound(emb: EmbeddedGraph) -> FibBoundReport:
    """Verify t(G) <= f_{m+1} and, for loopless graphs, that equality
    holds exactly when the structural predicate does.

    The predicate is one pass over the inner faces: no loops,
    2-connected, and every inner face of length at most 3 with an edge
    on the outer face.  The weak dual of a 2-connected outerplane graph
    is a tree in which an inner face's degree is its number of edges off
    the outer face, so for faces of length at most 3 it is a path with
    every digon on the outer face exactly when every face has one.

    The equality characterization is stated for loopless multigraphs;
    with loops present the report still carries both facts but the
    equivalence is not asserted (certified=False).
    """
    g = emb.graph
    t = count_series_parallel(g)  # g is outerplane: it reduces
    bound = fib(g.m + 1)
    if t > bound:
        raise CertificationError(f"t={t} exceeds f_{g.m + 1}={bound}")
    loopless = not g.loop_edges()
    # one vertex counts as 2-connected only without loops
    two_connected = g.m == 0 if g.n == 1 else _outer_is_cycle(emb)
    predicate = loopless and two_connected and all(
        f.length <= 3 and any(map(emb.is_outer_edge, f.edge_ids))
        for f in emb.faces if not f.is_outer)
    equality = t == bound
    if loopless and equality != predicate:
        raise CertificationError(
            f"equality={equality} but structural predicate={predicate} "
            f"(t={t}, m={g.m})")
    return FibBoundReport(t, g.m, bound, equality, predicate, loopless)


def check_fib_product(i: int, j: int) -> bool:
    """Verify f_i * f_j <= f_{i+j-1} with equality iff i=1 or j=1."""
    if i < 1 or j < 1:
        raise GraphError("indices must be >= 1")
    prod = fib(i) * fib(j)
    bound = fib(i + j - 1)
    if prod > bound:
        raise CertificationError(f"f_{i}*f_{j}={prod} exceeds f_{i + j - 1}={bound}")
    if (prod == bound) != (i == 1 or j == 1):
        raise CertificationError(f"equality characterization fails at i={i}, j={j}")
    return True


def extremal_family(k: int, digon_ends: int = 0) -> EmbeddedGraph:
    """A spanning-tree-maximizing outerplane multigraph: a strip of k
    inner faces whose weak dual is a path, with the requested number of
    end faces turned into digons (the rest are triangles).  Satisfies
    t(G) = f_{m+1}."""
    if k < 1:
        raise GraphError("need at least one inner face")
    if not 0 <= digon_ends <= 2:
        raise GraphError("digon_ends must be 0, 1, or 2")
    if digon_ends > k:
        raise GraphError("more end digons than faces")
    triangles = k - digon_ends
    if triangles == 0:
        # all faces digons: a bundle of k+1 parallel edges
        return build_embedding(MultiGraph(2, tuple((0, 1) for _ in range(k + 1))), (0, 1))
    # fan: hub 0, rim 1..triangles+1, spokes interleaved with rim edges
    rim = triangles + 1
    edges = [(0, 1)]
    if digon_ends >= 1:
        edges.append((0, 1))
    for i in range(1, rim):
        edges.append((i, i + 1))
        edges.append((0, i + 1))
    if digon_ends == 2:
        edges.append((0, rim))
    g = MultiGraph(rim + 1, tuple(edges))
    return build_embedding(g, tuple(range(rim + 1)))


def _is_canonical(n: int, bound: tuple, chords: tuple) -> bool:
    """Whether a polygon configuration is the least of its images under
    the 2n hull symmetries p -> s*(p - r), by boundary multiplicities
    first, then sorted chords.  It stops at the first smaller image and
    maps the chords only when the boundary ties.  A reflection (s = -1)
    maps side i, from position i to i + 1, onto side r - i - 1."""

    def chords_image(s: int, r: int) -> list:
        ch = []
        for (i, j), c in chords:
            p, q = s * (i - r) % n, s * (j - r) % n
            ch.append(((min(p, q), max(p, q)), c))
        return sorted(ch)

    own = sorted(chords)
    for s in (1, -1):
        for r in range(n):
            b = tuple(bound[(r + s * i - (s < 0)) % n] for i in range(n))
            if b < bound or b == bound and chords_image(s, r) < own:
                return False
    return True


def _chord_sets(n: int, max_size: int):
    """Non-crossing sets of at most ``max_size`` polygon diagonals (as
    position pairs).  A set grows from one of a chord fewer, so every
    prefix of a kept set is kept too, and building no larger set lists
    the kept ones in the order of the unbounded build."""
    diags = [(i, j) for i in range(n) for j in range(i + 2, n)
             if not (i == 0 and j == n - 1)]

    def crosses(a, b):
        (i, j), (k, l) = a, b
        if len({i, j, k, l}) < 4:
            return False
        return (i < k < j) != (i < l < j)

    sets = [[]]
    for d in diags:
        new = []
        for s in sets:
            if len(s) < max_size and all(not crosses(d, x) for x in s):
                new.append(s + [d])
        sets.extend(new)
    return sets


def enumerate_outerplane(max_m: int, triangulations_only: bool = False,
                         simple: bool = False):
    """All 2-connected loopless outerplane multigraphs with at most
    max_m edges, one embedding per isomorphism class.

    Parameterized directly: hull cycle of n >= 2 vertices with per-side
    edge multiplicities, plus a non-crossing multiset of chords;
    configurations deduplicated by a canonical form over the 2n hull
    symmetries (the hull cycle of a 2-connected outerplane multigraph
    is unique, so this is isomorphism dedup).  Yields EmbeddedGraph.
    """
    if max_m < 1:
        return
    # n = 2: bundles of parallel edges (single edge included)
    for c in range(1, max_m + 1):
        if simple and c > 1:
            break
        g = MultiGraph(2, tuple((0, 1) for _ in range(c)))
        emb = build_embedding(g, (0, 1))
        if not triangulations_only or is_triangulation(emb, multi=True):
            yield emb
    for n in range(3, max_m + 1):
        chord_budget = max_m - n  # boundary needs at least one edge per side
        for chord_set in _chord_sets(n, chord_budget):
            max_c = 1 if simple else chord_budget
            for c_mult in _compositions_upto(len(chord_set), max_c, chord_budget):
                boundary_budget = max_m - sum(c_mult)
                max_b = 1 if simple else boundary_budget
                # by total, and in lexicographic order within a total
                for b_mult in sorted(_compositions_upto(n, max_b, boundary_budget),
                                     key=sum):
                    chords = tuple(zip(chord_set, c_mult))
                    if not _is_canonical(n, b_mult, chords):
                        continue
                    edges = []
                    for i in range(n):
                        edges.extend([(i, (i + 1) % n)] * b_mult[i])
                    for (i, j), c in chords:
                        edges.extend([(i, j)] * c)
                    g = MultiGraph(n, tuple(edges))
                    emb = build_embedding(g, tuple(range(n)))
                    if triangulations_only and not is_triangulation(emb, multi=True):
                        continue
                    yield emb


def _compositions_upto(parts: int, max_each: int, budget: int):
    """Multiplicity vectors (each 1..max_each) of chords or hull sides,
    total <= budget, in lexicographic order."""
    if parts == 0:
        yield ()
        return
    for first in range(1, min(max_each, budget - (parts - 1)) + 1):
        for rest in _compositions_upto(parts - 1, max_each, budget - first):
            yield (first,) + rest

