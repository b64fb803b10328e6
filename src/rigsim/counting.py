"""Exact homomorphism and embedding counts of small connected patterns.

Counts are exact Python integers.  Each graph gets one counting host, kept on
the graph and freed with it.  It builds on first use the degrees d, the sums
A d of the neighbours' degrees, and, by one degree-ordered wedge pass (see
``_triangle_pass``), the per-vertex ordered-triangle vector and the sum of
the squared triangle supports of the edges; a dense float64 adjacency
matrix only when the contraction runs; and it keeps every hom(H, G) found so
far, keyed by the isomorphism class of H.  The pass counts in exact int64
and holds O(n + m) integers plus blocks of a fixed budget, never A@A.
hom(H, G) is, in this order:

1. the count already found on the host;
2. a closed form from d, A d, the triangle vector, the supports and the
   4-cycle count (``_c4_count``), at any host size, for every connected
   pattern on at most 4 vertices and every star K_{1,t} (a family is told by
   its sorted degree sequence);
3. on hosts of at most 1500 vertices with sum_v d(v)^(h-1) < 2^53, a
   float64 tensor contraction of one adjacency-matrix factor per pattern
   edge, by np.einsum along a greedy path none of whose steps is an outer
   product or makes (or, past two operands, sweeps) more than 4 * 10^7
   entries; every entry and partial sum it forms counts homomorphisms of a
   connected sub-pattern, which Sidorenko's bound puts below that sum, so
   float64 holds them exactly;
4. exhaustive backtracking with Python big-int accumulators, exact for any
   pattern/host, but output-sensitive.

Embedding (injective) counts come from homomorphism counts by Moebius
inversion over vertex-coincidence partitions: emb(H, G) equals the sum over
partitions of V(H) with independent blocks of
prod_B (-1)^(|B|-1) (|B|-1)!  *  hom(H/theta, G).
Rooted counts are not taken here: the limit of emb(H, G_n) / n, the expected
rooted count at the clique-tree root, is a sum over ``clique_families``
(``limits.rooted_emb_expectation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Collection, Iterable

import numpy as np

from .canon import canonical_codes, unrooted_code
from .graphs import Graph, RootedGraph, ball_adjacency

__all__ = [
    "Pattern",
    "hom_count",
    "emb_count",
    "sidorenko_bound",
    "pattern_from_name",
    "connected_patterns",
    "distinct_rootings",
    "clique_families",
]

MAX_PATTERN_VERTICES = 8
_DENSE_HOST_LIMIT = 1500
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class Pattern:
    """Connected pattern graph, optionally rooted, on at most
    ``MAX_PATTERN_VERTICES`` vertices (the coincidence-partition machinery
    grows like the Bell numbers)."""

    graph: Graph
    root: int | None = None

    def __post_init__(self) -> None:
        h = self.graph.vertex_count
        if not 2 <= h <= MAX_PATTERN_VERTICES:
            raise ValueError(f"pattern must have between 2 and {MAX_PATTERN_VERTICES} vertices")
        if len(ball_adjacency(lambda u: self.graph.neighbors(u).tolist(), 0, None)) < h:
            raise ValueError("pattern must be connected")
        if self.root is not None and not 0 <= self.root < h:
            raise ValueError("pattern root out of range")

    def edge_tuple(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.graph.edges())

    @property
    def h(self) -> int:
        return self.graph.vertex_count

    def rooted(self, root: int) -> "Pattern":
        return Pattern(self.graph, root)


# -- pattern library ------------------------------------------------------------


_NAME_SIZES = {"K": range(2, 9), "P": range(2, 9), "C": range(3, 9), "S": range(1, 8)}


def pattern_from_name(name: str) -> Pattern:
    """Named small patterns: K2..K8, P2..P8, C3..C8, S1..S7 (stars K_{1,t}),
    paw, diamond.  Any other name is rejected before an edge is built."""
    name = name.strip()
    if name == "paw":
        return Pattern(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]))
    if name == "diamond":
        return Pattern(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    kind, num = name[:1], name[1:]
    if num not in map(str, _NAME_SIZES.get(kind, ())):
        raise ValueError(
            f"unknown pattern name {name!r}: expected paw, diamond, K2..K8, P2..P8, C3..C8 or S1..S7"
        )
    k = int(num)
    if kind == "K":
        return Pattern(Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)]))
    if kind == "P":  # path on k vertices
        return Pattern(Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)]))
    if kind == "C":
        return Pattern(Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)]))
    return Pattern(Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)]))  # S: star K_{1,k}, centre 0


def connected_patterns(h: int) -> list[Pattern]:
    """All connected patterns on exactly h vertices, up to isomorphism.

    Removing a spanning tree's leaf leaves a graph connected, so each class
    is one on h - 1 vertices plus a vertex joined to a non-empty set of them;
    its ``canon.unrooted_code`` is the least code over its rootings, all
    candidates' rootings coded in one batch."""
    if not 2 <= h <= MAX_PATTERN_VERTICES:
        raise ValueError(f"patterns have between 2 and {MAX_PATTERN_VERTICES} vertices")
    if h == 2:
        return [Pattern(Graph.from_edges(2, [(0, 1)]))]
    graphs: list[Graph] = []
    rootings: list[list[list[int]]] = []
    for p in connected_patterns(h - 1):
        for bits in range(1, 1 << (h - 1)):
            g = Graph.from_edges(h, [*p.edge_tuple(), *((v, h - 1) for v in range(h - 1) if bits >> v & 1)])
            nbrs = [g.neighbors(v).tolist() for v in range(h)]
            graphs.append(g)
            rootings += [ball_adjacency(nbrs.__getitem__, v, None) for v in range(h)]
    codes = canonical_codes(rootings)
    seen: dict[bytes, Pattern] = {}
    for i, g in enumerate(graphs):
        seen.setdefault(min(codes[i * h : (i + 1) * h]), Pattern(g))
    return list(seen.values())


def distinct_rootings(p: Pattern) -> list[Pattern]:
    """One rooted pattern per root orbit (rootings equal up to isomorphism
    are deduplicated)."""
    out: dict[bytes, Pattern] = {}
    for v in range(p.h):
        out.setdefault(RootedGraph(p.graph, v).code, p.rooted(v))
    return list(out.values())


# -- Moebius inversion over coincidence partitions -------------------------------


def _set_partitions(n: int) -> Iterable[list[list[int]]]:
    parts: list[list[int]] = []

    def rec(i: int):
        if i == n:
            yield [list(b) for b in parts]
            return
        for b in parts:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        parts.append([i])
        yield from rec(i + 1)
        parts.pop()

    yield from rec(0)


@lru_cache(maxsize=None)
def _coincidence_terms(
    h: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]:
    """(quotient h, quotient edges, Moebius weight) per partition of the
    pattern vertices into independent blocks."""
    adj = [set() for _ in range(h)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    terms = []
    for blocks in _set_partitions(h):
        ok = all(not (adj[x] & set(b)) for b in blocks for x in b)
        if not ok:
            continue
        blk = [0] * h
        for bi, b in enumerate(blocks):
            for x in b:
                blk[x] = bi
        q_edges = sorted({(min(blk[a], blk[b]), max(blk[a], blk[b])) for a, b in edges})
        mu = 1
        for b in blocks:
            sign = -1 if (len(b) - 1) % 2 else 1
            mu *= sign * math.factorial(len(b) - 1)
        terms.append((len(blocks), tuple(q_edges), mu))
    return tuple(terms)


# -- clique families: how an embedding meets the cliques of a clique tree ----------


@lru_cache(maxsize=None)
def _clique_families(h: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """Every family of vertex sets S, as vertex bitmasks, such that the edge
    sets E(H[S]) partition E(H), every vertex of S has an edge in H[S], and
    the vertex-set incidence graph is a tree, that is sum (|S| - 1) = h - 1
    (it is connected because H is).

    Each step picks a set holding the first edge not yet covered, so every
    family is found once; a branch ends once its sum exceeds h - 1."""
    edge_bits = [(1 << a) | (1 << b) for a, b in edges]
    sets = []  # (S, edge bitmask of H[S], |S| - 1) of the admissible sets
    for S in range(1, 1 << h):
        inside = touched = 0
        for i, e in enumerate(edge_bits):
            if e & S == e:
                inside |= 1 << i
                touched |= e
        if touched == S:
            sets.append((S, inside, S.bit_count() - 1))
    full = (1 << len(edges)) - 1
    out: list[tuple[int, ...]] = []

    def extend(covered: int, budget: int, family: tuple[int, ...]) -> None:
        if covered == full:
            if budget == 0:
                out.append(family)
            return
        first = edge_bits[(~covered & (covered + 1)).bit_length() - 1]
        for S, inside, cost in sets:
            if S & first == first and not inside & covered and cost <= budget:
                extend(covered | inside, budget - cost, family + (S,))

    extend(0, h - 1, ())
    return tuple(out)


def clique_families(H: Pattern) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The ways an embedding of H into a clique tree can split H among the
    tree's cliques: each family lists, per clique used, the H-vertices it
    receives (see ``limits.rooted_emb_expectation``)."""
    return tuple(
        tuple(tuple(v for v in range(H.h) if S >> v & 1) for S in family)
        for family in _clique_families(H.h, H.edge_tuple())
    )


# -- dense contraction engine ------------------------------------------------------
#
# hom(H, G) is one tensor contraction: each pattern vertex gets a letter and
# each pattern edge an adjacency-matrix factor on its two letters, summed over
# every letter.  np.einsum evaluates it along the greedy pairwise path of
# np.einsum_path, whose intermediates stay within _DP_MAX_ENTRIES; a path step
# that would still make a larger tensor, or sweep a larger index space (a step
# of more than two operands, which greedy falls back to when no pair fits),
# or that multiplies two operands with no common letter (an outer product),
# sends the pattern to backtracking instead.
#
# Exactness: an operand counts homomorphisms of a connected sub-pattern with
# its letters pinned.  The products and partial sums of a step whose
# operands share a letter count homomorphisms of their union, again
# connected, so each is at most sum_v d(v)^(h-1) (Sidorenko 1994), and
# float64 is exact while that sum is below 2^53.  An outer product's counts
# of two disjoint sub-patterns have no such bound.  The fallback step's
# products run along whole maps of H: each is within hom(H), or a factor 0
# is still to come, and an inexact product times 0 is 0.

_DP_MAX_ENTRIES = 4 * 10**7
_FLOAT_SAFE = 2**53


@lru_cache(maxsize=None)
def _contraction_path(expr: str, n: int) -> list | None:
    """np.einsum's greedy path for ``expr`` (which fixes the operand ranks)
    with every index of size n, or None when a step of it is an outer
    product or exceeds the budget.  The placeholders are zero-stride views,
    so no n x n array is made."""
    inputs = expr[:-2].split(",")
    ops = [np.broadcast_to(np.zeros(()), (n,) * len(t)) for t in inputs]
    path = np.einsum_path(expr, *ops, optimize=("greedy", _DP_MAX_ENTRIES))[0]
    terms = [set(t) for t in inputs]
    for step in path[1:]:
        taken = [terms.pop(i) for i in sorted(step, reverse=True)]
        swept = set().union(*taken)
        out = swept & set().union(*terms)
        if len(taken) == 2 and taken[0].isdisjoint(taken[1]):
            return None
        if n ** len(out) > _DP_MAX_ENTRIES or len(taken) > 2 and n ** len(swept) > _DP_MAX_ENTRIES:
            return None
        terms.append(out)
    return path


def _hom_dp(h: int, edges: tuple[tuple[int, int], ...], g: Graph) -> int | None:
    """Exact hom count by the contraction above, given the certificate
    sum_v d(v)^(h-1) < 2^53; None, before g's dense matrix is built, when
    the path is refused."""
    expr = ",".join(chr(97 + a) + chr(97 + b) for a, b in edges) + "->"
    path = _contraction_path(expr, g.vertex_count)
    if path is None:
        return None
    A = _host(g).A
    # a one-step path is einsum's own loop; passing it would only re-plan it in Python
    return int(np.einsum(expr, *[A] * len(edges), optimize=path if len(path) > 2 else False))


# -- the counting host: one degree-ordered wedge pass ----------------------------------
#
# The pass relabels the vertices by degree rank (ties by label) and keeps each
# edge once, from the lower rank to the higher, as the sorted int64 key
# low * n + high.  A vertex's out-degree is then at most sqrt(2m) (Chiba &
# Nishizeki 1985), and each triangle is seen once, at its lowest vertex a: as
# the wedge b < c of a's out-neighbours that the key b * n + c closes, found by
# searchsorted (Latapy 2008).  A closed wedge adds one to the triangle count
# of a, b and c and to the support of its three edges.  The top h ranks form
# the heavy core; their out-edges stay inside it, so the triangles with all
# three vertices there are read off Q = B @ B o B for the core's dense
# adjacency B instead: Q's row sums add to the core's triangle counts and its
# entries to the core edges' supports.  h minimises the wedges outside the
# core plus h^3 / _CORE_COST (BLAS is about that much cheaper per
# multiply-add than numpy per wedge), under h^2 <= 2 * _BLOCK_WEDGES.
#
# Exactness: the wedge side is int64 keys, indices and bincounts; the entries
# of B @ B are integers of at most h < 2**53, so float64 holds them exactly.
# Memory: the wedges are made in blocks of at most _BLOCK_WEDGES + sqrt(2m),
# cut between first edges, and the core holds a few h x h arrays; beside
# them the pass keeps O(n + m) integers.

_BLOCK_WEDGES = 1 << 19
_CORE_COST = 1000


def _cumsum0(x: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(x)])


def _degree_ranked(indptr: np.ndarray, indices: np.ndarray, both: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's degree rank, and the sorted keys u * n + w of the edges
    in rank labels: of every half-edge when ``both``, else of each edge once,
    from the lower rank to the higher."""
    n = indptr.size - 1
    d = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(d, kind="stable")] = np.arange(n)
    keys = [np.empty(0, dtype=np.int64)]
    for lo, hi in _blocks(indptr, _BLOCK_WEDGES):  # rows holding at most that many half-edges
        u, w = np.repeat(rank[lo:hi], d[lo:hi]), rank[indices[indptr[lo] : indptr[hi]]]
        keep = slice(None) if both else u < w
        keys.append(u[keep] * n + w[keep])
    keys = np.concatenate(keys)
    keys.sort()
    return rank, keys


def _blocks(ends: np.ndarray, budget: int) -> Iterable[tuple[int, int]]:
    """Cut the steps 0 .. ends.size - 2, whose item counts have the prefix
    sums ``ends``, into runs [lo, hi) of at most ``budget`` items, or of one
    step where that step alone holds more."""
    lo, last = 0, ends.size - 1
    while lo < last:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + budget, "right")) - 1)
        yield lo, hi
        lo = hi


def _core_size(dout: np.ndarray) -> int:
    """The heavy core's size h, given the out-degrees in rank order: it
    minimises the wedges left outside it plus h^3 / _CORE_COST, under
    h^2 <= 2 * _BLOCK_WEDGES."""
    n = dout.size
    outside = _cumsum0(dout * (dout - 1) // 2)
    hs = np.arange(min(n, math.isqrt(2 * _BLOCK_WEDGES)) + 1)
    return int(np.argmin(outside[n - hs] + hs.astype(np.float64) ** 3 / _CORE_COST))


def _triangle_pass(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, int]:
    """The ordered pairs of adjacent neighbours of each vertex (twice its
    triangles) and the sum over edges of their triangle support squared, by
    the pass above."""
    n = indptr.size - 1
    rank, keys = _degree_ranked(indptr, indices, both=False)
    m = keys.size
    ptr = np.searchsorted(keys, np.arange(n + 1) * n)  # out-edges of rank u: keys[ptr[u] : ptr[u + 1]]
    h = _core_size(np.diff(ptr))
    core = ptr[n - h]  # the core's out-edges are keys[core:]
    ends = _cumsum0(ptr[keys[:core] // n + 1] - np.arange(core) - 1)  # wedges by first edge
    tri = np.zeros(n, dtype=np.int64)
    support = np.zeros(m, dtype=np.int64)
    for lo, hi in _blocks(ends, _BLOCK_WEDGES):
        cnt = np.diff(ends[lo : hi + 1])
        first = np.repeat(np.arange(lo, hi), cnt)
        second = first + 1 + np.arange(first.size) - np.repeat(ends[lo:hi] - ends[lo], cnt)
        key = keys[first] % n * n + keys[second] % n  # the edge that would close the wedge
        order = np.argsort(key)  # sorted queries keep searchsorted's probes in cache
        key = key[order]
        at = np.minimum(np.searchsorted(keys, key), m - 1)
        closed = keys[at] == key
        order, at, key = order[closed], at[closed], key[closed]
        first, second = first[order], second[order]
        tri += np.bincount(np.concatenate([keys[first] // n, key // n, key % n]), minlength=n)
        support += np.bincount(np.concatenate([first, second, at]), minlength=m)
    tri *= 2
    if h:
        s, t = (x - (n - h) for x in np.divmod(keys[core:], n))
        B = np.zeros((h, h))
        B[s, t] = B[t, s] = 1
        Q = (B @ B) * B
        tri[n - h :] += Q.sum(axis=1).astype(np.int64)
        support[core:] += Q[s, t].astype(np.int64)
    return tri[rank], _power_sum(support, 2)


def _c4_count(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Number of 4-cycles: each is counted at its top-ranked vertex v, as a
    pair of paths v - u - w with u and w ranked below v, in blocks of whole
    start rows holding at most _BLOCK_WEDGES paths (or one row's)."""
    n = indptr.size - 1
    _, keys = _degree_ranked(indptr, indices, both=True)
    rows, cols = np.divmod(keys, n)
    ptr = np.searchsorted(rows, np.arange(n + 1))
    down = cols < rows  # half-edges v -> u, u ranked below v
    v, u = rows[down], cols[down]
    start = ptr[u]
    cnt = np.searchsorted(keys, u * n + v) - start  # u's neighbours ranked below v
    ends = _cumsum0(cnt)
    row_ends = ends[np.searchsorted(v, np.arange(n + 1))]
    total = 0
    for lo, hi in _blocks(row_ends, _BLOCK_WEDGES):
        a, b = np.searchsorted(v, [lo, hi])
        c = cnt[a:b]
        at = np.repeat(start[a:b] - ends[a:b] + ends[a], c) + np.arange(ends[b] - ends[a])
        pair = np.sort((np.repeat(v[a:b], c) - lo) * n + cols[at])
        runs = np.diff(np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1], [True]))))
        total += int((runs * (runs - 1) // 2).sum())
    return total


class _Host:
    """What counting keeps about one graph (see the module docstring)."""

    def __init__(self, g: Graph):
        self.indptr, self.indices = g.indptr, g.indices
        self.homs: dict[bytes, int] = {}  # pattern class -> hom count

    @cached_property
    def d(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def _triangles(self) -> tuple[np.ndarray, int]:
        return _triangle_pass(self.indptr, self.indices)

    @property
    def tri(self) -> np.ndarray:
        """Ordered pairs of adjacent neighbours per vertex (twice its
        triangles), exact int64 from the wedge pass, in bounded memory."""
        return self._triangles[0]

    @property
    def support_squares(self) -> int:
        """Sum over the edges of the square of their triangle support (the
        number of triangles through the edge), from the same pass."""
        return self._triangles[1]

    @cached_property
    def A(self) -> np.ndarray:
        """Dense float64 adjacency matrix, for the contraction alone."""
        n = self.d.size
        A = np.zeros((n, n))
        A[np.repeat(np.arange(n), self.d), self.indices] = 1
        return A

    @cached_property
    def Ad(self) -> np.ndarray:
        """Sum of the neighbours' degrees per vertex."""
        ends = _cumsum0(self.d[self.indices])
        return ends[self.indptr[1:]] - ends[self.indptr[:-1]]


def _host(g: Graph) -> _Host:
    """g's counting host, made on first use and kept on g itself (Graph is
    frozen), so that it is freed with g."""
    host = g.__dict__.get("_host")
    if host is None:
        host = _Host(g)
        object.__setattr__(g, "_host", host)
    return host


def _power_sum(x: np.ndarray, k: int = 1) -> int:
    """Exact sum of x**k over a non-negative integer array: int64 arithmetic
    when size * max**k, taken in Python ints, shows that the total fits,
    Python ints otherwise."""
    if x.size == 0:
        return 0
    if x.size * int(x.max()) ** k < _INT64_SAFE:
        return int((x.astype(np.int64, copy=False) ** k).sum())
    return sum(int(v) ** k for v in x.tolist())


def _dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum of x * y over non-negative integer arrays, with the same
    overflow test."""
    if x.size == 0:
        return 0
    if x.size * int(x.max()) * int(y.max()) < _INT64_SAFE:
        return int(x @ y)
    return sum(a * b for a, b in zip(x.tolist(), y.tolist()))


# hom(H, G) of each family by its sorted degree sequence; the stars K_{1,t}
# (hom = sum d^t) are matched in _closed_form
_CLOSED_FORMS: dict[tuple[int, ...], Callable[[Graph, _Host], int]] = {
    (2, 2, 2): lambda g, host: _power_sum(host.tri),  # K3: trace A^3
    (1, 1, 2, 2): lambda g, host: _dot(host.d, host.Ad),  # P4: ordered edges weighted by d(u) d(v)
    # C4: closed 4-walks v0 v1 v2 v3: v0 = v2 (sum d^2), else v1 = v3 (sum d(d - 1)), else round a 4-cycle (8 each)
    (2, 2, 2, 2): lambda g, host: (
        2 * _power_sum(host.d, 2) - _power_sum(host.d) + 8 * _c4_count(host.indptr, host.indices)
    ),
    (1, 2, 2, 3): lambda g, host: _dot(host.tri, host.d),  # paw: a triangle at v times a pendant at v
    (2, 2, 3, 3): lambda g, host: 2 * host.support_squares,  # diamond: each ordered edge's support, squared
    (3, 3, 3, 3): lambda g, host: 24 * _k4_subgraphs(g),  # K4
}


def _closed_form(h: int, edges: tuple[tuple[int, int], ...]) -> Callable[[Graph, _Host], int] | None:
    """The closed form of the pattern's family, None outside the families."""
    deg = [0] * h
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    deg.sort()
    if deg[-1] == h - 1 and deg[-2] == 1:  # the star K_{1, h-1}
        return lambda g, host: _power_sum(host.d, h - 1)
    return _CLOSED_FORMS.get(tuple(deg))


def _k4_subgraphs(g: Graph) -> int:
    """Number of K4 subgraphs: for each edge, edges inside the common
    neighbourhood; every K4 is counted once per its 6 edges."""
    nbr = g.adjacency_sets()
    total = 0
    for u in range(g.vertex_count):
        for v in nbr[u]:
            if v <= u:
                continue
            common = nbr[u] & nbr[v]
            for w in common:
                total += len(common & nbr[w])
    # each K4 edge {u,v} contributes ordered (w,x) pairs: 6 edges * 2 = 12
    return total // 12


# -- backtracking engine -------------------------------------------------------------


def _hom_backtrack(h: int, edges: tuple[tuple[int, int], ...], g: Graph) -> int:
    adj_p: list[set[int]] = [set() for _ in range(h)]
    for a, b in edges:
        adj_p[a].add(b)
        adj_p[b].add(a)
    # connected elimination order, max-degree greedy
    start = max(range(h), key=lambda v: len(adj_p[v]))
    order = [start]
    placed = {start}
    while len(order) < h:
        cand = [v for v in range(h) if v not in placed and adj_p[v] & placed]
        nxt = max(cand, key=lambda v: (len(adj_p[v] & placed), len(adj_p[v])))
        order.append(nxt)
        placed.add(nxt)
    pos = {v: i for i, v in enumerate(order)}
    back = [[pos[u] for u in adj_p[v] if pos[u] < i] for i, v in enumerate(order)]
    # from position `free` on no two vertices are adjacent, so once the
    # vertices before it are placed, the rest contribute independent factors
    free = next(i for i in range(h) if all(pos[u] < i for v in order[i:] for u in adj_p[v]))
    nbr = g.adjacency_sets()
    images = [0] * h  # host vertex of each placed position

    def candidates(i: int) -> Collection[int]:
        if not back[i]:
            return range(g.vertex_count)
        cs = nbr[images[back[i][0]]]
        for j in back[i][1:]:
            if not cs:
                break
            cs = cs & nbr[images[j]]
        return cs

    def rec(i: int) -> int:
        if i == free:
            return math.prod(len(candidates(j)) for j in range(free, h))
        total = 0
        for x in candidates(i):
            images[i] = x
            total += rec(i + 1)
        return total

    return rec(0)


# -- public operations -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _pattern_class(h: int, edges: tuple[tuple[int, int], ...]) -> bytes:
    """Isomorphism class of the pattern on 0..h-1 with these edges."""
    return unrooted_code(Graph.from_edges(h, edges))


def _hom(g: Graph, h: int, edges: tuple[tuple[int, int], ...]) -> int:
    """hom of the pattern on 0..h-1 with these edges into g, by the rule of
    the module docstring; the host keeps it under the pattern's class, so a
    pattern reached under two labellings is counted once."""
    homs = _host(g).homs
    key = _pattern_class(h, edges)
    if key not in homs:
        homs[key] = _count_hom(g, h, edges)
    return homs[key]


def _count_hom(g: Graph, h: int, edges: tuple[tuple[int, int], ...]) -> int:
    form = _closed_form(h, edges)
    return form(g, _host(g)) if form is not None else _contract(g, h, edges)


def _contract(g: Graph, h: int, edges: tuple[tuple[int, int], ...]) -> int:
    """hom of the pattern into g: the float64 contraction where g is small
    enough, Sidorenko's bound certifies it exact and the path is accepted,
    backtracking otherwise."""
    if g.vertex_count <= _DENSE_HOST_LIMIT and _power_sum(_host(g).d, h - 1) < _FLOAT_SAFE:
        count = _hom_dp(h, edges, g)
        if count is not None:
            return count
    return _hom_backtrack(h, edges, g)


def hom_count(H: Pattern, G: Graph) -> int:
    """Exact number of homomorphisms (adjacency-preserving maps) H -> G."""
    return _hom(G, H.h, H.edge_tuple())


def emb_count(H: Pattern, G: Graph) -> int:
    """Exact number of embeddings (injective homomorphisms) H -> G."""
    terms = _coincidence_terms(H.h, H.edge_tuple())
    return sum(mu * _hom(G, q_h, q_edges) for q_h, q_edges, mu in terms)


def sidorenko_bound(H: Pattern, G: Graph) -> tuple[int, int, bool]:
    """hom(H, G), the degree-power bound sum_v d(v)^(h-1), and whether the
    bound holds (it must, for connected H)."""
    hom = hom_count(H, G)
    bound = _power_sum(_host(G).d, H.h - 1)
    return hom, bound, hom <= bound
