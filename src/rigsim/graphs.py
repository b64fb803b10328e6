"""Core graph types: simple graphs, bipartite multigraphs, rooted graphs.

Graphs are immutable after construction and stored in CSR form (sorted
adjacency), which keeps neighbour queries cheap on hosts with ~10^5 vertices
and makes every derived object (balls, intersection graphs, codes)
reproducible: no operation depends on set/dict iteration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Graph",
    "AdjacencyGraph",
    "BipartiteMultigraph",
    "RootedGraph",
    "intersection_graph",
    "ball",
    "ball_adjacency",
    "degree_sequence",
    "loc_distance",
    "LocDistance",
    "write_graph",
    "read_graph",
    "write_bipartite",
    "read_bipartite",
]


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1, CSR adjacency."""

    vertex_count: int
    indptr: np.ndarray  # shape (n+1,), int64
    indices: np.ndarray  # concatenated sorted neighbour lists, int64

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from undirected edge pairs (deduplicated).

        Self-loops are rejected; (u, v) and (v, u) denote the same edge.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        arr = edges.astype(np.int64) if isinstance(edges, np.ndarray) else np.asarray(list(edges), dtype=np.int64)
        if arr.size == 0:
            return Graph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        u, v = arr[:, 0], arr[:, 1]
        if (u == v).any():
            raise ValueError("self-loops are not allowed")
        if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
            raise ValueError("edge endpoint out of range")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        packed = np.unique(lo * np.int64(n) + hi)
        lo, hi = packed // n, packed % n
        return Graph._from_half_edges(n, np.concatenate([lo, hi]), np.concatenate([hi, lo]))

    @staticmethod
    def _from_half_edges(n: int, src: np.ndarray, dst: np.ndarray) -> "Graph":
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return Graph(n, indptr, dst.astype(np.int64))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph.from_edges(n, [])

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.vertex_count):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def adjacency_sets(self) -> list[set[int]]:
        return [set(map(int, self.neighbors(v))) for v in range(self.vertex_count)]

    def validate(self) -> None:
        """Check the structural invariants (used by tests; construction already
        guarantees them)."""
        n = self.vertex_count
        assert self.indptr.shape == (n + 1,) and self.indptr[0] == 0
        for v in range(n):
            nbrs = self.neighbors(v)
            assert (np.diff(nbrs) > 0).all() if nbrs.size > 1 else True, "adjacency not sorted/unique"
            assert not (nbrs == v).any(), "self-loop"
            if nbrs.size:
                assert nbrs.min() >= 0 and nbrs.max() < n
            for w in nbrs:
                assert self.has_edge(int(w), v), "adjacency not symmetric"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.indices.tobytes(), self.indptr.tobytes()))


class AdjacencyGraph(list):
    """A small graph as plain Python adjacency lists on vertices 0..n-1.

    The ball coder builds balls in this form, connected by construction, so
    that a ball it hands to canon costs no CSR arrays."""

    @property
    def vertex_count(self) -> int:
        return len(self)


@dataclass(frozen=True)
class BipartiteMultigraph:
    """Bipartite multigraph: parts of sizes n1, n2 and an edge multiset.

    Edges are stored sorted by (attribute, vertex); ``mult`` carries the
    multiplicities produced by the configuration model.
    """

    n1: int
    n2: int
    edge_u: np.ndarray  # part-1 endpoints
    edge_w: np.ndarray  # part-2 endpoints (attributes)
    mult: np.ndarray

    @staticmethod
    def from_pairs(n1: int, n2: int, pairs: Iterable[tuple[int, int]]) -> "BipartiteMultigraph":
        """Aggregate (u, w) incidences, counting repeats as multiplicity."""
        if n1 < 0 or n2 < 0:
            raise ValueError("part sizes must be non-negative")
        arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            z = np.empty(0, dtype=np.int64)
            return BipartiteMultigraph(n1, n2, z, z.copy(), z.copy())
        u, w = arr[:, 0], arr[:, 1]
        if u.min() < 0 or u.max() >= n1 or w.min() < 0 or w.max() >= n2:
            raise ValueError("edge endpoint out of range")
        packed, counts = np.unique(w * np.int64(max(n1, 1)) + u, return_counts=True)
        return BipartiteMultigraph(n1, n2, packed % max(n1, 1), packed // max(n1, 1), counts)

    @property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return int(self.mult.sum())

    def part_degrees(self, part: int) -> np.ndarray:
        """Degrees (with multiplicity) of all vertices in the given part (1 or 2)."""
        if part == 1:
            return np.bincount(self.edge_u, weights=self.mult, minlength=self.n1).astype(np.int64)
        if part == 2:
            return np.bincount(self.edge_w, weights=self.mult, minlength=self.n2).astype(np.int64)
        raise ValueError("part must be 1 or 2")

    def attribute_groups(self) -> Iterable[tuple[int, np.ndarray]]:
        """Yield (attribute, member array) for attributes with at least one edge."""
        if self.edge_w.size == 0:
            return
        bounds = np.flatnonzero(np.diff(self.edge_w)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [self.edge_w.size]])
        for s, e in zip(starts, ends):
            yield int(self.edge_w[s]), self.edge_u[s:e]


@dataclass
class RootedGraph:
    """A connected graph with a distinguished root and a lazily computed
    canonical code (equal codes <=> root-preserving isomorphic), from the
    ball coder in ``rigsim.ballcode``."""

    graph: Graph
    root: int
    _code: bytes | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.root < max(self.graph.vertex_count, 1):
            raise ValueError("root out of range")

    @property
    def code(self) -> bytes:
        if self._code is None:
            from .ballcode import rooted_code

            self._code = rooted_code(self)
        return self._code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedGraph):
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)


def intersection_graph(H: BipartiteMultigraph) -> Graph:
    """Project a bipartite (multi)graph onto part 1.

    Two part-1 vertices are adjacent iff some attribute is incident to both;
    multiplicities and repeated witnesses collapse to a single edge.
    """
    packed: list[np.ndarray] = []
    n1 = max(H.n1, 1)
    for _, members in H.attribute_groups():
        m = members.size
        if m < 2:
            continue
        iu, jv = np.triu_indices(m, k=1)
        a, b = members[iu], members[jv]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        packed.append(lo * np.int64(n1) + hi)
    if not packed:
        return Graph.empty(H.n1)
    uniq = np.unique(np.concatenate(packed))
    lo, hi = uniq // n1, uniq % n1
    return Graph._from_half_edges(H.n1, np.concatenate([lo, hi]), np.concatenate([hi, lo]))


def ball(G: Graph, v: int, r: int) -> RootedGraph:
    """Induced subgraph on vertices within distance r of v, rooted at v.

    Vertices are relabelled contiguously in BFS order (root first, neighbours
    visited in sorted index order) so that equal local structures yield equal
    labelled graphs as often as possible.
    """
    if not 0 <= v < G.vertex_count:
        raise ValueError("ball centre out of range")
    if r < 0:
        raise ValueError("radius must be non-negative")
    ladj = ball_adjacency(lambda u: G.neighbors(u).tolist(), v, r)
    edges = [(i, j) for i, nbrs in enumerate(ladj) for j in nbrs if i < j]
    return RootedGraph(Graph.from_edges(len(ladj), edges), 0)


def ball_adjacency(neighbors: Callable[[int], list[int]], v: int, r: int | None) -> list[list[int]]:
    """Local adjacency lists of B_r(v) in the labelling of ``ball``; r None
    takes the whole component.  ``neighbors(u)`` lists u's neighbours in
    index order."""
    loc = {v: 0}
    order = [v]
    frontier = [v]
    depth = 0
    while frontier and (r is None or depth < r):
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in loc:
                    loc[w] = len(order)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
        depth += 1
    return [[loc[w] for w in neighbors(u) if w in loc] for u in order]


def degree_sequence(G: Graph) -> list[int]:
    """Degrees of all vertices in index order."""
    return [int(d) for d in G.degrees()]


class LocDistance(NamedTuple):
    value: Fraction  # 2 ** (-agreement_radius)
    agreement_radius: int
    capped: bool  # balls still agreed at r_max; the true distance may be smaller


def loc_distance(g1: RootedGraph, g2: RootedGraph, r_max: int) -> LocDistance:
    """Local distance 2^(-s), s the largest r <= r_max with B_r(g1) ~ B_r(g2).

    Radius-0 balls always agree, so the result is at most 1.  When the balls
    agree all the way to r_max the result is 2^(-r_max) with ``capped`` set:
    a finite computation cannot certify agreement at every radius.
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    s = 0
    for r in range(1, r_max + 1):
        if ball(g1.graph, g1.root, r).code != ball(g2.graph, g2.root, r).code:
            break
        s = r
    return LocDistance(Fraction(1, 2**s), s, s == r_max)


# -- edge-list serialization ------------------------------------------------


def write_graph(G: Graph, path: str) -> None:
    """Text edge list: header ``n m`` then one ``u v`` line per edge."""
    with open(path, "w") as fh:
        fh.write(f"{G.vertex_count} {G.edge_count}\n")
        for u, v in G.edges():
            fh.write(f"{u} {v}\n")


def read_graph(path: str) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("expected graph header 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            if line.strip():
                a, b = line.split()
                edges.append((int(a), int(b)))
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def write_bipartite(H: BipartiteMultigraph, path: str) -> None:
    """Text format: header ``n1 n2 m`` then one ``u w mult`` line per edge."""
    with open(path, "w") as fh:
        fh.write(f"{H.n1} {H.n2} {H.edge_u.size}\n")
        for u, w, c in zip(H.edge_u, H.edge_w, H.mult):
            fh.write(f"{u} {w} {c}\n")


def read_bipartite(path: str) -> BipartiteMultigraph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("expected bipartite header 'n1 n2 m'")
        n1, n2, m = map(int, header)
        pairs: list[tuple[int, int]] = []
        for line in fh:
            if line.strip():
                u, w, c = map(int, line.split())
                if c < 1:
                    raise ValueError("multiplicity must be >= 1")
                pairs.extend([(u, w)] * c)
    H = BipartiteMultigraph.from_pairs(n1, n2, pairs)
    if H.edge_u.size != m:
        raise ValueError(f"expected {m} distinct edges, found {H.edge_u.size}")
    return H
