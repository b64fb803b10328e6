"""Core graph types: simple graphs, bipartite multigraphs, rooted graphs.

Graphs are immutable after construction and stored in CSR form (sorted
adjacency), which keeps neighbour queries cheap on hosts with ~10^5 vertices
and makes every derived object (balls, intersection graphs, codes)
reproducible: no operation depends on set/dict iteration order.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "BipartiteMultigraph",
    "RootedGraph",
    "intersection_graph",
    "ball",
    "ball_adjacency",
    "write_graph",
    "read_graph",
    "write_bipartite",
    "read_bipartite",
]


def _unique(a: np.ndarray, return_counts: bool = False):
    """The distinct values of ``a`` in increasing order, and with
    ``return_counts`` how often each occurs: ``np.unique`` by one sort.
    Asked for the values alone, numpy 2's ``np.unique`` hashes integer keys,
    many times slower than this sort, and its first call imports
    ``numpy.ma``."""
    a = np.sort(a, axis=None)
    first = np.ones(a.size, dtype=bool)  # an empty array has no first value
    first[1:] = a[1:] != a[:-1]
    if not return_counts:
        return a[first]
    starts = np.flatnonzero(first)
    return a[starts], np.diff(np.append(starts, a.size))


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1, CSR adjacency.

    ``rigsim.counting`` keeps its counting host for the graph on the
    instance, so the host is freed with the graph.  A graph made by
    ``intersection_graph`` keeps, in the same way, the incidences of the
    bipartite graph H it projects, from which ``rigsim.ballcode`` codes the
    balls that H's unfolding shows to be clique trees."""

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
        return Graph._from_endpoints(n, u, v)

    @staticmethod
    def _from_endpoints(n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """The graph with edges {u[i], v[i]}, u[i] != v[i], repeats allowed.

        The distinct keys src * n + dst of both half-edges, sorted, are the
        CSR order directly."""
        half = _unique(np.concatenate([u * np.int64(n) + v, v * np.int64(n) + u]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(half // n, minlength=n), out=indptr[1:])
        return Graph(n, indptr, half % n)

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

    def edge_array(self) -> np.ndarray:
        """Each edge once as a row (u, v) with u < v, rows in sorted order."""
        src = np.repeat(np.arange(self.vertex_count, dtype=np.int64), np.diff(self.indptr))
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep]], axis=1)

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        return map(tuple, self.edge_array().tolist())

    def adjacency_sets(self) -> list[set[int]]:
        return [set(map(int, self.neighbors(v))) for v in range(self.vertex_count)]

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
    def from_pairs(n1: int, n2: int, pairs: np.ndarray | Iterable[tuple[int, int]]) -> "BipartiteMultigraph":
        """Aggregate (u, w) incidences, an (m, 2) array or an iterable of
        pairs, counting repeats as multiplicity."""
        if n1 < 0 or n2 < 0:
            raise ValueError("part sizes must be non-negative")
        arr = pairs.astype(np.int64, copy=False) if isinstance(pairs, np.ndarray) else np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            z = np.empty(0, dtype=np.int64)
            return BipartiteMultigraph(n1, n2, z, z.copy(), z.copy())
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be (u, w) pairs")
        u, w = arr[:, 0], arr[:, 1]
        if u.min() < 0 or u.max() >= n1 or w.min() < 0 or w.max() >= n2:
            raise ValueError("edge endpoint out of range")
        packed, counts = _unique(w * np.int64(max(n1, 1)) + u, return_counts=True)
        return BipartiteMultigraph(n1, n2, packed % max(n1, 1), packed // max(n1, 1), counts)

    @property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return int(self.mult.sum())


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
    multiplicities and repeated witnesses collapse to a single edge.  The
    returned graph keeps what ``rigsim.ballcode`` reads of H (see ``Graph``).
    """
    from .ballcode import _keep_incidences  # ballcode imports this module

    # from_pairs stores the edges sorted by (attribute, vertex), so each
    # attribute's members form one run: pair every edge with the later edges
    # of its run
    run_end = np.cumsum(np.bincount(H.edge_w, minlength=H.n2))[H.edge_w]
    later = run_end - np.arange(H.edge_w.size) - 1
    total = int(later.sum())
    if total == 0:
        G = Graph.empty(H.n1)
    else:
        first = np.repeat(np.arange(H.edge_w.size), later)
        second = first + np.arange(1, total + 1) - np.repeat(np.cumsum(later) - later, later)
        G = Graph._from_endpoints(H.n1, H.edge_u[first], H.edge_u[second])
    _keep_incidences(G, H)
    return G


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


# -- edge-list serialization ------------------------------------------------


def _write_rows(path: str, header: str, rows: np.ndarray) -> None:
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist()))


def _read_rows(path: str, what: str, width: int) -> tuple[list[int], np.ndarray]:
    """The ``width`` integers of an edge-list file's header and its rows as an
    (m, width) array; blank lines are skipped, every other line must hold
    ``width`` integers."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != width:
            raise ValueError(f"expected {what}")
        body = fh.read()
    if body.strip():
        rows = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    else:  # loadtxt warns on an empty body
        rows = np.empty((0, width), dtype=np.int64)
    if rows.shape[1] != width:
        raise ValueError(f"expected {width} integers per line, found {rows.shape[1]}")
    return [int(x) for x in header], rows


def write_graph(G: Graph, path: str) -> None:
    """Text edge list: header ``n m`` then one ``u v`` line per edge."""
    _write_rows(path, f"{G.vertex_count} {G.edge_count}", G.edge_array())


def read_graph(path: str) -> Graph:
    (n, m), edges = _read_rows(path, "graph header 'n m'", 2)
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def write_bipartite(H: BipartiteMultigraph, path: str) -> None:
    """Text format: header ``n1 n2 m`` then one ``u w mult`` line per edge."""
    _write_rows(path, f"{H.n1} {H.n2} {H.edge_u.size}", np.stack([H.edge_u, H.edge_w, H.mult], axis=1))


def read_bipartite(path: str) -> BipartiteMultigraph:
    (n1, n2, m), rows = _read_rows(path, "bipartite header 'n1 n2 m'", 3)
    if (rows[:, 2] < 1).any():
        raise ValueError("multiplicity must be >= 1")
    H = BipartiteMultigraph.from_pairs(n1, n2, np.repeat(rows[:, :2], rows[:, 2], axis=0))
    if H.edge_u.size != m:
        raise ValueError(f"expected {m} distinct edges, found {H.edge_u.size}")
    return H
