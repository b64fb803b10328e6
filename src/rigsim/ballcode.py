"""One coder for rooted balls: block-tree codes, with general canon as the
fallback.

Most balls rigsim compares are block graphs, in which every biconnected
piece is a clique.  The clique-tree limit's balls always are (each block is
one attribute clique), and so are most balls of a sparse intersection graph.
A rooted block graph is fixed, up to root-preserving isomorphism, by its
rooted block tree: a vertex's children are the blocks it meets away from the
root, and a block's children are its other members.  A tagged AHU string of
that tree (Aho, Hopcroft & Ullman 1974), with children sorted, codes it
exactly in linear time.  ``block_codes`` is that pass over a graph's balls;
it hands back the adjacency of every other ball.  At radius 1 a graph made
by ``intersection_graph`` keeps the sizes of its vertices' attributes in
the bipartite graph H it projects, and each ball that they and the triangle
counts show to be a depth-2 clique tree is coded from them in one numpy
pass by ``forest_codes``; the rest, and every ball of a graph without them
(read from a file, built from edges, a ``ball``), are walked and tested one
at a time.  ``fill_codes`` codes such balls in batches with
``canon.canonical_codes`` (``ball_codes`` is the two in a row), and
``rooted_code`` codes one the same way.  A comparison with the clique-tree
limit never needs a general code, since no limit ball can match a ball that
is not a block graph.

So there are two code families: block-tree codes, which start with
``BLOCK_TAG``, and general codes, which start with ``canon.TAG`` (``RGC2``).
Being a block graph is an isomorphism invariant, so within and across the
families codes are equal if and only if the balls are root-preserving
isomorphic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from . import canon
from .counting import _cumsum0, _host
from .graphs import BipartiteMultigraph, Graph, RootedGraph, ball_adjacency

if TYPE_CHECKING:
    from .cliquetree import GWForest

__all__ = ["BLOCK_TAG", "rooted_code", "block_codes", "ball_codes", "fill_codes", "forest_codes"]

BLOCK_TAG = b"BLK1"
# Half-edges of non-block balls per canon batch.  Coding the r=2 balls of
# Pareto graphs took the same time for batches of 2^12 to 2^17 half-edges,
# while each half-edge held costs about 120 bytes of peak memory.
_BATCH_HALF_EDGES = 1 << 14
_LEAF = b"()"  # a vertex with no child blocks
_FOREST_CHUNK = 1 << 14  # nodes per numpy pass of ``forest_codes``


def _vertex(blocks: list[bytes]) -> bytes:
    blocks.sort()
    return b"(" + b"".join(blocks) + b")"


def _block(members: list[bytes]) -> bytes:
    members.sort()
    return b"[" + b"".join(members) + b"]"


def _block_code(ladj: list[list[int]]) -> bytes | None:
    """Block-tree code of a connected ball rooted at 0, or None when the ball
    is not a block graph.

    Each vertex, in claim order, takes its not-yet-claimed neighbours and
    splits them into connected components; every component must be a clique,
    and with the vertex it forms one child block.  The blocks are edge
    disjoint by construction, so they make a block graph exactly when they
    account for every edge of the ball.
    """
    n = len(ladj)
    claimed = [False] * n
    claimed[0] = True
    order = [0]
    blocks: list[list[list[int]]] = [[] for _ in range(n)]
    covered = 0
    for u in order:  # grows while it is walked
        fresh = [w for w in ladj[u] if not claimed[w]]
        if not fresh:
            continue
        for w in fresh:
            claimed[w] = True
        order.extend(fresh)
        pool = set(fresh)  # fresh vertices not yet in a block
        for w in fresh:
            if w not in pool:
                continue
            clique = pool.intersection(ladj[w])
            clique.add(w)
            for x in clique:  # the component of w is this set and a clique
                closed = pool.intersection(ladj[x])
                closed.add(x)
                if closed != clique:
                    return None
            pool -= clique
            blocks[u].append(list(clique))
            covered += len(clique) * (len(clique) + 1) // 2
    if 2 * covered != sum(map(len, ladj)):
        return None
    code: list[bytes] = [_LEAF] * n
    for u in reversed(order):
        if blocks[u]:
            code[u] = _vertex([_block([code[x] for x in k]) for k in blocks[u]])
    return BLOCK_TAG + code[0]


def rooted_code(rg: RootedGraph) -> bytes:
    """Code of a rooted connected graph; this is ``RootedGraph.code``."""
    g = rg.graph
    ladj = ball_adjacency(_Rows(g).__getitem__, rg.root, None) if g.vertex_count else []
    if not 0 < len(ladj) == g.vertex_count:
        return canon.canonical_code(rg)  # which rejects empty and disconnected graphs with its own message
    code = _block_code(ladj)
    return code if code is not None else canon.canonical_codes([ladj])[0]


def block_codes(
    G: Graph, r: int, vertices: Iterable[int] | None = None
) -> Iterator[tuple[bytes | None, list[list[int]] | None]]:
    """The block pass: for each v in ``vertices`` (default: every vertex), in
    order, the block-tree code of B_r(G, v) and None, or None and the ball's
    adjacency lists (rooted at 0, as ``ball_adjacency`` lists them) when it
    is not a block graph.

    At r=1, on a graph that keeps its vertices' attribute sizes, the balls
    that ``_clique_tree_codes`` finds to be plain clique trees are coded in
    one pass.  Every other ball is walked and block-tested one at a time, on
    neighbour lists converted row by row on first use; no per-ball
    ``Graph`` is built."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    picks = np.arange(G.vertex_count) if vertices is None else np.asarray(list(vertices), dtype=np.int64)
    if ((picks < 0) | (picks >= G.vertex_count)).any():
        raise ValueError("ball centre out of range")
    codes = _clique_tree_codes(G, picks) if r == 1 else [None] * picks.size
    neighbors = _Rows(G).__getitem__
    for v, code in zip(picks.tolist(), codes):
        if code is None:
            ladj = ball_adjacency(neighbors, v, r)
            code = _block_code(ladj)
            yield code, None if code is not None else ladj
        else:
            yield code, None


class _Rows(dict):
    """G's neighbour lists as Python ints, each converted on first use."""

    def __init__(self, G: Graph):
        super().__init__()
        self.indices, self.indptr = G.indices, G.indptr.tolist()

    def __missing__(self, v: int) -> list[int]:
        row = self[v] = self.indices[self.indptr[v] : self.indptr[v + 1]].tolist()
        return row


def _keep_attributes(G: Graph, H: BipartiteMultigraph) -> None:
    """Keep on G, the projection of H, what ``_clique_tree_codes`` reads of
    H: |a| - 1 for each vertex's attributes a, grouped by vertex in any
    order, and where each vertex's group starts, each array in the smallest
    dtype that holds it (every projected graph carries them)."""
    others = (np.bincount(H.edge_w, minlength=H.n2) - 1)[H.edge_w[np.argsort(H.edge_u)]]
    ptr = np.append(0, np.cumsum(np.bincount(H.edge_u, minlength=H.n1)))
    kept = others.astype(np.min_scalar_type(others.max(initial=0))), ptr.astype(np.min_scalar_type(ptr[-1]))
    object.__setattr__(G, "_attributes", kept)


def _clique_tree_codes(G: Graph, picks: np.ndarray) -> list[bytes | None]:
    """For each vertex v of ``picks``, the code of B_1(G, v) when G keeps its
    vertices' attribute sizes (``intersection_graph`` does) and they show
    the ball to be a plain clique tree, None otherwise.

    Let a range over v's attributes, with |a| distinct members.  When
    deg(v) = sum(|a| - 1), the sets a - {v} are disjoint; when also tri(v),
    the ordered pairs of adjacent neighbours, is sum((|a| - 1)(|a| - 2)),
    no other edge joins them.  The ball is then v joined to disjoint,
    mutually non-adjacent cliques: the depth-2 tree with one child per
    attribute and |a| - 1 grandchildren under it, coded with the trees of
    the other such vertices by ``forest_codes``.  Only the rows of
    ``picks`` are read; tri(v) is read from the counting host's triangle
    vector, which one wedge pass counts for the whole graph, exact in int64
    and in bounded memory."""
    from .cliquetree import GWForest  # cliquetree imports this module

    codes: list[bytes | None] = [None] * picks.size
    attributes = G.__dict__.get("_attributes")
    if attributes is None or not picks.size:
        return codes
    others, ptr = attributes
    starts = ptr[picks].astype(np.int64)
    attrs = ptr[picks + 1] - starts
    ends = _cumsum0(attrs)
    kids = others[np.arange(ends[-1]) + np.repeat(starts - ends[:-1], attrs)].astype(np.int64)
    ok = G.indptr[picks + 1] - G.indptr[picks] == np.diff(_cumsum0(kids)[ends])
    ok &= _host(G).tri[picks] == np.diff(_cumsum0(kids * (kids - 1))[ends])
    keep = np.flatnonzero(ok)
    if keep.size:
        c0 = attrs[keep]
        forest = GWForest(2, (c0, kids[np.repeat(ok, attrs)]), (np.arange(keep.size + 1), _cumsum0(c0)),
                          np.zeros(keep.size, dtype=bool))
        cls, names = forest_codes(forest, 1)
        for i, c in zip(keep.tolist(), cls.tolist()):
            codes[i] = names[c]
    return codes


def ball_codes(G: Graph, r: int, vertices: Iterable[int] | None = None) -> Iterator[bytes]:
    """Codes of B_r(G, v) for each v in ``vertices`` (default: every vertex),
    each equal to ``ball(G, v, r).code``, in order: ``block_codes`` with its
    general balls filled in by ``fill_codes``."""
    return fill_codes(block_codes(G, r, vertices))


def fill_codes(entries: Iterable[tuple[bytes | None, list[list[int]] | None]]) -> Iterator[bytes]:
    """Each entry's code, in order, where an entry is a code and None, or
    None and the adjacency lists of a ball that canon must code.

    Such balls are held back and coded by ``canon.canonical_codes`` in
    batches of about ``_BATCH_HALF_EDGES`` half-edges; the codes after a held
    ball wait for its batch."""
    held: list[bytes | None] = []  # codes not yet yielded; None for a ball in ``batch``
    batch: list[list[list[int]]] = []
    half_edges = 0
    for code, ladj in entries:
        if code is not None and not batch:
            yield code
            continue
        held.append(code)
        if code is None:
            batch.append(ladj)
            half_edges += sum(map(len, ladj))
            if half_edges >= _BATCH_HALF_EDGES:
                yield from _fill(held, canon.canonical_codes(batch))
                held, batch, half_edges = [], [], 0
    yield from _fill(held, canon.canonical_codes(batch))


def _fill(held: list[bytes | None], codes: list[bytes]) -> Iterator[bytes]:
    """``held`` with each None replaced by the next of ``codes``."""
    it = iter(codes)
    return (next(it) if code is None else code for code in held)


def forest_codes(forest: GWForest, r: int) -> tuple[np.ndarray, list[bytes]]:
    """Each tree's class, -1 when it is capped, and each class's code: that
    of the radius-r root ball of the clique tree that each of its trees
    projects to (even generations the vertices, odd ones the cliques).

    Classes are assigned bottom-up from generation 2r, on chunks of trees.  A
    node's row is the sorted classes of its children, where an attribute
    without children joins nobody and is left out.  Rows are ranked in
    numpy, and each distinct one is looked up in a table that numbers the
    forest's classes; a class's bytes are built once, by ``_vertex`` or
    ``_block``.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    if forest.depth < 2 * r:
        raise ValueError(f"a depth-{forest.depth} forest has no radius-{r} balls")
    table = {(0, ()): 0}  # (generation parity, row) -> class; class 0 is the childless vertex
    names = [_LEAF]  # bytes per class
    top = min(len(forest.counts), 2 * r)  # generation ``top`` holds childless vertices only
    roots = np.zeros(forest.samples, dtype=np.int64)
    if top:  # chunks of about _FOREST_CHUNK nodes of generation top - 1
        s = forest.starts[top - 1]
        cuts = np.unique(np.append(np.searchsorted(s, np.arange(0, s[-1], _FOREST_CHUNK)), forest.samples)).tolist()
        for a, b in zip(cuts, cuts[1:]):
            cls = None  # the chunk's classes one generation down
            for k in range(top - 1, -1, -1):
                s = forest.starts[k]
                cls = _rank_rows(forest.counts[k][s[a] : s[b]], cls, k % 2, table, names)
            roots[a:b] = cls
    roots[forest.capped] = len(names)  # ranked -1 below
    used = np.flatnonzero(np.bincount(roots)[: len(names)])
    rank = np.full(len(names) + 1, -1, dtype=np.int64)
    rank[used] = np.arange(used.size)
    np.take(rank, roots, out=roots)
    return roots, [BLOCK_TAG + names[x] for x in used.tolist()]


def _rank_rows(c: np.ndarray, kids: np.ndarray | None, parity: int, table: dict, names: list[bytes]) -> np.ndarray:
    """Classes of one generation's nodes from their offspring counts ``c``
    and their children's classes ``kids`` (node j owns the next c[j]; None
    when all are childless vertices).  A childless attribute gets -1."""
    if kids is not None:
        owner = np.repeat(np.arange(c.size), c)
        if not parity:
            keep = kids >= 0
            owner, kids = owner[keep], kids[keep]
            c = np.bincount(owner, minlength=c.size)
        # each node's children by class; both factors are below the node count
        kids = kids[np.argsort(owner * len(names) + kids)]
    out = np.full(c.size, -1 if parity else 0, dtype=np.int64)
    by_width = np.argsort(c, kind="stable")
    ends = np.searchsorted(c[by_width], np.arange(int(c.max(initial=0)) + 1), side="right").tolist()
    first = np.cumsum(c) - c
    for width in range(1, len(ends)):
        nodes = by_width[ends[width - 1] : ends[width]]
        if not nodes.size:
            continue
        if kids is None:
            rows, firsts = np.zeros((1, width), dtype=np.int64), np.zeros(1, dtype=np.int64)
        else:
            rows = kids[first[nodes, None] + np.arange(width)]
            order = np.lexsort(rows.T[::-1])  # np.unique(axis=0) sorts far slower
            rows, nodes = rows[order], nodes[order]
            firsts = np.flatnonzero(np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)]))
        ids = []
        for row in map(tuple, rows[firsts].tolist()):
            if (parity, row) not in table:
                table[parity, row] = len(names)
                names.append((_block if parity else _vertex)([names[x] for x in row]))
            ids.append(table[parity, row])
        out[nodes] = np.repeat(ids, np.diff(np.append(firsts, len(nodes))))
    return out
