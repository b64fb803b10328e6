"""One coder for rooted balls: block-tree codes, with general canon as the
fallback.

Most balls rigsim compares are block graphs, in which every biconnected
piece is a clique.  The clique-tree limit's balls always are (each block is
one attribute clique), and so are most balls of a sparse intersection graph.
A rooted block graph is fixed, up to root-preserving isomorphism, by its
rooted block tree: a vertex's children are the blocks it meets away from the
root, and a block's children are its other members.  A tagged AHU string of
that tree (Aho, Hopcroft & Ullman 1974), with children sorted, codes it
exactly in linear time.  Any other ball goes to canon: ``ball_codes`` holds
such balls back and codes them in batches with ``canon.canonical_codes``,
and ``rooted_code`` codes one with ``canon.canonical_code``.

So there are two code families: block-tree codes, which start with
``BLOCK_TAG``, and general codes, which start with ``canon.TAG`` (``RGC2``).
Being a block graph is an isomorphism invariant, so within and across the
families codes are equal if and only if the balls are root-preserving
isomorphic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import canon
from .graphs import Graph, RootedGraph, ball_adjacency

__all__ = ["BLOCK_TAG", "rooted_code", "ball_codes", "tree_ball_code", "clique_sizes_code"]

BLOCK_TAG = b"BLK1"
# Half-edges of non-block balls per canon batch.  Coding the r=2 balls of
# Pareto graphs took the same time for batches of 2^12 to 2^17 half-edges,
# while each half-edge held costs about 120 bytes of peak memory.
_BATCH_HALF_EDGES = 1 << 14
_LEAF = b"()"  # a vertex with no child blocks


def _vertex(blocks: list[bytes]) -> bytes:
    blocks.sort()
    return b"(" + b"".join(blocks) + b")"


def _block(members: list[bytes]) -> bytes:
    members.sort()
    return b"[" + b"".join(members) + b"]"


def adjacency_lists(G: Graph) -> list[list[int]]:
    """Sorted neighbour lists of every vertex as plain Python ints."""
    ind, ptr = G.indices.tolist(), G.indptr.tolist()
    return [ind[ptr[v] : ptr[v + 1]] for v in range(G.vertex_count)]


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
    ladj = ball_adjacency(adjacency_lists(g).__getitem__, rg.root, None) if g.vertex_count else []
    code = _block_code(ladj) if ladj and len(ladj) == g.vertex_count else None
    # canon also rejects empty and disconnected graphs with its own message
    return code if code is not None else canon.canonical_code(rg)


def ball_codes(G: Graph, r: int, vertices: Iterable[int] | None = None) -> Iterator[bytes]:
    """Codes of B_r(G, v) for each v in ``vertices`` (default: every vertex),
    each equal to ``ball(G, v, r).code``, in order.

    The adjacency lists are converted once per graph and no per-ball ``Graph``
    is built.  Balls that are not block graphs are held back and coded by
    ``canon.canonical_codes`` in batches of about ``_BATCH_HALF_EDGES``
    half-edges; the codes after a held ball wait for its batch.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    neighbors = adjacency_lists(G).__getitem__
    held: list[bytes | None] = []  # codes not yet yielded; None for a ball in ``batch``
    batch: list[list[list[int]]] = []
    half_edges = 0
    for v in range(G.vertex_count) if vertices is None else vertices:
        if not 0 <= v < G.vertex_count:
            raise ValueError("ball centre out of range")
        ladj = ball_adjacency(neighbors, v, r)
        code = _block_code(ladj)
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


def tree_ball_code(parents: Sequence[int], generation: Sequence[int], r: int) -> bytes:
    """Code of the radius-r clique-tree ball of a two-type tree given by
    parent pointers in generation order (node 0 the root, even generations
    vertices, odd generations attributes).

    The ball is the projection of the first 2r generations.  An attribute
    with children is a block of its parent vertex; one without children
    joins nobody and is dropped.
    """
    kids: list[list[bytes]] = [[] for _ in range(len(parents))]
    for i in range(len(parents) - 1, 0, -1):
        g = generation[i]
        if g > 2 * r:
            continue
        if g % 2:
            if kids[i]:
                kids[parents[i]].append(_block(kids[i]))
        else:
            kids[parents[i]].append(_vertex(kids[i]))
    return BLOCK_TAG + _vertex(kids[0])


def clique_sizes_code(sizes: Iterable[int]) -> bytes:
    """Code of a root joined to disjoint cliques with the given numbers of
    non-root members (the radius-1 clique-tree ball); zeros are ignored."""
    return BLOCK_TAG + _vertex([_block([_LEAF] * z) for z in sizes if z > 0])
