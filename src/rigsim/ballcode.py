"""One coder for rooted balls: block-tree codes, with general canon as the
fallback.

Most balls rigsim compares are block graphs, in which every biconnected
piece is a clique.  The clique-tree limit's balls always are (each block is
one attribute clique), and so are most balls of a sparse intersection graph.
A rooted block graph is fixed, up to root-preserving isomorphism, by its
rooted block tree: a vertex's children are the blocks it meets away from the
root, and a block's children are its other members.  A tagged AHU string of
that tree (Aho, Hopcroft & Ullman 1974), with children sorted, codes it
exactly in linear time.

``block_codes`` is that pass over a graph's radius-r balls in three stages:
inherited verdicts, H's unfolding, whose clique trees ``forest_codes`` codes
(Dell, Grohe & Rattan 2018: a clique tree is fixed by its unfolding), and a
walk of the rest.  ``fill_codes`` codes the balls that are not block graphs
in batches with ``canon.canonical_codes`` (``ball_codes`` walks the balls
the block pass decided without a walk and fills them in), and
``rooted_code`` one the same way.  ``block_tree`` decodes a block-tree code
for the exact clique-tree ball law, which no general code can match.

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
from .counting import _cumsum0
from .graphs import BipartiteMultigraph, Graph, RootedGraph, _unique, ball_adjacency

if TYPE_CHECKING:
    from .cliquetree import GWForest

__all__ = [
    "BLOCK_TAG", "rooted_code", "block_codes", "ball_codes", "fill_codes", "forest_codes", "block_tree",
]

BLOCK_TAG = b"BLK1"
# Half-edges of non-block balls per canon batch.  Coding the r=2 balls of
# Pareto graphs took the same time for batches of 2^12 to 2^17 half-edges,
# while each half-edge held costs about 120 bytes of peak memory.
_BATCH_HALF_EDGES = 1 << 14
_LEAF = b"()"  # a vertex with no child blocks
# nodes per numpy pass of ``forest_codes``, and walks in G from the centres
# per unfolding pass of ``_codes_from_h``
_FOREST_CHUNK = 1 << 14


def _vertex(blocks: list[bytes]) -> bytes:
    blocks.sort()
    return b"(" + b"".join(blocks) + b")"


def _block(members: list[bytes]) -> bytes:
    members.sort()
    return b"[" + b"".join(members) + b"]"


def block_tree(code: bytes, r: int) -> tuple | None:
    """The rooted block tree of a block code as nested tuples (a vertex is the
    tuple of its child blocks, a block of its other members, in code order);
    None for codes the tree does not re-encode byte for byte (general codes,
    the buckets, empty or unsorted blocks) and trees deeper than r."""
    if not code.startswith(BLOCK_TAG):
        return None
    # one token per leaf; a vertex of depth d with blocks is open at stack height 2d + 2, its blocks at 2d + 3
    stack: list[list[tuple]] = [[]]
    for c in code[len(BLOCK_TAG) :].replace(_LEAF, b"."):
        if c == 46:
            stack[-1].append(())
        elif c == 40 or c == 91:  # ( or [
            if len(stack) > 2 * r:
                return None
            stack.append([])
        else:
            node = tuple(stack.pop())
            if not stack or (len(stack) % 2 == 0 and not node):  # unbalanced, or an empty block
                return None
            stack[-1].append(node)
    if len(stack) != 1 or len(stack[0]) != 1 or _tree_code(stack[0][0]) != code[len(BLOCK_TAG) :]:
        return None
    return stack[0][0]


def _tree_code(vertex: tuple) -> bytes:
    return _vertex([_block([_tree_code(m) if m else _LEAF for m in block]) for block in vertex])


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
    order, the block-tree code of B_r(G, v) and None when the ball is a block
    graph; otherwise None and, when the pass walked the ball, its adjacency
    lists (rooted at 0, as ``ball_adjacency`` lists them), else None.

    Three stages decide the balls, each only those the stages before left:

    1. Inherited verdicts (r >= 2).  When some u in N[v] has a ball
       B_{r-1}(u) that is not a block graph, neither is B_r(v): B_{r-1}(u) is
       a connected induced subgraph of B_r(v), and block graphs are closed
       under those.  The radius r - 1 verdicts come from this pass on N[v].
    2. H's unfolding, by ``_codes_from_h``, on a graph that keeps H's
       incidences (``intersection_graph`` makes such graphs): clique trees
       are coded from it, and balls in which it shows a cycle through two
       vertices that are not adjacent (r >= 2) are not block graphs.
    3. The walk: each remaining ball is read by ``ball_adjacency`` and
       block-tested by ``_block_code`` as its entry is reached, on
       neighbour lists converted row by row on first use; no per-ball
       ``Graph`` is built.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    picks = _centres(G, vertices)
    todo = np.arange(picks.size)
    if r >= 2 and picks.size:
        ring = _unique(np.concatenate([picks, _gather(G.indptr, G.indices, picks)[0]]))
        bad = np.zeros(G.vertex_count, dtype=bool)
        bad[ring] = [code is None for code, _ in block_codes(G, r - 1, ring)]
        seen = _cumsum0(bad[G.indices])
        todo = np.flatnonzero(~bad[picks] & (seen[G.indptr[picks + 1]] == seen[G.indptr[picks]]))
    codes: list[bytes | None] = [None] * picks.size
    walk = [False] * picks.size
    from_h, cycles = _codes_from_h(G, r, picks[todo])
    for i, code, cycle in zip(todo.tolist(), from_h, cycles.tolist()):
        codes[i], walk[i] = code, code is None and not cycle
    neighbors = _Rows(G).__getitem__
    for v, code, walk_it in zip(picks.tolist(), codes, walk):
        if walk_it:
            ladj = ball_adjacency(neighbors, v, r)
            code = _block_code(ladj)
            yield code, None if code is not None else ladj
        else:
            yield code, None


def _centres(G: Graph, vertices: Iterable[int] | None) -> np.ndarray:
    picks = np.arange(G.vertex_count) if vertices is None else np.asarray(list(vertices), dtype=np.int64)
    if ((picks < 0) | (picks >= G.vertex_count)).any():
        raise ValueError("ball centre out of range")
    return picks


def _gather(ptr: np.ndarray, items: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``rows`` of the CSR (``ptr``, ``items``), concatenated, and their
    lengths."""
    starts = ptr[rows].astype(np.int64)
    lens = ptr[rows + 1].astype(np.int64) - starts
    return items[np.arange(int(lens.sum())) + np.repeat(starts - _cumsum0(lens)[:-1], lens)], lens


class _Rows(dict):
    """G's neighbour lists as Python ints, each converted on first use."""

    def __init__(self, G: Graph):
        super().__init__()
        self.indices, self.indptr = G.indices, G.indptr.tolist()

    def __missing__(self, v: int) -> list[int]:
        row = self[v] = self.indices[self.indptr[v] : self.indptr[v + 1]].tolist()
        return row


def _keep_incidences(G: Graph, H: BipartiteMultigraph) -> None:
    """Keep on G, the projection of H, H's incidences as two CSRs, each array
    in the smallest dtype that holds it: vertex -> attributes and attribute
    -> members, both in any order within a row (every projected graph
    carries them)."""

    def small(a: np.ndarray) -> np.ndarray:
        return a.astype(np.min_scalar_type(a.max(initial=0)))

    vptr = _cumsum0(np.bincount(H.edge_u, minlength=H.n1))
    aptr = _cumsum0(np.bincount(H.edge_w, minlength=H.n2))
    # H keeps its pairs sorted by (attribute, vertex)
    vatt = H.edge_w[np.argsort(H.edge_u)]
    object.__setattr__(G, "_incidences", tuple(map(small, (vptr, vatt, aptr, H.edge_u))))


def _codes_from_h(G: Graph, r: int, centres: np.ndarray) -> tuple[list[bytes | None], np.ndarray]:
    """For each of the ``centres`` v, the code of B_r(G, v) when G keeps H's
    incidences and H's non-backtracking unfolding from v shows the ball to be
    a plain clique tree, None otherwise; and whether the unfolding shows a
    cycle that makes B_r(G, v) no block graph.

    Generation 0 of the unfolding is v, and generation k + 1 lists, for each
    node of generation k, its H-neighbours other than its parent: attributes
    at odd generations, vertices at even ones.  Its first 2r generations
    project to B_r(v) exactly when

    (a) no vertex occurs twice in generations 0, 2, ..., 2r, and
    (b) no attribute of generation 2r + 1 holds two vertices of generation
        2r with different parents.

    By (a) each ball vertex occurs once, at twice its distance from v, and
    each attribute of generations 1, 3, ..., 2r - 1 occurs once and holds no
    ball vertex besides its parent and its children.  So an edge of the ball
    outside the cliques that these attributes form with their parents and
    children joins two vertices of generation 2r through an attribute of
    generation 2r + 1, and by (b) it lies in the clique of their common
    parent after all.  The certified centres' first 2r generations are a
    ``GWForest`` that ``forest_codes`` codes, as it codes the clique-tree
    reference.

    A centre whose generations 0, 2, ..., 2r - 2 repeat no vertex has a
    cycle when

    (C4) a vertex x first seen at generation 2r lies under two different
         vertices of generation 2r - 2, or
    (C5) after (a) holds, an attribute of generation 2r + 1 holds two
         vertices x, y of generation 2r whose ancestors in generation 2r - 2
         differ.

    The two tree paths from v then part at a last common vertex c, at
    distance at most r - 2 from v, and with x (and the edge x-y) they close
    a simple cycle through c and x, which lie at distances <= r - 2 and r
    from v and so are not adjacent.  The block of B_r(v) that holds the
    cycle is then not a clique.  Radius 1 has no such cycle: generation 0 is
    v alone.

    Centres are unfolded in chunks whose walks of length at most r in G
    number about ``_FOREST_CHUNK``, and a centre leaves its chunk as soon as
    a vertex repeats."""
    codes: list[bytes | None] = [None] * centres.size
    cycles = np.zeros(centres.size, dtype=bool)
    incidences = G.__dict__.get("_incidences")
    if incidences is None or not centres.size:
        return codes, cycles
    walks = np.ones(G.vertex_count)
    for _ in range(r):
        s = np.concatenate([[0.0], np.cumsum(walks[G.indices])])
        walks = 1 + s[G.indptr[1:]] - s[G.indptr[:-1]]
    cost = np.cumsum(walks[centres])
    cuts = _unique(np.append(np.searchsorted(cost, np.arange(0, cost[-1], _FOREST_CHUNK)), centres.size))
    for a, b in zip(cuts.tolist(), cuts[1:].tolist()):
        ok, cycles[a:b], forest = _unfold(incidences, centres[a:b], r)
        classes, names = forest_codes(forest, r)
        for i, c in zip((a + np.flatnonzero(ok)).tolist(), classes.tolist()):
            codes[i] = names[c]
    return codes, cycles


def _unfold(incidences: tuple[np.ndarray, ...], centres: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, GWForest]:
    """Which ``centres`` the tests (a) and (b) of ``_codes_from_h``
    certify, which have a cycle (C4) or (C5), and the first 2r generations
    of the certified centres' unfoldings."""
    from .cliquetree import GWForest, _add_starts  # cliquetree imports this module

    vptr, vatt, aptr, amem = incidences
    n1, n2 = vptr.size - 1, aptr.size - 1
    ok = np.ones(centres.size, dtype=bool)
    cycle = np.zeros(centres.size, dtype=bool)
    owner, ids, parents = np.arange(centres.size), centres, np.full(centres.size, -1)
    ball = owner * n1 + ids  # sorted keys owner * n1 + vertex of generations 0, 2, ...
    grand = parents  # each node's parent's parent
    counts, owners = [], [owner]
    for k in range(2 * r + 1):
        kids, lens = _gather(*((vptr, vatt) if k % 2 == 0 else (aptr, amem)), ids)
        up = np.repeat(np.arange(ids.size), lens)
        keep = kids != np.repeat(parents, lens)
        up = up[keep]
        counts.append(np.bincount(up, minlength=ids.size))
        if r > 1 and k == 2 * r:
            great = grand[up]  # each new node's parent's parent's parent, for (C5)
        owner, grand, parents, ids = owner[up], parents[up], ids[up], kids[keep].astype(np.int64)
        if k % 2:  # generation k + 1 holds vertices
            new = owner * n1 + ids
            if r > 1 and k == 2 * r - 1:  # (C4); a stable sort puts a key's old entries first
                old, keys = ball.size, np.concatenate([ball, new])
                order = np.argsort(keys, kind="stable")
                ball, tag = keys[order], np.concatenate([np.full(old, -1), grand])[order]
                twice = ball[1:] == ball[:-1]
                run = np.maximum.accumulate(np.where(np.concatenate([[True], ~twice]), np.arange(ball.size), 0))
                fresh = order[run] >= old  # the key's run starts with a new entry
                cycle[ball[1:][twice & fresh[1:] & (tag[1:] != tag[:-1])] // n1] = True
            else:
                ball = np.sort(np.concatenate([ball, new]))
                twice = ball[1:] == ball[:-1]
            ok[ball[1:][twice] // n1] = False
            live = ok[owner]
            owner, grand, parents, ids = owner[live], grand[live], parents[live], ids[live]
        owners.append(owner)
    # generation 2r + 1: the same attribute twice under one centre must have
    # the same grandparent (b), and has a cycle when the vertices above it
    # part in generation 2r - 2 (C5; radius 1 has none)
    key = owner * n2 + ids
    if r > 1:
        split, cycled = _parted(key, grand, great)
        cycle[cycled // n2] = True
    else:
        (split,) = _parted(key, grand)
    ok[split // n2] = False
    # as sampled forests do, keep no array for a generation without nodes
    counts = [c for c in (c[ok[o]] for c, o in zip(counts[: 2 * r], owners)) if c.size]
    starts: list[np.ndarray] = []
    _add_starts(starts, counts, int(ok.sum()), len(counts) - 1)
    return ok, cycle, GWForest(2 * r, tuple(counts), tuple(starts), np.zeros(int(ok.sum()), dtype=bool))


def _parted(key: np.ndarray, *tags: np.ndarray) -> list[np.ndarray]:
    """For each of ``tags``, the keys that occur twice with different tags."""
    order = np.argsort(key)
    key = key[order]
    twice = key[1:] == key[:-1]
    return [key[1:][twice & (t[1:] != t[:-1])] for t in (t[order] for t in tags)]


def ball_codes(G: Graph, r: int, vertices: Iterable[int] | None = None) -> Iterator[bytes]:
    """Codes of B_r(G, v) for each v in ``vertices`` (default: every vertex),
    each equal to ``ball(G, v, r).code``, in order: ``block_codes``, with the
    balls it decided without a walk walked here, and its general balls filled
    in by ``fill_codes``."""
    picks = _centres(G, vertices)
    neighbors = _Rows(G).__getitem__
    return fill_codes(
        (code, None) if code is not None else (None, ladj or ball_adjacency(neighbors, v, r))
        for v, (code, ladj) in zip(picks.tolist(), block_codes(G, r, picks))
    )


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
        cuts = _unique(np.append(np.searchsorted(s, np.arange(0, s[-1], _FOREST_CHUNK)), forest.samples)).tolist()
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
