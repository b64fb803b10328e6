"""Exact canonical codes for rooted connected graphs, a batch at a time.

Two rooted graphs get the same code if and only if there is a root-preserving
isomorphism between them.  ``canonical_codes`` takes a list of connected
balls, each as adjacency lists rooted at vertex 0, and works on their
disjoint union as CSR arrays, so each step is a few numpy passes over the
whole batch (McKay & Piperno, "Practical graph isomorphism II", 2014, refine
many graphs at once and branch only where refinement stops short):

1. *Twin compression.*  Vertices of one ball with equal labels and equal open
   (resp. closed) neighbourhoods are interchangeable, so each such class is
   collapsed to one vertex whose label records the tag 'I' (independent
   class) or 'K' (clique class), the class size and the members' label.
   Rounds repeat until no ball has twins.  The twin partition is an
   isomorphism invariant and the labels allow exact reconstruction, so
   isomorphic balls give isomorphic labelled quotients.  This keeps planted
   cliques, attribute cliques and star hubs cheap.

2. *Colour refinement* (1-WL) seeded by the labels, the root's being its own.
   Each round a vertex's new colour is the rank of (ball, colour, degree,
   multiset of neighbour colours); colours are numbered from 0 in each ball,
   so a ball's colouring does not depend on the rest of the batch.

3. *Leaf encoding.*  Every ball whose stable colouring is discrete is coded
   straight from it, all such balls together.

4. *Search* on the other balls: individualise each vertex of the first
   non-singleton cell in turn, refine, recurse; the code is the least leaf
   code.  Automorphisms found when two leaves collide prune branches that
   are equivalent under the stabiliser of the current path.  A search node
   refines a batch of one ball.

Neighbourhoods and colour multisets are grouped by a fixed splitmix64 hash
(``_mix``); every group is then checked element by element, and a group that
a collision formed is split by the sorted sequences themselves, so the
partition never rests on the hash.  A code is ``TAG``, the vertex count, the
vertex labels in colour order and the upper triangle of the adjacency matrix
in that order.  It does not depend on hash seeds, dict order, platform or the
rest of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .graphs import Graph, RootedGraph, _unique, ball_adjacency

__all__ = ["TAG", "canonical_code", "canonical_codes", "unrooted_code"]

TAG = b"RGC2"
# A label is b"v" (plain vertex) or b"R" (the root), prefixed by b"I" or b"K"
# and a 4-byte class size for each collapse the vertex heads, newest first.
_VERTEX, _ROOT = b"v", b"R"


def canonical_code(rg: RootedGraph) -> bytes:
    """Canonical byte string of a rooted connected graph."""
    g = rg.graph
    if g.vertex_count == 0:
        raise ValueError("cannot canonicalize the empty graph")
    ladj = ball_adjacency(lambda u: g.neighbors(u).tolist(), rg.root, None)
    if len(ladj) < g.vertex_count:
        raise ValueError("canonical_code requires a connected graph")
    return canonical_codes([ladj])[0]


def unrooted_code(g: Graph) -> bytes:
    """Isomorphism-invariant code for a small connected unrooted graph
    (minimum of the rooted codes over all choices of root, one batch)."""
    n = g.vertex_count
    if n == 0:
        raise ValueError("cannot canonicalize the empty graph")
    nbrs = [g.neighbors(v).tolist() for v in range(n)]
    rootings = [ball_adjacency(nbrs.__getitem__, v, None) for v in range(n)]
    if len(rootings[0]) < n:
        raise ValueError("unrooted_code requires a connected graph")
    return min(canonical_codes(rootings))


def canonical_codes(balls: Sequence[Sequence[Sequence[int]]]) -> list[bytes]:
    """Codes of connected rooted balls, each given as adjacency lists on
    0..n-1 with the root at 0 (as ``graphs.ball_adjacency`` returns them).

    A ball's code is the same whether it is coded alone or in any batch."""
    if not balls:
        return []
    u = _compress(_union(balls))
    order = sorted(range(len(u.names)), key=u.names.__getitem__)
    name_rank = np.empty(len(order), dtype=np.int64)
    name_rank[order] = np.arange(len(order))
    colour = _refine(u, name_rank[u.label])
    discrete = np.maximum.reduceat(colour, u.start[:-1]) + 1 == np.diff(u.start)
    codes: list[bytes] = [b""] * len(balls)
    leaves = _select(u, discrete)
    for b, code in zip(np.flatnonzero(discrete).tolist(), _encode(leaves, colour[discrete[u.ball]])):
        codes[b] = code
    for b in np.flatnonzero(~discrete).tolist():
        s, e = int(u.start[b]), int(u.start[b + 1])
        codes[b] = _search(_slice(u, s, e), colour[s:e])
    return codes


# -- the batch -----------------------------------------------------------------


@dataclass(frozen=True)
class _Union:
    """Disjoint union of balls: ball b owns vertices start[b]:start[b+1], its
    root first, and ``g`` holds the union's sorted CSR adjacency.  ``label``
    indexes ``names``, the label byte strings."""

    start: np.ndarray
    ball: np.ndarray
    g: Graph
    label: np.ndarray
    names: list[bytes]


def _union(balls: Sequence[Sequence[Sequence[int]]]) -> _Union:
    sizes = np.fromiter(map(len, balls), dtype=np.int64, count=len(balls))
    start = np.zeros(len(balls) + 1, dtype=np.int64)
    np.cumsum(sizes, out=start[1:])
    n = int(start[-1])
    ball = np.repeat(np.arange(len(balls)), sizes)
    deg = np.fromiter(map(len, chain.from_iterable(balls)), dtype=np.int64, count=n)
    row = np.repeat(np.arange(n), deg)
    col = np.fromiter(chain.from_iterable(chain.from_iterable(balls)), dtype=np.int64, count=row.size)
    col += start[ball[row]]
    up = row < col
    label = np.zeros(n, dtype=np.int64)
    label[start[:-1]] = 1
    return _Union(start, ball, Graph._from_endpoints(n, row[up], col[up]), label, [_VERTEX, _ROOT])


def _rows(g: Graph) -> np.ndarray:
    """The row (source vertex) of each CSR entry."""
    return np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))


def _select(u: _Union, keep: np.ndarray) -> _Union:
    """The union of the balls with ``keep`` set, renumbered in order."""
    vkeep = keep[u.ball]
    new = np.cumsum(vkeep) - 1
    ptr = np.zeros(int(vkeep.sum()) + 1, dtype=np.int64)
    np.cumsum(np.diff(u.g.indptr)[vkeep], out=ptr[1:])
    nbr = new[u.g.indices[vkeep[_rows(u.g)]]]
    start = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(np.diff(u.start)[keep], out=start[1:])
    ball = (np.cumsum(keep) - 1)[u.ball[vkeep]]
    return _Union(start, ball, Graph(ptr.size - 1, ptr, nbr), u.label[vkeep], u.names)


def _slice(u: _Union, s: int, e: int) -> _Union:
    """The one ball on vertices s:e, in O(its size)."""
    ptr = u.g.indptr[s : e + 1] - u.g.indptr[s]
    nbr = u.g.indices[u.g.indptr[s] : u.g.indptr[e]] - s
    zero = np.zeros(e - s, dtype=np.int64)
    return _Union(np.array([0, e - s]), zero, Graph(e - s, ptr, nbr), u.label[s:e], u.names)


# -- hashing and exact grouping -------------------------------------------------


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser (Steele, Lea & Flood 2014) of each value."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _classes(key: np.ndarray, ptr: np.ndarray | None = None, seq: np.ndarray | None = None) -> np.ndarray:
    """Dense rank of each vertex by ``key`` (non-negative) and then, when
    given, by the sorted sequence seq[ptr[v]:ptr[v+1]].

    The sequences are ordered by length and hash; groups with equal key,
    length and hash are checked element by element and a collision is split
    by the sequences in lexicographic order, so equal ranks mean equal keys
    and sequences."""
    cols = [key]
    if seq is not None:
        deg = np.diff(ptr)
        acc = np.zeros(seq.size + 1, dtype=np.uint64)
        np.cumsum(_mix(seq), out=acc[1:])
        cols = [acc[ptr[1:]] - acc[ptr[:-1]], key * (int(deg.max(initial=0)) + 1) + deg]
    order = np.lexsort(cols)  # the last column is the primary key
    step = np.zeros(order.size, dtype=bool)
    step[:1] = True
    for c in cols:
        c = c[order]
        step[1:] |= c[1:] != c[:-1]
    if seq is not None:
        _confirm(order, step, ptr, seq)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.cumsum(step) - 1
    return rank


def _confirm(order: np.ndarray, step: np.ndarray, ptr: np.ndarray, seq: np.ndarray) -> None:
    """Check that each vertex that ``step`` puts in its predecessor's group
    has the same sequence; re-sort and re-split, in place, every group where
    one does not."""
    at = np.flatnonzero(~step)
    a, b = order[at - 1], order[at]
    d = ptr[b + 1] - ptr[b]
    pair = np.repeat(np.arange(at.size), d)
    off = np.arange(pair.size) - np.repeat(np.cumsum(d) - d, d)
    bad = np.flatnonzero(seq[ptr[a][pair] + off] != seq[ptr[b][pair] + off])
    if not bad.size:
        return
    group = np.cumsum(step) - 1
    for gid in _unique(group[at[pair[bad]]]).tolist():
        pos = np.flatnonzero(group == gid)
        rows = sorted((seq[ptr[v] : ptr[v + 1]].tolist(), v) for v in order[pos].tolist())
        order[pos] = [v for _, v in rows]
        step[pos[1:]] = [x[0] != y[0] for x, y in zip(rows, rows[1:])]


# -- twin compression ------------------------------------------------------------


def _compress(u: _Union) -> _Union:
    """Collapse the classes of false twins (equal labels, N(u) = N(v)) and of
    true twins (equal labels, N[u] = N[v]) in every ball, round by round,
    until none remain.

    Equal open neighbourhoods force non-adjacency and equal closed ones force
    adjacency, so no vertex has both kinds of twin, and the tag, the class
    size and the members' common label determine each collapsed part up to
    isomorphism."""
    while True:
        n = u.ball.size
        key = u.ball * len(u.names) + u.label
        false = _classes(key, u.g.indptr, u.g.indices)
        closed = np.sort(np.concatenate([_rows(u.g) * n + u.g.indices, np.arange(n) * (n + 1)])) % n
        true = _classes(key, u.g.indptr + np.arange(n + 1), closed)
        clique = np.bincount(true)[true] > 1
        if np.bincount(false).max() == 1 and not clique.any():
            return u
        u = _collapse(u, np.where(clique, n + true, false), clique)


def _collapse(u: _Union, cls: np.ndarray, clique: np.ndarray) -> _Union:
    """Quotient by the classes ``cls``, cliques where ``clique`` is set: the
    least vertex of each class stays and, when the class has several
    members, takes the label (tag, size, label).  Balls stay contiguous and
    each root, which has no twin, first."""
    order = np.argsort(cls, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = cls[order][1:] != cls[order][:-1]
    head = order[first]  # least vertex of each class, by class
    size = np.diff(np.append(np.flatnonzero(first), order.size))
    keep = np.zeros(order.size, dtype=bool)
    keep[head] = True
    names = u.names
    index = {name: i for i, name in enumerate(names)}
    label = u.label.copy()
    big = head[size > 1]
    relabel = []
    for k, s, old in zip(clique[big].tolist(), size[size > 1].tolist(), label[big].tolist()):
        name = (b"K" if k else b"I") + s.to_bytes(4, "big") + names[old]
        if name not in index:
            index[name] = len(names)
            names.append(name)
        relabel.append(index[name])
    label[big] = relabel
    rep = np.empty(order.size, dtype=np.int64)
    rep[order] = (np.cumsum(keep) - 1)[head][np.cumsum(first) - 1]
    row, col = rep[_rows(u.g)], rep[u.g.indices]
    up = row < col
    ball = u.ball[keep]
    start = np.zeros(u.start.size, dtype=np.int64)
    np.cumsum(np.bincount(ball, minlength=u.start.size - 1), out=start[1:])
    return _Union(start, ball, Graph._from_endpoints(int(keep.sum()), row[up], col[up]), label[keep], names)


# -- refinement, leaves and search -----------------------------------------------


def _refine(u: _Union, key: np.ndarray) -> np.ndarray:
    """The stable 1-WL colouring of every ball, seeded by ``key``; colours
    are numbered from 0 in each ball."""
    ptr, nbr = u.g.indptr, u.g.indices
    row = _rows(u.g)
    firsts = u.start[:-1]
    rank = _classes(u.ball * (int(key.max()) + 1) + key)
    while True:
        colour = rank - np.minimum.reduceat(rank, firsts)[u.ball]
        count = rank.max() + 1
        c = colour.max() + 1
        seq = np.sort(row * c + colour[nbr]) % c  # each row's neighbour colours, sorted
        rank = _classes(firsts[u.ball] + colour, ptr, seq)
        if rank.max() + 1 == count:  # no ball split a cell, so no colour moved
            return colour


def _encode(u: _Union, colour: np.ndarray) -> list[bytes]:
    """Codes of balls whose colourings are discrete: a vertex's colour is its
    position.  The adjacency bits of each ball start on a byte boundary."""
    n = colour.size
    size = np.diff(u.start)
    at = u.start[u.ball] + colour
    order = np.empty(n, dtype=np.int64)
    order[at] = np.arange(n)
    row = _rows(u.g)
    p, q = colour[row], colour[u.g.indices]
    up = p < q
    p, q, b = p[up], q[up], u.ball[row[up]]
    m = size[b]
    nbytes = np.zeros(size.size + 1, dtype=np.int64)
    np.cumsum((size * (size - 1) // 2 + 7) // 8, out=nbytes[1:])
    bits = np.zeros(8 * int(nbytes[-1]), dtype=bool)
    bits[8 * nbytes[b] + p * (2 * m - p - 1) // 2 + (q - p - 1)] = True
    packed = np.packbits(bits, bitorder="little").tobytes()
    names = [u.names[i] for i in u.label[order].tolist()]
    start, off = u.start.tolist(), nbytes.tolist()
    return [
        TAG + (e - s).to_bytes(4, "big") + b"".join(names[s:e]) + packed[o : o2]
        for s, e, o, o2 in zip(start, start[1:], off, off[1:])
    ]


def _search(u: _Union, colour: np.ndarray) -> bytes:
    """Least leaf code of the individualisation-refinement tree of a
    one-ball union from its stable colouring."""
    n = colour.size
    best: list[bytes] = []
    seen_leaf: dict[bytes, list[int]] = {}
    generators: list[list[int]] = []

    def orbit_closure(seeds: list[int], fixed: list[int]) -> set[int]:
        gens = [g for g in generators if all(g[p] == p for p in fixed)]
        reach = set(seeds)
        frontier = list(seeds)
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = g[v]
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        return reach

    def visit(colour: np.ndarray, path: list[int]) -> None:
        cells = np.flatnonzero(np.bincount(colour) > 1)
        if not cells.size:
            code = _encode(u, colour)[0]
            order = np.argsort(colour).tolist()
            if code in seen_leaf:
                other = seen_leaf[code]
                gamma = [0] * n
                for p in range(n):
                    gamma[other[p]] = order[p]
                if gamma != list(range(n)):
                    generators.append(gamma)
            else:
                seen_leaf[code] = order
            if not best or code < best[0]:
                best[:] = [code]
            return
        tried: list[int] = []
        for cand in np.flatnonzero(colour == cells[0]).tolist():
            if tried and cand in orbit_closure(tried, path):
                continue
            forked = 2 * colour + 1
            forked[cand] -= 1
            visit(_refine(u, forked), path + [cand])
            tried.append(cand)

    visit(colour, [])
    return best[0]
