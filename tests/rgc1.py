"""Reference coder for the tests: the per-graph Python canon that produced
``RGC1`` codes (twin compression, 1-WL refinement and individualisation
search, one graph at a time).  Its codes are equal if and only if the rooted
graphs are root-preserving isomorphic, so its partition is the oracle the
batched coder must reproduce."""

from __future__ import annotations

from typing import Sequence

from rigsim.graphs import RootedGraph, ball_adjacency

Label = tuple


def rgc1_code(rg: RootedGraph) -> bytes:
    g, root = rg.graph, rg.root
    n = g.vertex_count
    if len(ball_adjacency(lambda u: g.neighbors(u).tolist(), 0, None)) < n:
        raise ValueError("requires a connected graph")
    adj = [set(map(int, g.neighbors(v))) for v in range(n)]
    labels: list[Label] = [("v",)] * n
    labels[root] = ("R", ("v",))
    adj, labels = _twin_reduce(adj, labels)
    return _ir_code(adj, labels)


def rgc1_ball_code(ladj: list[list[int]]) -> bytes:
    """The same code for adjacency lists rooted at 0."""
    labels: list[Label] = [("v",)] * len(ladj)
    labels[0] = ("R", ("v",))
    adj, labels = _twin_reduce([set(nb) for nb in ladj], labels)
    return _ir_code(adj, labels)


# -- twin compression ---------------------------------------------------------


def _twin_reduce(adj: list[set[int]], labels: list[Label]) -> tuple[list[set[int]], list[Label]]:
    """Collapse classes of false twins (equal labels, N(u) = N(v)) and true
    twins (equal labels, N[u] = N[v]) until none remain.

    Equal open neighbourhoods force non-adjacency and equal closed ones force
    adjacency, so the tags 'I'/'K' plus the class size and the members' common
    label determine the collapsed part up to isomorphism.
    """
    while True:
        changed = False
        for tag in ("I", "K"):
            groups: dict[tuple, list[int]] = {}
            for v in range(len(labels)):
                nb = adj[v] if tag == "I" else adj[v] | {v}
                groups.setdefault((labels[v], frozenset(nb)), []).append(v)
            classes = [sorted(vs) for vs in groups.values() if len(vs) > 1]
            if not classes:
                continue
            changed = True
            rep = list(range(len(labels)))
            drop = set()
            for vs in classes:
                head = vs[0]
                labels[head] = (tag, len(vs), labels[head])
                for v in vs[1:]:
                    rep[v] = head
                    drop.add(v)
            keep = [v for v in range(len(labels)) if v not in drop]
            remap = {v: i for i, v in enumerate(keep)}
            new_adj = []
            for v in keep:
                new_adj.append({remap[rep[w]] for w in adj[v] if rep[w] != rep[v]})
            adj = new_adj
            labels = [labels[v] for v in keep]
        if not changed:
            return adj, labels


# -- refinement and search -----------------------------------------------------


def _rank(keys: Sequence) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(adj: list[set[int]], colors: list[int]) -> list[int]:
    """1-WL colour refinement to a stable partition."""
    ncol = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(len(colors))]
        colors = _rank(sigs)
        ncol2 = len(set(colors))
        if ncol2 == ncol:
            return colors
        ncol = ncol2


def _ir_code(adj: list[set[int]], labels: list[Label]) -> bytes:
    n = len(labels)
    label_bytes = [repr(l).encode() for l in labels]
    colors = _refine(adj, _rank(label_bytes))

    best: list[bytes | None] = [None]
    best_order: list[list[int] | None] = [None]
    seen_terminal: dict[bytes, list[int]] = {}
    generators: list[list[int]] = []

    def encode(order: list[int]) -> bytes:
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        parts = [b"RGC1", n.to_bytes(4, "big")]
        for v in order:
            lb = label_bytes[v]
            parts.append(len(lb).to_bytes(4, "big"))
            parts.append(lb)
        bits = bytearray((n * (n - 1) // 2 + 7) // 8)
        for v in range(n):
            pv = pos[v]
            for w in adj[v]:
                pw = pos[w]
                if pv < pw:
                    k = pv * (2 * n - pv - 1) // 2 + (pw - pv - 1)
                    bits[k >> 3] |= 1 << (k & 7)
        parts.append(bytes(bits))
        return b"".join(parts)

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

    def search(colors: list[int], path: list[int]) -> None:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = sorted(cells[c])
                break
        if target is None:
            order = sorted(range(n), key=lambda v: colors[v])
            code = encode(order)
            if code in seen_terminal:
                other = seen_terminal[code]
                gamma = [0] * n
                for p in range(n):
                    gamma[other[p]] = order[p]
                if gamma != list(range(n)):
                    generators.append(gamma)
            else:
                seen_terminal[code] = order
            if best[0] is None or code < best[0]:
                best[0] = code
                best_order[0] = order
            return
        tried: list[int] = []
        for cand in target:
            if tried and cand in orbit_closure(tried, path):
                continue
            forked = [2 * c for c in colors]
            forked[cand] -= 1
            search(_refine(adj, _rank(forked)), path + [cand])
            tried.append(cand)

    search(colors, [])
    assert best[0] is not None
    return best[0]
