"""Two-type branching trees and their clique-tree balls.

The tree has root offspring ~ D1 and, deeper, offspring distributed as the
size-biased law minus one of the type that alternates by generation (odd
generations are attributes).  Interpreting generations of even/odd parity as
the two parts of a bipartite graph and projecting onto the even part yields
the random clique tree whose radius-r ball around the root only depends on
the first 2r generations, so sampling truncates there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .ballcode import clique_sizes_code, tree_ball_code
from .graphs import BipartiteMultigraph, RootedGraph, ball, intersection_graph
from .laws import DegreeLaw, offspring_law

__all__ = [
    "CapExceeded",
    "GWTree",
    "CliqueTreeBall",
    "CodeHistogram",
    "sample_gw_tree",
    "sample_clique_tree_ball",
    "ball_distribution_mc",
    "tv_distance",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 10**7
CAP_BUCKET = b"__cap_exceeded__"


class CapExceeded(RuntimeError):
    """A sampled tree outgrew the node cap (supercritical runaway)."""


@dataclass(frozen=True)
class GWTree:
    """Rooted tree as parent pointers; node 0 is the root, nodes are numbered
    in breadth-first (generation) order."""

    parents: np.ndarray  # parent id per node, -1 for the root
    generation: np.ndarray

    @property
    def node_count(self) -> int:
        return int(self.parents.size)

    @property
    def depth(self) -> int:
        return int(self.generation.max()) if self.node_count else 0


def sample_gw_tree(
    D1: DegreeLaw,
    D2: DegreeLaw,
    depth: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
) -> GWTree:
    """Sample the two-type tree truncated after ``depth`` generations.

    Root offspring ~ D1; a node in generation k >= 1 has offspring count
    distributed as the size-biased D2 (k odd) or D1 (k even) minus one.
    Zero-mean laws are fine as long as their size-biased version is never
    reached (e.g. D1 == 0 gives the single-node tree).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    parents = [np.full(1, -1, dtype=np.int64)]
    gens = [np.zeros(1, dtype=np.int64)]
    total = 1
    gen_ids = np.zeros(1, dtype=np.int64)
    offspring: dict[int, DegreeLaw] = {}
    for k in range(depth):
        if gen_ids.size == 0:
            break
        if k == 0:
            counts = D1.sample(rng, 1)
        else:
            parity = k % 2
            if parity not in offspring:
                offspring[parity] = offspring_law(D2 if parity == 1 else D1)
            counts = offspring[parity].sample(rng, gen_ids.size)
        n_new = int(counts.sum())
        if total + n_new > node_cap:
            raise CapExceeded(f"tree exceeded node cap {node_cap} at generation {k + 1}")
        if n_new == 0:
            break
        parents.append(np.repeat(gen_ids, counts))
        gens.append(np.full(n_new, k + 1, dtype=np.int64))
        gen_ids = np.arange(total, total + n_new, dtype=np.int64)
        total += n_new
    return GWTree(np.concatenate(parents), np.concatenate(gens))


@dataclass(frozen=True)
class CliqueTreeBall:
    """Radius-r ball of the clique tree around its root, plus the tree depth
    (2r) it was derived from."""

    rooted: RootedGraph
    tree_depth: int


def _tree_to_bipartite(tree: GWTree) -> BipartiteMultigraph:
    """Even generations become part 1, odd ones part 2, each numbered in node
    order; every tree edge becomes one incidence."""
    even = tree.generation % 2 == 0
    index = np.where(even, np.cumsum(even), np.cumsum(~even)) - 1
    child = np.arange(1, tree.node_count)
    parent = tree.parents[child]
    child_even = even[child]
    pairs = np.stack(
        [np.where(child_even, index[child], index[parent]), np.where(child_even, index[parent], index[child])],
        axis=1,
    )
    return BipartiteMultigraph.from_pairs(int(even.sum()), max(int((~even).sum()), 1), pairs)


def clique_tree_ball_from_tree(tree: GWTree, r: int) -> CliqueTreeBall:
    """Project a (depth >= 2r) tree to its clique tree and take the radius-r
    root ball.  The root is part-1 index 0 by construction."""
    G = intersection_graph(_tree_to_bipartite(tree))
    return CliqueTreeBall(ball(G, 0, r), 2 * r)


def sample_clique_tree_ball(
    D1: DegreeLaw,
    D2: DegreeLaw,
    r: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CliqueTreeBall:
    if r < 0:
        raise ValueError("radius must be non-negative")
    tree = sample_gw_tree(D1, D2, 2 * r, rng, node_cap)
    return clique_tree_ball_from_tree(tree, r)


@dataclass
class CodeHistogram:
    """Empirical distribution over canonical ball codes.

    ``counts`` maps code -> occurrences; the reserved key ``CAP_BUCKET``
    collects samples whose tree hit the node cap (they carry full weight in
    total-variation comparisons, which is the conservative choice)."""

    counts: dict[bytes, int] = field(default_factory=dict)
    total: int = 0

    def add(self, code: bytes, k: int = 1) -> None:
        self.counts[code] = self.counts.get(code, 0) + k
        self.total += k

    def probabilities(self) -> dict[bytes, float]:
        return {c: k / self.total for c, k in self.counts.items()}

    def to_rows(self) -> list[dict]:
        rows = []
        for code in sorted(self.counts):
            rows.append(
                {
                    "code_hex": code.hex(),
                    "count": self.counts[code],
                    "probability": self.counts[code] / self.total,
                }
            )
        return rows


def tv_distance(p: Mapping[bytes, float], q: Mapping[bytes, float]) -> float:
    """Total variation distance; codes missing on one side carry mass 0 there.

    Keys are summed in sorted order so the float result is bit-identical
    across runs (set order would follow the salted bytes hash)."""
    keys = sorted(set(p) | set(q))
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def ball_distribution_mc(
    D1: DegreeLaw,
    D2: DegreeLaw,
    r: int,
    samples: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CodeHistogram:
    """Monte Carlo distribution of the code of the radius-r clique tree ball.

    Radius-1 balls are a join of cliques at the root, determined by the
    multiset of non-trivial attribute offspring counts, so sampling is
    batched and each distinct multiset is coded once; larger radii sample
    trees one by one and code each straight from its parent pointers.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    hist = CodeHistogram()
    if r == 0:
        hist.add(clique_sizes_code(()), samples)
        return hist
    if r == 1:
        d1s = D1.sample(rng, samples)
        total = int(d1s.sum())
        zs = offspring_law(D2).sample(rng, total) if total else np.empty(0, dtype=np.int64)
        groups, capped = radius1_groups(d1s, zs, node_cap)
        for sizes, count in groups.items():
            hist.add(clique_sizes_code(sizes), count)
        if capped:
            hist.add(CAP_BUCKET, capped)
        return hist
    for _ in range(samples):
        try:
            tree = sample_gw_tree(D1, D2, 2 * r, rng, node_cap)
        except CapExceeded:
            hist.add(CAP_BUCKET)
            continue
        hist.add(tree_ball_code(tree.parents.tolist(), tree.generation.tolist(), r))
    return hist


_R1_CHUNK = 1 << 12  # samples per numpy pass: temporaries of ~100 kB keep peak memory flat


def radius1_groups(
    d1s: np.ndarray, zs: np.ndarray, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[dict[tuple[int, ...], int], int]:
    """Group radius-1 draws by their sorted multiset of positive clique sizes.

    Sample i owns the attribute offspring counts ``zs[o_i : o_i + d1s[i]]``
    (o the running sum of ``d1s``).  Returns the count per multiset and the
    number of samples whose ball, 1 + d1 + sum of sizes vertices, exceeds
    ``node_cap``.  Samples are taken in chunks, so no temporary outgrows
    ``zs``.
    """
    groups: dict[tuple[int, ...], int] = {}
    capped = 0
    zstart = 0
    for a in range(0, d1s.size, _R1_CHUNK):
        counts = d1s[a : a + _R1_CHUNK]
        n = counts.size
        seg = zs[zstart : zstart + int(counts.sum())]
        zstart += seg.size
        ids = np.repeat(np.arange(n), counts)
        ends = np.cumsum(counts)
        csum = np.concatenate([[0], np.cumsum(seg)])
        over = 1 + counts + csum[ends] - csum[ends - counts] > node_cap
        capped += int(over.sum())
        keep = (seg > 0) & ~over[ids]
        ids, z = ids[keep], seg[keep]
        m = np.bincount(ids, minlength=n)  # positive sizes per sample
        empty = int(n - over.sum() - np.count_nonzero(m))
        if empty:
            groups[()] = groups.get((), 0) + empty
        if not z.size:
            continue
        mz = m[ids]
        order = np.lexsort((z, ids, mz))  # by multiset size, sample, size
        z, mz = z[order], mz[order]
        bounds = np.flatnonzero(np.diff(mz)) + 1
        for s, e in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [z.size]])):
            rows = z[s:e].reshape(-1, int(mz[s]))
            rows = rows[np.lexsort(rows.T[::-1])]  # np.unique(axis=0) sorts far slower
            firsts = np.flatnonzero(np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)]))
            num = np.diff(np.append(firsts, len(rows)))
            for row, c in zip(rows[firsts].tolist(), num.tolist()):
                key = tuple(row)
                groups[key] = groups.get(key, 0) + c
    return groups, capped
