"""Two-type branching trees and their clique-tree balls.

The tree has root offspring ~ D1 and, deeper, offspring distributed as the
size-biased law minus one of the type that alternates by generation (odd
generations are attributes).  Interpreting generations of even/odd parity as
the two parts of a bipartite graph and projecting onto the even part yields
the random clique tree whose radius-r ball around the root only depends on
the first 2r generations, so sampling truncates there.

A Monte Carlo sample of the ball law (``rigsim balls --config``, the tests'
oracle of ``limits.limit_ball_probabilities``) draws one offspring array per
generation for all its trees (``sample_gw_forest``) and codes them together
(``ballcode.forest_codes``); ``converge`` samples none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .ballcode import forest_codes
from .counting import _cumsum0
from .laws import DegreeLaw, offspring_law

__all__ = [
    "GWForest",
    "CodeHistogram",
    "sample_gw_forest",
    "ball_distribution_mc",
    "count_tv",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 10**7
CAP_BUCKET = b"__cap_exceeded__"
NON_BLOCK_BUCKET = b"__not_a_block_graph__"


@dataclass(frozen=True)
class GWForest:
    """Independent trees truncated after ``depth`` generations.

    Generation k lists the generation-k nodes of tree 0, then of tree 1, and
    so on.  Node j of generation k has ``counts[k][j]`` children, the next
    ones of generation k + 1, and tree i's generation-k nodes are
    ``starts[k][i]`` up to ``starts[k][i + 1]``.  There is one array of each
    per generation that drew offspring.  A capped tree outgrew the node cap;
    the offspring it drew then are set to 0."""

    depth: int
    counts: tuple[np.ndarray, ...]
    starts: tuple[np.ndarray, ...]
    capped: np.ndarray  # one flag per tree

    @property
    def samples(self) -> int:
        return int(self.capped.size)


def _add_starts(starts: list[np.ndarray], counts: list[np.ndarray], samples: int, k: int) -> None:
    """Extend ``starts`` to generations 0..k."""
    while len(starts) <= k:
        j = len(starts)
        starts.append(np.arange(samples + 1, dtype=np.int64) if j == 0 else _cumsum0(counts[j - 1])[starts[j - 1]])


def sample_gw_forest(
    D1: DegreeLaw,
    D2: DegreeLaw,
    depth: int,
    samples: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
) -> GWForest:
    """Sample ``samples`` trees, each generation of every tree in one draw.

    Root offspring ~ D1; a node in generation k >= 1 has offspring count
    distributed as the size-biased D2 (k odd) or D1 (k even) minus one, a
    law made only once reached (D1 == 0 gives single-node trees).  A tree
    whose node count would pass ``node_cap`` is capped and draws nothing
    more.  The starts are built after the last draw, out of its peak memory,
    unless the whole forest passes the cap before."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if samples < 1:
        raise ValueError("need at least one sample")
    counts: list[np.ndarray] = []
    starts: list[np.ndarray] = []
    capped = np.zeros(samples, dtype=bool)
    sizes = None  # nodes per tree so far
    total = n = samples
    for k in range(depth):
        if n == 0:
            break
        c = (D1 if k == 0 else offspring_law(D2 if k % 2 else D1)).sample(rng, n)
        n = int(c.sum())
        if sizes is not None or total + n > node_cap:
            _add_starts(starts, counts, samples, k)
            if sizes is None:
                sizes = sum(np.diff(s) for s in starts)
            new = np.diff(_cumsum0(c)[starts[k]])
            over = sizes + new > node_cap
            capped |= over
            c[np.repeat(over, np.diff(starts[k]))] = 0
            new[over] = 0
            n = int(new.sum())
            sizes += new
        total += n
        counts.append(c)
    _add_starts(starts, counts, samples, len(counts) - 1)
    return GWForest(depth, tuple(counts), tuple(starts), capped)


@dataclass
class CodeHistogram:
    """Empirical distribution over canonical ball codes.

    ``counts`` maps code -> occurrences.  Two reserved keys hold balls that
    no code of the other side of a comparison with the clique-tree limit can
    match, so each carries full weight in the total variation whatever its
    code: ``CAP_BUCKET`` collects the reference's samples whose tree hit the
    node cap (the conservative choice), and ``NON_BLOCK_BUCKET`` the
    graph-side balls that are not block graphs, which no clique-tree ball
    is."""

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


def count_tv(c: Mapping[object, int], N: int, d: Mapping[object, int], M: int) -> float:
    """Total variation distance between counts ``c`` out of N and ``d`` out
    of M, sum_k |c_k M - d_k N| / (2 N M): summed on integers and divided
    once, so it is exactly rounded and does not depend on key order.  A key
    missing on one side counts 0 there.  Counts both sides share may be left
    out when N == M, since they cancel."""
    if N < 1 or M < 1:
        raise ValueError("total variation needs two non-empty samples")
    num = sum(abs(c.get(k, 0) * M - d.get(k, 0) * N) for k in c.keys() | d.keys())
    return float(Fraction(num, 2 * N * M))


def ball_distribution_mc(
    D1: DegreeLaw,
    D2: DegreeLaw,
    r: int,
    samples: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CodeHistogram:
    """Monte Carlo distribution of the code of the radius-r clique tree ball:
    the first 2r generations of ``samples`` trees, sampled and coded
    together; capped trees go to ``CAP_BUCKET``."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    forest = sample_gw_forest(D1, D2, 2 * r, samples, rng, node_cap)
    classes, codes = forest_codes(forest, r)
    hist = CodeHistogram()
    for code, k in zip(codes, np.bincount(classes[classes >= 0], minlength=len(codes)).tolist()):
        hist.add(code, k)
    capped = int(forest.capped.sum())
    if capped:
        hist.add(CAP_BUCKET, capped)
    return hist
