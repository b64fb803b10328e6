"""Reference code the tests check rigsim against; the pipeline runs none of it.

- One tree of a forest as parent pointers (``GWTree``, ``forest_tree``,
  ``sample_gw_tree``), projected to its clique tree through its bipartite
  incidence graph (``tree_to_bipartite``, ``clique_tree``,
  ``clique_tree_ball_from_tree``): the one-tree-at-a-time path that
  ``ballcode.forest_codes`` must agree with.
- ``probabilities`` of a map of counts, and ``tv_distance`` between
  probability maps, in floats.
- Rooted embedding (or homomorphism) counts by backtracking from the root
  (``rooted_emb_count``), and their Monte Carlo mean over sampled clique-tree
  balls (``rooted_emb_expectation_mc``): the independent check of the exact
  ``limits.rooted_emb_expectation``.
- Unrooted embedding counts by backtracking (``emb_backtrack``): the check
  of ``counting.emb_count``, which reduces embeddings to homomorphisms.
- Homomorphism or embedding counts over all h-tuples of host vertices at
  once (``all_maps_count``), for hosts small enough that n^h fits in memory.
- The moments of d* by the composition expansion over E binom(D1, j) and
  the moments of Z (``z_moment``, ``dstar_moment_compositions``): the check
  of ``limits.dstar_moment``, which takes them as hom limits of stars.
- d* and the weighted sums sum_i w(Z_i) drawn from depth-2 forests
  (``sample_dstar``, ``z_sums``), and rejection Monte Carlo for
  E[sum_i w(Z_i) | d* = k] (``conditional_mc``); and the same sums by
  convolving the Z pmf, zeros included, once per value of D1
  (``truncated_convolution``): the two checks of the thinned finite sums in
  ``limits``.
- Poisson and negative-binomial pmfs in 50-digit decimal arithmetic
  (``poisson_pmf_exact``, ``negative_binomial_pmf_exact``), and the pmf of a
  Poisson mixed over a Pareto weight by quadrature
  (``pareto_poisson_pmf_quad``): the checks of ``DegreeLaw.pmf``, which
  evaluates them in floats.
- Graph helpers only the tests use: ``validate`` (CSR invariants),
  ``degree_sequence``, ``part_degrees`` of a bipartite graph and the local
  distance ``loc_distance``.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from rigsim.ballcode import GWForest, forest_codes
from rigsim.counting import Pattern
from rigsim.graphs import BipartiteMultigraph, Graph, RootedGraph, ball, ball_adjacency, intersection_graph
from rigsim.laws import DegreeLaw
from rigsim.limits import DEFAULT_NODE_CAP, LimitSpec, sample_gw_forest


class CapExceeded(RuntimeError):
    """A tree taken out of a forest outgrew the node cap."""


class McEstimate(NamedTuple):
    """A Monte Carlo mean and its standard error."""

    value: float
    stderr: float


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


def forest_tree(forest: GWForest, i: int) -> GWTree:
    """Tree i of the forest alone; raises CapExceeded when it is capped."""
    if forest.capped[i]:
        raise CapExceeded(f"tree {i} exceeded the node cap")
    parents, first = [np.full(1, -1, dtype=np.int64)], 0  # first: id of the tree's first generation-k node
    for c, s in zip(forest.counts, forest.starts):
        own = c[s[i] : s[i + 1]]
        if not own.any():
            break
        parents.append(np.repeat(np.arange(first, first + own.size, dtype=np.int64), own))
        first += own.size
    gens = np.repeat(np.arange(len(parents), dtype=np.int64), [p.size for p in parents])
    return GWTree(np.concatenate(parents), gens)


def sample_gw_tree(
    D1: DegreeLaw, D2: DegreeLaw, depth: int, rng: np.random.Generator, node_cap: int = DEFAULT_NODE_CAP
) -> GWTree:
    """One tree of ``sample_gw_forest``; raises CapExceeded when it is capped."""
    return forest_tree(sample_gw_forest(D1, D2, depth, 1, rng, node_cap), 0)


def tree_to_bipartite(tree: GWTree) -> BipartiteMultigraph:
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


def clique_tree(tree: GWTree) -> Graph:
    """Project a tree to its clique tree; the root is vertex 0 (part-1 index 0
    by construction).  A depth-2r tree projects to its radius-r ball."""
    return intersection_graph(tree_to_bipartite(tree))


def clique_tree_ball_from_tree(tree: GWTree, r: int) -> RootedGraph:
    """The radius-r root ball of a (depth >= 2r) tree's clique tree."""
    return ball(clique_tree(tree), 0, r)


def probabilities(counts: Mapping[bytes, int]) -> dict[bytes, float]:
    """Each code's share of the total count."""
    total = sum(counts.values())
    return {code: c / total for code, c in counts.items()}


def tv_distance(p: Mapping[bytes, float], q: Mapping[bytes, float]) -> float:
    """Total variation distance between two probability maps; codes missing
    on one side carry mass 0 there.  ``math.fsum`` is exactly rounded, so the
    float does not depend on the order of the keys."""
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in p.keys() | q.keys())


def root_eccentricity(H: Pattern) -> int:
    """Largest distance from the root of H to one of its vertices."""
    if H.root is None:
        raise ValueError("pattern has no root")
    neighbors = lambda u: H.graph.neighbors(u).tolist()  # noqa: E731
    return next(r for r in range(H.h) if len(ball_adjacency(neighbors, H.root, r)) == H.h)


def rooted_emb_count(H: Pattern, G: Graph, v: int, hom_mode: bool = False) -> int:
    """Embeddings of the rooted pattern H into G that send its root to v
    (homomorphisms when ``hom_mode``), by backtracking from the root: the
    pattern vertices are placed in breadth-first order, each among the common
    neighbours of its placed neighbours' images."""
    if H.root is None:
        raise ValueError("rooted_emb_count needs a rooted pattern")
    if not 0 <= v < G.vertex_count:
        raise ValueError("host vertex out of range")
    adj = H.graph.adjacency_sets()
    order = [H.root]
    for x in order:  # breadth-first: the list grows while it is read
        order += sorted(adj[x] - set(order))
    back = [[u for u in order[:i] if u in adj[x]] for i, x in enumerate(order)]
    nbr = G.adjacency_sets()
    image = {H.root: v}

    def rec(i: int) -> int:
        if i == H.h:
            return 1
        cands = set.intersection(*(nbr[image[u]] for u in back[i]))
        if not hom_mode:
            cands -= set(image.values())
        total = 0
        for y in cands:
            image[order[i]] = y
            total += rec(i + 1)
        image.pop(order[i], None)
        return total

    return rec(1)


def rooted_emb_expectation_mc(
    spec: LimitSpec,
    H: Pattern,
    r: int,
    samples: int,
    rng: np.random.Generator,
    hom_mode: bool = False,
) -> McEstimate:
    """Monte Carlo E emb'(H, clique-tree ball, root) over sampled radius-r
    balls; requires the pattern radius to fit inside r.

    The count is a function of the ball's isomorphism class, so the trees
    are sampled and coded together and the count is taken once per class,
    on the clique tree of the class's first tree: a depth-2r tree projects to
    the radius-r ball itself."""
    if root_eccentricity(H) > r:
        raise ValueError("ball radius too small for the pattern")
    forest = sample_gw_forest(spec.D1, spec.D2, 2 * r, samples, rng)
    classes, _ = forest_codes(forest, r)
    # one tree per class; a capped tree, of class -1, raises CapExceeded here
    reps = np.unique(classes, return_index=True)[1].tolist()
    per_class = [rooted_emb_count(H, clique_tree(forest_tree(forest, i)), 0, hom_mode) for i in reps]
    counts = np.asarray(per_class, dtype=float)[classes]
    return McEstimate(float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf)


def emb_backtrack(h: int, edges: tuple[tuple[int, int], ...], g: Graph) -> int:
    """Embeddings of the pattern on 0..h-1 with these edges into g, by
    backtracking: the pattern vertices are placed in a connected order, each
    on an unused common neighbour of its placed neighbours' images (any
    unused vertex when none is placed)."""
    adj = [set() for _ in range(h)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order = [max(range(h), key=lambda x: len(adj[x]))]
    while len(order) < h:
        rest = [x for x in range(h) if x not in order]
        order.append(max(rest, key=lambda x: (len(adj[x] & set(order)), len(adj[x]))))
    back = [[u for u in order[:i] if u in adj[x]] for i, x in enumerate(order)]
    nbr = g.adjacency_sets()
    image: dict[int, int] = {}

    def rec(i: int) -> int:
        if i == h:
            return 1
        cands = set.intersection(*(nbr[image[u]] for u in back[i])) if back[i] else set(range(g.vertex_count))
        total = 0
        for y in cands - set(image.values()):
            image[order[i]] = y
            total += rec(i + 1)
        image.pop(order[i], None)
        return total

    return rec(0)


def all_maps_count(pattern: Pattern, g: Graph, injective: bool) -> int:
    """Maps of the pattern's vertices into g's that send every edge to an
    edge (and, when ``injective``, no two vertices together), counted over
    all n^h maps in one array."""
    n, h = g.vertex_count, pattern.h
    A = np.zeros((n, n), dtype=bool)
    for a, b in g.edges():
        A[a, b] = A[b, a] = True
    maps = np.indices((n,) * h).reshape(h, -1)
    ok = np.ones(maps.shape[1], dtype=bool)
    for a, b in pattern.edge_tuple():
        ok &= A[maps[a], maps[b]]
    if injective:
        for i in range(h):
            for j in range(i + 1, h):
                ok &= maps[i] != maps[j]
    return int(ok.sum())


def z_moment(D2: DegreeLaw, j: int) -> float:
    """E Z^j = E (D2 - 1)^j D2 / E D2 for Z ~ size_biased(D2) - 1.
    Raises MomentUnavailable when a required D2 moment is infinite."""
    if j < 0:
        raise ValueError("moment order must be non-negative")
    m = float(D2.mean())
    total = 0.0
    for i in range(j + 1):
        total += math.comb(j, i) * (-1) ** (j - i) * float(D2.raw_moment(i + 1))
    return total / m


def _compositions(k: int) -> Iterable[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to k."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def dstar_moment_compositions(spec: LimitSpec, k: int) -> float:
    """E (d*)^k via the composition expansion over E binom(D1, j) and E Z^k_i.
    Raises MomentUnavailable when a required D1 or D2 moment is infinite."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if spec.degenerate_root:
        return 0.0
    zraw = [z_moment(spec.D2, j) for j in range(k + 1)]
    total = 0.0
    for parts in _compositions(k):
        j = len(parts)
        multinom = math.factorial(k)
        for p in parts:
            multinom //= math.factorial(p)
        ed1j = float(spec.D1.factorial_moment(j)) / math.factorial(j)
        if ed1j == 0.0:
            continue
        prod = 1.0
        for p in parts:
            prod *= zraw[p]
        total += multinom * ed1j * prod
    return total


# -- pmfs in 50-digit decimals, and by quadrature ----------------------------------

_DECIMAL = decimal.Context(prec=50)


def poisson_pmf_exact(k: int, lam: float) -> Decimal:
    """P(Po(lam) = k) = lam^k e^-lam / k!."""
    if k < 0:
        return Decimal(0)
    with decimal.localcontext(_DECIMAL):
        lam = Decimal(lam)
        return lam**k * (-lam).exp() / math.factorial(k)


def negative_binomial_pmf_exact(k: int, shape: float, rate: float) -> Decimal:
    """P(X = k) for X Poisson with a gamma(shape, rate) rate: the rising
    factorial shape^(k) / k! times p^shape (1 - p)^k, p = rate / (1 + rate)."""
    if k < 0:
        return Decimal(0)
    with decimal.localcontext(_DECIMAL):
        n, rate = Decimal(shape), Decimal(rate)
        p = rate / (1 + rate)
        rising = math.prod((n + i for i in range(k)), start=Decimal(1))
        return rising / math.factorial(k) * (n * p.ln()).exp() * (1 - p) ** k


def pareto_poisson_pmf_quad(k: int, a: float, s: float) -> float:
    """P(D = k) for D Poisson with a Pareto(shape a, scale s) rate: the
    integral over the weight x > s of e^-x x^k / k! against its density
    a s^a x^(-a-1), by ``scipy.integrate.quad`` in log form, split at the
    integrand's mode."""
    from scipy import integrate

    log_c = math.log(a) + a * math.log(s) - math.lgamma(k + 1)
    f = lambda x: math.exp(log_c + (k - a - 1) * math.log(x) - x)  # noqa: E731
    mode = max(s, k - a - 1)
    cuts = sorted({s, mode, mode + 10 * math.sqrt(k + 1) + 50, math.inf})
    return math.fsum(integrate.quad(f, lo, hi, epsabs=0, epsrel=2e-14, limit=400)[0] for lo, hi in zip(cuts, cuts[1:]))


# -- d* by sampling, and by convolution per value of D1 ----------------------------


def z_sums(forest: GWForest, weight: Callable[[np.ndarray], np.ndarray] = lambda z: z) -> np.ndarray:
    """sum_i w(Z_i) for each tree of an uncapped depth-2 forest (d* for the
    identity w), by one np.add.reduceat over the trees whose D1 draw is not
    0; the others draw no Z and sum to 0."""
    nz = np.flatnonzero(forest.counts[0])
    if not nz.size:
        return np.zeros(forest.samples, dtype=np.int64)
    wz = weight(forest.counts[1])
    sums = np.zeros(forest.samples, dtype=wz.dtype)
    sums[nz] = np.add.reduceat(wz, forest.starts[1][nz])
    return sums


def sample_dstar(spec: LimitSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """iid samples of d* = sum_{i<=D1} Z_i (vectorized)."""
    return z_sums(sample_gw_forest(spec.D1, spec.D2, 2, size, rng, math.inf))


def conditional_mc(
    spec: LimitSpec, k: int, weight: Callable[[np.ndarray], np.ndarray], samples: int, rng: np.random.Generator
) -> McEstimate:
    """Rejection Monte Carlo for E[sum_i w(Z_i) | d* = k] over ``samples``
    trees drawn in batches.  The weighted sums are integers held in floats,
    so their order of summation does not matter."""
    accepted: list[np.ndarray] = []
    batch = max(10000, samples // 10)
    drawn = 0
    while drawn < samples:
        m = min(batch, samples - drawn)
        drawn += m
        forest = sample_gw_forest(spec.D1, spec.D2, 2, m, rng, math.inf)
        hits = z_sums(forest) == k
        if hits.any():  # k >= 1, so these trees drew Z
            accepted.append(z_sums(forest, lambda z: weight(z.astype(np.float64)))[hits])
    if not accepted:
        raise RuntimeError(f"no Monte Carlo acceptances for d* = {k}")
    arr = np.concatenate(accepted)
    return McEstimate(float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf)


def truncated_convolution(
    spec: LimitSpec, k: int, weight: Callable[[int], float], n_max: int = 400
) -> tuple[float, float]:
    """(E[sum_i w(Z_i); d* = k], P(d* = k)) by convolving the Z pmf, zeros
    included, once for each value n of D1 up to its largest support point,
    or up to ``n_max`` for an unbounded D1: the caller picks laws whose mass
    past ``n_max`` is negligible.  This is how ``limits`` took these sums
    before it thinned D1 to the non-zero Z_i."""
    m2 = float(spec.D2.mean())
    z = np.array([(m + 1) * spec.D2.pmf(m + 1) / m2 for m in range(k + 1)])
    wz = np.array([weight(m) for m in range(k + 1)]) * z
    top = spec.D1.max_support()
    num = pk = 0.0
    prev, conv = None, np.eye(1, k + 1)[0]  # the sum of zero Z's
    for n, pn in enumerate(spec.D1.pmf_vector(n_max if top is None else top)):
        if n > 0:
            prev, conv = conv, np.convolve(conv, z)[: k + 1]
        if pn > 0:
            pk += pn * conv[k]
            if n > 0:
                num += pn * n * float(np.dot(wz, prev[k::-1]))
    return num, pk


# -- graph helpers the pipeline does not use ---------------------------------------


def validate(g: Graph) -> None:
    """Check the CSR invariants that construction guarantees: sorted, unique,
    in-range, loop-free and symmetric adjacency."""
    n = g.vertex_count
    assert g.indptr.shape == (n + 1,) and g.indptr[0] == 0
    for v in range(n):
        nbrs = g.neighbors(v)
        assert (np.diff(nbrs) > 0).all() if nbrs.size > 1 else True, "adjacency not sorted/unique"
        assert not (nbrs == v).any(), "self-loop"
        if nbrs.size:
            assert nbrs.min() >= 0 and nbrs.max() < n
        for w in nbrs:
            assert g.has_edge(int(w), v), "adjacency not symmetric"


def degree_sequence(g: Graph) -> list[int]:
    """Degrees of all vertices in index order."""
    return [int(d) for d in g.degrees()]


def part_degrees(H: BipartiteMultigraph, part: int) -> np.ndarray:
    """Degrees (with multiplicity) of all vertices in the given part (1 or 2)."""
    if part == 1:
        return np.bincount(H.edge_u, weights=H.mult, minlength=H.n1).astype(np.int64)
    if part == 2:
        return np.bincount(H.edge_w, weights=H.mult, minlength=H.n2).astype(np.int64)
    raise ValueError("part must be 1 or 2")


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
