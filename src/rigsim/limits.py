"""Exact evaluation of the limit quantities.

Everything is driven by a ``LimitSpec`` holding the two degree laws (D1, D2)
of the branching process, usually obtained from a model via the Poisson
identifications (active: D2 ~ Po(E D1 / beta); passive: D1 ~ Po(beta E D2);
inhomogeneous: both mixed Poisson in the scaled weights).  The root degree of
the clique tree is d* = sum_{i=1}^{D1} Z_i with Z_i iid distributed as the
size-biased D2 minus one.

Every count limit is the one local-to-global relation

  hom(H, G_n) / n  ->  E hom'(H, (T, o))  =  sum over the coincidence
                       quotients H/theta of E emb'(H/theta, (T, o)),

with E emb' exact by ``rooted_emb_expectation``.  Degree moments, the
clustering coefficient and the assortativity are the same ratios of these
limits that ``rigsim.stats`` takes of the counts on a finite graph.

The root degree pmf and the degree-conditioned quantities (conditional
clustering / assortativity) are finite sums.  Only the non-zero Z_i add to
d*: with p = P(Z >= 1), their number is D1' ~ Bin(D1, p) (``laws.thinned``)
and each is distributed as Z' = (Z | Z >= 1) >= 1, so d* = k needs at most k
of them, and k convolutions of the Z' pmf give P(d* = k) with no truncation.
The same thinned pmfs, with D1* - 1 thinned for the deeper vertices, give
each radius-r ball its probability as a finite product over its block tree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from .counting import MAX_PATTERN_VERTICES, Pattern, _coincidence_terms, clique_families, pattern_from_name
from .generators import ModelConfig
from .graphs import Graph
from .laws import DegreeLaw, MomentUnavailable, WeightLaw, offspring_law, thinned

__all__ = [
    "LimitSpec",
    "Estimate",
    "remark1_limits",
    "limit_spec_for",
    "dstar_moment",
    "limit_degree_pmf",
    "limit_degree_pmf_vector",
    "limit_ball_probabilities",
    "limit_clustering",
    "limit_assortativity",
    "limit_conditional_clustering",
    "limit_conditional_assortativity",
    "rooted_emb_expectation",
    "limit_emb_per_vertex",
    "limit_hom_per_vertex",
]


@dataclass(frozen=True)
class Estimate:
    """An exact limit value; ``degenerate`` marks a ratio whose denominator
    limit is 0, reported as 0."""

    value: float
    degenerate: bool = False


@dataclass(frozen=True)
class LimitSpec:
    """Branching-process laws (D1, D2) plus how they were identified."""

    D1: DegreeLaw
    D2: DegreeLaw
    provenance: str = "direct"
    beta: float | None = None

    def __post_init__(self) -> None:
        m1, m2 = float(self.D1.mean()), float(self.D2.mean())
        if not (0 <= m1 < math.inf and 0 <= m2 < math.inf):
            raise ValueError("E D1 and E D2 must be finite and non-negative")
        if m1 > 0 and m2 <= 0:
            # with a childless root D2 never enters; otherwise it must be usable
            raise ValueError("E D2 must be positive when E D1 > 0")
        if self.provenance.startswith("remark1"):
            if self.beta is None:
                raise ValueError("remark1 provenance needs beta")
            if abs(self.beta * m2 - m1) > 1e-9 * max(1.0, m1):
                raise ValueError("identification violated: beta E D2 must equal E D1")

    @property
    def degenerate_root(self) -> bool:
        """True when E D1 = 0, i.e. d* = 0 almost surely."""
        return float(self.D1.mean()) == 0.0


def remark1_limits(model: str, beta: float, P: DegreeLaw | None = None,
                   xi1: WeightLaw | None = None, xi2: WeightLaw | None = None) -> LimitSpec:
    """Limit laws for the active / passive / inhomogeneous models.

    active: D1 = P and D2 ~ Po(E P / beta); passive: D2 = P and
    D1 ~ Po(beta E P); inhomogeneous: D1 ~ Po(sqrt(beta) xi1 E xi2) and
    D2 ~ Po(xi2 E xi1 / sqrt(beta)), i.e. mixed Poisson in the scaled weights.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if model == "active":
        if P is None:
            raise ValueError("active model needs P")
        lam = float(P.mean()) / beta
        D2 = DegreeLaw.poisson(lam) if lam > 0 else DegreeLaw.constant(0)  # Po(0) = point mass 0
        return LimitSpec(P, D2, "remark1-active", beta)
    if model == "passive":
        if P is None:
            raise ValueError("passive model needs P")
        lam = beta * float(P.mean())
        D1 = DegreeLaw.poisson(lam) if lam > 0 else DegreeLaw.constant(0)
        return LimitSpec(D1, P, "remark1-passive", beta)
    if model == "inhomogeneous":
        if xi1 is None or xi2 is None:
            raise ValueError("inhomogeneous model needs xi1 and xi2")
        w1 = xi1.scaled(math.sqrt(beta) * xi2.mean())
        w2 = xi2.scaled(xi1.mean() / math.sqrt(beta))
        return LimitSpec(
            DegreeLaw.mixed_poisson(w1), DegreeLaw.mixed_poisson(w2), "remark1-inhomogeneous", beta
        )
    raise ValueError(f"remark1_limits does not apply to model {model!r}")


def limit_spec_for(config: ModelConfig) -> LimitSpec:
    """LimitSpec of a model configuration (configuration model: direct laws)."""
    if config.model == "configuration":
        return LimitSpec(config.D1, config.D2, "direct", config.beta)
    return remark1_limits(config.model, config.beta, P=config.P, xi1=config.xi1, xi2=config.xi2)


# -- moments ---------------------------------------------------------------------


def dstar_moment(spec: LimitSpec, k: int) -> Estimate:
    """E (d*)^k, the limit of (1/n) sum_v d(v)^k = hom(S_k, G_n) / n: the hom
    limit of the star S_k, so k is at most MAX_PATTERN_VERTICES - 1.
    Raises MomentUnavailable when the limit is infinite."""
    if not 1 <= k < MAX_PATTERN_VERTICES:
        raise ValueError(
            f"moment order must be between 1 and {MAX_PATTERN_VERTICES - 1}: the star S_k has k + 1 vertices, "
            f"and patterns have at most {MAX_PATTERN_VERTICES}"
        )
    return limit_hom_per_vertex(spec, pattern_from_name(f"S{k}"))


# -- degree pmf -------------------------------------------------------------------


def _thinning(spec: LimitSpec) -> tuple[float, Callable[[int], float]]:
    """p = P(Z >= 1), 0 when E D1 = 0 (d* = 0 almost surely), and k -> P(Z' = k)
    for k >= 1, Z' = (Z | Z >= 1), where P(Z = k) = (k+1) P(D2 = k+1) / E D2."""
    m2 = float(spec.D2.mean())
    p = 0.0 if spec.degenerate_root else 1.0 - spec.D2.pmf(1) / m2
    return p, lambda k: (k + 1) * spec.D2.pmf(k + 1) / m2 / p


def _thinned_laws(spec: LimitSpec, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(pmf of Z', pmf of D1' ~ Bin(D1, p)) on 0..kmax, so that
    d* = sum_{j <= D1'} Z'_j; D1' = 0 when d* = 0 almost surely (E D1 = 0,
    or Z = 0)."""
    p, z = _thinning(spec)
    if p <= 0:
        return np.zeros(kmax + 1), np.eye(1, kmax + 1)[0]
    return np.array([0.0] + [z(k) for k in range(1, kmax + 1)]), thinned(spec.D1, p).pmf_vector(kmax)


def _d1_sums(z: np.ndarray, d1p: np.ndarray) -> Iterator[tuple[int, float, np.ndarray | None, np.ndarray]]:
    """(n, P(D1' = n), pmf of the (n-1)-fold Z' sum, pmf of the n-fold Z'
    sum) for each n with P(D1' = n) = d1p[n] > 0, given the Z' pmf ``z``;
    both sum pmfs are truncated at len(z) - 1, below which they are exact,
    and the (n-1)-fold one is None at n = 0."""
    prev = None
    conv = np.zeros(z.size)
    conv[0] = 1.0  # sum of zero Z's
    for n, pn in enumerate(d1p):
        if n > 0:
            prev, conv = conv, np.convolve(conv, z)[: z.size]
        if pn > 0:
            yield n, pn, prev, conv


def limit_degree_pmf_vector(spec: LimitSpec, kmax: int) -> np.ndarray:
    """Exact pmf of d* on 0..kmax: the n-fold Z' sum is at least n, so
    D1' <= kmax terms give every mass up to kmax."""
    out = np.zeros(kmax + 1)
    for _, pn, _, conv in _d1_sums(*_thinned_laws(spec, kmax)):
        out += pn * conv
    return out


def limit_ball_probabilities(spec: LimitSpec, r: int, balls: Sequence[tuple]) -> list[float]:
    """Exact probability of each radius-r clique-tree ball, given by its block
    tree (``ballcode.block_tree``).  A vertex at depth d < r lies in K ~
    Bin(D1, p) non-empty cliques at the root, Bin(D1* - 1, p) deeper, with
    p = P(Z >= 1), each of Z' = (Z | Z >= 1) other members; a vertex at depth
    r is a leaf.  So a vertex or clique with k iid children, m_j equal to the
    j-th distinct one, has probability P(K = k) (or P(Z' = k)) k! / prod_j
    m_j! times its children's, summed in logs once per subtree and depth.
    With p = 0 or E D1 = 0 the ball is the root alone."""
    if not r:
        return [1.0] * len(balls)
    p, z = _thinning(spec)
    if p <= 0:
        return [float(not ball) for ball in balls]
    counts = (thinned(spec.D1, p), thinned(offspring_law(spec.D1), p) if r >= 2 else None)

    @cache
    def log_pmf(t: int, k: int) -> float:  # of K at the root (t = 0) or deeper (t = 2), of Z' (t = 1)
        x = z(k) if t == 1 else counts[t // 2].pmf(k)
        return math.log(x) if x > 0 else -math.inf

    @cache
    def log_prob(node: tuple, t: int) -> float:  # a vertex (t = 2d) or a clique (t = 2d + 1) of depth d
        first = log_pmf(1 if t % 2 else min(t, 2), len(node))
        if t == 2 * r - 1:  # childless members, one class: no other factor
            return first
        # equal children are adjacent, as a code sorts them
        orderings = math.lgamma(len(node) + 1) - sum(math.lgamma(len(list(g)) + 1) for _, g in groupby(node))
        return orderings + math.fsum([first, *(log_prob(c, t + 1) for c in node)])

    return [math.exp(log_prob(ball, 0)) for ball in balls]


def limit_degree_pmf(spec: LimitSpec, k: int) -> Estimate:
    """P(d* = k), exact."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return Estimate(float(limit_degree_pmf_vector(spec, k)[k]))


# -- headline statistics ------------------------------------------------------------


def limit_clustering(spec: LimitSpec) -> Estimate:
    """Limit clustering coefficient, emb(K3) / emb(P3) in the limit; 0
    (degenerate) when the P3 limit is 0."""
    den = limit_emb_per_vertex(spec, pattern_from_name("P3")).value
    if den == 0.0:
        return Estimate(0.0, degenerate=True)
    return Estimate(limit_emb_per_vertex(spec, pattern_from_name("K3")).value / den)


def limit_assortativity(spec: LimitSpec) -> Estimate:
    """Limit assortativity (2e P - S1^2) / (2e S2 - S1^2) over the hom limits
    2e, S1, S2, P of K2, P3, S3, P4, as ``stats.assortativity`` takes it of
    the counts; raises for degenerate (regular-limit) inputs."""
    two_e, S1, S2, P = (limit_hom_per_vertex(spec, pattern_from_name(name)).value
                        for name in ("K2", "P3", "S3", "P4"))
    if S1 - two_e * two_e <= 1e-12 * max(1.0, S1):
        raise ValueError("degenerate: regular limit (Var(d*) = 0)")
    den = two_e * S2 - S1 * S1
    if abs(den) <= 1e-12 * max(1.0, two_e * S2):
        raise ValueError("degenerate: assortativity denominator vanishes")
    return Estimate((two_e * P - S1 * S1) / den)


# -- conditional statistics -----------------------------------------------------------


def _conditional(spec: LimitSpec, k: int, weight: Callable[[int], float], scale: int) -> Estimate:
    """E[sum_i w(Z_i) | d* = k] / scale, exactly, for a weight with w(0) = 0:
    the sum runs over the D1' non-zero Z_i only.  The value is
    num / (scale * pk) in one division, which rounds differently from
    (num / pk) / scale in about one case in five."""
    z, d1p = _thinned_laws(spec, k)
    wz = np.array([weight(m) for m in range(k + 1)]) * z
    num = pk = 0.0
    for n, pn, conv_prev, conv in _d1_sums(z, d1p):
        pk += pn * conv[k]
        if n > 0:
            # symmetry: n identical terms, condition through the (n-1)-fold sum
            num += pn * n * float(np.dot(wz, conv_prev[k::-1]))
    if pk <= 0:
        raise ValueError(f"P(d* = {k}) = 0; conditional limit undefined")
    return Estimate(num / (scale * pk))


def limit_conditional_clustering(spec: LimitSpec, k: int) -> Estimate:
    """Limit conditional clustering coefficient alpha_k* =
    E[sum_i (Z_i)_2 | d* = k] / (k (k-1)), exact."""
    if k < 2:
        raise ValueError("conditional clustering needs k >= 2")
    return _conditional(spec, k, lambda m: m * (m - 1), k * (k - 1))


def limit_conditional_assortativity(spec: LimitSpec, k: int) -> Estimate:
    """Limit conditional assortativity r_k*: the conditional second-moment
    term E[sum_i Z_i^2 | d* = k] / k plus the additive term
    E (D1)_2 E (D2)_2 / (E D1 E D2), both exact."""
    if k < 1:
        raise ValueError("conditional assortativity needs k >= 1")
    # an infinite moment raises before the sums run; the division waits for
    # the helper, which rejects E D1 = 0
    d1_2, d2_2 = float(spec.D1.factorial_moment(2)), float(spec.D2.factorial_moment(2))
    est = _conditional(spec, k, lambda m: m * m, k)
    return replace(est, value=est.value + d1_2 * d2_2 / (float(spec.D1.mean()) * float(spec.D2.mean())))


# -- rooted embedding expectations ------------------------------------------------------


def rooted_emb_expectation(spec: LimitSpec, H: Pattern) -> Estimate:
    """Exact E emb'(H, (T, o)): the expected number of embeddings of the
    rooted pattern H into the clique tree T that send its root to the root o
    of T, which is the limit of emb(H, G_n) / n for every rooting of H.

    An embedding sends each edge of H into one clique of T, and two cliques
    share at most one vertex, so the H-vertices that land in each clique form
    a family F of ``counting.clique_families``: its sets split the edges of
    H, and its vertex-set incidence graph B is a tree.  Rooted at the root of
    H, B maps onto T generation by generation, and the embeddings with
    family F are counted by a product of falling factorials of independent
    offspring counts, whose expectation is a product of factorial moments:

      the root:           E (D1)_{deg_B(root)}
      each set S:         E (Z)_{|S|-1} = E (D2)_{|S|} / E D2
      each other vertex:  E (D1)_{deg_B(x)} / E D1

    A term with a zero factor is 0 (0 * inf = 0 almost surely), so the
    factors of finite-support laws, which are the only ones that can vanish,
    are tested before any other moment is read.  A term without one that
    needs an infinite moment makes the limit infinite: MomentUnavailable is
    raised, naming the pattern."""
    if H.root is None:
        raise ValueError("pattern must be rooted")
    D1, D2 = spec.D1, spec.D2
    total = 0.0
    for family in clique_families(H):
        held = Counter(v for S in family for v in S)
        inner = [d for v, d in held.items() if v != H.root and d > 1]
        needs = [(D1, held[H.root])] + [(D2, len(S)) for S in family] + [(D1, d) for d in inner]
        if any(law.has_finite_support() and law.factorial_moment(k) == 0 for law, k in needs):
            continue
        try:
            term = float(D1.factorial_moment(held[H.root]))
            for S in family:
                term *= float(D2.factorial_moment(len(S))) / float(D2.mean())
            for d in inner:
                term *= float(D1.factorial_moment(d)) / float(D1.mean())
        except MomentUnavailable as e:
            raise MomentUnavailable(
                f"the emb limit of the pattern with edges {list(H.edge_tuple())} is infinite: {e}"
            ) from e
        total += term
    return Estimate(total)


def limit_emb_per_vertex(spec: LimitSpec, pattern: Pattern) -> Estimate:
    """Limit of emb(H, G_n) / n: E emb'(H, (T, o)) on the clique tree, exact
    for every connected pattern.  Every rooting gives the same value, so the
    pattern is rooted at vertex 0.  Raises MomentUnavailable when the limit
    is infinite."""
    return rooted_emb_expectation(spec, pattern.rooted(0))


def limit_hom_per_vertex(spec: LimitSpec, pattern: Pattern) -> Estimate:
    """Limit of hom(H, G_n) / n: the sum of the emb limits of H's coincidence
    quotients, the partitions ``counting.emb_count`` inverts over, each with
    weight 1 (equal quotients are evaluated once).  Raises MomentUnavailable
    when the limit is infinite."""
    quotients = Counter((h, edges) for h, edges, _ in _coincidence_terms(pattern.h, pattern.edge_tuple()))
    return Estimate(sum(c * limit_emb_per_vertex(spec, Pattern(Graph.from_edges(h, edges))).value
                        for (h, edges), c in quotients.items()))
