"""Exact and Monte Carlo evaluation of the limit quantities.

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

Degree-conditioned quantities (conditional clustering / assortativity) are
exact by truncated convolution of the Z pmf when the pmfs and a certified D1
tail exist, else rejection Monte Carlo.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .cliquetree import GWForest, sample_gw_forest
from .counting import MAX_PATTERN_VERTICES, Pattern, _coincidence_terms, clique_families, pattern_from_name
from .generators import ModelConfig
from .graphs import Graph
from .laws import DegreeLaw, MomentUnavailable, WeightLaw

__all__ = [
    "LimitSpec",
    "Estimate",
    "remark1_limits",
    "limit_spec_for",
    "dstar_moment",
    "sample_dstar",
    "limit_degree_pmf",
    "limit_degree_pmf_vector",
    "limit_clustering",
    "limit_assortativity",
    "limit_conditional_clustering",
    "limit_conditional_assortativity",
    "rooted_emb_expectation",
    "limit_emb_per_vertex",
    "limit_hom_per_vertex",
    "NoAcceptances",
]

_TAIL_EPS = 1e-12


class NoAcceptances(RuntimeError):
    """Rejection Monte Carlo drew no tree with d* = k."""


@dataclass(frozen=True)
class Estimate:
    """A limit value: exact closed form (stderr 0) or Monte Carlo.

    Exact estimates always carry stderr 0.  A Monte Carlo estimate may also
    report stderr 0 when every sampled value coincided (degenerate laws)."""

    value: float
    stderr: float = 0.0
    samples: int = 0
    exact: bool = True
    deficit: float = 0.0  # certified truncation deficit of an exact evaluation
    degenerate: bool = False

    def __post_init__(self) -> None:
        assert not (self.exact and self.stderr != 0.0), "exact estimates have stderr 0"


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


def sample_dstar(spec: LimitSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """iid samples of d* = sum_{i<=D1} Z_i (vectorized)."""
    return _z_sums(sample_gw_forest(spec.D1, spec.D2, 2, size, rng, math.inf))


def _z_sums(forest: GWForest, weight: Callable[[np.ndarray], np.ndarray] = lambda z: z) -> np.ndarray:
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


# -- degree pmf -------------------------------------------------------------------


def _z_pmf_vector(spec: LimitSpec, kmax: int) -> np.ndarray:
    """pmf of Z on 0..kmax: P(Z = m) = (m+1) P(D2 = m+1) / E D2."""
    m2 = float(spec.D2.mean())
    return np.array([(m + 1) * spec.D2.pmf(m + 1) / m2 for m in range(kmax + 1)])


def _d1_truncation(D1: DegreeLaw, eps: float = _TAIL_EPS) -> tuple[np.ndarray, float]:
    """(pmf of D1 on 0..N, tail deficit <= eps) with certified N."""
    mx = D1.max_support()
    if mx is not None:
        return D1.pmf_vector(mx), 0.0
    n = 16
    while D1.tail_mass(n) > eps:
        n *= 2
        if n > 10**7:
            raise MomentUnavailable("cannot certify a D1 truncation point")
    return D1.pmf_vector(n), float(D1.tail_mass(n))


def _d1_sums(z: np.ndarray, d1p: np.ndarray) -> Iterator[tuple[int, float, np.ndarray | None, np.ndarray]]:
    """(n, P(D1 = n), pmf of the (n-1)-fold Z sum, pmf of the n-fold Z sum)
    for each n with P(D1 = n) = d1p[n] > 0, given the Z pmf ``z``; both sum
    pmfs are truncated at len(z) - 1, below which they are exact, and the
    (n-1)-fold one is None at n = 0."""
    prev = None
    conv = np.zeros(z.size)
    conv[0] = 1.0  # sum of zero Z's
    for n, pn in enumerate(d1p):
        if n > 0:
            prev, conv = conv, np.convolve(conv, z)[: z.size]
        if pn > 0:
            yield n, pn, prev, conv


def limit_degree_pmf_vector(spec: LimitSpec, kmax: int) -> tuple[np.ndarray, float]:
    """Exact (certified-truncation) pmf of d* on 0..kmax plus the deficit.

    Convolutions truncated at kmax are exact for the masses below kmax; the
    only error is the D1 tail deficit, which is certified below 1e-12.
    Raises MomentUnavailable when the needed pmfs have no closed form.
    """
    out = np.zeros(kmax + 1)
    if spec.degenerate_root:
        out[0] = 1.0
        return out, 0.0
    z = _z_pmf_vector(spec, kmax)
    d1p, deficit = _d1_truncation(spec.D1)
    for _, pn, _, conv in _d1_sums(z, d1p):
        out += pn * conv
    return out, deficit


def limit_degree_pmf(
    spec: LimitSpec,
    k: int,
    mc_samples: int = 0,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """P(d* = k): exact truncated convolution when pmfs exist, else MC."""
    if k < 0:
        raise ValueError("k must be non-negative")
    try:
        vec, deficit = limit_degree_pmf_vector(spec, k)
        return Estimate(float(vec[k]), deficit=deficit)
    except MomentUnavailable:
        if mc_samples <= 0 or rng is None:
            raise
    d = sample_dstar(spec, mc_samples, rng)
    p = float((d == k).mean())
    return Estimate(p, math.sqrt(max(p * (1 - p), 1e-300) / mc_samples), mc_samples, exact=False)


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


def _conditional_expectation(
    spec: LimitSpec, k: int, weight: Callable[[int], float]
) -> tuple[float, float, float]:
    """(E[sum_i w(Z_i); d* = k], P(d* = k), deficit), exactly via truncated
    convolutions of the Z pmf (certified D1 truncation)."""
    z = _z_pmf_vector(spec, k)
    d1p, deficit = _d1_truncation(spec.D1)
    wz = np.array([weight(m) for m in range(k + 1)]) * z
    num = 0.0
    pk = 0.0
    for n, pn, conv_prev, conv in _d1_sums(z, d1p):
        pk += pn * conv[k]
        if n > 0:
            # symmetry: n identical terms, condition through the (n-1)-fold sum
            num += pn * n * float(np.dot(wz, conv_prev[k::-1]))
    return num, pk, deficit


def _conditional_mc(
    spec: LimitSpec,
    k: int,
    weight: Callable[[np.ndarray], np.ndarray],
    mc_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Rejection Monte Carlo for E[sum_i w(Z_i) | d* = k].  The weighted sums
    are integers held in floats, so their order of summation does not matter."""
    accepted: list[np.ndarray] = []
    batch = max(10000, mc_samples // 10)
    drawn = 0
    while drawn < mc_samples:
        m = min(batch, mc_samples - drawn)
        drawn += m
        forest = sample_gw_forest(spec.D1, spec.D2, 2, m, rng, math.inf)
        hits = _z_sums(forest) == k
        if hits.any():  # k >= 1, so these trees drew Z
            accepted.append(_z_sums(forest, lambda z: weight(z.astype(np.float64)))[hits])
    if not accepted:
        raise NoAcceptances(f"no Monte Carlo acceptances for d* = {k}; increase samples")
    arr = np.concatenate(accepted)
    return Estimate(
        float(arr.mean()),
        float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else float("inf"),
        int(arr.size),
        exact=False,
    )


def _conditional(
    spec: LimitSpec, k: int, weight: Callable, scale: int, mc_samples: int, rng: np.random.Generator | None
) -> Estimate:
    """E[sum_i w(Z_i) | d* = k] / scale: exact by truncated convolution when
    the pmfs and a certified D1 tail exist, else rejection Monte Carlo on
    ``rng``, after the Monte Carlo P(d* = k), which draws first.  ``weight``
    takes an int on the exact path and a float array on the other.  The
    exact value is num / (scale * pk) in one division, which rounds
    differently from (num / pk) / scale in about one case in five."""
    if not spec.degenerate_root:
        try:
            num, pk, deficit = _conditional_expectation(spec, k, weight)
            if pk > 0:
                return Estimate(num / (scale * pk), deficit=deficit)
        except MomentUnavailable:
            if limit_degree_pmf(spec, k, mc_samples, rng).value > 0:
                est = _conditional_mc(spec, k, weight, mc_samples, rng)
                return replace(est, value=est.value / scale, stderr=est.stderr / scale)
    raise ValueError(f"P(d* = {k}) = 0; conditional limit undefined")


def limit_conditional_clustering(
    spec: LimitSpec,
    k: int,
    mc_samples: int = 200_000,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """Limit conditional clustering coefficient alpha_k* =
    E[sum_i (Z_i)_2 | d* = k] / (k (k-1)): exact by truncated convolution,
    else rejection Monte Carlo on ``rng``."""
    if k < 2:
        raise ValueError("conditional clustering needs k >= 2")
    return _conditional(spec, k, lambda m: m * (m - 1), k * (k - 1), mc_samples, rng)


def limit_conditional_assortativity(
    spec: LimitSpec,
    k: int,
    mc_samples: int = 200_000,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """Limit conditional assortativity r_k*: the conditional second-moment
    term E[sum_i Z_i^2 | d* = k] / k (exact by truncated convolution, else
    rejection Monte Carlo on ``rng``) plus the exact additive term
    E (D1)_2 E (D2)_2 / (E D1 E D2)."""
    if k < 1:
        raise ValueError("conditional assortativity needs k >= 1")
    # an infinite moment raises before any Monte Carlo; the division waits
    # for the helper, which rejects E D1 = 0
    d1_2, d2_2 = float(spec.D1.factorial_moment(2)), float(spec.D2.factorial_moment(2))
    est = _conditional(spec, k, lambda m: m * m, k, mc_samples, rng)
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
