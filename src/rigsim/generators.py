"""Samplers for the four random bipartite graph models and the clique planting
perturbation.

Every generator is a pure function of its arguments and the supplied
``numpy.random.Generator``; identical inputs give bit-identical bipartite
graphs.  Mean part-1 / part-2 degrees are linked through beta = n2/n1: the
active model prescribes part-1 degrees (attribute degrees come out
asymptotically Poisson), the passive model mirrors it, the inhomogeneous model
uses the clipped weight-product edge probabilities, and the configuration
model realises arbitrary prescribed degree sequences by a uniform half-edge
matching (multi-edges allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .graphs import BipartiteMultigraph, Graph
from .laws import DegreeLaw, WeightLaw, check_config_keys, degree_law_from_config, weight_law_from_config

__all__ = [
    "ModelConfig",
    "gen_active",
    "gen_passive",
    "gen_inhomogeneous",
    "gen_configuration",
    "gen_degree_sequences",
    "plant_clique",
    "generate_bipartite",
]


def _floyd_resolve(draws: list[int], m: int) -> list[int]:
    """Floyd's subset from its draws t ~ U{0..j}, j = m - k, ..., m - 1: each
    t joins unless already chosen, and then j joins instead.  Listed in the
    set's iteration order."""
    chosen: set[int] = set()
    for j, t in enumerate(draws, start=m - len(draws)):
        chosen.add(t if t not in chosen else j)
    return list(chosen)


def _floyd_subset(rng: np.random.Generator, m: int, k: int) -> list[int]:
    """Floyd's algorithm: uniform k-subset of {0, ..., m-1} in O(k) expected time.

    One ``integers`` call with an array of upper bounds consumes the stream
    exactly as one call per draw does, and leaves the generator in the same
    state."""
    return _floyd_resolve(rng.integers(0, np.arange(m - k + 1, m + 1)).tolist(), m)


def _floyd_pairs(rng: np.random.Generator, m: int, k: np.ndarray) -> np.ndarray:
    """(owner, member) rows of a Floyd k[i]-subset of {0, ..., m-1} for each
    owner i, from the stream of one ``_floyd_subset`` call per owner in turn.

    An owner whose draws are distinct keeps them as drawn: each draw then
    misses the earlier picks, which are the earlier draws.  Only owners with
    a repeated draw, rare when k is small against m, go through
    ``_floyd_resolve``."""
    k = np.asarray(k, dtype=np.int64)
    owner = np.repeat(np.arange(k.size), k)
    start = np.cumsum(k) - k
    member = rng.integers(0, m - k[owner] + np.arange(owner.size) - start[owner] + 1)
    key = np.sort(owner * np.int64(m) + member)
    for i in np.unique(key[1:][np.diff(key) == 0] // m):
        run = slice(start[i], start[i] + k[i])
        member[run] = _floyd_resolve(member[run].tolist(), m)
    return np.stack([owner, member], axis=1)


def gen_active(n1: int, n2: int, P: DegreeLaw, rng: np.random.Generator) -> BipartiteMultigraph:
    """Each part-1 vertex draws X ~ P and a uniform X-subset of attributes."""
    X = P.sample(rng, n1)
    if X.size and int(X.max()) > n2:
        raise ValueError(f"sampled attribute-set size {int(X.max())} exceeds n2={n2}")
    return BipartiteMultigraph.from_pairs(n1, n2, _floyd_pairs(rng, n2, X))


def gen_passive(n1: int, n2: int, P: DegreeLaw, rng: np.random.Generator) -> BipartiteMultigraph:
    """Each attribute draws X ~ P and a uniform X-subset of part-1 vertices."""
    X = P.sample(rng, n2)
    if X.size and int(X.max()) > n1:
        raise ValueError(f"sampled member-set size {int(X.max())} exceeds n1={n1}")
    return BipartiteMultigraph.from_pairs(n1, n2, _floyd_pairs(rng, n1, X)[:, ::-1])


def gen_inhomogeneous(
    n1: int, n2: int, xi1: WeightLaw, xi2: WeightLaw, rng: np.random.Generator
) -> BipartiteMultigraph:
    """Weights xi drawn per vertex; pair (v, w) kept independently with
    probability min(xi1_v xi2_w / sqrt(n1 n2), 1).

    Two exact strategies: thin a Binomial(n2, p_max) candidate draw per part-1
    vertex against the per-pair ratio (cheap when the realised weights are not
    too spread out), or sample each row of Bernoullis directly; the choice is
    by expected cost, the sampled distribution is identical either way.
    """
    w1 = xi1.sample(rng, n1)
    w2 = xi2.sample(rng, n2)
    norm = math.sqrt(n1 * n2)
    w2max = float(w2.max()) if n2 else 0.0
    pmax = np.minimum(w1 * w2max / norm, 1.0)
    # thinning pays off while the candidate draws stay well below the full grid
    if float(pmax.sum()) * n2 <= 0.05 * n1 * n2:
        # per vertex in turn: a Binomial(n2, pmax) candidate count, the Floyd
        # subset of candidates and one uniform each; the draws interleave, so
        # only the acceptance test runs on all candidates at once
        counts = np.zeros(n1, dtype=np.int64)
        cand: list[int] = []
        unif = [np.empty(0)]
        for v in np.flatnonzero(pmax > 0.0).tolist():
            k = int(rng.binomial(n2, float(pmax[v])))
            if k:
                counts[v] = k
                cand += _floyd_subset(rng, n2, k)
                unif.append(rng.random(k))
        owner = np.repeat(np.arange(n1), counts)
        member = np.asarray(cand, dtype=np.int64)
        keep = np.concatenate(unif) * pmax[owner] <= np.minimum(w1[owner] * w2[member] / norm, 1.0)
        pairs = np.stack([owner[keep], member[keep]], axis=1)
    else:
        hits = [np.empty((0, 2), dtype=np.int64)]
        for v in range(n1):
            row = np.minimum(w1[v] * w2 / norm, 1.0)
            w = np.flatnonzero(rng.random(n2) < row)
            hits.append(np.stack([np.full(w.size, v), w], axis=1))
        pairs = np.concatenate(hits)
    return BipartiteMultigraph.from_pairs(n1, n2, pairs)


def gen_configuration(
    d1: Sequence[int], d2: Sequence[int], rng: np.random.Generator
) -> BipartiteMultigraph:
    """Uniform perfect matching between part-1 and part-2 half-edges."""
    d1 = np.asarray(d1, dtype=np.int64)
    d2 = np.asarray(d2, dtype=np.int64)
    if d1.size and d1.min() < 0 or d2.size and d2.min() < 0:
        raise ValueError("degrees must be non-negative")
    if int(d1.sum()) != int(d2.sum()):
        raise ValueError(f"degree sums differ: {int(d1.sum())} vs {int(d2.sum())}")
    stubs1 = np.repeat(np.arange(d1.size), d1)
    stubs2 = np.repeat(np.arange(d2.size), d2)
    stubs2 = stubs2[rng.permutation(stubs2.size)]
    return BipartiteMultigraph.from_pairs(d1.size, d2.size, np.stack([stubs1, stubs2], axis=1))


def gen_degree_sequences(
    n1: int,
    D1: DegreeLaw,
    D2: DegreeLaw,
    rng: np.random.Generator,
    beta: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw degree sequences realising (D1, D2) in the configuration model.

    n2 = floor(beta * n1) with beta = E D1 / E D2 (the ratio the construction
    requires; an explicit ``beta`` is accepted but must match).  Each side is
    n_i iid draws plus one appended balancing term equal to the other side's
    surplus, so the sums match exactly and at most one appended term is
    non-zero.
    """
    derived = float(D1.mean()) / float(D2.mean())
    if beta is not None and not math.isclose(beta, derived, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"beta={beta} inconsistent with E D1 / E D2 = {derived}; "
            "the balanced construction requires them equal"
        )
    n2 = int(math.floor(derived * n1))
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and floor(beta * n1) >= 1")
    d1 = D1.sample(rng, n1)
    d2 = D2.sample(rng, n2)
    s1, s2 = int(d1.sum()), int(d2.sum())
    d1 = np.append(d1, max(s2 - s1, 0))
    d2 = np.append(d2, max(s1 - s2, 0))
    return d1, d2


def plant_clique(G: Graph, s: int, rng: np.random.Generator) -> Graph:
    """Union of E(G) with all pairs of a uniformly random s-subset of vertices."""
    if not 1 <= s <= G.vertex_count:
        raise ValueError("clique size out of range")
    members = np.sort(rng.choice(G.vertex_count, size=s, replace=False))
    iu, jv = np.triu_indices(s, k=1)
    edges = np.concatenate([G.edge_array(), np.stack([members[iu], members[jv]], axis=1)])
    return Graph.from_edges(G.vertex_count, edges)


# -- model configuration --------------------------------------------------------


# law keys each model carries
_MODEL_LAWS = {"active": ("P",), "passive": ("P",), "inhomogeneous": ("xi1", "xi2"), "configuration": ("D1", "D2")}


@dataclass(frozen=True)
class ModelConfig:
    """One of the four bipartite models plus its laws and sizes.

    model: 'active' | 'passive' | 'inhomogeneous' | 'configuration'
    - active/passive carry P (finite support, within the opposite part size)
    - inhomogeneous carries xi1, xi2
    - configuration carries D1, D2 (degree sequences are synthesised via
      gen_degree_sequences, so n2 is derived from E D1 / E D2)
    """

    model: str
    n1: int
    n2: int
    P: DegreeLaw | None = None
    xi1: WeightLaw | None = None
    xi2: WeightLaw | None = None
    D1: DegreeLaw | None = None
    D2: DegreeLaw | None = None

    def __post_init__(self) -> None:
        if self.model not in _MODEL_LAWS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("part sizes must be >= 1")
        missing = [law for law in _MODEL_LAWS[self.model] if getattr(self, law) is None]
        if missing:
            raise ValueError(f"{self.model} model needs {' and '.join(missing)}")
        if self.model in ("active", "passive"):
            cap = self.n2 if self.model == "active" else self.n1
            mx = self.P.max_support()
            if mx is None or mx > cap:
                raise ValueError(
                    f"P support must lie in {{0,..,{cap}}} for the {self.model} model"
                )

    @property
    def beta(self) -> float:
        return self.n2 / self.n1

    def with_sizes(self, n1: int, n2: int) -> "ModelConfig":
        return replace(self, n1=n1, n2=n2)

    @staticmethod
    def from_config(cfg: Mapping) -> "ModelConfig":
        model = cfg.get("model") if isinstance(cfg, Mapping) else None
        if not isinstance(model, str) or model not in _MODEL_LAWS:
            raise ValueError(f"unknown model {model!r}")
        check_config_keys(cfg, "model", ("model", "n1", *_MODEL_LAWS[model]), ("n2",))
        kw = dict(model=model, n1=int(cfg["n1"]), n2=int(cfg.get("n2", 0)))
        law_from_config = weight_law_from_config if model == "inhomogeneous" else degree_law_from_config
        kw.update((law, law_from_config(cfg[law])) for law in _MODEL_LAWS[model])
        if model == "configuration" and not kw["n2"]:
            kw["n2"] = int(math.floor(float(kw["D1"].mean()) / float(kw["D2"].mean()) * kw["n1"]))
        if not kw["n2"]:
            raise ValueError("n2 required")
        return ModelConfig(**kw)


def generate_bipartite(config: ModelConfig, rng: np.random.Generator) -> BipartiteMultigraph:
    """Sample the bipartite graph H_n for a model configuration."""
    if config.model == "active":
        return gen_active(config.n1, config.n2, config.P, rng)
    if config.model == "passive":
        return gen_passive(config.n1, config.n2, config.P, rng)
    if config.model == "inhomogeneous":
        return gen_inhomogeneous(config.n1, config.n2, config.xi1, config.xi2, rng)
    d1, d2 = gen_degree_sequences(config.n1, config.D1, config.D2, rng)
    return gen_configuration(d1, d2, rng)
