"""Samplers for the four random bipartite graph models and the clique planting
perturbation.

Every generator is a pure function of its arguments and the supplied
``numpy.random.Generator``; identical inputs give bit-identical bipartite
graphs.  Mean part-1 / part-2 degrees are linked through beta = n2/n1: the
active model prescribes part-1 degrees (attribute degrees come out
asymptotically Poisson), the passive model mirrors it, the inhomogeneous model
keeps each pair with its clipped weight-product probability by thinning a
binomial count of uniform candidates per part-1 vertex, and the configuration
model realises arbitrary prescribed degree sequences by a uniform half-edge
matching (multi-edges allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .graphs import BipartiteMultigraph, _unique
from .laws import DegreeLaw, WeightLaw, check_config_keys, config_number, degree_law_from_config, weight_law_from_config

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
    order they join."""
    chosen: dict[int, None] = {}
    for j, t in enumerate(draws, start=m - len(draws)):
        chosen[t if t not in chosen else j] = None
    return list(chosen)


def _floyd_pairs(rng: np.random.Generator, m: int, k: np.ndarray) -> np.ndarray:
    """(owner, member) rows of a Floyd k[i]-subset of {0, ..., m-1} for each
    owner i, one ``integers`` call making the draws of every owner in turn.

    An owner whose draws are distinct keeps them as drawn: each draw then
    misses the earlier picks, which are the earlier draws.  Only owners with
    a repeated draw, rare when k is small against m, go through
    ``_floyd_resolve``."""
    k = np.asarray(k, dtype=np.int64)
    owner = np.repeat(np.arange(k.size), k)
    start = np.cumsum(k) - k
    member = rng.integers(0, m - k[owner] + np.arange(owner.size) - start[owner] + 1)
    key = np.sort(owner * np.int64(m) + member)
    for i in _unique(key[1:][np.diff(key) == 0] // m).tolist():
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

    Exact thinning: part-1 vertex v draws a Binomial(n2, p_max(v)) count of
    candidates, p_max(v) being its largest pair probability, then a uniform
    subset of that many attributes, and keeps candidate w when a uniform
    times p_max(v) is at most p(v, w).  The draws come in whole-array passes:
    w1, w2, the counts of the vertices with p_max > 0, every Floyd value,
    every uniform.
    """
    w1 = xi1.sample(rng, n1)
    w2 = xi2.sample(rng, n2)
    norm = math.sqrt(n1 * n2)
    pmax = np.minimum(w1 * (float(w2.max()) if n2 else 0.0) / norm, 1.0)
    live = np.flatnonzero(pmax > 0.0)
    owner, member = _floyd_pairs(rng, n2, rng.binomial(n2, pmax[live])).T
    owner = live[owner]
    keep = rng.random(owner.size) * pmax[owner] <= np.minimum(w1[owner] * w2[member] / norm, 1.0)
    return BipartiteMultigraph.from_pairs(n1, n2, np.stack([owner[keep], member[keep]], axis=1))


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
    n1: int, D1: DegreeLaw, D2: DegreeLaw, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw degree sequences realising (D1, D2) in the configuration model.

    n2 = floor(beta * n1) with beta = E D1 / E D2, the ratio the construction
    requires.  Each side is n_i iid draws plus one appended balancing term
    equal to the other side's surplus, so the sums match exactly and at most
    one appended term is non-zero.
    """
    n2 = int(math.floor(float(D1.mean()) / float(D2.mean()) * n1))
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and floor(beta * n1) >= 1")
    d1 = D1.sample(rng, n1)
    d2 = D2.sample(rng, n2)
    s1, s2 = int(d1.sum()), int(d2.sum())
    d1 = np.append(d1, max(s2 - s1, 0))
    d2 = np.append(d2, max(s1 - s2, 0))
    return d1, d2


def plant_clique(H: BipartiteMultigraph, s: int, rng: np.random.Generator) -> BipartiteMultigraph:
    """H with one more attribute, joined to a uniformly random s-subset of
    part 1: its projection is that of H with the s vertices made a clique."""
    if not 1 <= s <= H.n1:
        raise ValueError("clique size out of range")
    members = np.sort(rng.choice(H.n1, size=s, replace=False))
    # the new attribute sorts last, so the (attribute, vertex) order holds
    return BipartiteMultigraph(
        H.n1,
        H.n2 + 1,
        np.concatenate([H.edge_u, members]),
        np.concatenate([H.edge_w, np.full(s, H.n2, dtype=np.int64)]),
        np.concatenate([H.mult, np.ones(s, dtype=np.int64)]),
    )


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
      gen_degree_sequences, so n2 is derived from E D1 / E D2, and its
      config takes no n2)
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
        # the configuration model derives n2 from E D1 / E D2 and takes none
        sizes = ("model", "n1") if model == "configuration" else ("model", "n1", "n2")
        check_config_keys(cfg, "model", (*sizes, *_MODEL_LAWS[model]))
        law_from_config = weight_law_from_config if model == "inhomogeneous" else degree_law_from_config
        kw = {law: law_from_config(cfg[law]) for law in _MODEL_LAWS[model]}
        n1 = config_number("model n1", cfg["n1"])
        if model == "configuration":
            n2 = int(math.floor(float(kw["D1"].mean()) / float(kw["D2"].mean()) * n1))
        else:
            n2 = config_number("model n2", cfg["n2"])
        return ModelConfig(model=model, n1=n1, n2=n2, **kw)


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
