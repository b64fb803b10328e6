"""Degree and weight laws: sampling, pmf queries, exact moments, size-biasing.

Degree laws cover the four variants the models need: finite pmf, Poisson,
mixed Poisson (weight-randomised rate), and integer shifts of those.  Finite
pmf laws keep their probabilities as ``Fraction``s so moment identities can be
checked exactly; Poisson-family moments use the closed forms (factorial
moments of Po(lam) are lam^k, of a mixed Poisson the raw weight moments).

Size-biasing reweights P(Z=k) by k/E[Z].  For Poisson and mixed-Poisson laws
the size-biased law is the weight-size-biased law plus one, which is what
keeps the whole family closed under the operations the branching process
needs: the offspring law ``size_biased(D) - 1`` of a Poisson stays Poisson,
of a mixed Poisson stays mixed Poisson.

Pmfs are evaluated with ``math`` alone, in log form: Poisson, negative
binomial (Poisson mixed over a gamma weight), and Poisson mixed over a Pareto
weight, whose pmf a s^a Gamma(k - a, s) / k! needs the upper incomplete gamma
function.

Thinning keeps each of X items independently with probability p.  Poisson
and mixed-Poisson laws stay in their family, Bin(Po(W), p) = Po(pW); a
finite law becomes a finite binomial mixture.  The limit side thins D1 to
the number of non-zero offspring sums, which makes the root degree pmf of
the clique tree a finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MomentUnavailable",
    "WeightLaw",
    "DegreeLaw",
    "size_biased",
    "thinned",
    "offspring_law",
    "degree_law_from_config",
    "weight_law_from_config",
    "check_config_keys",
    "config_number",
]


class MomentUnavailable(ValueError):
    """Raised when a requested moment is infinite."""


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind: (x)_n = sum_k s(n,k) x^k."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return stirling1_signed(n - 1, k - 1) - (n - 1) * stirling1_signed(n - 1, k)


# Log-gamma forms in math rather than scipy.special, whose import costs more
# than the rest of rigsim's.  tests/test_laws.py holds them within 5e-13
# relative of 50-digit decimal arithmetic, and the Pareto-mixed pmf within
# 1e-12 relative of quadrature.


def _poisson_pmf(k: int, lam: float) -> float:
    return math.exp(k * math.log(lam) - math.lgamma(k + 1) - lam) if k else math.exp(-lam)


def _nbinom_pmf(k: int, n: float, p: float) -> float:
    return math.exp(math.lgamma(k + n) - math.lgamma(n) - math.lgamma(k + 1) + n * math.log(p) + k * math.log1p(-p))


def _log_upper_gamma(b: float, x: float) -> float:
    """log Gamma(b, x) = log of the integral of t^(b-1) e^-t over t > x, for
    x > 0 and any real b.  Where b >= 1 and x < b + 1 it is Gamma(b) less
    the lower-gamma series; elsewhere the continued fraction of DLMF 8.9.2,
    evaluated by the modified Lentz method, which converges for every x > 0."""
    if b >= 1.0 and x < b + 1.0:
        term = total = 1.0 / b
        n = 0
        while term >= total * 1e-17:
            n += 1
            term *= x / (b + n)
            total += term
        return math.lgamma(b) + math.log1p(-math.exp(b * math.log(x) - x - math.lgamma(b)) * total)
    tiny = 1e-300
    c, d = 1.0 / tiny, 1.0 / (x + 1.0 - b)
    h, i = d, 0
    while True:
        i += 1
        an, bn = -i * (i - b), x + 2 * i + 1.0 - b
        d = an * d + bn
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = bn + an / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 2.3e-16:  # within an ulp or two of 1
            return b * math.log(x) - x + math.log(h)


def _pareto_poisson_pmf(k: int, a: float, s: float) -> float:
    """P(D = k) for D Poisson with a Pareto(shape a, scale s) rate: the
    integral of e^-x x^k / k! against a s^a x^(-a-1) over x > s, that is
    a s^a Gamma(k - a, s) / k! (Karlis & Xekalaki, Int. Stat. Review 2005)."""
    return math.exp(math.log(a) + a * math.log(s) + _log_upper_gamma(k - a, s) - math.lgamma(k + 1))


# -- weight laws ----------------------------------------------------------------


@dataclass(frozen=True)
class WeightLaw:
    """Non-negative real law for vertex weights.

    Kinds: ``point`` (mass at c), ``finite`` (finite support), ``gamma``
    (shape/rate; exponential(rate) is gamma with shape 1), ``pareto``
    (shape/scale, density a m^a x^(-a-1) on [m, inf)).  The family is closed
    under size-biasing (gamma -> shape+1, pareto -> shape-1) and scaling.
    """

    kind: str
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    shape: float = 0.0
    rate: float = 0.0
    scale: float = 0.0

    @staticmethod
    def point(c: float) -> "WeightLaw":
        if c < 0:
            raise ValueError("weights must be non-negative")
        return WeightLaw("point", values=(float(c),))

    @staticmethod
    def finite(values: Sequence[float], probs: Sequence[float]) -> "WeightLaw":
        values = tuple(float(v) for v in values)
        probs = tuple(float(p) for p in probs)
        if len(values) != len(probs) or not values:
            raise ValueError("values and probs must be equal-length and non-empty")
        if min(values) < 0 or min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("invalid finite weight law")
        return WeightLaw("finite", values=values, probs=probs)

    @staticmethod
    def exponential(rate: float) -> "WeightLaw":
        if rate <= 0:
            raise ValueError("rate must be positive")
        return WeightLaw("gamma", shape=1.0, rate=float(rate))

    @staticmethod
    def gamma(shape: float, rate: float) -> "WeightLaw":
        if shape <= 0 or rate <= 0:
            raise ValueError("shape and rate must be positive")
        return WeightLaw("gamma", shape=float(shape), rate=float(rate))

    @staticmethod
    def pareto(shape: float, scale: float) -> "WeightLaw":
        if shape <= 1 or scale <= 0:
            raise ValueError("pareto weight needs shape > 1 (finite mean) and scale > 0")
        return WeightLaw("pareto", shape=float(shape), scale=float(scale))

    def moment(self, k: int) -> float:
        """Raw moment E X^k; raises MomentUnavailable when infinite."""
        if k == 0:
            return 1.0
        if self.kind == "point":
            return self.values[0] ** k
        if self.kind == "finite":
            return float(sum(p * v**k for v, p in zip(self.values, self.probs)))
        if self.kind == "gamma":
            out = 1.0
            for i in range(k):
                out *= (self.shape + i) / self.rate
            return out
        if self.kind == "pareto":
            if k >= self.shape:
                raise MomentUnavailable(f"pareto moment of order {k} is infinite (shape {self.shape})")
            return self.shape * self.scale**k / (self.shape - k)
        raise AssertionError(self.kind)

    def mean(self) -> float:
        return self.moment(1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(size, self.values[0])
        if self.kind == "finite":
            idx = rng.choice(len(self.values), size=size, p=np.asarray(self.probs) / sum(self.probs))
            return np.asarray(self.values)[idx]
        if self.kind == "gamma":
            return rng.gamma(self.shape, 1.0 / self.rate, size=size)
        if self.kind == "pareto":
            u = rng.random(size)
            return self.scale * (1.0 - u) ** (-1.0 / self.shape)
        raise AssertionError(self.kind)

    def size_biased(self) -> "WeightLaw":
        if self.kind == "point":
            if self.values[0] <= 0:
                raise ValueError("cannot size-bias a zero weight")
            return self
        if self.kind == "finite":
            m = self.mean()
            if m <= 0:
                raise ValueError("cannot size-bias a zero-mean weight law")
            pairs = [(v, p * v / m) for v, p in zip(self.values, self.probs) if v > 0]
            return WeightLaw.finite([v for v, _ in pairs], [p for _, p in pairs])
        if self.kind == "gamma":
            return WeightLaw.gamma(self.shape + 1.0, self.rate)
        if self.kind == "pareto":
            # density x * a m^a x^(-a-1) / mean = (a-1) m^(a-1) x^(-a): pareto(a-1, m)
            return WeightLaw("pareto", shape=self.shape - 1.0, scale=self.scale)
        raise AssertionError(self.kind)

    def scaled(self, c: float) -> "WeightLaw":
        """Law of c * X for c > 0."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        if self.kind == "point":
            return WeightLaw.point(c * self.values[0])
        if self.kind == "finite":
            return WeightLaw.finite([c * v for v in self.values], self.probs)
        if self.kind == "gamma":
            return WeightLaw("gamma", shape=self.shape, rate=self.rate / c)
        if self.kind == "pareto":
            return WeightLaw("pareto", shape=self.shape, scale=c * self.scale)
        raise AssertionError(self.kind)


# -- degree laws ------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeLaw:
    """Discrete law on {0, 1, 2, ...}.

    Kinds: ``finite`` (values/probs, probs kept exact as Fractions),
    ``poisson`` (lam), ``mixed`` (Poisson with random rate ~ weight),
    ``shifted`` (base + integer offset).
    """

    kind: str
    values: tuple[int, ...] = ()
    probs: tuple[Fraction, ...] = ()
    lam: float = 0.0
    weight: WeightLaw | None = None
    base: "DegreeLaw | None" = None
    offset: int = 0

    # constructors ---------------------------------------------------------

    @staticmethod
    def from_pmf(pmf: Mapping[int, float | Fraction]) -> "DegreeLaw":
        items = sorted((int(v), Fraction(p)) for v, p in pmf.items())
        if not items:
            raise ValueError("empty pmf")
        values = tuple(v for v, _ in items)
        probs = tuple(p for _, p in items)
        if min(values) < 0:
            raise ValueError("degree values must be non-negative integers")
        if any(p < 0 for p in probs) or abs(float(sum(probs)) - 1.0) > 1e-12:
            raise ValueError("pmf must be non-negative and sum to 1 (within 1e-12)")
        return DegreeLaw("finite", values=values, probs=probs)

    @staticmethod
    def constant(c: int) -> "DegreeLaw":
        return DegreeLaw.from_pmf({int(c): 1})

    @staticmethod
    def poisson(lam: float) -> "DegreeLaw":
        if not 0 < lam < math.inf:
            raise ValueError("poisson rate must be positive and finite")
        return DegreeLaw("poisson", lam=float(lam))

    @staticmethod
    def mixed_poisson(weight: WeightLaw) -> "DegreeLaw":
        if not 0 < weight.mean() < math.inf:
            raise ValueError("mixed-Poisson weight must have a positive and finite mean")
        return DegreeLaw("mixed", weight=weight)

    @staticmethod
    def shifted(base: "DegreeLaw", offset: int) -> "DegreeLaw":
        if offset + base.min_support() < 0:
            raise ValueError("shift would create negative support")
        return DegreeLaw("shifted", base=base, offset=int(offset))

    # support ----------------------------------------------------------------

    def min_support(self) -> int:
        if self.kind == "finite":
            return self.values[0]
        if self.kind in ("poisson", "mixed"):
            return 0
        return self.base.min_support() + self.offset

    def max_support(self) -> int | None:
        """Largest support point, or None when unbounded."""
        if self.kind == "finite":
            return self.values[-1]
        if self.kind in ("poisson", "mixed"):
            return None
        m = self.base.max_support()
        return None if m is None else m + self.offset

    def has_finite_support(self) -> bool:
        return self.max_support() is not None

    def as_finite(self) -> "DegreeLaw":
        """Materialize a finite-support law as kind 'finite'."""
        if self.kind == "finite":
            return self
        if self.kind == "shifted" and self.base.has_finite_support():
            b = self.base.as_finite()
            return DegreeLaw.from_pmf({v + self.offset: p for v, p in zip(b.values, b.probs)})
        raise ValueError("law does not have finite support")

    # moments ----------------------------------------------------------------

    def mean(self) -> float | Fraction:
        return self.raw_moment(1)

    def raw_moment(self, k: int) -> float | Fraction:
        """E X^k (exact Fraction for finite pmf laws)."""
        if k == 0:
            return Fraction(1)
        if self.kind == "finite":
            return sum(p * v**k for v, p in zip(self.values, self.probs))
        if self.kind == "poisson":
            return float(sum(stirling2(k, j) * self.lam**j for j in range(1, k + 1)))
        if self.kind == "mixed":
            return float(sum(stirling2(k, j) * self.weight.moment(j) for j in range(1, k + 1)))
        if self.kind == "shifted":
            c = self.offset
            return sum(math.comb(k, j) * c ** (k - j) * self.base.raw_moment(j) for j in range(k + 1))
        raise AssertionError(self.kind)

    @lru_cache(maxsize=None)
    def factorial_moment(self, k: int) -> float | Fraction:
        """E (X)_k = E X(X-1)...(X-k+1), computed once per equal law and k:
        the count limits read the same few moments many times."""
        if k == 0:
            return Fraction(1)
        if self.kind == "finite":
            return sum(p * math.prod(v - i for i in range(k)) for v, p in zip(self.values, self.probs))
        if self.kind == "poisson":
            return self.lam**k
        if self.kind == "mixed":
            return self.weight.moment(k)
        # generic: (x)_k = sum_j s(k,j) x^j
        return sum(stirling1_signed(k, j) * self.raw_moment(j) for j in range(k + 1))

    # pmf --------------------------------------------------------------------

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if self.kind == "finite":
            try:
                return float(self.probs[self.values.index(k)])
            except ValueError:
                return 0.0
        if self.kind == "poisson":
            return _poisson_pmf(k, self.lam)
        if self.kind == "mixed":
            w = self.weight
            if w.kind == "point":
                return _poisson_pmf(k, w.values[0]) if w.values[0] > 0 else float(k == 0)
            if w.kind == "finite":
                return float(sum(p * (_poisson_pmf(k, v) if v > 0 else (k == 0)) for v, p in zip(w.values, w.probs)))
            if w.kind == "gamma":
                # Poisson mixed over gamma(shape, rate) is negative binomial
                return _nbinom_pmf(k, w.shape, w.rate / (1.0 + w.rate))
            if w.kind == "pareto":
                return _pareto_poisson_pmf(k, w.shape, w.scale)
            raise AssertionError(w.kind)
        if self.kind == "shifted":
            return self.base.pmf(k - self.offset)
        raise AssertionError(self.kind)

    def pmf_vector(self, kmax: int) -> np.ndarray:
        """pmf on 0..kmax as a float vector."""
        return np.array([self.pmf(k) for k in range(kmax + 1)])

    # sampling ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "finite":
            p = np.asarray([float(q) for q in self.probs])
            idx = rng.choice(len(self.values), size=size, p=p / p.sum())
            return np.asarray(self.values, dtype=np.int64)[idx]
        if self.kind == "poisson":
            return rng.poisson(self.lam, size=size).astype(np.int64)
        if self.kind == "mixed":
            w = self.weight.sample(rng, size)
            return rng.poisson(w).astype(np.int64)
        if self.kind == "shifted":
            return self.base.sample(rng, size) + self.offset
        raise AssertionError(self.kind)


def size_biased(law: DegreeLaw) -> DegreeLaw:
    """Size-biased law: P(Z* = k) proportional to k P(Z = k).

    Poisson and mixed-Poisson laws use the exact identity
    ``Po(W)* = Po(W*) + 1``; finite laws are reweighted exactly.
    """
    if law.kind == "finite":
        m = law.mean()
        if m <= 0:
            raise ValueError("cannot size-bias a zero-mean law")
        return DegreeLaw.from_pmf({v: p * v / m for v, p in zip(law.values, law.probs) if v > 0})
    if law.kind == "poisson":
        return DegreeLaw.shifted(DegreeLaw.poisson(law.lam), +1)
    if law.kind == "mixed":
        return DegreeLaw.shifted(DegreeLaw.mixed_poisson(law.weight.size_biased()), +1)
    if law.kind == "shifted" and law.has_finite_support():
        return size_biased(law.as_finite())
    raise ValueError(f"size-biasing not supported for {law.kind} law")


def thinned(law: DegreeLaw, p: float) -> DegreeLaw:
    """Law of Bin(X, p) for X ~ law and 0 < p <= 1: the number of X items
    kept when each is kept independently with probability p.

    Poisson and mixed-Poisson laws use the identity Bin(Po(W), p) = Po(pW);
    finite laws become the binomial mixture, its terms in log form so that
    large supports do not overflow."""
    if not 0 < p <= 1:
        raise ValueError("thinning probability must lie in (0, 1]")
    if p == 1:
        return law
    if law.kind == "poisson":
        return DegreeLaw.poisson(p * law.lam)
    if law.kind == "mixed":
        return DegreeLaw.mixed_poisson(law.weight.scaled(p))
    if law.has_finite_support():
        fin = law.as_finite()
        pmf = dict.fromkeys(range(fin.values[-1] + 1), 0.0)
        for d, q in zip(fin.values, fin.probs):
            for n in range(d + 1):
                pmf[n] += float(q) * math.exp(math.log(math.comb(d, n)) + n * math.log(p) + (d - n) * math.log1p(-p))
        return DegreeLaw.from_pmf(pmf)
    raise ValueError(f"thinning not supported for {law.kind} law")


def offspring_law(law: DegreeLaw) -> DegreeLaw:
    """Offspring law of the branching process: size_biased(law) - 1, which
    is finite, Poisson or mixed Poisson, as ``size_biased`` returns a finite
    law or one of the latter two shifted by 1."""
    sb = size_biased(law)
    if sb.kind == "finite":
        return DegreeLaw.from_pmf({v - 1: p for v, p in zip(sb.values, sb.probs)})
    return sb.base


# -- config parsing (used by the CLI and experiment plans) ----------------------


def check_config_keys(cfg, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    """Reject a JSON config object with a key outside ``required`` and
    ``optional``, or without one of ``required``, naming the key."""
    if not isinstance(cfg, Mapping):
        raise ValueError(f"{what} config must be a JSON object, got {cfg!r}")
    allowed = (*required, *optional)
    for key in cfg:
        if key not in allowed:
            raise ValueError(f"unknown {what} key {key!r}; allowed keys: {', '.join(allowed)}")
    for key in required:
        if key not in cfg:
            raise ValueError(f"{what} config is missing the required key {key!r}")


def config_number(field: str, value, low: float | None = None, integral: bool = True) -> int | float:
    """A number read from a JSON config: an int (an integral float is taken
    as one) when ``integral``, else a finite float, and at least ``low`` when
    it is given.  Rejects bools, non-numbers, non-integral and out-of-range
    values, naming ``field``."""
    kind = "an integer" if integral else "a finite number"
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    if not math.isfinite(value) or (integral and value != int(value)):
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{field} must be at least {low}, got {value!r}")
    return int(value) if integral else float(value)


# constructor and config keys, in argument order, of each law kind
_WEIGHT_LAWS = {
    "point": (WeightLaw.point, ("value",)),
    "finite": (WeightLaw.finite, ("values", "probs")),
    "exponential": (WeightLaw.exponential, ("rate",)),
    "gamma": (WeightLaw.gamma, ("shape", "rate")),
    "pareto": (WeightLaw.pareto, ("shape", "scale")),
}
_DEGREE_LAWS = {
    "pmf": (lambda pmf: DegreeLaw.from_pmf({int(k): v for k, v in pmf.items()}), ("pmf",)),
    "constant": (lambda value: DegreeLaw.constant(config_number("constant degree law value", value)), ("value",)),
    "poisson": (DegreeLaw.poisson, ("lam",)),
    "mixed_poisson": (lambda weight: DegreeLaw.mixed_poisson(weight_law_from_config(weight)), ("weight",)),
}


def _law_from_config(cfg: Mapping, what: str, table: Mapping):
    kind = cfg.get("kind") if isinstance(cfg, Mapping) else None
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    make, keys = table[kind]
    check_config_keys(cfg, f"{kind} {what}", ("kind", *keys))
    return make(*(cfg[key] for key in keys))


def weight_law_from_config(cfg: Mapping) -> WeightLaw:
    return _law_from_config(cfg, "weight law", _WEIGHT_LAWS)


def degree_law_from_config(cfg: Mapping) -> DegreeLaw:
    return _law_from_config(cfg, "degree law", _DEGREE_LAWS)
