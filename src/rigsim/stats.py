"""Finite-graph network statistics: degree moments and fractions, clustering,
assortativity, their degree-conditioned variants, and empirical ball
distributions.

Every ratio statistic is assembled from exact integer numerators and
denominators (one float division at the end), so oracle comparisons in the
tests are exact equalities.  The integers are homomorphism counts and
per-vertex vectors read from the graph's counting host (``rigsim.counting``).  The zero conventions follow the definitions: a
vanishing denominator yields value 0 with the ``degenerate`` flag set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ballcode import ball_codes
from .cliquetree import CodeHistogram
from .counting import _host, _power_sum, emb_count, hom_count, pattern_from_name
from .graphs import Graph

__all__ = [
    "StatReport",
    "degree_moment",
    "degree_fraction",
    "clustering",
    "conditional_clustering",
    "assortativity",
    "conditional_assortativity",
    "empirical_ball_dist",
]


@dataclass(frozen=True)
class StatReport:
    name: str
    value: float
    numerator: int
    denominator: int
    degenerate: bool = False

    def to_row(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "numerator": str(self.numerator),
            "denominator": str(self.denominator),
            "degenerate": self.degenerate,
        }


def _ratio(name: str, num: int, den: int) -> StatReport:
    if den == 0:
        return StatReport(name, 0.0, num, den, degenerate=True)
    return StatReport(name, float(Fraction(num, den)), num, den)


def degree_moment(G: Graph, k: int) -> float:
    """k-th raw moment of the degree of a uniform vertex, (1/n) sum d(v)^k."""
    if G.vertex_count < 1:
        raise ValueError("degree_moment needs a non-empty graph")
    if k < 1:
        raise ValueError("moment order must be >= 1")
    return float(Fraction(_power_sum(_host(G).d, k), G.vertex_count))


def degree_fraction(G: Graph, k: int) -> float:
    """Fraction of vertices of degree exactly k."""
    if G.vertex_count < 1:
        raise ValueError("degree_fraction needs a non-empty graph")
    if k < 0:
        raise ValueError("k must be non-negative")
    return float(Fraction(int((G.degrees() == k).sum()), G.vertex_count))


def clustering(G: Graph) -> StatReport:
    """emb(K3, G) / emb(P3, G), zero (degenerate) when there are no 2-paths."""
    num = emb_count(pattern_from_name("K3"), G)
    den = emb_count(pattern_from_name("P3"), G)
    return _ratio("alpha", num, den)


def conditional_clustering(G: Graph, k: int) -> StatReport:
    """P(v1 v3 edge | v1-v2-v3 ordered path of distinct vertices, d(v2) = k),
    from the triangle vector summed over the centres of degree k."""
    if k < 2:
        raise ValueError("conditional clustering needs k >= 2")
    host = _host(G)
    centers = host.d == k
    return _ratio(f"alpha_k({k})", _power_sum(host.tri[centers]), int(centers.sum()) * k * (k - 1))


def assortativity(G: Graph) -> StatReport:
    """Pearson correlation of endpoint degrees over ordered adjacent pairs.

    With 2e = hom(K2) ordered pairs, S1 = hom(P3) = sum d^2, S2 = hom(S3) =
    sum d^3 and P = hom(P4) = sum over ordered adjacent pairs of d(u) d(v),
    r = (2e P - S1^2) / (2e S2 - S1^2); 0 (degenerate) for empty or
    degree-regular graphs.
    """
    two_e, S1, S2, P = (hom_count(pattern_from_name(name), G) for name in ("K2", "P3", "S3", "P4"))
    return _ratio("assort", two_e * P - S1 * S1, two_e * S2 - S1 * S1)


def conditional_assortativity(G: Graph, k: int) -> StatReport:
    """Mean neighbour degree over ordered adjacent pairs whose first endpoint
    has degree k."""
    if k < 1:
        raise ValueError("conditional assortativity needs k >= 1")
    host = _host(G)
    centers = host.d == k
    return _ratio(f"r_k({k})", _power_sum(host.Ad[centers]), k * int(centers.sum()))


def empirical_ball_dist(G: Graph, r: int) -> CodeHistogram:
    """Distribution of the code of B_r(G, v) over all vertices v, as counts;
    codes come from ``ballcode.ball_codes``."""
    if G.vertex_count < 1:
        raise ValueError("empirical_ball_dist needs a non-empty graph")
    hist = CodeHistogram()
    for code in ball_codes(G, r):
        hist.add(code)
    return hist
