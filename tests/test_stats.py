from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim.graphs import Graph, RootedGraph, ball
from rigsim.stats import (
    StatReport,
    assortativity,
    clustering,
    conditional_assortativity,
    conditional_clustering,
    degree_fraction,
    degree_moment,
    empirical_ball_dist,
)
from rigsim.counting import emb_count, pattern_from_name

from tests.conftest import random_graph

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
STAR3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
K4_MINUS_EDGE = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestDegreeStats:
    def test_moment_examples(self):
        assert degree_moment(K3, 2) == 4
        assert degree_moment(STAR3, 1) == 1.5
        assert degree_moment(STAR3, 2) == 3
        assert degree_moment(K3, 1) == 2 * K3.edge_count / 3

    def test_fraction_examples(self):
        assert degree_fraction(K3, 2) == 1
        assert degree_fraction(K3, 1) == 0
        assert degree_fraction(STAR3, 1) == 0.75

    @pytest.mark.parametrize("k", [-1, -3])
    def test_fraction_negative_k_rejected(self, k):
        with pytest.raises(ValueError, match="non-negative"):
            degree_fraction(K3, k)

    def test_fractions_sum_to_one(self, rng):
        g = random_graph(rng)
        total = sum(degree_fraction(g, k) for k in range(int(g.degrees().max(initial=0)) + 1))
        assert total == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            degree_moment(Graph.empty(0), 1)


class TestClustering:
    def test_examples(self):
        assert clustering(K3).value == 1.0
        assert clustering(P3).value == 0.0 and not clustering(P3).degenerate
        rep = clustering(Graph.empty(3))
        assert rep.value == 0.0 and rep.degenerate

    def test_matches_counting_module(self, rng):
        for _ in range(10):
            g = random_graph(rng)
            rep = clustering(g)
            assert rep.numerator == emb_count(pattern_from_name("K3"), g)
            assert rep.denominator == emb_count(pattern_from_name("P3"), g)

    def test_range(self, rng):
        for _ in range(20):
            rep = clustering(random_graph(rng))
            assert 0.0 <= rep.value <= 1.0


class TestConditionalClustering:
    def test_examples(self):
        assert conditional_clustering(K3, 2).value == 1.0
        assert conditional_clustering(P3, 2).value == 0.0
        rep = conditional_clustering(K4_MINUS_EDGE, 3)
        assert rep.value == pytest.approx(4 / 6)
        assert (rep.numerator, rep.denominator) == (8, 12)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            conditional_clustering(K3, 1)

    def test_against_naive_enumeration(self, rng):
        for _ in range(30):
            g = random_graph(rng, n_max=12)
            adj = g.adjacency_sets()
            d = g.degrees()
            for k in range(2, int(d.max(initial=0)) + 1):
                num = den = 0
                for v2 in range(g.vertex_count):
                    if d[v2] != k:
                        continue
                    for v1 in adj[v2]:
                        for v3 in adj[v2]:
                            if v1 == v3:
                                continue
                            den += 1
                            if v3 in adj[v1]:
                                num += 1
                rep = conditional_clustering(g, k)
                assert (rep.numerator, rep.denominator) == (num, den)


class TestAssortativity:
    def test_regular_degenerate(self):
        rep = assortativity(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        assert rep.value == 0.0 and rep.degenerate

    def test_star(self):
        assert assortativity(STAR3).value == -1.0

    def test_empty(self):
        rep = assortativity(Graph.empty(3))
        assert rep.value == 0.0 and rep.degenerate

    def test_against_naive(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            pairs = [(u, int(v)) for u in range(g.vertex_count) for v in g.neighbors(u)]
            if not pairs:
                continue
            d = g.degrees()
            gg = sum(d[a] * d[b] for a, b in pairs) / len(pairs)
            bb = sum(d[a] for a, _ in pairs) / len(pairs)
            bp = sum(int(d[a]) ** 2 for a, _ in pairs) / len(pairs)
            rep = assortativity(g)
            if abs(bp - bb * bb) < 1e-12:
                assert rep.degenerate
            else:
                assert rep.value == pytest.approx((gg - bb * bb) / (bp - bb * bb))
                assert -1.0 - 1e-12 <= rep.value <= 1.0 + 1e-12


class TestConditionalAssortativity:
    def test_examples(self):
        assert conditional_assortativity(K3, 2).value == 2.0
        assert conditional_assortativity(STAR3, 1).value == 3.0
        assert conditional_assortativity(STAR3, 3).value == 1.0
        rep = conditional_assortativity(K3, 1)
        assert rep.value == 0.0 and rep.degenerate

    def test_against_naive(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            d = g.degrees()
            for k in range(1, int(d.max(initial=0)) + 1):
                pairs = [
                    (u, int(v)) for u in range(g.vertex_count) if d[u] == k for v in g.neighbors(u)
                ]
                rep = conditional_assortativity(g, k)
                if not pairs:
                    assert rep.degenerate
                else:
                    assert rep.value == pytest.approx(sum(d[b] for _, b in pairs) / len(pairs))


class TestEmpiricalBallDist:
    def test_p3_radius_one(self):
        h = empirical_ball_dist(P3, 1)
        assert sorted(h.probabilities().values()) == pytest.approx([1 / 3, 2 / 3])

    def test_vertex_transitive_single_code(self):
        C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert len(empirical_ball_dist(C5, 1).counts) == 1

    def test_empty_graph(self):
        h = empirical_ball_dist(Graph.empty(7), 3)
        assert len(h.counts) == 1 and h.total == 7

    def test_exact_mode_sums_to_one(self, rng):
        g = random_graph(rng)
        h = empirical_ball_dist(g, 1)
        assert h.total == g.vertex_count
        assert abs(sum(h.probabilities().values()) - 1) < 1e-12

    def test_codes_match_direct_ball_codes(self, rng):
        g = random_graph(rng, n_max=15)
        h = empirical_ball_dist(g, 2)
        direct = {}
        for v in range(g.vertex_count):
            c = ball(g, v, 2).code
            direct[c] = direct.get(c, 0) + 1
        assert h.counts == direct


# -- the statistics read from the counting host equal the per-vertex loops ---------------


def loop_triangles_at(G: Graph, v: int) -> int:
    """Ordered pairs (u, w) of distinct neighbours of v with u ~ w."""
    sv = set(map(int, G.neighbors(v)))
    return sum(len(sv.intersection(map(int, G.neighbors(int(u))))) for u in G.neighbors(v))


def loop_conditional_clustering(G: Graph, k: int) -> tuple[int, int]:
    centers = np.flatnonzero(G.degrees() == k)
    return sum(loop_triangles_at(G, int(v)) for v in centers), int(centers.size) * k * (k - 1)


def loop_assortativity(G: Graph) -> tuple[int, int]:
    d = [int(x) for x in G.degrees()]
    two_e = sum(d)
    P = sum(d[u] * d[int(v)] for u in range(G.vertex_count) for v in G.neighbors(u))
    S1 = sum(x**2 for x in d)
    S2 = sum(x**3 for x in d)
    return two_e * P - S1 * S1, two_e * S2 - S1 * S1


def loop_conditional_assortativity(G: Graph, k: int) -> tuple[int, int]:
    d = G.degrees()
    centers = np.flatnonzero(d == k)
    return sum(int(d[G.neighbors(int(v))].sum()) for v in centers), k * int(centers.size)


@st.composite
def graphs(draw):
    """Random, edgeless (one-vertex included) and circulant regular graphs."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["random", "edgeless", "regular"]))
    if kind == "edgeless":
        return Graph.empty(n)
    if kind == "regular":
        steps = draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3))
        return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps if (i + s) % n != i])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, b in zip(pairs, keep) if b])


def report(name: str, num: int, den: int):
    if den == 0:
        return StatReport(name, 0.0, num, den, degenerate=True)
    return StatReport(name, float(Fraction(num, den)), num, den)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 16))
def test_host_statistics_match_vertex_loops(g, k):
    # k runs past the largest possible degree, so some k belong to no vertex
    assert assortativity(g) == report("assort", *loop_assortativity(g))
    assert conditional_assortativity(g, k) == report(f"r_k({k})", *loop_conditional_assortativity(g, k))
    if k >= 2:
        assert conditional_clustering(g, k) == report(f"alpha_k({k})", *loop_conditional_clustering(g, k))
