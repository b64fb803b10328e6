import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from rigsim import generators
from rigsim.generators import (
    ModelConfig,
    gen_active,
    gen_configuration,
    gen_degree_sequences,
    gen_inhomogeneous,
    gen_passive,
    generate_bipartite,
    plant_clique,
)
from rigsim.graphs import BipartiteMultigraph, Graph, intersection_graph
from rigsim.laws import DegreeLaw, WeightLaw
from rigsim.rng import substream
from tests.conftest import SMALL_MODELS
from tests.oracles import part_degrees


class TestActive:
    def test_complete(self):
        H = gen_active(4, 3, DegreeLaw.constant(3), substream(1))
        G = intersection_graph(H)
        assert G.edge_count == 6  # K_4

    def test_empty(self):
        assert gen_active(5, 3, DegreeLaw.constant(0), substream(1)).edge_count == 0

    def test_oversized_support_aborts(self):
        with pytest.raises(ValueError):
            gen_active(5, 2, DegreeLaw.constant(3), substream(1))

    def test_part1_degrees_match_p_chisquare(self):
        P = DegreeLaw.from_pmf({1: 0.3, 3: 0.5, 6: 0.2})
        H = gen_active(100_000, 100_000, P, substream(2))
        deg = part_degrees(H, 1)
        obs = np.array([(deg == v).sum() for v in (1, 3, 6)])
        exp = np.array([0.3, 0.5, 0.2]) * 100_000
        chi2 = ((obs - exp) ** 2 / exp).sum()
        assert chi2 < sps.chi2.ppf(0.999, df=2)

    def test_part2_degrees_binomial(self):
        # P == 3: each attribute degree ~ Binomial(n1, 3/n2)
        n = 10_000
        H = gen_active(n, n, DegreeLaw.constant(3), substream(3))
        deg2 = part_degrees(H, 2)
        p = 3.0 / n
        for cell in range(7):
            expect = n * sps.binom.pmf(cell, n, p)
            sd = math.sqrt(max(expect * (1 - sps.binom.pmf(cell, n, p)), 1))
            assert abs((deg2 == cell).sum() - expect) < 3 * sd


class TestPassive:
    def test_complete(self):
        H = gen_passive(3, 4, DegreeLaw.constant(3), substream(4))
        assert intersection_graph(H).edge_count == 3

    def test_single_attribute_pair(self):
        H = gen_passive(6, 1, DegreeLaw.constant(2), substream(5))
        G = intersection_graph(H)
        assert G.edge_count == 1 and G.vertex_count == 6

    def test_empty(self):
        assert gen_passive(4, 3, DegreeLaw.constant(0), substream(6)).edge_count == 0


class TestInhomogeneous:
    def test_zero_weight_empty(self):
        H = gen_inhomogeneous(10, 10, WeightLaw.point(0), WeightLaw.point(1), substream(7))
        assert H.edge_count == 0

    def test_clipped_complete(self):
        H = gen_inhomogeneous(30, 30, WeightLaw.point(10), WeightLaw.point(10), substream(8))
        assert H.edge_count == 900

    def test_edge_count_binomial(self):
        n = 3000
        H = gen_inhomogeneous(n, n, WeightLaw.point(1), WeightLaw.point(1), substream(9))
        mean, sd = n, math.sqrt(n * (1 - 1 / n))
        assert abs(H.edge_count - mean) < 3 * sd

    def test_mean_degree_matches_limit(self):
        # mean part-1 degree -> E xi1 E xi2 sqrt(n2/n1)
        n1, n2 = 20_000, 5_000
        xi1 = WeightLaw.finite([0.5, 1.5], [0.5, 0.5])
        xi2 = WeightLaw.exponential(1.0)
        H = gen_inhomogeneous(n1, n2, xi1, xi2, substream(10))
        expect = xi1.mean() * xi2.mean() * math.sqrt(n2 / n1)
        got = H.edge_count / n1
        assert abs(got - expect) < 3 * math.sqrt(expect / n1)

    def test_pair_frequencies_match_probabilities(self):
        # each pair is kept with probability min(w1 w2 / sqrt(n1 n2), 1) given
        # the weights; both cases have clipped pairs, and the Pareto(2.5, 10)
        # weights are the dense input where most candidates get thinned
        heavy = substream(11)
        cases = [
            (np.array([0.0, 0.3, 1.0, 2.5, 6.0, 40.0]), np.array([0.2, 1.0, 3.0, 25.0, 0.05])),
            (WeightLaw.pareto(2.5, 10.0).sample(heavy, 12), WeightLaw.exponential(1.0).sample(heavy, 10)),
        ]
        reps = 3000
        for case, (w1, w2) in enumerate(cases):
            p = np.minimum(np.outer(w1, w2) / math.sqrt(w1.size * w2.size), 1.0)
            assert (p == 1.0).any() and (p < 1.0).any()
            hits = np.zeros(p.shape)
            for rep in range(reps):
                H = gen_inhomogeneous(w1.size, w2.size, FixedWeights(w1), FixedWeights(w2), substream(60, case, rep))
                assert (H.mult == 1).all()
                hits[H.edge_u, H.edge_w] += 1
            assert (np.abs(hits / reps - p) <= 4 * np.sqrt(p * (1 - p) / reps)).all()


class FixedWeights:
    """A weight law that returns the same weights at every draw."""

    def __init__(self, w):
        self.w = w

    def sample(self, rng, size):
        assert size == self.w.size
        return self.w


class TestConfiguration:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_configuration([2, 1], [1, 1, 2], substream(12))

    def test_degrees_preserved_with_multiplicity(self, rng):
        for _ in range(20):
            d1 = rng.integers(0, 5, size=rng.integers(1, 8))
            total = int(d1.sum())
            if total == 0:
                continue
            # split total into a random d2
            cuts = np.sort(rng.integers(0, total + 1, size=rng.integers(1, 6)))
            d2 = np.diff(np.concatenate([[0], cuts, [total]]))
            H = gen_configuration(d1, d2, substream(int(rng.integers(1 << 30))))
            assert part_degrees(H, 1).tolist() == list(d1)
            assert part_degrees(H, 2).tolist() == list(d2)

    def test_trivial_examples(self):
        H = gen_configuration([2], [1, 1], substream(13))
        assert intersection_graph(H).edge_count == 0
        H = gen_configuration([1, 1], [2], substream(14))
        assert intersection_graph(H).edge_count == 1
        H = gen_configuration([1] * 10, [1] * 10, substream(15))
        assert (part_degrees(H, 1) == 1).all() and (part_degrees(H, 2) == 1).all()


class TestDegreeSequences:
    def test_balanced_constant(self):
        d1, d2 = gen_degree_sequences(10, DegreeLaw.constant(2), DegreeLaw.constant(2), substream(16))
        assert len(d1) == 11 and len(d2) == 11
        assert d1.sum() == d2.sum() and d1[-1] == 0 and d2[-1] == 0

    def test_beta_scaling(self):
        d1, d2 = gen_degree_sequences(10, DegreeLaw.constant(4), DegreeLaw.constant(2), substream(17))
        assert len(d2) == 21  # n2 = 2 * n1, plus the balancing entry
        assert d1.sum() == d2.sum()

    def test_lln_balancing_term_small(self):
        D1 = DegreeLaw.from_pmf({1: 0.5, 3: 0.5})
        for rep in range(5):
            d1, d2 = gen_degree_sequences(100_000, D1, DegreeLaw.constant(2), substream(19, rep))
            assert d1.sum() == d2.sum()
            assert max(d1[-1], d2[-1]) / 100_000 < 0.01


def edge_union_planting(G: Graph, s: int, rng: np.random.Generator) -> Graph:
    """The earlier planting on G itself: the union of E(G) with all pairs of
    a uniformly random s-subset of vertices."""
    members = np.sort(rng.choice(G.vertex_count, size=s, replace=False))
    iu, jv = np.triu_indices(s, k=1)
    return Graph.from_edges(G.vertex_count, np.concatenate([G.edge_array(), np.stack([members[iu], members[jv]], axis=1)]))


class TestPlantClique:
    def test_identity_cases(self):
        empty = BipartiteMultigraph.from_pairs(6, 2, [])
        assert intersection_graph(plant_clique(empty, 1, substream(20))).edge_count == 0
        assert intersection_graph(plant_clique(empty, 6, substream(20))).edge_count == 15
        K3 = BipartiteMultigraph.from_pairs(3, 1, [(0, 0), (1, 0), (2, 0)])
        assert intersection_graph(plant_clique(K3, 3, substream(20))).edge_count == 3

    def test_range_checks(self):
        empty = BipartiteMultigraph.from_pairs(3, 1, [])
        with pytest.raises(ValueError):
            plant_clique(empty, 0, substream(21))
        with pytest.raises(ValueError):
            plant_clique(empty, 4, substream(21))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SMALL_MODELS), st.integers(1, 40))
    def test_projection_is_the_edge_union(self, seed, model, s):
        # one more attribute on H projects to the graph that the edge union
        # of a clique on G gives, from the same draws
        H = generate_bipartite(ModelConfig.from_config(model), substream(seed))
        s = min(s, H.n1)
        Hp = plant_clique(H, s, substream(seed, 1))
        assert intersection_graph(Hp) == edge_union_planting(intersection_graph(H), s, substream(seed, 1))
        assert (Hp.n1, Hp.n2, Hp.edge_count) == (H.n1, H.n2 + 1, H.edge_count + s)
        # H' is stored as ``from_pairs`` stores it
        again = BipartiteMultigraph.from_pairs(Hp.n1, Hp.n2, np.repeat(np.stack([Hp.edge_u, Hp.edge_w], 1), Hp.mult, 0))
        for name in ("edge_u", "edge_w", "mult"):
            assert np.array_equal(getattr(again, name), getattr(Hp, name))


# H per model at substream(99, 5), pinned so that any change to a sampler's
# random stream fails loudly: SHA-256 of the little-endian int64 rows
# edge_u, edge_w, mult
PINNED_MODELS = [
    ({"model": "active", "n1": 200, "n2": 150, "P": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}}},
     "56b6fc36c4dad35e074a45d03f08543861277addbadbf3dcd54cdf996b9f2fac"),
    ({"model": "passive", "n1": 150, "n2": 200, "P": {"kind": "constant", "value": 2}},
     "ed0afc828f0f6a72970ce82c967afc58a7d2ecf4f627673f9bad44796239cc0f"),
    ({"model": "inhomogeneous", "n1": 100, "n2": 100,
      "xi1": {"kind": "exponential", "rate": 1.0}, "xi2": {"kind": "point", "value": 1.0}},
     "b350eeb490d0122293144ee3f13ab04452ad6d8b9b1e8fe3bc574f3bde7437e0"),  # sparse: distinct Floyd draws
    ({"model": "inhomogeneous", "n1": 100, "n2": 80,
      "xi1": {"kind": "pareto", "shape": 2.5, "scale": 10.0}, "xi2": {"kind": "exponential", "rate": 1.0}},
     "ade37e597b2add8c98c09ddfd9f594b0af2fb2b55490acc5b866dc4449d60157"),  # dense: clipped pairs, repeated draws
    ({"model": "configuration", "n1": 100,
      "D1": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}}, "D2": {"kind": "constant", "value": 2}},
     "c185bf92afcaf4b6ac6c05e8e0f8a816af1897ca63acb1e34a5160070d157fa4"),
]


class TestDeterminismAndConfig:
    def test_bitwise_determinism(self):
        for model_cfg, digest in PINNED_MODELS:
            config = ModelConfig.from_config(model_cfg)
            a = generate_bipartite(config, substream(99, 5))
            b = generate_bipartite(config, substream(99, 5))
            assert np.array_equal(a.edge_u, b.edge_u)
            assert np.array_equal(a.edge_w, b.edge_w)
            assert np.array_equal(a.mult, b.mult)
            rows = np.stack([a.edge_u, a.edge_w, a.mult]).astype("<i8")
            assert hashlib.sha256(rows.tobytes()).hexdigest() == digest, model_cfg["model"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig.from_config({"model": "active", "n1": 10, "n2": 10, "P": {"kind": "poisson", "lam": 2}})
        with pytest.raises(ValueError):
            ModelConfig.from_config({"model": "nope", "n1": 1, "n2": 1})
        cfg = ModelConfig.from_config(
            {"model": "configuration", "n1": 100, "D1": {"kind": "constant", "value": 4}, "D2": {"kind": "constant", "value": 2}}
        )
        assert cfg.n2 == 200 and cfg.beta == 2.0

    def test_configuration_model_takes_no_n2(self):
        # its n2 is floor(n1 E D1 / E D2); a given one would be ignored while
        # the plan's beta read it
        laws = {"D1": {"kind": "constant", "value": 4}, "D2": {"kind": "constant", "value": 2}}
        with pytest.raises(ValueError, match="unknown model key 'n2'"):
            ModelConfig.from_config({"model": "configuration", "n1": 1000, "n2": 50000, **laws})
        with pytest.raises(ValueError, match="missing the required key 'n2'"):
            ModelConfig.from_config({"model": "passive", "n1": 10, "P": {"kind": "constant", "value": 2}})


# -- batched draws against the per-vertex loops they replace ----------------------
#
# These reference samplers make one ``integers`` call per Floyd draw and build
# a list of (u, w) tuples; the array versions must give the same H and leave
# the generator at the same point of its stream.


def floyd_loop(rng, m, k):
    chosen = {}  # in the order the members join
    for j in range(m - k, m):
        t = int(rng.integers(0, j + 1))
        chosen[t if t not in chosen else j] = None
    return list(chosen)


def active_loop(n1, n2, P, rng):
    X = P.sample(rng, n1)
    pairs = [(v, w) for v in range(n1) for w in floyd_loop(rng, n2, int(X[v]))]
    return BipartiteMultigraph.from_pairs(n1, n2, pairs)


def passive_loop(n1, n2, P, rng):
    X = P.sample(rng, n2)
    pairs = [(u, w) for w in range(n2) for u in floyd_loop(rng, n1, int(X[w]))]
    return BipartiteMultigraph.from_pairs(n1, n2, pairs)


def inhomogeneous_loop(n1, n2, xi1, xi2, rng):
    w1 = xi1.sample(rng, n1)
    w2 = xi2.sample(rng, n2)
    norm = math.sqrt(n1 * n2)
    w2max = float(w2.max()) if n2 else 0.0
    pmax = [min(float(w1[v]) * w2max / norm, 1.0) for v in range(n1)]
    live = [v for v in range(n1) if pmax[v] > 0.0]
    counts = rng.binomial(n2, [pmax[v] for v in live])
    cand = [(v, w) for v, k in zip(live, counts.tolist()) for w in floyd_loop(rng, n2, k)]
    unif = rng.random(len(cand))
    pairs = [(v, w) for (v, w), u in zip(cand, unif.tolist()) if u * pmax[v] <= min(w1[v] * w2[w] / norm, 1.0)]
    return BipartiteMultigraph.from_pairs(n1, n2, pairs)


def assert_same_draws(new, old, rng_new, rng_old):
    assert new.n1 == old.n1 and new.n2 == old.n2
    assert np.array_equal(new.edge_u, old.edge_u)
    assert np.array_equal(new.edge_w, old.edge_w)
    assert np.array_equal(new.mult, old.mult)
    assert rng_new.integers(0, 2**62) == rng_old.integers(0, 2**62)


EQUIVALENCE = settings(max_examples=60, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def subset_sizes(draw, m):
    """A law on {0..m} with a few support points, often hitting 0 and m."""
    support = draw(st.lists(st.sampled_from(sorted({0, 1, m // 2, max(m - 1, 0), m})) | st.integers(0, m),
                            min_size=1, max_size=4, unique=True))
    return DegreeLaw.from_pmf({k: 1 / len(support) for k in support})


@EQUIVALENCE
@given(data=st.data(), n_own=st.integers(1, 40), m=st.integers(1, 25), seed=SEEDS, passive=st.booleans())
def test_batched_floyd_matches_loop(data, n_own, m, seed, passive):
    P = data.draw(subset_sizes(m))
    new_rng, old_rng = substream(seed), substream(seed)
    if passive:
        new, old = gen_passive(m, n_own, P, new_rng), passive_loop(m, n_own, P, old_rng)
    else:
        new, old = gen_active(n_own, m, P, new_rng), active_loop(n_own, m, P, old_rng)
    assert_same_draws(new, old, new_rng, old_rng)


@pytest.mark.parametrize("k", [0, 1, 5, 6])
def test_floyd_edge_cases(k):
    # k = 0 draws nothing, k = m gives the complete graph, one owner
    for n_own in (1, 7):
        new_rng, old_rng = substream(40, k, n_own), substream(40, k, n_own)
        new = gen_active(n_own, 6, DegreeLaw.constant(k), new_rng)
        assert_same_draws(new, active_loop(n_own, 6, DegreeLaw.constant(k), old_rng), new_rng, old_rng)
        assert new.edge_count == n_own * k


@EQUIVALENCE
@given(n1=st.integers(1, 40), n2=st.integers(1, 40), seed=SEEDS,
       scale=st.sampled_from([0.0, 0.2, 1.0, 3.0, 30.0]), spread=st.booleans())
def test_batched_inhomogeneous_matches_loop(n1, n2, seed, scale, spread):
    xi1 = WeightLaw.exponential(1 / scale) if spread and scale else WeightLaw.point(scale)
    xi2 = WeightLaw.finite([0.5, 2.0], [0.5, 0.5])
    new_rng, old_rng = substream(seed), substream(seed)
    new = gen_inhomogeneous(n1, n2, xi1, xi2, new_rng)
    assert_same_draws(new, inhomogeneous_loop(n1, n2, xi1, xi2, old_rng), new_rng, old_rng)


@pytest.mark.parametrize("scale, distinct", [(0.2, True), (30.0, False)])
def test_inhomogeneous_paths_match_loop(scale, distinct):
    # small weights give every vertex distinct Floyd draws; large ones make
    # many vertices repeat a draw, which _floyd_resolve then replaces
    xi1, xi2 = WeightLaw.point(scale), WeightLaw.finite([0.5, 2.0], [0.5, 0.5])
    new_rng, old_rng = substream(43), substream(43)
    with mock.patch.object(generators, "_floyd_resolve", wraps=generators._floyd_resolve) as resolve:
        new = gen_inhomogeneous(300, 200, xi1, xi2, new_rng)
    assert resolve.called != distinct
    assert new.edge_count > 0
    assert_same_draws(new, inhomogeneous_loop(300, 200, xi1, xi2, old_rng), new_rng, old_rng)


def test_configuration_array_pairs_match_tuples():
    d1, d2 = gen_degree_sequences(300, DegreeLaw.from_pmf({1: 0.5, 4: 0.5}), DegreeLaw.constant(2), substream(41))
    new_rng, old_rng = substream(42), substream(42)
    new = gen_configuration(d1, d2, new_rng)
    stubs2 = np.repeat(np.arange(d2.size), d2)[old_rng.permutation(int(d2.sum()))]
    old = BipartiteMultigraph.from_pairs(d1.size, d2.size, zip(np.repeat(np.arange(d1.size), d1).tolist(), stubs2.tolist()))
    assert new.mult.max() > 1  # repeated incidences are aggregated the same way
    assert_same_draws(new, old, new_rng, old_rng)
