import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim import limits
from rigsim.counting import Pattern, clique_families, connected_patterns, distinct_rootings, pattern_from_name
from rigsim.generators import ModelConfig
from rigsim.graphs import Graph
from rigsim.laws import DegreeLaw, MomentUnavailable, WeightLaw, offspring_law
from rigsim.limits import (
    LimitSpec,
    dstar_moment,
    limit_assortativity,
    limit_clustering,
    limit_conditional_assortativity,
    limit_conditional_clustering,
    limit_degree_pmf,
    limit_degree_pmf_vector,
    limit_hom_per_vertex,
    limit_spec_for,
    remark1_limits,
    rooted_emb_expectation,
    sample_gw_forest,
)
from rigsim.rng import substream
from tests import oracles
from tests.conftest import deterministic_tree_count
from tests.oracles import (
    CapExceeded,
    clique_tree,
    clique_tree_ball_from_tree,
    conditional_mc,
    dstar_moment_compositions,
    forest_tree,
    root_eccentricity,
    rooted_emb_count,
    rooted_emb_expectation_mc,
    sample_dstar,
    truncated_convolution,
    z_moment,
    z_sums,
)

CONST = DegreeLaw.constant
PMF = DegreeLaw.from_pmf
PO = DegreeLaw.poisson
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestLimitSpec:
    def test_mean_validation(self):
        with pytest.raises(ValueError):
            LimitSpec(CONST(2), CONST(0))  # D2 is reachable, must have mass
        # a childless root is an allowed degenerate case (d* = 0 a.s.)
        sp = LimitSpec(CONST(0), CONST(2))
        assert sp.degenerate_root
        assert limit_degree_pmf(sp, 0) == 1.0
        assert dstar_moment(sp, 2) == 0.0

    def test_remark1_identifications(self):
        s = remark1_limits("active", 1.0, P=CONST(3))
        assert s.D2.kind == "poisson" and s.D2.lam == pytest.approx(3.0)
        s = remark1_limits("passive", 2.0, P=CONST(2))
        assert s.D1.kind == "poisson" and s.D1.lam == pytest.approx(4.0)
        s = remark1_limits(
            "inhomogeneous", 1.0, xi1=WeightLaw.point(1.0), xi2=WeightLaw.point(1.0)
        )
        for k in range(12):
            assert s.D1.pmf(k) == pytest.approx(PO(1.0).pmf(k), abs=1e-15)
            assert s.D2.pmf(k) == pytest.approx(PO(1.0).pmf(k), abs=1e-15)

    def test_identification_balances_means(self):
        for model, kw in (
            ("active", dict(P=PMF({1: 0.25, 4: 0.75}))),
            ("passive", dict(P=PMF({2: 0.5, 5: 0.5}))),
            ("inhomogeneous", dict(xi1=WeightLaw.exponential(0.7), xi2=WeightLaw.pareto(3.0, 1.0))),
        ):
            for beta in (0.5, 1.0, 2.5):
                s = remark1_limits(model, beta, **kw)
                assert beta * float(s.D2.mean()) == pytest.approx(float(s.D1.mean()), rel=1e-9)


class TestZMoment:
    def test_examples(self):
        assert z_moment(CONST(2), 1) == pytest.approx(1.0)
        assert z_moment(PMF({1: 0.5, 3: 0.5}), 2) == pytest.approx(3.0)

    def test_factorial_identity(self):
        # E (Z)_k = E (D2)_{k+1} / E D2, read where the program uses it: with
        # D1 = 1 the root of K_{k+1} sits in one clique with k children
        D2 = PMF({1: 0.2, 2: 0.3, 5: 0.5})
        for k in range(1, 4):
            direct = float(D2.factorial_moment(k + 1)) / float(D2.mean())
            got = rooted_emb_expectation(LimitSpec(CONST(1), D2), pattern_from_name(f"K{k + 1}").rooted(0))
            assert got == pytest.approx(direct)
        for k in range(1, 5):  # Z ~ Po(1.7), so E (Z)_k = 1.7^k
            got = rooted_emb_expectation(LimitSpec(CONST(1), PO(1.7)), pattern_from_name(f"K{k + 1}").rooted(0))
            assert got == pytest.approx(1.7**k)

    def test_unavailable_moment_raises(self):
        D2 = DegreeLaw.mixed_poisson(WeightLaw.pareto(5.5, 1.0))
        with pytest.raises(MomentUnavailable):
            z_moment(D2, 5)  # needs E D2^6, pareto shape 5.5


class TestDstarMoment:
    def test_single_attribute(self):
        sp = LimitSpec(CONST(1), PO(2))
        for k in (1, 2, 3):
            assert dstar_moment(sp, k) == pytest.approx(z_moment(PO(2), k))

    def test_deterministic(self):
        sp = LimitSpec(CONST(2), CONST(2))
        assert dstar_moment(sp, 2) == pytest.approx(4.0)

    def test_matches_displayed_expansions(self, rng):
        for _ in range(20):
            v1 = sorted(map(int, rng.choice(range(1, 8), 3, replace=False)))
            v2 = sorted(map(int, rng.choice(range(1, 8), 3, replace=False)))
            D1 = PMF(dict(zip(v1, rng.dirichlet(np.ones(3)))))
            D2 = PMF(dict(zip(v2, rng.dirichlet(np.ones(3)))))
            sp = LimitSpec(D1, D2)
            z1, z2, z3 = (z_moment(D2, j) for j in (1, 2, 3))
            ed1 = float(D1.mean())
            ed12, ed13 = float(D1.factorial_moment(2)), float(D1.factorial_moment(3))
            assert dstar_moment(sp, 1) == pytest.approx(ed1 * z1, rel=1e-9)
            assert dstar_moment(sp, 2) == pytest.approx(ed1 * z2 + ed12 * z1**2, rel=1e-9)
            assert dstar_moment(sp, 3) == pytest.approx(
                ed1 * z3 + 3 * ed12 * z1 * z2 + ed13 * z1**3, rel=1e-9
            )

    def test_matches_the_composition_expansion(self, rng):
        # the hom limits of the stars S_1..S_7 against the composition
        # expansion over E binom(D1, j) and the moments of Z
        specs = [LimitSpec(PO(2), PO(1.5)), LimitSpec(PO(0.3), PO(4.0)), LimitSpec(PO(5), PO(0.7))]
        for _ in range(8):
            v1 = sorted(map(int, rng.choice(range(0, 9), 3, replace=False)))
            v2 = sorted(map(int, rng.choice(range(1, 9), 3, replace=False)))
            specs.append(LimitSpec(PMF(dict(zip(v1, rng.dirichlet(np.ones(3))))),
                                   PMF(dict(zip(v2, rng.dirichlet(np.ones(3)))))))
        for shape, rate in ((2.0, 1.0), (0.5, 0.3), (4.0, 2.0)):
            specs.append(LimitSpec(DegreeLaw.mixed_poisson(WeightLaw.gamma(shape, rate)),
                                   DegreeLaw.mixed_poisson(WeightLaw.gamma(rate + 1, shape))))
        for sp in specs:
            for k in range(1, 8):
                got = dstar_moment(sp, k)
                assert got == pytest.approx(dstar_moment_compositions(sp, k), rel=1e-12)

    def test_order_bounded_by_the_pattern_library(self):
        sp = LimitSpec(PO(2), PO(1.5))
        for k in (0, 8):
            with pytest.raises(ValueError, match="between 1 and 7"):
                dstar_moment(sp, k)

    def test_against_monte_carlo(self):
        sp = LimitSpec(PO(2), PO(1.5))
        d = sample_dstar(sp, 10**6, substream(2)).astype(np.float64)
        for k in (1, 2, 3):
            x = d**k
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(dstar_moment(sp, k) - x.mean()) < 3 * se


    def test_draw_order(self):
        # D1 first, then one Z draw for all the samples (the rejection
        # oracle shares these draws); when every D1 draw is 0 the Z law is
        # never built, which matters when it has none (D1 = D2 = 0)
        assert sample_dstar(LimitSpec(CONST(0), CONST(0)), 5, substream(1)).tolist() == [0] * 5
        sp = LimitSpec(PMF({0: 0.9, 2: 0.1}), PO(2))
        seen = set()
        for seed in range(30):
            rng, ref = substream(seed), substream(seed)
            d = sample_dstar(sp, 6, rng)
            d1 = sp.D1.sample(ref, 6)
            zs = offspring_law(sp.D2).sample(ref, int(d1.sum())) if d1.sum() else np.zeros(0, dtype=np.int64)
            starts = np.cumsum(d1) - d1
            assert d.tolist() == [int(zs[a : a + n].sum()) for a, n in zip(starts, d1)]
            assert rng.random() == ref.random()
            seen.add(bool(d1.sum()))
        assert seen == {False, True}


class TestDegreePmf:
    def test_deterministic_cases(self):
        assert limit_degree_pmf(LimitSpec(CONST(2), CONST(2)), 2) == pytest.approx(1.0)
        assert limit_degree_pmf(LimitSpec(CONST(2), CONST(2)), 3) == 0.0

    def test_poisson_compound(self):
        # D1 ~ Po(1), Z == 1 => d* = D1
        sp = LimitSpec(PO(1), CONST(2))
        for k in range(10):
            assert limit_degree_pmf(sp, k) == pytest.approx(PO(1).pmf(k), abs=1e-12)
        assert limit_degree_pmf(sp, 0) >= math.exp(-1) - 1e-12

    def test_sums_to_one_with_certified_deficit(self):
        # the missing mass is P(d* > 80) <= E (d*)^7 / 81^7 (Markov), here
        # below 1e-7, and no truncation of D1 takes more
        sp = LimitSpec(PO(2), PO(1.5))
        vec = limit_degree_pmf_vector(sp, 80)
        deficit = 1.0 - math.fsum(vec)
        assert -1e-15 <= deficit <= dstar_moment(sp, 7) / 81**7 < 1e-7

    def test_matches_mc(self):
        sp = LimitSpec(PMF({1: 0.5, 3: 0.5}), PO(2))
        d = sample_dstar(sp, 400_000, substream(3))
        vec = limit_degree_pmf_vector(sp, 15)
        for k in range(16):
            p = vec[k]
            if p * d.size < 20:
                continue
            phat = (d == k).mean()
            assert abs(phat - p) < 4 * math.sqrt(p * (1 - p) / d.size)

    def test_mc_fallback_stderr_scaling(self):
        # Pareto weights, whose only limit path was this Monte Carlo, now
        # have an exact P(d* = 2); the sampled frequency closes on it with a
        # stderr that shrinks like samples^(-1/2): each step by ~2
        sp = LimitSpec(DegreeLaw.mixed_poisson(WeightLaw.pareto(3.5, 1.0)), PO(2))
        exact = limit_degree_pmf(sp, 2)
        ses = []
        for i, n in enumerate((4000, 16000, 64000)):
            phat = float((sample_dstar(sp, n, substream(4, i)) == 2).mean())
            ses.append(math.sqrt(phat * (1 - phat) / n))
            assert abs(phat - exact) < 4 * ses[-1]
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.35)
        assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.35)

    @pytest.mark.parametrize("sp", [
        LimitSpec(PO(2), PO(1.5)),
        LimitSpec(PO(0.3), PO(4.0)),
        LimitSpec(PMF({1: 0.5, 3: 0.5}), CONST(2)),
        LimitSpec(PMF({0: 0.25, 1: 0.25, 4: 0.5}), PMF({1: 0.3, 2: 0.3, 5: 0.4})),
        remark1_limits("passive", 0.5, P=PMF({2: 0.5, 4: 0.5})),
        remark1_limits("inhomogeneous", 1.0, xi1=WeightLaw.gamma(2.0, 1.0), xi2=WeightLaw.exponential(1.0)),
        LimitSpec(DegreeLaw.mixed_poisson(WeightLaw.gamma(0.5, 0.3)),
                  DegreeLaw.mixed_poisson(WeightLaw.finite([0.0, 1.5, 4.0], [0.2, 0.5, 0.3]))),
    ], ids=["poisson", "sparse-poisson", "configuration", "finite", "passive", "nbinom", "nbinom-finite-mix"])
    def test_thinned_sums_match_the_convolution_per_d1_value(self, sp):
        # thinning D1 to the non-zero Z_i changes the order of the sums, not
        # their terms: every value within 1e-14 relative of the convolution
        # over each value of D1 with the zeros of Z kept
        for k in range(9):
            _, pk = truncated_convolution(sp, k, lambda m: 0)
            assert limit_degree_pmf(sp, k) == pytest.approx(pk, rel=1e-14, abs=0)
            for weight, scale, limit in ((lambda m: m * (m - 1), k * (k - 1), limit_conditional_clustering),
                                         (lambda m: m * m, k, limit_conditional_assortativity)):
                if scale == 0 or pk == 0:
                    continue
                num, _ = truncated_convolution(sp, k, weight)
                got = limit(sp, k)
                if limit is limit_conditional_assortativity:
                    got -= (float(sp.D1.factorial_moment(2)) * float(sp.D2.factorial_moment(2))
                            / (float(sp.D1.mean()) * float(sp.D2.mean())))
                assert got == pytest.approx(num / (scale * pk), rel=1e-14, abs=1e-15)


class TestClusteringLimit:
    def test_extremes(self):
        assert limit_clustering(LimitSpec(CONST(1), PO(2))) == pytest.approx(1.0)
        assert limit_clustering(LimitSpec(PO(2), CONST(2))) == pytest.approx(0.0)

    def test_active_simplification(self):
        for P in (CONST(3), PMF({1: 0.5, 3: 0.5}), PMF({2: 0.25, 4: 0.75})):
            for beta in (0.5, 1.0, 2.0):
                s = remark1_limits("active", beta, P=P)
                expect = float(P.mean()) / float(P.raw_moment(2))
                assert limit_clustering(s) == pytest.approx(expect, rel=1e-9)

    def test_passive_simplification(self):
        # alpha* = E (D2)_3 / (E (D2)_3 + beta (E (D2)_2)^2)
        P = PMF({2: 0.5, 4: 0.5})
        for beta in (0.5, 2.0):
            s = remark1_limits("passive", beta, P=P)
            f3, f2 = float(P.factorial_moment(3)), float(P.factorial_moment(2))
            assert limit_clustering(s) == pytest.approx(f3 / (f3 + beta * f2**2), rel=1e-9)

    def test_degenerate(self):
        # d* = 1 almost surely, so the P3 limit is 0 and the ratio is 0/0
        with pytest.raises(ValueError, match="the P3 limit is 0"):
            limit_clustering(LimitSpec(CONST(1), CONST(2)))


class TestAssortativityLimit:
    def test_zero_case(self):
        est = limit_assortativity(LimitSpec(PMF({1: 0.5, 2: 0.5}), CONST(2)))
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_raises(self):
        for c in (1, 2, 3):
            with pytest.raises(ValueError):
                limit_assortativity(LimitSpec(CONST(c), CONST(c)))

    def test_against_clique_tree_mc(self):
        # degree-degree correlation over edges of sampled radius-2 balls:
        # sample ordered root-neighbour pairs via the size-biased root trick
        # is involved; instead check rho* against the empirical correlation on
        # one big configuration-model graph elsewhere (acceptance 10) and here
        # just pin the closed form for an asymmetric case.
        sp = LimitSpec(PMF({1: 0.5, 3: 0.5}), PMF({1: 0.25, 2: 0.75}))
        est = limit_assortativity(sp)
        assert -1.0 <= est <= 1.0


class TestConditionalLimits:
    def test_clustering_examples(self):
        assert limit_conditional_clustering(LimitSpec(CONST(1), CONST(3)), 2) == pytest.approx(1.0)
        assert limit_conditional_clustering(LimitSpec(CONST(2), CONST(2)), 2) == pytest.approx(0.0)

    def test_pk_zero_rejected(self):
        with pytest.raises(ValueError):
            limit_conditional_clustering(LimitSpec(CONST(2), CONST(2)), 3)

    @pytest.mark.parametrize("D2", [CONST(0), PO(1)], ids=["const0", "po1"])
    def test_childless_root_rejected(self, D2):
        # E D1 = 0: d* = 0 almost surely, so every k >= 1 is undefined
        sp = LimitSpec(CONST(0), D2)
        for k in (1, 2, 3):
            if k >= 2:
                with pytest.raises(ValueError, match=rf"P\(d\* = {k}\) = 0"):
                    limit_conditional_clustering(sp, k)
            with pytest.raises(ValueError, match=rf"P\(d\* = {k}\) = 0"):
                limit_conditional_assortativity(sp, k)

    def test_infinite_additive_term_raises_before_drawing(self, monkeypatch):
        # E (D1)_2 = inf (Pareto(1.5) weights): r_k* is infinite, and no pmf
        # sum runs to find that out, while alpha_k*, which needs no moment,
        # is finite
        sp = LimitSpec(DegreeLaw.mixed_poisson(WeightLaw.pareto(1.5, 1.0)), PO(1))
        assert 0 < limit_conditional_clustering(sp, 2) < 1
        monkeypatch.setattr(limits, "_thinned_laws", lambda *a: pytest.fail("the conditional sums ran"))
        with pytest.raises(MomentUnavailable, match="order 2 is infinite"):
            limit_conditional_assortativity(sp, 2)

    def test_poisson_shortcut_matches_exact(self):
        # with D2 ~ Po(lam): alpha_k* = lam P(d* = k-1) / (k P(d* = k))
        for D1 in (CONST(3), PO(2), PMF({1: 0.5, 3: 0.5})):
            sp = LimitSpec(D1, PO(1))
            for k in (2, 3, 4):
                a = limit_conditional_clustering(sp, k)
                lam, pk, pk1 = sp.D2.lam, limit_degree_pmf(sp, k), limit_degree_pmf(sp, k - 1)
                assert a == pytest.approx(lam * pk1 / (k * pk), rel=1e-9)

    def test_mc_matches_exact(self):
        # with Pareto weights too, on which this rejection pass was once the
        # only path; shapes in (1, 2) give D1 an infinite variance
        laws = [(PMF({1: 0.5, 3: 0.5}), 3.5)] + [(DegreeLaw.mixed_poisson(WeightLaw.pareto(a, 1.0)), 4)
                                                  for a in (1.2, 1.5, 3.0)]
        for D1, bound in laws:
            sp = LimitSpec(D1, PO(1.5))
            for k in (2, 3):
                exact = limit_conditional_clustering(sp, k)
                scale = k * (k - 1)
                mc = conditional_mc(sp, k, lambda z: z * (z - 1), 150_000, substream(5, k))
                assert abs(mc.value / scale - exact) < bound * mc.stderr / scale, (D1, k)

    def test_weighted_sums_match_the_per_tree_loop(self):
        # one np.add.reduceat against a sum per tree, as the rejection oracle
        # once took them; the weights are integers in floats, so exactly
        pareto = DegreeLaw.mixed_poisson(WeightLaw.pareto(3.0, 1.0))
        for li, (D1, D2) in enumerate([(PO(0.3), PO(2)), (pareto, pareto), (PMF({0: 0.5, 2: 0.5}), CONST(1))]):
            for seed in range(3):
                forest = sample_gw_forest(D1, D2, 2, 500, substream(seed, li), math.inf)
                s = forest.starts[1]
                for weight in (lambda m: m * (m - 1), lambda m: m * m):
                    loop = [float(weight(forest.counts[1][s[i] : s[i + 1]].astype(np.float64)).sum())
                            if forest.counts[0][i] else 0.0 for i in range(forest.samples)]
                    sums = z_sums(forest, lambda z: weight(z.astype(np.float64)))
                    assert sums.tolist() == loop
                assert z_sums(forest).tolist() == [
                    int(forest.counts[1][s[i] : s[i + 1]].sum()) if forest.counts[0][i] else 0
                    for i in range(forest.samples)
                ]

    def test_assortativity_examples(self):
        assert limit_conditional_assortativity(LimitSpec(CONST(2), CONST(2)), 2) == pytest.approx(2.0)
        assert limit_conditional_assortativity(LimitSpec(CONST(1), CONST(2)), 1) == pytest.approx(1.0)
        assert limit_conditional_assortativity(LimitSpec(PO(1), CONST(2)), 3) == pytest.approx(2.0)

    def test_assortativity_mc_matches_exact(self):
        sp = LimitSpec(PMF({2: 0.5, 3: 0.5}), PO(1.2))
        exact = limit_conditional_assortativity(sp, 3)
        additive = (float(sp.D1.factorial_moment(2)) * float(sp.D2.factorial_moment(2))
                    / (float(sp.D1.mean()) * float(sp.D2.mean())))
        mc = conditional_mc(sp, 3, lambda z: z * z, 150_000, substream(6))
        assert abs(mc.value / 3 + additive - exact) < 3.5 * mc.stderr / 3

    def test_exact_path_matches_exhaustive_enumeration(self):
        import itertools
        from fractions import Fraction

        D1 = PMF({0: Fraction(1, 8), 1: Fraction(3, 8), 2: Fraction(1, 4), 3: Fraction(1, 4)})
        D2 = PMF({1: Fraction(1, 4), 2: Fraction(1, 2), 3: Fraction(1, 4)})  # Z on {0,1,2}
        sp = LimitSpec(D1, D2)
        d2pmf = dict(zip(D2.values, D2.probs))
        ed2 = D2.mean()
        zp = {m: Fraction(m + 1) * d2pmf.get(m + 1, Fraction(0)) / ed2 for m in range(3)}

        def brute(k, w):
            num = Fraction(0)
            pk = Fraction(0)
            for n, pn in zip(D1.values, D1.probs):
                for zs in itertools.product(range(3), repeat=n):
                    pz = pn
                    for z in zs:
                        pz *= zp[z]
                    if sum(zs) == k:
                        pk += pz
                        num += pz * sum(w(z) for z in zs)
            return num, pk

        additive = float(D1.factorial_moment(2) * D2.factorial_moment(2) / (D1.mean() * D2.mean()))
        for k in (1, 2, 3, 4):
            num_cc, pk = brute(k, lambda z: z * (z - 1))
            num_ca, _ = brute(k, lambda z: z * z)
            assert limit_degree_pmf(sp, k) == pytest.approx(float(pk), abs=1e-12)
            if k >= 2:
                got = limit_conditional_clustering(sp, k)
                assert got == pytest.approx(float(num_cc / pk) / (k * (k - 1)), abs=1e-12)
            got = limit_conditional_assortativity(sp, k)
            assert got == pytest.approx(float(num_ca / pk) / k + additive, abs=1e-12)


class TestRootedEmbExpectation:
    def test_rooted_k2_estimates_mean_degree(self):
        sp = LimitSpec(PO(2), PO(1.5))
        est = rooted_emb_expectation_mc(sp, pattern_from_name("K2").rooted(0), 1, 4000, substream(7))
        lim = dstar_moment(sp, 1)
        assert abs(est.value - lim) < 3 * est.stderr

    def test_rooted_k3_degenerate(self):
        sp = LimitSpec(CONST(1), CONST(3))
        est = rooted_emb_expectation_mc(sp, pattern_from_name("K3").rooted(0), 1, 200, substream(8))
        assert est.value == pytest.approx(2.0)  # E D1 * E (Z)_2 = 1 * 2

    def test_rooting_invariance_p3(self):
        sp = LimitSpec(PO(2), PO(1.5))
        p3 = pattern_from_name("P3")
        est_end = rooted_emb_expectation_mc(sp, p3.rooted(0), 2, 4000, substream(9, 0))
        est_center = rooted_emb_expectation_mc(sp, p3.rooted(1), 1, 4000, substream(9, 1))
        tol = 3 * math.hypot(est_end.stderr, est_center.stderr)
        assert abs(est_end.value - est_center.value) < tol

    @pytest.mark.parametrize("name,root,r,hom", [("P4", 1, 2, True), ("P3", 0, 2, False), ("K3", 0, 1, False), ("C4", 0, 2, False)])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.integers(2, 300))
    def test_counts_equal_the_per_sample_loop(self, name, root, r, hom, seed, samples):
        # the loop that counting once per class replaced: project every tree
        # of the same forest and count on its ball
        sp = LimitSpec(PO(1.5), PO(2))
        pattern = pattern_from_name(name).rooted(root)
        est = rooted_emb_expectation_mc(sp, pattern, r, samples, substream(seed), hom_mode=hom)
        forest = sample_gw_forest(sp.D1, sp.D2, 2 * r, samples, substream(seed))
        counts = np.asarray(
            [rooted_emb_count(pattern, clique_tree_ball_from_tree(forest_tree(forest, i), r).graph, 0, hom_mode=hom)
             for i in range(samples)],
            dtype=float,
        )
        assert (est.value, est.stderr) == (float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(samples)))

    def test_capped_tree_raises(self, monkeypatch):
        capped = lambda *a: sample_gw_forest(*a, node_cap=5)  # noqa: E731
        monkeypatch.setattr(oracles, "sample_gw_forest", capped)
        with pytest.raises(CapExceeded):
            rooted_emb_expectation_mc(LimitSpec(CONST(3), CONST(3)), pattern_from_name("K2").rooted(0), 1, 10, substream(4))

    def test_radius_too_small_rejected(self):
        sp = LimitSpec(PO(2), PO(1.5))
        with pytest.raises(ValueError):
            rooted_emb_expectation_mc(sp, pattern_from_name("P3").rooted(0), 1, 10, substream(10))

    def test_rooted_hom_p4_matches_closed_form(self):
        # the assortativity-limit ingredient: rooted homomorphisms of the
        # 4-path (inner root) over radius-2 balls vs its exact hom limit
        sp = LimitSpec(PO(2), PO(1.5))
        est = rooted_emb_expectation_mc(
            sp, pattern_from_name("P4").rooted(1), 2, 4000, substream(99), hom_mode=True
        )
        closed = limit_hom_per_vertex(sp, pattern_from_name("P4"))
        assert abs(est.value - closed) < 3.5 * est.stderr


def _config_specs():
    """The distinct limit laws of the model files and plans under configs/."""
    specs = {}
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        model = ModelConfig.from_config(cfg["model"] if isinstance(cfg.get("model"), dict) else cfg)
        spec = limit_spec_for(model)
        specs.setdefault(repr(spec), (path.name, spec))
    return list(specs.values())


CONFIG_SPECS = _config_specs()


class TestExactRootedEmbExpectation:
    def test_family_counts(self):
        # stars split into any set partition of their leaves (Bell(7) = 877),
        # paths into runs of consecutive edges (2^6), and a clique stays whole
        counts = {name: len(clique_families(pattern_from_name(name))) for name in ("S7", "P8", "K8")}
        assert counts == {"S7": 877, "P8": 64, "K8": 1}
        assert clique_families(pattern_from_name("P3")) == (((0, 1), (1, 2)), ((0, 1, 2),))

    def test_equals_the_count_on_the_deterministic_tree(self):
        checks = 0
        for d1, d2 in [(1, 2), (2, 3), (3, 2), (2, 4), (1, 5)]:
            sp = LimitSpec(CONST(d1), CONST(d2))
            for h in range(2, 6):
                for p in connected_patterns(h):
                    for rp in distinct_rootings(p):
                        est = rooted_emb_expectation(sp, rp)
                        assert est == deterministic_tree_count(sp, rp), (d1, d2, rp.edge_tuple(), rp.root)
                        checks += 1
        assert checks == 365

    @pytest.mark.parametrize("sp", [
        LimitSpec(PO(2), PO(1.5)),
        remark1_limits("active", 1.0, P=CONST(3)),
        remark1_limits("passive", 0.5, P=PMF({2: 0.5, 4: 0.5})),
        remark1_limits("inhomogeneous", 1.0, xi1=WeightLaw.gamma(2.0, 1.0), xi2=WeightLaw.exponential(1.0)),
        remark1_limits("inhomogeneous", 1.0, xi1=WeightLaw.pareto(3.0, 1.0), xi2=WeightLaw.exponential(1.0)),
        LimitSpec(PMF({1: 0.5, 3: 0.5}), CONST(2)),
    ], ids=["poisson", "active", "passive", "gamma", "pareto", "configuration"])
    def test_rooting_invariance(self, sp):
        for h in range(2, 6):
            for p in connected_patterns(h):
                values = []
                for rp in distinct_rootings(p):
                    try:
                        values.append(rooted_emb_expectation(sp, rp))
                    except MomentUnavailable:
                        values.append(math.inf)
                # an infinite limit is infinite from every root
                assert all(v == pytest.approx(values[0], rel=1e-12, abs=1e-12) for v in values), p.edge_tuple()

    @pytest.mark.parametrize("name, sp", CONFIG_SPECS, ids=[name for name, _ in CONFIG_SPECS])
    def test_agrees_with_monte_carlo(self, name, sp):
        for h in (2, 3, 4):
            for i, p in enumerate(connected_patterns(h)):
                rp = min(distinct_rootings(p), key=root_eccentricity)
                try:
                    exact = rooted_emb_expectation(sp, rp)
                except MomentUnavailable:
                    continue  # an infinite mean has no Monte Carlo estimate
                mc = rooted_emb_expectation_mc(sp, rp, root_eccentricity(rp), 2000, substream(1, h, i))
                assert abs(mc.value - exact) <= 3 * mc.stderr, (name, rp.edge_tuple())

    def test_infinite_moment_raises(self):
        # the 3-star needs E (D1)_3 = E xi1^3, infinite for Pareto(3) weights
        sp = LimitSpec(DegreeLaw.mixed_poisson(WeightLaw.pareto(3.0, 1.0)), PO(2))
        with pytest.raises(MomentUnavailable, match="infinite"):
            rooted_emb_expectation(sp, pattern_from_name("S3").rooted(0))
        assert rooted_emb_expectation(sp, pattern_from_name("P3").rooted(0)) == pytest.approx(
            dstar_moment(sp, 2) - dstar_moment(sp, 1)
        )

    def test_zero_factor_skips_an_infinite_moment(self):
        # D2 = 2 makes every clique an edge, so E (Z)_2 = 0 and each family with
        # a clique of three or more contributes 0 whatever else it needs: a
        # triangle with two pendant edges at the root needs E (D1)_3 = inf only
        # in such families
        sp = LimitSpec(DegreeLaw.mixed_poisson(WeightLaw.pareto(3.0, 1.0)), CONST(2))
        pattern = Pattern(Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]))
        assert rooted_emb_expectation(sp, pattern.rooted(0)) == 0.0
        assert rooted_emb_expectation(sp, pattern_from_name("K3").rooted(0)) == 0.0
        with pytest.raises(MomentUnavailable):
            rooted_emb_expectation(sp, pattern_from_name("S3").rooted(0))

    def test_degenerate_root(self):
        assert rooted_emb_expectation(LimitSpec(CONST(0), CONST(0)), pattern_from_name("P4").rooted(1)) == 0.0


class TestHomLimit:
    def test_equals_the_hom_count_on_the_deterministic_tree(self):
        # with constant laws T is one tree on which every vertex looks alike,
        # so the hom limit is the rooted hom count at its root
        for d1, d2 in [(1, 2), (2, 3), (3, 2), (2, 4)]:
            sp = LimitSpec(CONST(d1), CONST(d2))
            for h in range(2, 5):
                for p in connected_patterns(h):
                    rp = p.rooted(0)
                    depth = 2 * root_eccentricity(rp)
                    T = clique_tree(forest_tree(sample_gw_forest(sp.D1, sp.D2, depth, 1, substream(0)), 0))
                    est = limit_hom_per_vertex(sp, p)
                    assert est == rooted_emb_count(rp, T, 0, hom_mode=True), (d1, d2, p.edge_tuple())
