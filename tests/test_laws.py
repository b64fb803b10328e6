import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim.laws import (
    DegreeLaw,
    MomentUnavailable,
    WeightLaw,
    offspring_law,
    size_biased,
    stirling1_signed,
    stirling2,
    thinned,
)
from rigsim.generators import ModelConfig
from rigsim.limits import limit_spec_for
from rigsim.rng import substream
from tests.oracles import negative_binomial_pmf_exact, pareto_poisson_pmf_quad, poisson_pmf_exact


class TestDegreeLaw:
    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            DegreeLaw.from_pmf({1: 0.5, 2: 0.6})
        with pytest.raises(ValueError):
            DegreeLaw.from_pmf({-1: 1.0})
        with pytest.raises(ValueError):
            DegreeLaw.poisson(0)
        # a nan or infinite rate has no pmf
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                DegreeLaw.poisson(lam)
        for w in (WeightLaw.point(math.nan), WeightLaw.point(math.inf), WeightLaw.gamma(math.nan, 1.0),
                  WeightLaw.gamma(math.inf, 1.0), WeightLaw.gamma(1.0, math.nan)):
            with pytest.raises(ValueError, match="positive and finite"):
                DegreeLaw.mixed_poisson(w)

    def test_finite_moments_exact(self):
        law = DegreeLaw.from_pmf({1: Fraction(1, 2), 3: Fraction(1, 2)})
        assert law.mean() == 2
        assert law.raw_moment(2) == 5
        assert law.factorial_moment(2) == 3  # 0.5*0 + 0.5*6

    def test_poisson_moments(self):
        law = DegreeLaw.poisson(2.0)
        assert law.raw_moment(2) == pytest.approx(6.0)  # lam + lam^2
        assert law.factorial_moment(3) == pytest.approx(8.0)
        assert law.raw_moment(3) == pytest.approx(2 + 3 * 4 + 8)  # Touchard

    def test_mixed_poisson_factorial_equals_weight_moment(self):
        w = WeightLaw.gamma(2.0, 3.0)
        law = DegreeLaw.mixed_poisson(w)
        for k in range(1, 5):
            assert law.factorial_moment(k) == pytest.approx(w.moment(k))

    def test_mixed_exponential_pmf_is_geometric(self):
        law = DegreeLaw.mixed_poisson(WeightLaw.exponential(2.0))
        for k in range(6):
            assert law.pmf(k) == pytest.approx((2 / 3) * (1 / 3) ** k)

    def test_shifted(self):
        base = DegreeLaw.poisson(2.0)
        sh = DegreeLaw.shifted(base, 1)
        assert sh.pmf(0) == 0
        assert sh.pmf(3) == pytest.approx(base.pmf(2))
        assert float(sh.mean()) == pytest.approx(3.0)
        # E (X+1)_2 = E (X+1) X = E X^2 + E X
        assert float(sh.factorial_moment(2)) == pytest.approx(8.0)

    def test_sampling_matches_pmf(self):
        law = DegreeLaw.from_pmf({0: 0.2, 2: 0.5, 5: 0.3})
        x = law.sample(substream(5), 200_000)
        for v, p in zip((0, 2, 5), (0.2, 0.5, 0.3)):
            phat = (x == v).mean()
            assert abs(phat - p) < 3 * math.sqrt(p * (1 - p) / x.size)

    def test_sampling_deterministic(self):
        law = DegreeLaw.mixed_poisson(WeightLaw.pareto(2.5, 1.0))
        assert np.array_equal(law.sample(substream(9, 1), 50), law.sample(substream(9, 1), 50))


class TestWeightLaw:
    def test_pareto_moments(self):
        w = WeightLaw.pareto(3.0, 2.0)
        assert w.moment(1) == pytest.approx(3.0)
        assert w.moment(2) == pytest.approx(12.0)
        with pytest.raises(MomentUnavailable):
            w.moment(3)

    def test_gamma_moments(self):
        w = WeightLaw.gamma(2.0, 4.0)
        assert w.mean() == pytest.approx(0.5)
        assert w.moment(2) == pytest.approx(2 * 3 / 16)

    def test_size_biased_family_closure(self):
        assert WeightLaw.exponential(2.0).size_biased() == WeightLaw.gamma(2.0, 2.0)
        sb = WeightLaw.pareto(3.0, 2.0).size_biased()
        assert sb.kind == "pareto" and sb.shape == 2.0 and sb.scale == 2.0
        assert WeightLaw.point(4.0).size_biased() == WeightLaw.point(4.0)

    def test_size_biased_density_matches_sampling(self):
        # mean of the size-biased law is E X^2 / E X
        w = WeightLaw.pareto(4.0, 1.0)
        x = w.size_biased().sample(substream(3), 400_000)
        expect = w.moment(2) / w.moment(1)
        assert abs(x.mean() - expect) < 4 * x.std() / math.sqrt(x.size)

    def test_scaled(self):
        w = WeightLaw.gamma(2.0, 3.0).scaled(2.0)
        assert w.moment(1) == pytest.approx(2 * 2 / 3)
        p = WeightLaw.pareto(3.0, 1.0).scaled(5.0)
        assert p.scale == 5.0


class TestSizeBiased:
    def test_finite_reweighting(self):
        sb = size_biased(DegreeLaw.from_pmf({1: 0.5, 3: 0.5}))
        assert dict(zip(sb.values, sb.probs)) == {1: Fraction(1, 4), 3: Fraction(3, 4)}

    def test_point_mass_fixed(self):
        sb = size_biased(DegreeLaw.constant(4))
        assert sb.values == (4,) and sb.probs == (Fraction(1),)

    def test_poisson_plus_one(self):
        for lam in (0.5, 1.0, 2.0, 5.0):
            sb = size_biased(DegreeLaw.poisson(lam))
            base = DegreeLaw.poisson(lam)
            for k in range(31):
                assert abs(sb.pmf(k) - base.pmf(k - 1)) < 1e-12

    def test_mixed_poisson_shifts_weight(self):
        law = DegreeLaw.mixed_poisson(WeightLaw.exponential(1.0))
        sb = size_biased(law)
        assert sb.kind == "shifted" and sb.offset == 1
        assert sb.base.weight == WeightLaw.gamma(2.0, 1.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            size_biased(DegreeLaw.constant(0))

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=9),
            st.fractions(min_value=Fraction(1, 50), max_value=1),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exact_mean_identity(self, weights):
        total = sum(weights.values())
        pmf = {v: Fraction(p, 1) / total for v, p in weights.items()}
        law = DegreeLaw.from_pmf(pmf)
        if law.mean() == 0:
            return
        sb = size_biased(law)
        assert all(v >= 1 for v in sb.values)
        assert sb.mean() == law.raw_moment(2) / law.mean()


# a model of each sampler, over every degree-law and weight-law kind
MODEL_LAWS = [
    {"model": "active", "n1": 100, "n2": 100, "P": {"kind": "constant", "value": 3}},
    {"model": "passive", "n1": 100, "n2": 100, "P": {"kind": "pmf", "pmf": {"2": 0.5, "4": 0.5}}},
    {"model": "configuration", "n1": 100, "D1": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}},
     "D2": {"kind": "mixed_poisson", "weight": {"kind": "gamma", "shape": 2.0, "rate": 1.0}}},
    {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "point", "value": 1.5},
     "xi2": {"kind": "finite", "values": [1.0, 3.0], "probs": [0.5, 0.5]}},
    {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
     "xi2": {"kind": "exponential", "rate": 1.0}},
    {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "pareto", "shape": 3.0, "scale": 1.0},
     "xi2": {"kind": "pareto", "shape": 2.5, "scale": 1.0}},
]


class TestOffspringLaw:
    def test_examples(self):
        assert offspring_law(DegreeLaw.constant(2)).values == (1,)
        off = offspring_law(DegreeLaw.poisson(1.7))
        assert off.kind == "poisson" and off.lam == 1.7
        off2 = offspring_law(DegreeLaw.from_pmf({1: 0.5, 3: 0.5}))
        assert dict(zip(off2.values, off2.probs)) == {0: Fraction(1, 4), 2: Fraction(3, 4)}

    @pytest.mark.parametrize("model", MODEL_LAWS, ids=[f"{m['model']}-{i}" for i, m in enumerate(MODEL_LAWS)])
    def test_every_model_law_can_be_thinned(self, model):
        # the radius-r ball law thins D1* - 1, so offspring_law must give a
        # law that thinned accepts, for every D1 and D2 a model produces:
        # finite, Poisson, and mixed over point, finite, gamma and Pareto
        # weights; its pmf is (k + 1) P(D = k + 1) / E D
        spec = limit_spec_for(ModelConfig.from_config(model))
        for law in (spec.D1, spec.D2):
            off = offspring_law(law)
            assert off.kind in ("finite", "poisson", "mixed")
            kept = thinned(off, 0.4)
            assert math.isfinite(kept.pmf(0))
            for k in range(6):
                assert off.pmf(k) == pytest.approx((k + 1) * law.pmf(k + 1) / float(law.mean()), rel=1e-12, abs=1e-300)


def test_stirling_numbers():
    assert stirling2(4, 2) == 7 and stirling2(5, 3) == 25
    # (x)_3 = x^3 - 3x^2 + 2x
    assert [stirling1_signed(3, j) for j in range(4)] == [0, 2, -3, 1]


class TestThinned:
    def test_poisson_family(self):
        assert thinned(DegreeLaw.poisson(3.0), 0.25) == DegreeLaw.poisson(0.75)
        law = DegreeLaw.mixed_poisson(WeightLaw.pareto(2.5, 2.0))
        assert thinned(law, 0.5) == DegreeLaw.mixed_poisson(WeightLaw.pareto(2.5, 1.0))
        assert thinned(law, 1.0) is law

    @pytest.mark.parametrize("law", [
        DegreeLaw.from_pmf({0: Fraction(1, 8), 2: Fraction(3, 8), 5: Fraction(1, 2)}),
        DegreeLaw.shifted(DegreeLaw.from_pmf({1: 0.5, 3: 0.5}), 1),
        DegreeLaw.poisson(2.5),
        DegreeLaw.mixed_poisson(WeightLaw.gamma(0.5, 0.3)),
        DegreeLaw.mixed_poisson(WeightLaw.pareto(3.0, 1.0)),
        DegreeLaw.mixed_poisson(WeightLaw.pareto(1.5, 0.84)),
    ], ids=["finite", "shifted-finite", "poisson", "nbinom", "pareto3", "pareto1.5"])
    def test_binomial_mixture(self, law):
        # P(Bin(X, p) = n) = sum_d P(X = d) C(d, n) p^n (1 - p)^(d - n); with
        # p = 0.4 the terms past d = 400 are below 1e-40 of the n <= 8 ones
        p = 0.4
        top = law.max_support() or 400
        pmf = law.pmf_vector(top)
        for n in range(9):
            direct = math.fsum(pmf[d] * math.comb(d, n) * p**n * (1 - p) ** (d - n) for d in range(n, top + 1))
            assert thinned(law, p).pmf(n) == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_invalid(self):
        for p in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="thinning probability"):
                thinned(DegreeLaw.poisson(1.0), p)
        with pytest.raises(ValueError, match="not supported for shifted"):
            thinned(DegreeLaw.shifted(DegreeLaw.poisson(1.0), 1), 0.5)


class TestPmfsWithoutScipyStats:
    # laws.py evaluates the pmfs in floats from math alone; they must lie
    # within RTOL relative of 50-digit decimal arithmetic, and of scipy.stats
    # as a second reference, below the support included (shifted laws ask
    # for it)
    KS = range(-3, 60)
    RTOL = 5e-13

    def check(self, law, pmf_exact, pmf_stats):
        for k in self.KS:
            pmf = law.pmf(k)
            assert pmf == pytest.approx(float(pmf_exact(k)), rel=self.RTOL, abs=0), k
            assert pmf == pytest.approx(float(pmf_stats(k)), rel=self.RTOL, abs=0), k

    @pytest.mark.parametrize("lam", [1e-3, 0.4, 1.0, 2.5, 3.0, 17.0, 120.0])
    def test_poisson(self, lam):
        from scipy import stats

        law = DegreeLaw.poisson(lam)
        self.check(law, lambda k: poisson_pmf_exact(k, lam), lambda k: stats.poisson.pmf(k, lam))
        point = DegreeLaw.mixed_poisson(WeightLaw.point(lam))
        assert [point.pmf(k) for k in self.KS] == [law.pmf(k) for k in self.KS]

    @pytest.mark.parametrize("shape, rate", [(0.5, 0.3), (1.0, 1.0), (2.0, 1.0), (3.5, 2.0), (4.0, 0.25)])
    def test_negative_binomial(self, shape, rate):
        from scipy import stats

        p = rate / (1.0 + rate)
        self.check(DegreeLaw.mixed_poisson(WeightLaw.gamma(shape, rate)),
                   lambda k: negative_binomial_pmf_exact(k, shape, rate), lambda k: stats.nbinom.pmf(k, shape, p))

    def test_finite_mixture(self):
        from scipy import stats

        w = WeightLaw.finite([0.0, 1.5, 4.0], [0.2, 0.5, 0.3])

        def mix(of_poisson, num):
            # the zero weight is a point mass at 0
            return lambda k: sum(num(q) * num(of_poisson(k, v) if v > 0 else k == 0)
                                 for v, q in zip(w.values, w.probs))

        self.check(DegreeLaw.mixed_poisson(w), mix(poisson_pmf_exact, Decimal), mix(stats.poisson.pmf, float))

    @pytest.mark.parametrize("shape", [1.1, 1.5, 2.0, 2.5, 3.0, 4.5])
    def test_pareto_mixture(self, shape):
        # a s^a Gamma(k - a, s) / k! against quadrature of the mixture, at
        # integral and fractional k - a, on both sides of the continued
        # fraction / series split
        for scale in (0.05, 0.3, 0.84, 1.0, 2.0, 10.0, 40.0):
            law = DegreeLaw.mixed_poisson(WeightLaw.pareto(shape, scale))
            assert law.pmf(-1) == 0.0
            for k in range(61):
                quad = pareto_poisson_pmf_quad(k, shape, scale)
                assert law.pmf(k) == pytest.approx(quad, rel=1e-12, abs=0), (scale, k)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    import json
    import os
    import subprocess
    import sys

    import rigsim

    # In a fresh process, importing rigsim loads no scipy module at all, nor
    # numpy.ma or concurrent.futures, and a converge run afterwards, on a
    # gamma-mixed model whose limits read the negative-binomial pmf, loads no
    # numpy or scipy module that the import did not: first-use import costs
    # stay in start-up.
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "model": {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
                  "xi2": {"kind": "exponential", "rate": 1.0}},
        "ladder": [200], "statistics": ["alpha_k:3", "pi:3", "ball:1"], "mc_reference_samples": 2000,
    }))
    argv = ["converge", "--config", str(plan), "--threads", "1", "--out", str(tmp_path)]
    code = f"""
import contextlib, io, sys
import rigsim, rigsim.cli
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "concurrent") or m.split(".")[:2] == ["numpy", "ma"]))
loaded = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert rigsim.cli.main({argv!r}) == 0
print(sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] in ("numpy", "scipy")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rigsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["[]", "[]"]
