import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigsim.ballcode import BLOCK_TAG
from rigsim.experiment import (
    NON_BLOCK_BUCKET,
    _ball_perturbation,
    _measure,
    CSV_HEADER,
    ConvergenceRow,
    STATISTICS,
    ExperimentPlan,
    StatisticSpec,
    check_edge_budget,
    count_tv,
    rows_to_csv,
    run_experiment,
    theorem21_suite,
)
from rigsim.counting import pattern_from_name
from rigsim.generators import ModelConfig, gen_active, generate_bipartite, plant_clique
from rigsim.graphs import Graph, intersection_graph
from rigsim.laws import DegreeLaw
from rigsim.limits import (
    CAP_BUCKET, LimitSpec, ball_distribution_mc, dstar_moment, limit_emb_per_vertex, limit_spec_for,
)
from rigsim.rng import substream
from rigsim.stats import empirical_ball_dist
from tests.conftest import deterministic_tree_count
from tests.oracles import part_degrees, probabilities, tv_distance


def active_plan(**over):
    cfg = {
        "model": {"model": "active", "n1": 100, "n2": 100, "P": {"kind": "constant", "value": 3}},
        "ladder": [300, 600],
        "statistics": ["alpha", "pi:2", "moment:2"],
        "replications": 2,
        "seed": 11,
    }
    cfg.update(over)
    return ExperimentPlan.from_config(cfg)


class TestPlanParsing:
    def test_statistic_parsing(self):
        assert StatisticSpec.parse("alpha").label() == "alpha"
        assert StatisticSpec.parse("alpha_k:2").label() == "alpha_k(2)"
        assert StatisticSpec.parse("emb:K3").label() == "emb(K3)"
        assert StatisticSpec.parse("ball:1").label() == "ball(1)"
        with pytest.raises(ValueError):
            StatisticSpec.parse("nonsense")
        with pytest.raises(ValueError):
            StatisticSpec.parse("alpha_k")
        with pytest.raises(ValueError):
            StatisticSpec.parse("alpha:3")

    @pytest.mark.parametrize("text, message", [
        ("alpha_k", "statistic alpha_k needs k"),
        ("alpha_k:x", "statistic alpha_k needs an integer k"),
        ("pi:", "statistic pi needs k"),
        ("moment:1.5", "statistic moment needs an integer k"),
        ("ball:one", "statistic ball needs an integer r"),
        ("emb", "statistic emb needs pattern"),
        ("emb: ", "statistic emb needs pattern"),
    ])
    def test_statistic_parameter_errors_name_the_statistic(self, text, message):
        with pytest.raises(ValueError, match=message):
            StatisticSpec.parse(text)

    def test_emb_value_is_the_embedding_count(self):
        # the emb statistic checks the Sidorenko bound, then counts embeddings
        from rigsim.counting import emb_count
        from rigsim.experiment import STATISTICS
        from tests.conftest import random_graph

        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_graph(rng)
            for name in ("K3", "P4", "C4", "S3", "paw"):
                value = STATISTICS["emb"].graph(g, StatisticSpec.parse(f"emb:{name}"))
                assert value == emb_count(pattern_from_name(name), g), name

    def test_k3_closed_form_runs_once_per_graph(self, monkeypatch):
        # alpha, assort and emb:K3 all read hom(K3, G) from the graph's
        # counting host, which evaluates the closed form once
        import rigsim.counting as C

        calls = []
        k3 = C._CLOSED_FORMS[(2, 2, 2)]
        monkeypatch.setitem(C._CLOSED_FORMS, (2, 2, 2), lambda g, host: calls.append(g) or k3(g, host))
        plan = active_plan(statistics=["alpha", "assort", "emb:K3"])
        run_experiment(plan)
        assert len(calls) == len(plan.ladder) * plan.replications
        assert len({id(g) for g in calls}) == len(calls)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            active_plan(ladder=[100, 100])
        with pytest.raises(ValueError):
            active_plan(replications=0)
        with pytest.raises(ValueError):
            active_plan(perturbation={"gamma": 1.5})
        for gamma in ("0.5", "x", [0.5], None):  # null does not read as no perturbation
            message = f"plan perturbation gamma must be a finite number, got {gamma!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                active_plan(perturbation={"gamma": gamma})
        with pytest.raises(ValueError):
            active_plan(statistics=[])

    @pytest.mark.parametrize("field, value, message", [
        ("threads", 0, "plan threads must be at least 1, got 0"),
        ("replications", 2.5, "plan replications must be an integer, got 2.5"),
        ("gamma", "0.5", "plan perturbation gamma must be a finite number, got '0.5'"),
        ("ladder", (200.5,), "plan ladder entry must be an integer, got 200.5"),
        ("edge_budget", 2.5, "plan edge_budget must be an integer, got 2.5"),
        ("seed", True, "plan seed must be an integer, got True"),
        ("gamma", "x", "plan perturbation gamma must be a finite number, got 'x'"),
        ("gamma", [0.5], "plan perturbation gamma must be a finite number, got [0.5]"),
    ])
    def test_directly_built_plans_are_checked(self, field, value, message):
        # built without from_config, a bad plan fails on construction, before
        # any run could start a pool
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(active_plan(), **{field: value})

    def test_directly_built_plans_keep_integers(self):
        plan = replace(active_plan(), threads=2.0, ladder=(300.0, 600))
        assert (plan.threads, plan.ladder) == (2, (300, 600))
        assert all(type(x) is int for x in (plan.threads, *plan.ladder))

    def test_edge_budget_refusal(self):
        plan = active_plan(edge_budget=100)
        with pytest.raises(ValueError):
            check_edge_budget(plan)


class TestRunExperiment:
    def test_moment_order_past_the_pattern_library_fails_before_sampling(self, monkeypatch):
        # E (d*)^8 would be the hom limit of the 9-vertex star S_8
        import rigsim.experiment as E

        monkeypatch.setattr(E, "generate_bipartite", lambda *a: pytest.fail("a graph was drawn"))
        with pytest.raises(ValueError, match="moment order must be between 1 and 7"):
            run_experiment(active_plan(statistics=["alpha", "moment:8"]))

    def test_rows_and_gaps(self):
        plan = active_plan()
        rows = run_experiment(plan)
        assert len(rows) == 2 * 3
        by = {(r.n1, r.statistic): r for r in rows}
        for n1 in (300, 600):
            assert by[(n1, "alpha")].limit == pytest.approx(1 / 3)
            assert by[(n1, "moment(2)")].limit == pytest.approx(90.0)
            r = by[(n1, "alpha")]
            assert r.gap == pytest.approx(abs(r.empirical - r.limit))
        # convergence direction at these sizes is noisy; just sanity-bound it
        assert by[(600, "alpha")].gap < 0.05

    def test_deterministic_csv(self):
        a = rows_to_csv(run_experiment(active_plan()))
        b = rows_to_csv(run_experiment(active_plan()))
        assert a == b and a.startswith(CSV_HEADER)

    def test_threads_do_not_change_bytes(self):
        a = rows_to_csv(run_experiment(active_plan(threads=1)))
        b = rows_to_csv(run_experiment(active_plan(threads=4)))
        assert a == b

    def test_ball_rows(self):
        plan = active_plan(statistics=["ball:1"], ladder=[400], replications=1)
        rows = run_experiment(plan)
        assert len(rows) == 1
        assert rows[0].statistic == "ball(1)" and 0 <= rows[0].tv <= 1

    def test_csv_row_count_contract(self):
        plan = active_plan()
        rows = run_experiment(plan)
        assert len(rows) == len(plan.ladder) * len(plan.statistics)

    def test_gap_tolerance_policy(self):
        from rigsim.experiment import row_converged

        row = ConvergenceRow(100, "alpha", 0.4, 0.01, 1 / 3, 0.0, abs(0.4 - 1 / 3), None)
        assert row_converged(row) is False  # tol = 3 * 0.01
        tight = ConvergenceRow(100, "alpha", 0.34, 0.01, 1 / 3, 0.0, abs(0.34 - 1 / 3), None)
        assert row_converged(tight) is True
        ball_row = ConvergenceRow(100, "ball(1)", None, None, None, None, None, 0.2)
        assert row_converged(ball_row) is None
        # on a real run every limit is a float and every verdict a bool, which
        # a caller's `is False` test sees
        plan = active_plan(statistics=["alpha", "assort", "alpha_k:2", "r_k:2", "pi:2", "moment:2", "emb:K3"],
                           ladder=[300])
        for row in run_experiment(plan):
            assert type(row.limit) is float and type(row_converged(row)) is bool, row.statistic

    def test_configuration_pi2_degenerate_limit(self):
        plan = ExperimentPlan.from_config(
            {
                "model": {
                    "model": "configuration",
                    "n1": 20000,
                    "D1": {"kind": "constant", "value": 2},
                    "D2": {"kind": "constant", "value": 2},
                },
                "ladder": [20000],
                "statistics": ["pi:2"],
                "replications": 1,
                "seed": 3,
            }
        )
        rows = run_experiment(plan)
        assert rows[0].limit == pytest.approx(1.0)  # d* == 2
        assert rows[0].empirical > 0.99


class TestBallConvergence:
    def test_degenerate_tv_zero(self):
        # a degenerate root (D1 = 0, or Z = 0) makes every limit ball the one
        # vertex, and so is every graph ball; r <= 1 rows take the exact law,
        # r = 2 rows the Monte Carlo reference
        for model in (
            {"model": "active", "n1": 50, "n2": 50, "P": {"kind": "constant", "value": 0}},
            {"model": "passive", "n1": 50, "n2": 50, "P": {"kind": "constant", "value": 0}},
            {"model": "configuration", "n1": 50, "D1": {"kind": "constant", "value": 2},
             "D2": {"kind": "constant", "value": 1}},
        ):
            for r in (0, 1, 2):
                plan = ExperimentPlan.from_config(
                    {"model": model, "ladder": [50], "statistics": [f"ball:{r}"], "replications": 1, "seed": 1}
                )
                rows = run_experiment(plan)
                assert rows[0].tv == 0.0, (model, r)

    def test_tv_shrinks_along_ladder(self):
        plan = active_plan(statistics=["ball:1"], ladder=[200, 1600], replications=2)
        rows = run_experiment(plan)
        assert rows[0].tv > rows[1].tv


class TestPerturbation:
    def test_report_shape_and_coupling(self):
        plan = active_plan(ladder=[300, 600], replications=2, perturbation={"gamma": 0.5})
        rows = run_experiment(plan)[6:]
        labels = [r.statistic for r in rows]
        assert labels == ["moment_ratio(2)", "ball_perturb_tv(1)"] * 2
        ratios = [r.empirical for r in rows if r.statistic == "moment_ratio(2)"]
        assert all(x > 1.0 for x in ratios)  # planting only adds edges

    def test_converge_rows_follow_the_main_rows(self):
        plan = active_plan(statistics=["moment:2", "ball:1"], perturbation={"gamma": 0.5})
        rows = run_experiment(plan)
        assert [r.statistic for r in rows[4:]] == ["moment_ratio(2)", "ball_perturb_tv(1)"] * 2
        # the ball row does not change the perturbation rows
        alone = run_experiment(active_plan(statistics=["moment:2"], perturbation={"gamma": 0.5}))
        assert rows_to_csv(rows[4:]) == rows_to_csv(alone[2:])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12))
    def test_ball_histograms_equal_direct_coding(self, seed, r, s):
        # the TV from the balls near the clique is the exact TV of the full
        # histograms, and the ball-row histogram is G''s with every general
        # code folded into the bucket
        rng = substream(seed)
        H = gen_active(80, 60, DegreeLaw.from_pmf({1: 0.3, 2: 0.4, 3: 0.3}), rng)
        G0, G = intersection_graph(H), intersection_graph(plant_clique(H, s, rng))
        planted, direct = empirical_ball_dist(G, r), empirical_ball_dist(G0, r)
        keys = planted.keys() | direct.keys()
        diff = sum(abs(planted[k] - direct[k]) for k in keys)
        exact = float(Fraction(diff, 2 * G.vertex_count))
        hist, tv = _ball_perturbation(G0, G, r, row=True)
        assert tv == exact
        assert _ball_perturbation(G0, G, r, row=False) == (None, exact)
        folded = Counter()
        for code, c in planted.items():
            folded[code if code.startswith(BLOCK_TAG) else NON_BLOCK_BUCKET] += c
        assert (hist, hist.total()) == (folded, planted.total())

    @pytest.mark.parametrize("n, edges, extra, r", [
        (7, [(0, 5), (1, 2), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6)], (0, 1), 2),
        (9, [(0, 3), (0, 4), (0, 6), (0, 8), (1, 3), (1, 4), (1, 8), (2, 5), (2, 6), (2, 7), (3, 4), (3, 7), (3, 8),
             (4, 5), (4, 7), (5, 6), (5, 7), (5, 8)], (1, 7), 1),
    ])
    def test_shared_keys_are_canonised(self, n, edges, extra, r):
        # near non-block balls of G and G0 that share a key (vertex count and
        # sorted degrees) but not a class: counting them under the key alone
        # would cancel them
        G0, G = Graph.from_edges(n, edges), Graph.from_edges(n, edges + [extra])
        planted, direct = empirical_ball_dist(G, r), empirical_ball_dist(G0, r)
        diff = sum(abs(planted.get(k, 0) - direct.get(k, 0)) for k in planted.keys() | direct.keys())
        assert _ball_perturbation(G0, G, r, row=False) == (None, float(Fraction(diff, 2 * n)))


PARETO = {"model": "inhomogeneous", "n1": 300, "n2": 300, "xi1": {"kind": "pareto", "shape": 3.0, "scale": 1.0},
          "xi2": {"kind": "exponential", "rate": 1.0}}


@pytest.mark.parametrize("seed, r, node_cap", [(1, 1, 6), (2, 1, 10**7), (3, 2, 25), (4, 2, 10**7)])
def test_ball_row_tv_equals_the_full_histogram_tv(seed, r, node_cap):
    # no clique-tree ball matches a graph-side ball that is not a block graph,
    # so the row's bucket gives the TV of the full histograms, capped
    # references included
    model = ModelConfig.from_config(PARETO)
    G = intersection_graph(generate_bipartite(model, substream(seed)))
    spec = limit_spec_for(model)
    ref = ball_distribution_mc(spec.D1, spec.D2, r, 400, substream(seed, 1), node_cap=node_cap)
    full = empirical_ball_dist(G, r)
    row = _measure(G, StatisticSpec("ball", r=r))
    assert NON_BLOCK_BUCKET in row and any(not code.startswith(BLOCK_TAG) for code in full)
    assert (CAP_BUCKET in ref) == (node_cap < 10**7)
    N, M = full.total(), ref.total()
    keys = full.keys() | ref.keys()
    exact = Fraction(sum(abs(full[k] * M - ref[k] * N) for k in keys), 2 * N * M)
    tv = count_tv(row, row.total(), ref, ref.total())
    assert tv == float(exact)
    assert tv == pytest.approx(tv_distance(probabilities(full), probabilities(ref)), abs=1e-12)


class TestTheorem21:
    def test_rows(self):
        # constant laws make the clique tree deterministic, so each rooting's
        # exact limit is the rooted count on that one tree
        model = {"model": "configuration", "n1": 100, "D1": {"kind": "constant", "value": 2},
                 "D2": {"kind": "constant", "value": 3}}
        plan = active_plan(model=model, statistics=["alpha"], ladder=[600], replications=2)
        rows = theorem21_suite(plan, "P4")
        stats = {r.statistic for r in rows}
        assert "moment(3)" in stats and "sidorenko(P4)" in stats
        emb_rows = {r.statistic: r for r in rows if r.statistic.startswith("emb(P4)")}
        assert sorted(emb_rows) == ["emb(P4)@root0", "emb(P4)@root1"]  # an end and an inner vertex
        spec = limit_spec_for(plan.model)
        for root in (0, 1):
            row = emb_rows[f"emb(P4)@root{root}"]
            assert row.limit_stderr == 0.0
            assert row.limit == deterministic_tree_count(spec, pattern_from_name("P4").rooted(root)) == 32
            assert row.gap < 3 * row.emp_stderr + 1.0
        sid = [r for r in rows if r.statistic == "sidorenko(P4)"][0]
        assert sid.empirical == 1.0

    def test_pattern_cap(self):
        with pytest.raises(ValueError):
            theorem21_suite(active_plan(), "K5")


class TestInhomogeneousIntegration:
    def test_weight_law_identification_end_to_end(self):
        # exponential weights give a mixed-Poisson (negative binomial) part-1
        # degree and a clique-tree ball law the empirical graph must approach
        from rigsim.generators import gen_inhomogeneous
        from rigsim.graphs import Graph, intersection_graph
        from rigsim.laws import WeightLaw
        from rigsim.limits import remark1_limits
        from rigsim.stats import empirical_ball_dist

        xi1, xi2 = WeightLaw.exponential(1.0), WeightLaw.exponential(2.0)
        n = 10_000
        H = gen_inhomogeneous(n, n, xi1, xi2, substream(202, n))
        spec = remark1_limits("inhomogeneous", 1.0, xi1=xi1, xi2=xi2)
        deg1 = part_degrees(H, 1)
        kmax = int(deg1.max())
        emp = np.bincount(deg1, minlength=kmax + 1) / n
        lim = spec.D1.pmf_vector(kmax)
        tv_deg = 0.5 * (np.abs(emp - lim).sum() + max(0.0, 1.0 - lim.sum()))
        assert tv_deg < 0.015
        G = intersection_graph(H)
        ref = ball_distribution_mc(spec.D1, spec.D2, 1, 300_000, substream(203, n))
        tv_ball = tv_distance(probabilities(empirical_ball_dist(G, 1)), probabilities(ref))
        assert tv_ball < 0.03


class TestLimitEmbPerVertex:
    def test_closed_forms(self):
        spec = LimitSpec(DegreeLaw.constant(3), DegreeLaw.poisson(3.0))
        est = limit_emb_per_vertex(spec, pattern_from_name("K2"))
        assert est == pytest.approx(9.0)
        est = limit_emb_per_vertex(spec, pattern_from_name("P3"))
        assert est == pytest.approx(81.0)  # E (d*)_2 = 90 - 9
        est = limit_emb_per_vertex(spec, pattern_from_name("S3"))
        d1, d2, d3 = (dstar_moment(spec, k) for k in (1, 2, 3))
        assert est == pytest.approx(d3 - 3 * d2 + 2 * d1)
        est = limit_emb_per_vertex(spec, pattern_from_name("K3"))
        assert est == pytest.approx(27.0)

    def test_p4_is_exact(self):
        # P4 has no star or triangle form; its limit is exact all the same
        spec = LimitSpec(DegreeLaw.constant(2), DegreeLaw.constant(3))
        est = limit_emb_per_vertex(spec, pattern_from_name("P4"))
        assert est == deterministic_tree_count(spec, pattern_from_name("P4").rooted(0)) == 32


def test_factorial_moments_computed_once():
    # the limits of four scalar plans, one per sampler, read E (D)_k 456
    # times, for 22 distinct (law, k) pairs; each pair is computed once, and
    # a second pass computes none
    models = [
        {"model": "active", "n1": 100, "n2": 100, "P": {"kind": "constant", "value": 3}},
        {"model": "configuration", "n1": 100, "D1": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}},
         "D2": {"kind": "constant", "value": 2}},
        {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
         "xi2": {"kind": "exponential", "rate": 1.0}},
        {"model": "passive", "n1": 100, "n2": 100, "P": {"kind": "pmf", "pmf": {"2": 0.5, "4": 0.5}}},
    ]
    statistics = ["alpha", "assort", "alpha_k:3", "r_k:3", "pi:3", "moment:2", "emb:K3"]
    cache = DegreeLaw.factorial_moment
    cache.cache_clear()

    def limits():
        out = []
        for model in models:
            plan = ExperimentPlan.from_config({"model": model, "ladder": [2000, 7000], "statistics": statistics})
            check_edge_budget(plan)
            spec = limit_spec_for(plan.model)
            out += [STATISTICS[s.kind].limit(spec, s) for s in plan.statistics]
        return out

    first = limits()
    info = cache.cache_info()
    assert (info.hits + info.misses, info.misses) == (456, 22)
    assert limits() == first
    assert cache.cache_info().misses == 22
