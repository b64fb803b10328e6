"""Experiment orchestration: size ladders, replications, limit comparisons.

A plan names a model, a ladder of part-1 sizes, statistics, a replication
count and a seed.  Every replication draws from its own substream
(seed, size-index, replication), so results are independent of execution
order and thread count, and two runs of the same plan produce byte-identical
CSV.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .cliquetree import CodeHistogram, ball_distribution_mc, tv_distance
from .counting import Pattern, distinct_rootings, emb_count, pattern_from_name, sidorenko_bound
from .generators import ModelConfig, generate_bipartite, plant_clique
from .graphs import Graph, intersection_graph
from .laws import stirling1_signed
from .limits import (
    Estimate,
    LimitSpec,
    dstar_moment,
    limit_clustering,
    limit_conditional_assortativity,
    limit_conditional_clustering,
    limit_degree_pmf,
    limit_assortativity,
    limit_spec_for,
    rooted_emb_expectation_mc,
    z_moment,
)
from .rng import substream
from . import stats as netstats

__all__ = [
    "StatisticSpec",
    "ExperimentPlan",
    "ConvergenceRow",
    "run_experiment",
    "ball_convergence",
    "perturbation_report",
    "theorem21_suite",
    "check_edge_budget",
    "limit_emb_per_vertex",
    "row_converged",
    "rows_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "n1,statistic,empirical,emp_stderr,limit,limit_stderr,gap,tv"

_REF_STREAM = 0x5EED  # substream tag reserved for MC references


@dataclass(frozen=True)
class StatisticSpec:
    """A requested statistic: kind plus its parameter (degree k, pattern
    name, or ball radius)."""

    kind: str
    k: int | None = None
    pattern: str | None = None
    r: int | None = None

    _KINDS = ("alpha", "assort", "alpha_k", "r_k", "pi", "moment", "emb", "ball")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown statistic {self.kind!r}")
        if self.kind in ("alpha_k", "r_k", "pi", "moment") and self.k is None:
            raise ValueError(f"statistic {self.kind} needs k")
        if self.kind == "emb" and self.pattern is None:
            raise ValueError("emb statistic needs a pattern name")
        if self.kind == "ball" and self.r is None:
            raise ValueError("ball statistic needs a radius")

    @staticmethod
    def parse(text: str) -> "StatisticSpec":
        """Parse 'alpha', 'assort', 'alpha_k:2', 'r_k:2', 'pi:3', 'moment:2',
        'emb:K3', 'ball:1'."""
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        arg = arg.strip()
        if kind in ("alpha", "assort"):
            return StatisticSpec(kind)
        if kind in ("alpha_k", "r_k", "pi", "moment"):
            return StatisticSpec(kind, k=int(arg))
        if kind == "emb":
            return StatisticSpec(kind, pattern=arg)
        if kind == "ball":
            return StatisticSpec(kind, r=int(arg))
        raise ValueError(f"cannot parse statistic {text!r}")

    def label(self) -> str:
        if self.kind in ("alpha", "assort"):
            return self.kind
        if self.kind in ("alpha_k", "r_k", "pi", "moment"):
            return f"{self.kind}({self.k})"
        if self.kind == "emb":
            return f"emb({self.pattern})"
        return f"ball({self.r})"


@dataclass(frozen=True)
class ExperimentPlan:
    model: ModelConfig  # template; sizes are rescaled along the ladder
    ladder: tuple[int, ...]
    statistics: tuple[StatisticSpec, ...]
    replications: int = 1
    seed: int = 0
    gamma: float | None = None  # plant a clique of size ceil(n1^gamma)
    mc_reference_samples: int = 10**5
    edge_budget: int = 5 * 10**7
    threads: int = 1
    gap_tolerance: float | None = None  # None: 3 * (emp stderr + limit stderr)

    def __post_init__(self) -> None:
        if not self.ladder or any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("size ladder must be non-empty and strictly increasing")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.gamma is not None and not 0 < self.gamma < 1:
            raise ValueError("perturbation exponent must lie in (0, 1)")
        if not self.statistics:
            raise ValueError("no statistics requested")

    @property
    def beta(self) -> float:
        return self.model.beta

    @staticmethod
    def from_config(cfg: Mapping) -> "ExperimentPlan":
        model = ModelConfig.from_config(cfg["model"])
        stats = tuple(StatisticSpec.parse(s) for s in cfg["statistics"])
        pert = cfg.get("perturbation") or {}
        tol = cfg.get("gap_tolerance")
        return ExperimentPlan(
            model=model,
            ladder=tuple(int(n) for n in cfg["ladder"]),
            statistics=stats,
            replications=int(cfg.get("replications", 1)),
            seed=int(cfg.get("seed", 0)),
            gamma=pert.get("gamma"),
            mc_reference_samples=int(cfg.get("mc_reference_samples", 10**5)),
            edge_budget=int(cfg.get("edge_budget", 5 * 10**7)),
            threads=int(cfg.get("threads", 1)),
            gap_tolerance=float(tol) if tol is not None else None,
        )

    def sized_model(self, n1: int) -> ModelConfig:
        n2 = max(1, int(round(self.beta * n1)))
        return self.model.with_sizes(n1, n2)

    def clique_size(self, n1: int) -> int | None:
        return None if self.gamma is None else max(1, math.ceil(n1**self.gamma))


@dataclass(frozen=True)
class ConvergenceRow:
    n1: int
    statistic: str
    empirical: float | None
    emp_stderr: float | None
    limit: float | None
    limit_stderr: float | None
    gap: float | None
    tv: float | None

    def to_csv(self) -> str:
        def fmt(x):
            return "" if x is None else (str(x) if isinstance(x, int) else format(float(x), ".12g"))

        return ",".join(
            [
                str(self.n1),
                self.statistic,
                fmt(self.empirical),
                fmt(self.emp_stderr),
                fmt(self.limit),
                fmt(self.limit_stderr),
                fmt(self.gap),
                fmt(self.tv),
            ]
        )


def rows_to_csv(rows: Sequence[ConvergenceRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


# -- replication plumbing --------------------------------------------------------------


def _realize_graph(plan: ExperimentPlan, n1: int, rep: int) -> Graph:
    config = plan.sized_model(n1)
    rng = substream(plan.seed, _ladder_index(plan, n1), rep)
    G = intersection_graph(generate_bipartite(config, rng))
    s = plan.clique_size(n1)
    if s is not None:
        G = plant_clique(G, s, substream(plan.seed, _ladder_index(plan, n1), rep, 1))
    return G


def _ladder_index(plan: ExperimentPlan, n1: int) -> int:
    return plan.ladder.index(n1)


def _scalar_value(G: Graph, s: StatisticSpec) -> float:
    if s.kind == "alpha":
        return netstats.clustering(G).value
    if s.kind == "assort":
        return netstats.assortativity(G).value
    if s.kind == "alpha_k":
        return netstats.conditional_clustering(G, s.k).value
    if s.kind == "r_k":
        return netstats.conditional_assortativity(G, s.k).value
    if s.kind == "pi":
        return netstats.degree_fraction(G, s.k)
    if s.kind == "moment":
        return netstats.degree_moment(G, s.k)
    if s.kind == "emb":
        pat = pattern_from_name(s.pattern)
        hom, bound, holds = sidorenko_bound(pat, G)
        if not holds:
            raise AssertionError(f"degree-power bound violated for {s.pattern}: {hom} > {bound}")
        return emb_count(pat, G) / G.vertex_count
    raise AssertionError(s.kind)


def _replicate_worker(args: tuple) -> tuple[int, dict[str, float], dict[bytes, int] | None, int]:
    """Compute all requested statistics for one (size, replication).

    Returns (rep, scalar values by label, radius-r ball counts or None, n1).
    Runs in worker processes; everything passed in is picklable.
    """
    plan, n1, rep, ball_r = args
    try:
        G = _realize_graph(plan, n1, rep)
        scalars: dict[str, float] = {}
        for s in plan.statistics:
            if s.kind != "ball":
                scalars[s.label()] = _scalar_value(G, s)
        counts = None
        if ball_r is not None:
            counts = netstats.empirical_ball_dist(G, ball_r).counts
    except Exception as e:
        raise RuntimeError(f"replication failed at n1={n1}, replication={rep}: {e}") from e
    return rep, scalars, counts, n1


def _run_replications(plan: ExperimentPlan, n1: int, ball_r: int | None):
    tasks = [(plan, n1, rep, ball_r) for rep in range(plan.replications)]
    if plan.threads > 1:
        with ProcessPoolExecutor(max_workers=plan.threads) as ex:
            results = list(ex.map(_replicate_worker, tasks))
    else:
        results = [_replicate_worker(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    return results


def check_edge_budget(plan: ExperimentPlan) -> None:
    """Refuse plans whose top size would exceed the edge budget (estimated
    from the limit mean degree plus the planted clique)."""
    spec = limit_spec_for(plan.model)
    mean_deg = dstar_moment(spec, 1).value
    for n1 in plan.ladder:
        est = 0.75 * n1 * mean_deg  # headroom over n1 E d* / 2
        s = plan.clique_size(n1)
        if s is not None:
            est += s * (s - 1) / 2
        if est > plan.edge_budget:
            raise ValueError(
                f"estimated {est:.3g} edges at n1={n1} exceeds the edge budget {plan.edge_budget}"
            )


def _limit_estimate(
    plan: ExperimentPlan, spec: LimitSpec, s: StatisticSpec
) -> Estimate:
    if s.kind == "alpha":
        return limit_clustering(spec)
    if s.kind == "assort":
        return limit_assortativity(spec)
    # Monte Carlo fallback for laws without exact pmfs (e.g. Pareto weights);
    # rows on exact paths never touch this rng
    rng = substream(plan.seed, _REF_STREAM, 4, plan.statistics.index(s))
    mc = {"mc_samples": plan.mc_reference_samples, "rng": rng}
    if s.kind == "alpha_k":
        return limit_conditional_clustering(spec, s.k, **mc)
    if s.kind == "r_k":
        return limit_conditional_assortativity(spec, s.k, **mc)
    if s.kind == "pi":
        return limit_degree_pmf(spec, s.k, **mc)
    if s.kind == "moment":
        return dstar_moment(spec, s.k)
    if s.kind == "emb":
        return limit_emb_per_vertex(
            spec, pattern_from_name(s.pattern), plan.mc_reference_samples, substream(plan.seed, _REF_STREAM, 1)
        )
    raise AssertionError(s.kind)


def limit_emb_per_vertex(
    spec: LimitSpec, pattern: Pattern, mc_samples: int, rng: np.random.Generator
) -> Estimate:
    """Limit of emb(H, G_n) / n1: closed form for K2, stars (factorial moments
    of d*) and K3 (E D1 E (Z)_2); Monte Carlo over clique-tree balls otherwise."""
    g = pattern.graph
    degs = sorted(g.degrees().tolist())
    h = g.vertex_count
    if degs == [1] * (h - 1) + [h - 1] or h == 2:  # stars incl. K2; P3 == K_{1,2}
        t = h - 1
        val = sum(stirling1_signed(t, j) * dstar_moment(spec, j).value for j in range(1, t + 1))
        return Estimate(float(val))
    if h == 3 and degs == [2, 2, 2]:  # triangle
        if spec.degenerate_root:
            return Estimate(0.0)
        val = float(spec.D1.mean()) * z_moment(spec.D2, 2, "factorial").value
        return Estimate(val)
    rooted = min(distinct_rootings(pattern), key=lambda p: p.root_eccentricity())
    return rooted_emb_expectation_mc(spec, rooted, rooted.root_eccentricity(), mc_samples, rng)


# -- public experiment entry points -------------------------------------------------------


def row_converged(row: ConvergenceRow, plan: ExperimentPlan) -> bool | None:
    """Tolerance verdict for a scalar row: gap below the plan's threshold
    (default 3 * (empirical stderr + limit stderr)); None for ball rows."""
    if row.gap is None:
        return None
    tol = plan.gap_tolerance
    if tol is None:
        tol = 3.0 * ((row.emp_stderr or 0.0) + (row.limit_stderr or 0.0))
    return row.gap <= tol


def run_experiment(plan: ExperimentPlan) -> list[ConvergenceRow]:
    """Run the full plan: per size, replicate graphs, compare statistics with
    their limits; ball statistics compare pooled empirical code histograms
    against a clique-tree Monte Carlo reference by total variation."""
    check_edge_budget(plan)
    spec = limit_spec_for(plan.model)
    ball_specs = [s for s in plan.statistics if s.kind == "ball"]
    if len(ball_specs) > 1:
        raise ValueError("at most one ball statistic per plan")
    ball_r = ball_specs[0].r if ball_specs else None
    scalar_specs = [s for s in plan.statistics if s.kind != "ball"]
    limits = {s.label(): _limit_estimate(plan, spec, s) for s in scalar_specs}
    references: dict[int, CodeHistogram] = {}
    if ball_r is not None:
        references[ball_r] = ball_distribution_mc(
            spec.D1, spec.D2, ball_r, plan.mc_reference_samples, substream(plan.seed, _REF_STREAM, 2)
        )
    rows: list[ConvergenceRow] = []
    for n1 in plan.ladder:
        results = _run_replications(plan, n1, ball_r)
        for s in scalar_specs:
            vals = np.array([res[1][s.label()] for res in results])
            emp = float(vals.mean())
            emp_se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            lim = limits[s.label()]
            rows.append(
                ConvergenceRow(
                    n1, s.label(), emp, emp_se, lim.value, lim.stderr, abs(emp - lim.value), None
                )
            )
        if ball_r is not None:
            pooled = CodeHistogram()
            for res in results:
                for code, c in sorted(res[2].items()):
                    pooled.add(code, c)
            tv = tv_distance(pooled.probabilities(), references[ball_r].probabilities())
            rows.append(ConvergenceRow(n1, f"ball({ball_r})", None, None, None, None, None, tv))
    return rows


def ball_convergence(plan: ExperimentPlan, r: int) -> list[ConvergenceRow]:
    """Total-variation rows between the empirical radius-r ball distribution
    of G_n and the clique-tree Monte Carlo reference, per ladder size."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    pl = replace(plan, statistics=(StatisticSpec("ball", r=r),))
    return run_experiment(pl)


def perturbation_report(plan: ExperimentPlan, r: int = 1, moment_order: int = 2) -> list[ConvergenceRow]:
    """Clique-planting demonstration: per size, the perturbed/unperturbed
    degree-moment ratio and the TV distance between their radius-r ball
    distributions.  Requires the plan to carry a perturbation exponent."""
    if plan.gamma is None:
        raise ValueError("perturbation_report needs a plan with gamma")
    check_edge_budget(plan)
    rows: list[ConvergenceRow] = []
    mom = StatisticSpec("moment", k=moment_order)
    pert = replace(plan, statistics=(mom,))
    base = replace(pert, gamma=None)  # same substreams: G' is G plus the clique
    for n1 in plan.ladder:
        res_pert = _run_replications(pert, n1, r)
        res_base = _run_replications(base, n1, r)
        ratios = []
        tvs = []
        for (_, sc_p, counts_p, _), (_, sc_b, counts_b, _) in zip(res_pert, res_base):
            ratios.append(sc_p[mom.label()] / sc_b[mom.label()])
            hp, hb = CodeHistogram(), CodeHistogram()
            for code, c in sorted(counts_p.items()):
                hp.add(code, c)
            for code, c in sorted(counts_b.items()):
                hb.add(code, c)
            tvs.append(tv_distance(hp.probabilities(), hb.probabilities()))
        ratio = float(np.mean(ratios))
        r_se = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
        rows.append(
            ConvergenceRow(n1, f"moment_ratio({moment_order})", ratio, r_se, None, None, None, None)
        )
        rows.append(
            ConvergenceRow(n1, f"ball_perturb_tv({r})", None, None, None, None, None, float(np.mean(tvs)))
        )
    return rows


def theorem21_suite(plan: ExperimentPlan, pattern_name: str) -> list[ConvergenceRow]:
    """Degree-moment, embedding-count and Sidorenko trajectories for one
    pattern: per size, (a) E d^(h-1) vs the limit moment, (b) emb(H, G_n)/n1
    vs the rooted-embedding expectation for every rooting, (c) the Sidorenko
    bound (hard assertion, reported as a 0/1 row)."""
    pattern = pattern_from_name(pattern_name)
    h = pattern.h
    if h > 4:
        raise ValueError("theorem21 suite is limited to patterns on at most 4 vertices")
    check_edge_budget(plan)
    spec = limit_spec_for(plan.model)
    mom_limit = dstar_moment(spec, h - 1)
    rootings = distinct_rootings(pattern)
    emb_limits = [
        rooted_emb_expectation_mc(
            spec,
            rp,
            rp.root_eccentricity(),
            plan.mc_reference_samples,
            substream(plan.seed, _REF_STREAM, 3, i),
        )
        for i, rp in enumerate(rootings)
    ]
    rows: list[ConvergenceRow] = []
    for n1 in plan.ladder:
        moments = []
        embs = []
        sid_ok = 0
        for rep in range(plan.replications):
            G = _realize_graph(plan, n1, rep)
            moments.append(netstats.degree_moment(G, h - 1))
            embs.append(emb_count(pattern, G) / G.vertex_count)
            _, _, holds = sidorenko_bound(pattern, G)
            if not holds:
                raise AssertionError(f"Sidorenko bound violated at n1={n1} rep={rep}")
            sid_ok += 1
        mom = float(np.mean(moments))
        mom_se = float(np.std(moments, ddof=1) / math.sqrt(len(moments))) if len(moments) > 1 else 0.0
        rows.append(
            ConvergenceRow(
                n1, f"moment({h - 1})", mom, mom_se, mom_limit.value, mom_limit.stderr,
                abs(mom - mom_limit.value), None,
            )
        )
        emb = float(np.mean(embs))
        emb_se = float(np.std(embs, ddof=1) / math.sqrt(len(embs))) if len(embs) > 1 else 0.0
        for i, lim in enumerate(emb_limits):
            rows.append(
                ConvergenceRow(
                    n1, f"emb({pattern_name})@root{rootings[i].root}", emb, emb_se,
                    lim.value, lim.stderr, abs(emb - lim.value), None,
                )
            )
        rows.append(
            ConvergenceRow(n1, f"sidorenko({pattern_name})", sid_ok / plan.replications, 0.0, 1.0, 0.0, 0.0, None)
        )
    return rows
