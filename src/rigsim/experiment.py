"""Experiment orchestration: size ladders, replications, limit comparisons.

A plan names a model, a ladder of part-1 sizes, statistics, a replication
count and a seed.  Every replication draws from its own substream
(seed, size-index, replication), so results are independent of execution
order and thread count, and two runs of the same plan produce byte-identical
CSV.

Each statistic kind is one entry of ``STATISTICS``: the field carrying its
parameter, its value on a finite graph and its limit.  One worker builds the
graph of each (size, replication) once and evaluates every statistic on it;
with a clique-planting perturbation it also compares the planted graph G'
with the graph G it was planted on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .ballcode import _gather, block_codes, block_tree, fill_codes
from .counting import distinct_rootings, emb_count, pattern_from_name, sidorenko_bound
from .generators import ModelConfig, generate_bipartite, plant_clique
from .graphs import Graph, ball_adjacency, intersection_graph
from .laws import check_config_keys, config_number
from .limits import (
    LimitSpec,
    dstar_moment,
    limit_clustering,
    limit_conditional_assortativity,
    limit_conditional_clustering,
    limit_degree_pmf,
    limit_assortativity,
    limit_ball_probabilities,
    limit_emb_per_vertex,
    limit_spec_for,
    rooted_emb_expectation,
)
from .rng import substream
from . import stats as netstats

__all__ = [
    "STATISTICS",
    "StatisticSpec",
    "ExperimentPlan",
    "ConvergenceRow",
    "run_experiment",
    "theorem21_suite",
    "check_edge_budget",
    "row_converged",
    "rows_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "n1,statistic,empirical,emp_stderr,limit,limit_stderr,gap,tv"
# the key of the graph-side balls that are not block graphs, which no
# clique-tree ball is: it counts in full in every comparison with the limit
NON_BLOCK_BUCKET = b"__not_a_block_graph__"


@dataclass(frozen=True)
class StatisticSpec:
    """A requested statistic: kind plus its parameter (degree k, pattern
    name, or ball radius)."""

    kind: str
    k: int | None = None
    pattern: str | None = None
    r: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STATISTICS:
            raise ValueError(f"unknown statistic {self.kind!r}")
        arg = STATISTICS[self.kind].arg
        if arg is not None and getattr(self, arg) in (None, ""):
            raise ValueError(f"statistic {self.kind} needs {arg}")
        if self.r is not None and self.r < 0:
            raise ValueError("radius must be non-negative")

    @staticmethod
    def parse(text: str) -> "StatisticSpec":
        """Parse 'alpha', 'assort', 'alpha_k:2', 'r_k:2', 'pi:3', 'moment:2',
        'emb:K3', 'ball:1'."""
        kind, _, arg = (part.strip() for part in text.partition(":"))
        if kind not in STATISTICS:
            raise ValueError(f"cannot parse statistic {text!r}")
        field = STATISTICS[kind].arg
        if field is None:
            if arg:
                raise ValueError(f"statistic {kind} takes no argument: {text!r}")
            return StatisticSpec(kind)
        if field == "pattern" or not arg:  # an empty one fails in __post_init__
            return StatisticSpec(kind, **{field: arg})
        try:
            value = int(arg)
        except ValueError:
            raise ValueError(f"statistic {kind} needs an integer {field}: {text!r}") from None
        return StatisticSpec(kind, **{field: value})

    def label(self) -> str:
        arg = STATISTICS[self.kind].arg
        return self.kind if arg is None else f"{self.kind}({getattr(self, arg)})"


@dataclass(frozen=True)
class ExperimentPlan:
    model: ModelConfig  # template; sizes are rescaled along the ladder
    ladder: tuple[int, ...]
    statistics: tuple[StatisticSpec, ...]
    replications: int = 1
    seed: int = 0
    gamma: float | None = None  # plant a clique of size ceil(n1^gamma)
    edge_budget: int = 5 * 10**7
    threads: int = 1

    def __post_init__(self) -> None:
        # the one check of the plan's numbers, for plans read from a config
        # and built directly alike; it stores integral floats as ints
        for name, low in (("replications", 1), ("seed", None), ("edge_budget", None), ("threads", 1)):
            object.__setattr__(self, name, config_number(f"plan {name}", getattr(self, name), low))
        object.__setattr__(self, "ladder", tuple(config_number("plan ladder entry", n) for n in self.ladder))
        if not self.ladder or any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("size ladder must be non-empty and strictly increasing")
        if self.gamma is not None:
            gamma = config_number("plan perturbation gamma", self.gamma, integral=False)
            if not 0 < gamma < 1:
                raise ValueError("perturbation exponent must lie in (0, 1)")
            object.__setattr__(self, "gamma", gamma)
        if not self.statistics:
            raise ValueError("no statistics requested")

    @property
    def beta(self) -> float:
        return self.model.beta

    @staticmethod
    def from_config(cfg: Mapping) -> "ExperimentPlan":
        optional = ("replications", "seed", "perturbation", "mc_reference_samples", "edge_budget", "threads")
        check_config_keys(cfg, "plan", ("model", "ladder", "statistics"), optional)
        model = ModelConfig.from_config(cfg["model"])
        # a string would iterate by character and a number would not iterate
        if not isinstance(cfg["ladder"], list):
            raise ValueError(f"plan ladder must be a list of integers, got {cfg['ladder']!r}")
        if not isinstance(cfg["statistics"], list) or not all(isinstance(s, str) for s in cfg["statistics"]):
            raise ValueError(f"plan statistics must be a list of strings, got {cfg['statistics']!r}")
        stats = tuple(StatisticSpec.parse(s) for s in cfg["statistics"])
        numbers = {key: cfg[key] for key in optional if key in cfg}
        pert = numbers.pop("perturbation", None)
        if pert is not None:
            check_config_keys(pert, "perturbation", ("gamma",))
            # checked here too, so that a null gamma fails rather than read as no perturbation
            numbers["gamma"] = config_number("plan perturbation gamma", pert["gamma"], integral=False)
        if "mc_reference_samples" in numbers:
            # sizes nothing, as every ball row is scored against the exact
            # law; the benchmark's plans set it, so it is checked and dropped
            config_number("plan mc_reference_samples", numbers.pop("mc_reference_samples"), 1)
        return ExperimentPlan(model=model, ladder=tuple(cfg["ladder"]), statistics=stats, **numbers)

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


# -- the statistic table -------------------------------------------------------------------


class Statistic(NamedTuple):
    """One statistic kind.  ``graph`` gives what ``rigsim stats`` reports on a
    finite graph (a StatReport, a number or a ball histogram); ``limit``
    gives its exact limit (a float) from the limit laws and the
    statistic, and is None for balls, which ``run_experiment`` compares with
    the exact clique-tree ball law (``_ball_limit_tv``)."""

    arg: str | None  # the StatisticSpec field carrying the parameter
    graph: Callable[[Graph, StatisticSpec], object]
    limit: Callable[[LimitSpec, StatisticSpec], float] | None
    per_vertex: bool = False  # plans report the graph value divided by n1
    row: Callable[[Graph, StatisticSpec], object] | None = None  # what a plan compares, when not ``graph``


def _emb(G: Graph, s: StatisticSpec) -> int:
    pat = pattern_from_name(s.pattern)
    hom, bound, holds = sidorenko_bound(pat, G)
    if not holds:
        raise AssertionError(f"degree-power bound violated for {s.pattern}: {hom} > {bound}")
    return emb_count(pat, G)


# The lambdas look module globals up at call time, so a caller that rebinds
# one of them (a tracer, a test counter) sees every call.
STATISTICS: dict[str, Statistic] = {
    "alpha": Statistic(None, lambda G, s: netstats.clustering(G), lambda spec, s: limit_clustering(spec)),
    "assort": Statistic(None, lambda G, s: netstats.assortativity(G), lambda spec, s: limit_assortativity(spec)),
    "alpha_k": Statistic("k", lambda G, s: netstats.conditional_clustering(G, s.k),
                         lambda spec, s: limit_conditional_clustering(spec, s.k)),
    "r_k": Statistic("k", lambda G, s: netstats.conditional_assortativity(G, s.k),
                     lambda spec, s: limit_conditional_assortativity(spec, s.k)),
    "pi": Statistic("k", lambda G, s: netstats.degree_fraction(G, s.k), lambda spec, s: limit_degree_pmf(spec, s.k)),
    "moment": Statistic("k", lambda G, s: netstats.degree_moment(G, s.k), lambda spec, s: dstar_moment(spec, s.k)),
    "emb": Statistic("pattern", _emb, lambda spec, s: limit_emb_per_vertex(spec, pattern_from_name(s.pattern)),
                     per_vertex=True),
    "ball": Statistic("r", lambda G, s: netstats.empirical_ball_dist(G, s.r), None,
                      row=lambda G, s: Counter(NON_BLOCK_BUCKET if code is None else code
                                               for code, _ in block_codes(G, s.r))),
}


def count_tv(c: Mapping[object, int], N: int, d: Mapping[object, int], M: int) -> float:
    """Total variation distance between counts ``c`` out of N and ``d`` out
    of M, sum_k |c_k M - d_k N| / (2 N M): summed on integers and divided
    once, so it is exactly rounded and does not depend on key order.  A key
    missing on one side counts 0 there.  Counts both sides share may be left
    out when N == M, since they cancel."""
    if N < 1 or M < 1:
        raise ValueError("total variation needs two non-empty samples")
    num = sum(abs(c.get(k, 0) * M - d.get(k, 0) * N) for k in c.keys() | d.keys())
    return float(Fraction(num, 2 * N * M))


def _ball_limit_tv(spec: LimitSpec, r: int, hist: Counter) -> float:
    """TV distance between the code counts ``hist``, of frequencies q, and
    the exact radius-r clique-tree ball law p (0 where ``block_tree`` does
    not decode): sum_x max(q_x - p_x, 0) over its codes, half the L1
    distance as p sums to 1, rounded correctly by ``math.fsum`` whatever the
    codes' order."""
    total = hist.total()
    trees = [block_tree(code, r) for code in hist]
    known = iter(limit_ball_probabilities(spec, r, [t for t in trees if t is not None]))
    probs = [0.0 if t is None else next(known) for t in trees]
    return math.fsum(max(c / total - p, 0.0) for c, p in zip(hist.values(), probs))


def _measure(G: Graph, s: StatisticSpec):
    """The value a plan reports for ``s`` on ``G``: a float, or the ball code counts."""
    kind = STATISTICS[s.kind]
    out = (kind.row or kind.graph)(G, s)
    if isinstance(out, netstats.StatReport):
        out = out.value
    return out / G.vertex_count if kind.per_vertex else out


# -- the replication pass ------------------------------------------------------------------


def _replicate(task: tuple) -> tuple[dict, tuple[float, float] | None]:
    """One (size index, replication): draw H once and project it to G; when
    the plan has a perturbation, plant the clique on H as one more attribute
    and project that too, giving G'.

    Returns the statistics of the plan on G' (G without a perturbation), by
    label.  ``pert`` is empty or a (moment, ball) pair of specs; when it is
    given the worker also returns the ratio of the moment on G' over G and
    the TV distance between their ball distributions.  Runs in worker
    processes; everything passed in is picklable.
    """
    plan, i, rep, pert = task
    n1 = plan.ladder[i]
    try:
        H = generate_bipartite(plan.sized_model(n1), substream(plan.seed, i, rep))
        G0 = intersection_graph(H)
        s = plan.clique_size(n1)
        G = G0 if s is None else intersection_graph(plant_clique(H, s, substream(plan.seed, i, rep, 1)))
        del H  # the graphs keep what the ball pass needs of it
        values = {st.label(): _measure(G, st) for st in dict.fromkeys(plan.statistics) if st not in pert}
        if not pert:
            return values, None
        mom, ball = pert
        hist, tv = _ball_perturbation(G0, G, ball.r, ball in plan.statistics)
        if hist is not None:
            values[ball.label()] = hist
        values[mom.label()] = _measure(G, mom)
        return values, (values[mom.label()] / _measure(G0, mom), tv)
    except Exception as e:
        raise RuntimeError(f"replication failed at n1={n1}, replication={rep}: {e}") from e


def _ball_perturbation(G0: Graph, G: Graph, r: int, row: bool) -> tuple[Counter | None, float]:
    """TV distance between the radius-r ball distributions of G and G0, where
    G is G0 plus edges, and G's ball-row code counts when ``row`` is set
    (None otherwise).

    A ball can differ between the two only if it holds an endpoint of a new
    edge, so only the vertices within distance r (in G) of a vertex whose
    degree rose are compared, and the other balls cancel in the TV.  Each of
    them is coded once on each graph (G's row pass codes every vertex of G).
    A near ball that is not a block graph is walked, unless the block pass
    already did, and canonised only when its key, the vertex count and
    sorted degrees, also occurs among the other graph's near non-block
    balls; otherwise no ball there can share its code, and it counts under
    its key."""
    near = G.degrees() != G0.degrees()
    frontier = np.flatnonzero(near)
    for _ in range(r):
        reached = np.zeros_like(near)
        reached[_gather(G.indptr, G.indices, frontier)[0]] = True
        frontier = np.flatnonzero(reached & ~near)
        near |= reached
    nearby = np.flatnonzero(near).tolist()
    hist = None
    if row:
        hist, planted = Counter(), []
        for v, entry in enumerate(block_codes(G, r)):
            hist[NON_BLOCK_BUCKET if entry[0] is None else entry[0]] += 1
            if near[v]:
                planted.append(entry)
    else:
        planted = list(block_codes(G, r, nearby))
    sides = [[(code, None) if code is not None else
              (None, adj or ball_adjacency(lambda u: g.neighbors(u).tolist(), v, r))
              for v, (code, adj) in zip(nearby, side)]
             for g, side in ((G, planted), (G0, block_codes(G0, r, nearby)))]
    shared = set.intersection(*({_ball_key(adj) for code, adj in side if code is None} for side in sides))
    counts = (Counter(), Counter())
    held = []  # (side, adjacency) of the non-block balls whose key both sides have
    for j, side in enumerate(sides):
        for code, adj in side:
            key = code if code is not None else _ball_key(adj)
            if code is None and key in shared:
                held.append((j, adj))
            else:
                counts[j][key] += 1
    for (j, _), code in zip(held, fill_codes((None, adj) for _, adj in held)):
        counts[j][code] += 1
    return hist, count_tv(counts[0], G.vertex_count, counts[1], G.vertex_count)


def _ball_key(adj: list[list[int]]) -> tuple:
    """An isomorphism invariant of a ball: its vertex count and sorted degrees."""
    return len(adj), tuple(sorted(map(len, adj)))


def _replications(plan: ExperimentPlan, i: int, pert: tuple[StatisticSpec, ...] = ()) -> list:
    """Worker results for every replication at ladder index ``i``, in
    replication order."""
    tasks = [(plan, i, rep, pert) for rep in range(plan.replications)]
    if plan.threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # only runs with workers pay for its import

        with ProcessPoolExecutor(max_workers=plan.threads) as ex:
            return list(ex.map(_replicate, tasks))
    return [_replicate(t) for t in tasks]


def _mean_se(xs) -> tuple[float, float]:
    a = np.asarray(xs, dtype=float)
    return float(a.mean()), float(a.std(ddof=1) / math.sqrt(a.size)) if a.size > 1 else 0.0


def _scalar_row(n1: int, label: str, xs, lim: float) -> ConvergenceRow:
    emp, emp_se = _mean_se(xs)
    return ConvergenceRow(n1, label, emp, emp_se, lim, 0.0, abs(emp - lim), None)


def _perturbation_rows(n1: int, pert: tuple[StatisticSpec, ...], results: list) -> list[ConvergenceRow]:
    mom, ball = pert
    ratio, r_se = _mean_se([p[0] for _, p in results])
    tv = float(np.mean([p[1] for _, p in results]))
    return [
        ConvergenceRow(n1, f"moment_ratio({mom.k})", ratio, r_se, None, None, None, None),
        ConvergenceRow(n1, f"ball_perturb_tv({ball.r})", None, None, None, None, None, tv),
    ]


def check_edge_budget(plan: ExperimentPlan) -> None:
    """Refuse plans whose top size would exceed the edge budget (estimated
    from the limit mean degree plus the planted clique)."""
    spec = limit_spec_for(plan.model)
    mean_deg = dstar_moment(spec, 1)
    for n1 in plan.ladder:
        est = 0.75 * n1 * mean_deg  # headroom over n1 E d* / 2
        s = plan.clique_size(n1)
        if s is not None:
            est += s * (s - 1) / 2
        if est > plan.edge_budget:
            raise ValueError(
                f"estimated {est:.3g} edges at n1={n1} exceeds the edge budget {plan.edge_budget}"
            )


# -- public experiment entry points -------------------------------------------------------


def row_converged(row: ConvergenceRow) -> bool | None:
    """Tolerance verdict for a scalar row: gap at most 3 empirical standard
    errors, the limit being exact; None for ball rows."""
    if row.gap is None:
        return None
    return row.gap <= 3.0 * (row.emp_stderr or 0.0)


def run_experiment(plan: ExperimentPlan) -> list[ConvergenceRow]:
    """Run the full plan: per size, replicate graphs, compare statistics with
    their limits; ball statistics compare pooled empirical code histograms
    by total variation with the exact clique-tree ball law, with the balls
    that are not block graphs pooled in one bucket that no limit ball
    matches.  A plan with a perturbation then
    gets, after all the main rows, two rows per size from the same graphs:
    the planted/unplanted ratio of the second degree moment and the TV
    distance between their ball distributions at the plan's ball radius (1
    without a ball statistic)."""
    check_edge_budget(plan)
    balls = [s for s in plan.statistics if s.kind == "ball"]
    if len(balls) > 1:
        raise ValueError("at most one ball statistic per plan")
    spec = limit_spec_for(plan.model)
    limits = {s.label(): STATISTICS[s.kind].limit(spec, s) for s in plan.statistics if s.kind != "ball"}
    pert = () if plan.gamma is None else (StatisticSpec("moment", k=2),
                                          StatisticSpec("ball", r=balls[0].r if balls else 1))
    rows: list[ConvergenceRow] = []
    pert_rows: list[ConvergenceRow] = []  # appended after all the main rows
    for i, n1 in enumerate(plan.ladder):
        results = _replications(plan, i, pert)
        for s in plan.statistics:
            if s.kind != "ball":
                rows.append(_scalar_row(n1, s.label(), [values[s.label()] for values, _ in results], limits[s.label()]))
        for s in balls:  # after the scalar rows of the size
            pooled = Counter()
            for values, _ in results:
                pooled.update(values[s.label()])
            rows.append(ConvergenceRow(n1, s.label(), None, None, None, None, None, _ball_limit_tv(spec, s.r, pooled)))
        if pert:
            pert_rows += _perturbation_rows(n1, pert, results)
    return rows + pert_rows


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
    mom_s, emb_s = StatisticSpec("moment", k=h - 1), StatisticSpec("emb", pattern=pattern_name)
    mom_limit = dstar_moment(spec, h - 1)
    rootings = distinct_rootings(pattern)
    emb_limits = [rooted_emb_expectation(spec, rp) for rp in rootings]
    rows: list[ConvergenceRow] = []
    plan = replace(plan, statistics=(mom_s, emb_s))
    for i, n1 in enumerate(plan.ladder):
        results = _replications(plan, i)
        rows.append(_scalar_row(n1, mom_s.label(), [values[mom_s.label()] for values, _ in results], mom_limit))
        embs = [values[emb_s.label()] for values, _ in results]
        rows += [_scalar_row(n1, f"{emb_s.label()}@root{rp.root}", embs, lim) for rp, lim in zip(rootings, emb_limits)]
        # the emb entry raises on a Sidorenko violation, so the bound held on every replication
        rows.append(ConvergenceRow(n1, f"sidorenko({pattern_name})", 1.0, 0.0, 1.0, 0.0, 0.0, None))
    return rows
