"""Command-line interface.

Subcommands: generate, stats, limits, balls, converge, theorem21.  Exit codes:
0 success, 1 validation error (bad config/arguments), 2 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cliquetree import CodeHistogram, ball_distribution_mc
from .generators import ModelConfig, generate_bipartite, plant_clique
from .graphs import intersection_graph, read_graph, write_bipartite, write_graph
from .laws import check_config_keys, degree_law_from_config
from .limits import LimitSpec, limit_spec_for
from .experiment import (
    STATISTICS,
    ExperimentPlan,
    StatisticSpec,
    row_converged,
    rows_to_csv,
    run_experiment,
    theorem21_suite,
)
from .rng import substream
from . import stats as netstats

__all__ = ["main"]


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write(args, name: str, text: str) -> None:
    """Write ``text`` to the file ``name`` under ``--out`` and print its path."""
    path = _out_path(args, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


def _write_rows(args, rows, stem: str) -> None:
    if args.format == "csv":
        _write(args, f"{stem}.csv", rows_to_csv(rows))
    else:
        _write(args, f"{stem}.json", json.dumps([r.__dict__ for r in rows], indent=1))


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    config = ModelConfig.from_config(cfg)
    rng = substream(args.seed)
    H = generate_bipartite(config, rng)
    G = intersection_graph(H if args.plant is None else plant_clique(H, args.plant, substream(args.seed, 1)))
    write_bipartite(H, _out_path(args, "bipartite.txt"))
    write_graph(G, _out_path(args, "graph.txt"))
    print(_out_path(args, "graph.txt"))
    return 0


def cmd_stats(args) -> int:
    G = read_graph(args.graph)
    rows = []
    for text in args.stats.split(","):
        s = StatisticSpec.parse(text)
        rep = STATISTICS[s.kind].graph(G, s)
        if isinstance(rep, CodeHistogram):
            _write(args, f"ball_{s.r}.json", json.dumps(rep.to_rows(), indent=1))
        else:
            rows.append(rep.to_row() if isinstance(rep, netstats.StatReport) else {"name": s.label(), "value": rep})
    _write(args, "stats.json", json.dumps(rows, indent=1))
    return 0


def _limit_spec(cfg: dict) -> LimitSpec:
    """Limit laws from a model file, a file whose "model" is a model object
    (a plan, say), or direct {"D1", "D2"} laws."""
    if isinstance(cfg, dict) and isinstance(cfg.get("model"), dict):
        cfg = cfg["model"]
    if isinstance(cfg, dict) and "model" in cfg:
        return limit_spec_for(ModelConfig.from_config(cfg))
    check_config_keys(cfg, "laws", ("D1", "D2"))
    return LimitSpec(degree_law_from_config(cfg["D1"]), degree_law_from_config(cfg["D2"]))


_MC_SAMPLES = 10**5


def cmd_limits(args) -> int:
    """Each quantity's exact limit, as ``converge`` computes it."""
    spec = _limit_spec(_load_config(args.config))
    report = [StatisticSpec("moment", k=k) for k in (1, 2, 3)] + [StatisticSpec("alpha"), StatisticSpec("assort")]
    for k in args.k_values:
        report.append(StatisticSpec("pi", k=k))
        if k >= 2:
            report.append(StatisticSpec("alpha_k", k=k))
        if k >= 1:
            report.append(StatisticSpec("r_k", k=k))
    out = []
    for s in report:
        name = f"dstar_moment({s.k})" if s.kind == "moment" else s.label()
        try:
            value = STATISTICS[s.kind].limit(spec, s).value
        except ValueError as e:
            # an undefined or infinite quantity (degenerate variance,
            # P(d*=k)=0, an infinite moment) gets an error entry instead of
            # aborting the whole report
            out.append({"quantity": name, "error": str(e), "provenance": spec.provenance})
            continue
        out.append({"quantity": name, "value": value, "provenance": spec.provenance})
    _write(args, "limits.json", json.dumps(out, indent=1))
    return 0


def cmd_balls(args) -> int:
    if args.graph:
        if args.samples is not None or args.seed is not None:
            raise ValueError("--samples and --seed go with --config; --graph draws nothing")
        G = read_graph(args.graph)
        hist = netstats.empirical_ball_dist(G, args.r)
    else:
        spec = _limit_spec(_load_config(args.config))
        samples = _MC_SAMPLES if args.samples is None else args.samples
        hist = ball_distribution_mc(spec.D1, spec.D2, args.r, samples, substream(0 if args.seed is None else args.seed))
    _write(args, f"balls_r{args.r}.json", json.dumps(hist.to_rows(), indent=1))
    return 0


def _plan_from_args(args) -> ExperimentPlan:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    return ExperimentPlan.from_config(cfg)


def cmd_converge(args) -> int:
    plan = _plan_from_args(args)
    rows = run_experiment(plan)
    scored = [v for v in (row_converged(r, plan) for r in rows) if v is not None]
    if scored:
        print(f"converged: {sum(scored)}/{len(scored)} scalar rows within tolerance")
    _write_rows(args, rows, "converge")
    return 0


def cmd_theorem21(args) -> int:
    plan = _plan_from_args(args)
    rows = theorem21_suite(plan, args.pattern)
    _write_rows(args, rows, f"theorem21_{args.pattern}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes the flags it reads, and all take ``--out``."""
    ap = argparse.ArgumentParser(prog="rigsim", description="Random intersection graph simulator")
    sub = ap.add_subparsers(dest="command", required=True)
    config = {"required": True, "help": "JSON config file"}

    p = sub.add_parser("generate", help="generate a graph and write edge lists")
    p.add_argument("--config", **config)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plant", type=int, default=None, help="plant a clique of this size")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("stats", help="statistics of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--stats", required=True, help="comma list, e.g. alpha,assort,alpha_k:2,pi:3")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("limits", help="exact limit report")
    p.add_argument("--config", **config)
    p.add_argument("--k-values", type=int, nargs="*", default=[2])
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("balls", help="ball distributions (model MC or graph file)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="sample the clique-tree reference of this model")
    source.add_argument("--graph", help="compute the empirical distribution of this graph")
    p.add_argument("--r", type=int, default=1)
    # None, so that --graph can reject them
    p.add_argument("--samples", type=int, default=None, help=f"Monte Carlo samples (default {_MC_SAMPLES})")
    p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (default 0)")
    p.set_defaults(fn=cmd_balls)

    plan = argparse.ArgumentParser(add_help=False)  # the flags of the commands that run a plan
    plan.add_argument("--config", **config)
    plan.add_argument("--seed", type=int, default=None, help="replaces the plan's seed")
    plan.add_argument("--threads", type=int, default=None)
    plan.add_argument("--format", choices=("csv", "json"), default="csv")

    sub.add_parser("converge", parents=[plan], help="run a full experiment plan").set_defaults(fn=cmd_converge)

    p = sub.add_parser("theorem21", parents=[plan], help="degree-moment / embedding / Sidorenko trajectories")
    p.add_argument("--pattern", default="K3")
    p.set_defaults(fn=cmd_theorem21)

    for p in sub.choices.values():
        p.add_argument("--out", default=".", help="output directory")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code:  # argparse printed the usage and error; 2 is ours for an abort
            return 1
        raise
    try:
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime aborts exit with 2
        print(f"abort: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
