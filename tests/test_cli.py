import csv
import hashlib
import json
import math
import os
from pathlib import Path

import pytest

import rigsim.canon
import rigsim.experiment
from rigsim.ballcode import BLOCK_TAG
from rigsim.cli import main
from rigsim.experiment import ExperimentPlan
from rigsim.generators import ModelConfig
from rigsim.graphs import read_graph
from rigsim.stats import empirical_ball_dist

MODEL = {"model": "active", "n1": 500, "n2": 500, "P": {"kind": "constant", "value": 3}}
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def model_cfg(tmp_path):
    return write_json(tmp_path / "model.json", MODEL)


@pytest.fixture
def plan_cfg(tmp_path):
    return write_json(
        tmp_path / "plan.json",
        {
            "model": MODEL,
            "ladder": [200, 400],
            "statistics": ["alpha", "pi:2", "ball:1"],
            "replications": 2,
            "seed": 5,
        },
    )


def test_generate_and_stats_roundtrip(tmp_path, model_cfg):
    out = tmp_path / "gen"
    assert main(["generate", "--config", model_cfg, "--seed", "3", "--out", str(out)]) == 0
    graph_file = out / "graph.txt"
    assert graph_file.exists() and (out / "bipartite.txt").exists()
    out2 = tmp_path / "st"
    rc = main(
        ["stats", "--graph", str(graph_file), "--stats", "alpha,assort,moment:2,pi:3,emb:K3", "--out", str(out2)]
    )
    assert rc == 0
    rows = json.load(open(out2 / "stats.json"))
    names = {r["name"] for r in rows}
    assert {"alpha", "assort", "moment(2)", "pi(3)", "emb(K3)"} <= names


def test_planted_generate_matches_its_digests(tmp_path):
    # SHA-256 of both files, pinned when the clique was planted as edges on
    # G: planting it as one more attribute of H keeps every byte, and
    # bipartite.txt is the unplanted H
    out = tmp_path / "gen"
    args = ["generate", "--config", str(CONFIGS / "active_p3.json"), "--seed", "4", "--plant", "12", "--out", str(out)]
    assert main(args) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("bipartite.txt", "graph.txt")}
    assert digests == {
        "bipartite.txt": "e06437c1dcfd6e3be25f1a5381707aacdf4037af0f017418766d9ac356c94e84",
        "graph.txt": "aa895fa1c8ffbc3d46694f369a8e5ee4a0aa3438663741216c560626f9f17a3d",
    }


def test_limits_report(tmp_path):
    cfg = write_json(tmp_path / "lim.json", {"model": MODEL})
    out = tmp_path / "lim"
    assert main(["limits", "--config", cfg, "--k-values", "2", "--out", str(out)]) == 0
    rows = json.load(open(out / "limits.json"))
    vals = {r["quantity"]: r for r in rows}
    assert vals["alpha"]["value"] == pytest.approx(1 / 3)
    assert vals["dstar_moment(1)"]["value"] == pytest.approx(9.0)
    assert vals["alpha_k(2)"]["value"] == pytest.approx(1 / 3)


def test_limits_direct_laws(tmp_path):
    cfg = write_json(
        tmp_path / "lim2.json",
        {"D1": {"kind": "pmf", "pmf": {"1": 0.5, "2": 0.5}}, "D2": {"kind": "constant", "value": 2}},
    )
    out = tmp_path / "lim2"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    rows = json.load(open(out / "limits.json"))
    vals = {r["quantity"]: r for r in rows}
    assert vals["assort"]["value"] == pytest.approx(0.0, abs=1e-12)


def test_limits_undefined_conditionals_reported_not_fatal(tmp_path):
    # d* is supported on {1, 3}: alpha_k(2)/r_k(2) are undefined but the rest
    # of the report must still be produced
    cfg = write_json(
        tmp_path / "lim3.json",
        {"D1": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}}, "D2": {"kind": "constant", "value": 2}},
    )
    out = tmp_path / "lim3"
    assert main(["limits", "--config", cfg, "--k-values", "2", "--out", str(out)]) == 0
    rows = json.load(open(out / "limits.json"))
    vals = {r["quantity"]: r for r in rows}
    assert "error" in vals["alpha_k(2)"] and "error" in vals["r_k(2)"]
    assert vals["pi(2)"]["value"] == pytest.approx(0.0, abs=1e-15)
    assert vals["dstar_moment(1)"]["value"] == pytest.approx(2.0)


def test_limits_report_a_zero_denominator_as_an_error(tmp_path):
    # D1 = 1 and D2 = 2 give d* = 1 almost surely: the P3 limit and Var(d*)
    # are 0, so alpha and assort are 0/0, error entries like any undefined limit
    cfg = write_json(
        tmp_path / "lim4.json", {"D1": {"kind": "constant", "value": 1}, "D2": {"kind": "constant", "value": 2}}
    )
    assert main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 0
    vals = {r["quantity"]: r for r in json.load(open(tmp_path / "limits.json"))}
    assert vals["alpha"]["error"] == "degenerate: clustering denominator vanishes (the P3 limit is 0)"
    assert vals["assort"]["error"] == "degenerate: regular limit (Var(d*) = 0)"
    assert vals["dstar_moment(1)"]["value"] == 1.0


def test_balls_mc_and_empirical(tmp_path, model_cfg):
    cfg = write_json(tmp_path / "spec.json", {"model": MODEL})
    out = tmp_path / "balls"
    assert main(["balls", "--config", cfg, "--r", "1", "--samples", "3000", "--seed", "2", "--out", str(out)]) == 0
    rows = json.load(open(out / "balls_r1.json"))
    assert abs(sum(r["probability"] for r in rows) - 1) < 1e-9
    gen_out = tmp_path / "g2"
    main(["generate", "--config", model_cfg, "--seed", "4", "--out", str(gen_out)])
    out2 = tmp_path / "balls2"
    assert main(["balls", "--graph", str(gen_out / "graph.txt"), "--r", "1", "--out", str(out2)]) == 0
    assert abs(sum(r["probability"] for r in json.load(open(out2 / "balls_r1.json"))) - 1) < 1e-9


def test_stats_ball_writes_the_full_histogram(tmp_path, model_cfg):
    # rigsim stats keeps every ball's own code; only a plan's ball row folds
    # the balls that are not block graphs into one bucket
    main(["generate", "--config", model_cfg, "--seed", "4", "--plant", "12", "--out", str(tmp_path)])
    assert main(["stats", "--graph", str(tmp_path / "graph.txt"), "--stats", "ball:1", "--out", str(tmp_path)]) == 0
    hist = empirical_ball_dist(read_graph(str(tmp_path / "graph.txt")), 1)
    assert any(not code.startswith(BLOCK_TAG) for code in hist)
    n = hist.total()
    rows = [{"code_hex": code.hex(), "count": c, "probability": c / n} for code, c in sorted(hist.items())]
    assert (tmp_path / "ball_1.json").read_text() == json.dumps(rows, indent=1)


@pytest.mark.parametrize("stat, message", [("pi:-1", "non-negative"), ("alpha_k", "alpha_k needs k"),
                                           ("emb:", "emb needs pattern")])
def test_stats_bad_parameter_exits_with_error(tmp_path, model_cfg, capsys, stat, message):
    main(["generate", "--config", model_cfg, "--seed", "4", "--out", str(tmp_path)])
    assert main(["stats", "--graph", str(tmp_path / "graph.txt"), "--stats", stat, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "stats.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["balls", "--config", "m.json", "--graph", "g.txt"],  # exactly one source
        ["balls", "--r", "1"],
        ["balls", "--config", "m.json", "--threads", "2"],
        ["balls", "--config", "m.json", "--format", "json"],
        ["stats", "--graph", "g.txt", "--stats", "alpha", "--seed", "1"],
        ["stats", "--graph", "g.txt", "--stats", "alpha", "--config", "m.json"],
        ["stats", "--graph", "g.txt", "--stats", "alpha", "--threads", "2"],
        ["limits", "--config", "m.json", "--seed", "1"],
        ["limits", "--config", "m.json", "--format", "json"],
        ["generate", "--config", "m.json", "--threads", "2"],
        ["generate", "--config", "m.json", "--format", "csv"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--help"])
    assert exc.value.code == 0
    assert "--threads" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--samples", "10"], ["--seed", "3"]])
def test_graph_mode_rejects_monte_carlo_flags(tmp_path, model_cfg, capsys, extra):
    main(["generate", "--config", model_cfg, "--seed", "4", "--out", str(tmp_path)])
    assert main(["balls", "--graph", str(tmp_path / "graph.txt"), *extra, "--out", str(tmp_path)]) == 1
    assert "--samples and --seed go with --config" in capsys.readouterr().err


def test_converge_deterministic_across_threads_and_runs(tmp_path, plan_cfg, monkeypatch):
    planted = json.loads(Path(plan_cfg).read_text())
    planted.update(statistics=["moment:2", "ball:1"], perturbation={"gamma": 0.5})
    planted_cfg = write_json(tmp_path / "planted.json", planted)
    # Pareto radius-2 balls are often not block graphs, but the ball row
    # compares them with clique-tree balls, which all are, so it needs no canon
    pareto_cfg = write_json(
        tmp_path / "pareto.json",
        {"model": {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "pareto", "shape": 3.0, "scale": 1.0},
                   "xi2": {"kind": "exponential", "rate": 1.0}},
         "ladder": [200, 300], "statistics": ["ball:2"], "replications": 2, "seed": 5},
    )
    batches = []
    codes = rigsim.canon.canonical_codes
    monkeypatch.setattr(rigsim.canon, "canonical_codes", lambda balls: batches.append(len(balls)) or codes(balls))
    canonised = {}  # balls canon coded in this process, per plan
    for cfg in (plan_cfg, planted_cfg, pareto_cfg):
        batches.clear()
        outs = []
        for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / f"{Path(cfg).stem}_{name}"
            rc = main(
                ["converge", "--config", cfg, "--seed", "5", "--threads", threads, "--out", str(out), "--format", "csv"]
            )
            assert rc == 0
            outs.append((out / "converge.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]
        if cfg == planted_cfg:
            assert b"ball_perturb_tv(1)" in outs[0]
        canonised[cfg] = sum(batches)
    # only the perturbation TV canonises, and only near balls both graphs could share
    assert canonised[pareto_cfg] == 0
    assert canonised[planted_cfg] > 0


def test_converge_builds_each_graph_once(tmp_path, monkeypatch):
    calls = []
    generate = rigsim.experiment.generate_bipartite

    def counting(*a, **kw):
        calls.append(1)
        return generate(*a, **kw)

    monkeypatch.setattr(rigsim.experiment, "generate_bipartite", counting)
    plan = write_json(
        tmp_path / "planted.json",
        {"model": MODEL, "ladder": [200, 300, 400], "statistics": ["moment:2", "ball:1"], "replications": 2,
         "seed": 5, "perturbation": {"gamma": 0.5}},
    )
    assert main(["converge", "--config", plan, "--threads", "1", "--out", str(tmp_path / "o")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "o" / "converge.csv")))
    assert [r["statistic"] for r in rows[6:]] == ["moment_ratio(2)", "ball_perturb_tv(1)"] * 3
    assert len(calls) == 3 * 2


def test_balls_r2_on_a_graph_file_matches_its_digest(tmp_path):
    # SHA-256 of balls_r2.json for a seed-7 Pareto graph read from its edge
    # list, pinned before the radius-2 block pass inherited verdicts: with no
    # H to read, its balls are decided from their radius-1 balls or walked,
    # and the non-block ones are coded by canon (567 codes, 140 of them block
    # codes)
    model = write_json(tmp_path / "pareto.json", {"model": "inhomogeneous", "n1": 1000, "n2": 1000,
                                                  "xi1": {"kind": "pareto", "shape": 3.0, "scale": 1.0},
                                                  "xi2": {"kind": "exponential", "rate": 1.0}})
    assert main(["generate", "--config", model, "--seed", "7", "--out", str(tmp_path / "gen")]) == 0
    assert main(["balls", "--graph", str(tmp_path / "gen" / "graph.txt"), "--r", "2", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "balls_r2.json").read_bytes()).hexdigest()
    assert digest == "b69fb7dfc93df0694bb0ac41ab76638a4b791ca37983aacd6e45abf1a1f889fc"


def test_balls_and_limits_on_a_plain_model_file(tmp_path):
    model = str(CONFIGS / "active_p3.json")
    assert main(["balls", "--config", model, "--r", "1", "--samples", "2000", "--out", str(tmp_path)]) == 0
    assert main(["limits", "--config", model, "--out", str(tmp_path)]) == 0
    vals = {r["quantity"]: r for r in json.load(open(tmp_path / "limits.json"))}
    assert vals["alpha"]["value"] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"model": MODEL, "ladder": [200], "statistics": ["alpha"], "replication": 3},
         "unknown plan key 'replication'"),
        ({"model": MODEL, "ladder": [200], "statistics": ["alpha"], "perturbation": {"gama": 0.5}},
         "unknown perturbation key 'gama'"),
        ({"model": {**MODEL, "seed": 3}, "ladder": [200], "statistics": ["alpha"]}, "unknown model key 'seed'"),
        ({"model": MODEL, "statistics": ["alpha"]}, "missing the required key 'ladder'"),
        ({"model": {k: v for k, v in MODEL.items() if k != "n1"}, "ladder": [200], "statistics": ["alpha"]},
         "missing the required key 'n1'"),
        ({"model": {**MODEL, "P": {"kind": "constant", "value": 3, "vale": 4}}, "ladder": [200],
          "statistics": ["alpha"]}, "unknown constant degree law key 'vale'"),
        ({"model": {**MODEL, "P": {"kind": "poisson"}}, "ladder": [200], "statistics": ["alpha"]},
         "poisson degree law config is missing the required key 'lam'"),
        ({"model": {"model": "inhomogeneous", "n1": 200, "n2": 200, "xi1": {"kind": "point", "value": 1},
                    "xi2": {"kind": "gamma", "shape": 2, "rate": 1, "scale": 1}},
          "ladder": [200], "statistics": ["alpha"]}, "unknown gamma weight law key 'scale'"),
        # plan and model numbers: neither truncated nor defaulted; the thread
        # counts fail while the plan is parsed, before any pool could start
        *(({"model": MODEL, "ladder": [200], "statistics": ["alpha"], key: value}, message) for key, value, message in [
            ("threads", 0, "plan threads must be at least 1, got 0"),
            ("threads", -1, "plan threads must be at least 1, got -1"),
            ("threads", True, "plan threads must be an integer, got True"),
            ("replications", 2.7, "plan replications must be an integer, got 2.7"),
            ("ladder", [200.9], "plan ladder entry must be an integer, got 200.9"),
            ("seed", 7.5, "plan seed must be an integer, got 7.5"),
            ("seed", "7", "plan seed must be an integer, got '7'"),
            ("mc_reference_samples", 2.5, "plan mc_reference_samples must be an integer, got 2.5"),
            ("mc_reference_samples", 0, "plan mc_reference_samples must be at least 1, got 0"),
            ("gap_tolerance", -1, "unknown plan key 'gap_tolerance'"),
            ("ladder", 5, "plan ladder must be a list of integers, got 5"),
        ]),
        ({"model": {**MODEL, "n1": 100.7}, "ladder": [200], "statistics": ["alpha"]},
         "model n1 must be an integer, got 100.7"),
        ({"model": {**MODEL, "P": {"kind": "constant", "value": 2.5}}, "ladder": [200], "statistics": ["alpha"]},
         "constant degree law value must be an integer, got 2.5"),
        # a null gamma is an error too, not a plan without a perturbation
        *(({"model": MODEL, "ladder": [200], "statistics": ["alpha"], "perturbation": {"gamma": gamma}},
           f"plan perturbation gamma must be a finite number, got {gamma!r}") for gamma in ("0.5", "x", [0.5], None)),
        # ladder and statistics are JSON lists, of integers and of strings; a string would iterate
        *(({"model": MODEL, "ladder": [200], "statistics": ["alpha"], key: value}, message) for key, value, message in [
            ("ladder", "12", "plan ladder must be a list of integers, got '12'"),
            ("statistics", "alpha", "plan statistics must be a list of strings, got 'alpha'"),
            ("statistics", [3], "plan statistics must be a list of strings, got [3]"),
        ]),
    ],
)
def test_config_keys_are_checked(tmp_path, capsys, cfg, message):
    plan = write_json(tmp_path / "plan.json", cfg)
    assert main(["converge", "--config", plan, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_shipped_configs_parse():
    paths = _shipped_configs()
    assert len(paths) >= 11
    for path in paths:
        cfg = json.loads(path.read_text())
        if "ladder" in cfg:
            ExperimentPlan.from_config(cfg)
        else:
            ModelConfig.from_config(cfg)


def test_converge_keeps_the_plan_seed(tmp_path):
    # without --seed the plan's own "seed" drives the run
    plan = write_json(
        tmp_path / "seeded.json",
        {"model": MODEL, "ladder": [200], "statistics": ["alpha", "ball:1"], "replications": 2,
         "seed": 42},
    )
    csvs = {}
    for name, seed in (("plan", []), ("flag", ["--seed", "42"]), ("zero", ["--seed", "0"])):
        out = tmp_path / name
        assert main(["converge", "--config", plan, "--out", str(out), *seed]) == 0
        csvs[name] = (out / "converge.csv").read_bytes()
    assert csvs["plan"] == csvs["flag"]
    assert csvs["plan"] != csvs["zero"]


def test_converge_pareto_conditional_limits(tmp_path):
    # Pareto weights: pi, alpha_k and r_k limits are exact finite sums over
    # the Pareto-mixed Poisson pmf
    laws = json.loads((CONFIGS / "inhomogeneous_pareto.json").read_text())
    plan = write_json(
        tmp_path / "pareto.json",
        {"model": laws, "ladder": [300], "statistics": ["pi:2", "alpha_k:2", "r_k:2"],
         "replications": 2, "seed": 3},
    )
    out = tmp_path / "pareto"
    assert main(["converge", "--config", plan, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "converge.csv")))
    assert [r["statistic"] for r in rows] == ["pi(2)", "alpha_k(2)", "r_k(2)"]
    for r in rows:
        assert math.isfinite(float(r["limit"])) and r["limit_stderr"] == "0"
    # re-pinned when these limits moved from rejection Monte Carlo (digest
    # d73b5efa...) to exact values; the empirical columns kept their bytes
    digest = hashlib.sha256((out / "converge.csv").read_bytes()).hexdigest()
    assert digest == "70535701d7e613387998e0bd777e547007ebf05531f725377d7406a73ffc0f76"


def test_limits_report_on_pareto_weights(tmp_path):
    # Pareto(3) weights: d* has no third moment, so those quantities are
    # error entries and the rest is still reported; pi, alpha_k and r_k are
    # exact, the same limits converge prints on a plan over the same laws
    out = tmp_path / "pareto"
    assert main(["limits", "--config", str(CONFIGS / "inhomogeneous_pareto.json"), "--out", str(out)]) == 0
    vals = {r["quantity"]: r for r in json.load(open(out / "limits.json"))}
    assert vals["dstar_moment(1)"]["value"] == pytest.approx(4.5)
    assert vals["dstar_moment(2)"]["value"] == pytest.approx(51.75)
    assert vals["alpha"]["value"] == pytest.approx(3 / 7)
    for name in ("dstar_moment(3)", "assort"):
        assert "infinite" in vals[name]["error"] and "value" not in vals[name]
    laws = json.loads((CONFIGS / "inhomogeneous_pareto.json").read_text())
    plan = write_json(
        tmp_path / "pareto.json",
        {"model": laws, "ladder": [300], "statistics": ["r_k:2", "pi:2", "alpha_k:2"], "seed": 3},
    )
    assert main(["limits", "--config", plan, "--out", str(out)]) == 0
    assert main(["converge", "--config", plan, "--out", str(out)]) == 0
    vals = {r["quantity"]: r for r in json.load(open(out / "limits.json"))}
    rows = list(csv.DictReader(open(out / "converge.csv")))
    assert [r["statistic"] for r in rows] == ["r_k(2)", "pi(2)", "alpha_k(2)"]
    for r in rows:
        v = vals[r["statistic"]]
        assert set(v) == {"quantity", "value", "provenance"}
        assert (format(v["value"], ".12g"), "0") == (r["limit"], r["limit_stderr"])


def test_limits_report_no_acceptances(tmp_path):
    # alpha_k(25) on Pareto weights, where a 500-sample rejection pass once
    # accepted no tree and converge aborted: both commands now print its
    # exact limit, which seed and sample count no longer touch
    laws = json.loads((CONFIGS / "inhomogeneous_pareto.json").read_text())
    plan = write_json(
        tmp_path / "pareto.json",
        {"model": laws, "ladder": [300], "statistics": ["alpha_k:25"], "seed": 2},
    )
    assert main(["limits", "--config", plan, "--k-values", "25", "--out", str(tmp_path)]) == 0
    vals = {r["quantity"]: r for r in json.load(open(tmp_path / "limits.json"))}
    assert 0 < vals["alpha_k(25)"]["value"] < 1 and vals["pi(25)"]["value"] > 0
    assert main(["converge", "--config", plan, "--seed", "9", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "converge.csv")))
    assert [r["limit"] for r in rows] == [format(vals["alpha_k(25)"]["value"], ".12g")]


def _shipped_configs():
    return sorted(CONFIGS.glob("*.json")) + sorted((ROOT / "perfbench" / "plans").glob("*/*.json"))


@pytest.mark.parametrize("path", _shipped_configs(), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_limits_give_every_degree_limit_a_value(tmp_path, path):
    # every pi, alpha_k and r_k of every shipped model and plan is a number,
    # save a conditional at a degree d* never takes, which says so
    assert main(["limits", "--config", str(path), "--k-values", "2", "3", "--out", str(tmp_path)]) == 0
    vals = {r["quantity"]: r for r in json.load(open(tmp_path / "limits.json"))}
    for k in (2, 3):
        assert vals[f"pi({k})"]["value"] >= 0
        for name in (f"alpha_k({k})", f"r_k({k})"):
            if vals[f"pi({k})"]["value"] == 0:
                assert vals[name]["error"] == f"P(d* = {k}) = 0; conditional limit undefined"
            else:
                assert math.isfinite(vals[name]["value"]), (name, vals[name])


def test_emb_limits_draw_no_clique_trees(tmp_path, monkeypatch):
    # the emb and ball rows of converge and theorem21 read exact limits: no
    # clique tree is sampled, for a radius-2 ball row or a planted radius-1
    # one either
    import rigsim.limits

    def refuse(*a, **kw):
        raise AssertionError("a clique tree was sampled for a limit")

    monkeypatch.setattr(rigsim.limits, "sample_gw_forest", refuse)
    planted = {"model": MODEL, "ladder": [300], "statistics": ["moment:2", "ball:1"], "replications": 2, "seed": 5,
               "perturbation": {"gamma": 0.5}}
    for name, plan in (("r2", REFERENCE_R2), ("planted", planted)):
        cfg = write_json(tmp_path / f"{name}.json", plan)
        assert main(["converge", "--config", cfg, "--seed", "7", "--threads", "1", "--out", str(tmp_path / name)]) == 0
    plan = write_json(tmp_path / "active.json", {"model": MODEL, "ladder": [300], "statistics": ["alpha"],
                                                  "replications": 2, "seed": 5})
    assert main(["theorem21", "--config", plan, "--pattern", "P4", "--out", str(tmp_path / "t")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "t" / "theorem21_P4.csv")))
    emb = [r for r in rows if r["statistic"].startswith("emb(P4)")]
    assert len(emb) == 2 and all(r["limit_stderr"] == "0" and float(r["limit"]) == 729.0 for r in emb)


def test_theorem21_cli(tmp_path, plan_cfg):
    out = tmp_path / "t21"
    rc = main(["theorem21", "--config", plan_cfg, "--pattern", "K3", "--out", str(out)])
    assert rc == 0
    text = (out / "theorem21_K3.csv").read_text()
    assert text.splitlines()[0] == "n1,statistic,empirical,emp_stderr,limit,limit_stderr,gap,tv"


def test_exit_codes(tmp_path):
    assert main(["limits", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1
    bad = write_json(tmp_path / "bad.json", {"model": "nope"})
    assert main(["generate", "--config", bad, "--out", str(tmp_path)]) == 1
    # runtime abort (node cap inside a converge run on a supercritical plan is
    # hard to trigger cheaply; validation errors cover exit code 1, and the
    # abort path is exercised by unexpected exceptions)
    plan = write_json(
        tmp_path / "plan_budget.json",
        {
            "model": MODEL,
            "ladder": [200],
            "statistics": ["alpha"],
            "edge_budget": 10,
        },
    )
    assert main(["converge", "--config", plan, "--out", str(tmp_path / "x")]) == 1


SCALARS = ["alpha", "assort", "alpha_k:3", "r_k:3", "pi:3", "moment:2", "emb:K3"]
REFERENCE_R2 = {
    "model": {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "pareto", "shape": 3.0, "scale": 1.0},
              "xi2": {"kind": "exponential", "rate": 1.0}},
    "ladder": [400, 1000], "statistics": ["moment:2", "emb:P4", "ball:2"], "replications": 2,
    "mc_reference_samples": 500,
}
PINNED_PLANS = [
    # (plan, SHA-256 of converge.csv at --seed 7)
    ({"model": {"model": "active", "n1": 100, "n2": 100, "P": {"kind": "constant", "value": 3}},
      "ladder": [2000, 7000], "statistics": SCALARS, "replications": 2},
     "15cdb6caaa2d2cc4922fbfea1ba89a493faa1689866049849b687d9344c4d9a2"),
    ({"model": {"model": "configuration", "n1": 100, "D1": {"kind": "pmf", "pmf": {"1": 0.5, "3": 0.5}},
                "D2": {"kind": "constant", "value": 2}},
      "ladder": [2000, 7000], "statistics": SCALARS, "replications": 2},
     "63c17c65dc1c6c304df5b7dd6d3ba541071f5c309371ade5a9ddaf0b24f7aff2"),
    ({"model": {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
                "xi2": {"kind": "exponential", "rate": 1.0}},
      "ladder": [2000, 7000], "statistics": SCALARS, "replications": 2},
     "825872ca09207b7f0b219424b58479e10aa4f1bd4d5ad8bc919aa50aff162b79"),
    ({"model": {"model": "passive", "n1": 100, "n2": 100, "P": {"kind": "pmf", "pmf": {"2": 0.5, "4": 0.5}}},
      "ladder": [2000, 7000], "statistics": SCALARS, "replications": 2},
     "0501e7686f464bf6a97ff2784385d982603640bfdd5da111298b291fcf442862"),
    # planted clique, radius-1 balls against the exact clique-tree ball law
    # (re-pinned from d12a1517... when it replaced a 2e5-sample Monte Carlo
    # reference, which the plan still names: only the two ball(1) TVs moved)
    ({"model": {"model": "active", "n1": 100, "n2": 100, "P": {"kind": "constant", "value": 3}},
      "ladder": [600, 1200], "statistics": ["moment:2", "ball:1"], "replications": 2,
      "perturbation": {"gamma": 0.5}, "mc_reference_samples": 200000},
     "a8234efe04272a9d798bd59c3026d1edbd2259b646f80a0c2c9d64a0ab1387f2"),
    # Pareto weights, radius-2 balls against the exact clique-tree ball law
    # and the exact emb(P4) limit 526.5 (re-pinned from 34d5d28e... when the
    # law replaced a 500-tree reference, which the plan still names: only the
    # two ball(2) TVs moved, 0.7 -> 0.676568976542 and 0.6815 -> 0.62924754718)
    (REFERENCE_R2,
     "5ac69ca41f53df18b20dc9a0ee6322b3b0d1b034704fee81850c6b0341b106a2"),
    # planted clique without a ball statistic: only the balls near the clique
    # are coded, on both graphs
    ({"model": {"model": "active", "n1": 100, "n2": 100, "P": {"kind": "constant", "value": 3}},
      "ladder": [600, 1200], "statistics": ["moment:2"], "replications": 2, "perturbation": {"gamma": 0.5}},
     "f88f1e2198c2cdec00276d27c1c94076e86ac743b4b84cd11407936d063d8528"),
    # Pareto(1.5) weights, whose D1 has an infinite variance: pi and alpha_k
    # are exact finite sums over the Pareto-mixed Poisson pmf; r_k, whose
    # additive term needs E (D1)_2, is infinite here
    ({"model": {"model": "inhomogeneous", "n1": 100, "n2": 100, "xi1": {"kind": "pareto", "shape": 1.5, "scale": 1.0},
                "xi2": {"kind": "pareto", "shape": 2.5, "scale": 1.0}},
      "ladder": [1000, 3000], "statistics": ["pi:3", "alpha_k:3"], "replications": 2},
     "bef2711ddba82e93267830bca4789bf45851ce089213a44e0e91030d9c882a18"),
]


@pytest.mark.parametrize("plan, digest", PINNED_PLANS,
                         ids=["active", "configuration", "inhomogeneous", "passive", "planted-ball1", "reference-r2",
                              "planted-near", "pareto1.5"])
def test_pinned_plans_match_their_digests(tmp_path, plan, digest):
    # the benchmark plans, a planted plan without a ball row and a Pareto(1.5)
    # scalar plan at seed 7: any change that moves a sampler, the ball
    # reference or a limit's digits changes a converge.csv here, and must
    # re-pin it on purpose
    cfg = write_json(tmp_path / "plan.json", plan)
    assert main(["converge", "--config", cfg, "--seed", "7", "--threads", "1", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "converge.csv").read_bytes()).hexdigest() == digest
