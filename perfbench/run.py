"""rigsim benchmark: wall time of ``rigsim converge`` on fixed experiment plans.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rigsim is imported from ``src/``.
Each workload is a set of plans in ``perfbench/plans/<workload>/``, all run
through the user's entry point, ``rigsim.cli.main(["converge", "--config",
plan, "--seed", N, "--threads", "1", "--out", dir])``, one after the other in
one fresh Python process per repetition (``child.py``).  Workload names and
the reasons they were chosen are in ``BENCHMARK.json``.

``--trace 0`` measures, with tracing off:

- ``wall_s``: seconds to run all of the workload's plans, set-up excluded.
  Repetitions run while another fits in ``--seconds`` (at least three);
  repetition j passes plan seed ``--seed + j * SEED_STRIDE``, so the median
  is over several seeded inputs and one heavy-tailed draw cannot move it;
- ``setup_s``: seconds from spawning the process until rigsim is imported and
  the plans are parsed (median over extra set-up-only processes and the
  repetitions);
- ``peak_rss_mb``: peak resident memory of the process (median).

``--trace 1`` runs the plans with plan seed ``--seed`` alternately untraced
and traced (spans recorded around each layer by ``tracer.py``) while another
repetition fits in ``--seconds`` (at least twice each), and reports per-layer
self times, call counts and work counts, plus the tracing overhead: median
traced minus median untraced ``wall_s``.

Every ``converge`` invocation is checked: exit code 0, the CSV header equals
``rigsim.experiment.CSV_HEADER``, every expected (n1, statistic) row is
present and every filled number is finite.  Traced runs must write the same
CSVs as the untraced run of their seed and repeat each other's exact work
counts.  Error rate, ``converged_frac`` (rows ``row_converged`` accepts, as
``converge`` prints them), ``ball_tv`` (ball TV at the largest ladder size)
and the SHA-256 of the CSVs, all for plan seed ``--seed``, are printed with
the results.  A record of each run, with seeds, versions, ``nproc`` and the
``src/`` line count, goes to ``.perfbench/results/``.  The last line of standard output
is one JSON object for the benchmark driver.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 2  # extra set-up-only processes per untraced run
MIN_UNTRACED_REPS = 3
MIN_TRACED_REPS = 2  # exact counts are compared across traced repetitions
SEED_STRIDE = 1_000_003  # untraced repetition j runs plan seed --seed + j * SEED_STRIDE
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
CONVERGED = re.compile(r"converged: (\d+)/(\d+) scalar rows")
BALL_ROW = re.compile(r"ball\(\d+\)")


class RunError(RuntimeError):
    """The benchmark cannot run here (missing source tree or plans)."""


# -- plans and output checks -------------------------------------------------------


def _label(text: str) -> str:
    kind, _, arg = text.partition(":")
    return f"{kind}({arg})" if arg else kind


def expected_rows(plan: dict) -> set[tuple[int, str]]:
    """(n1, statistic) rows ``converge`` must write for a plan."""
    labels = [_label(s) for s in plan["statistics"]]
    rows = {(int(n1), lab) for n1 in plan["ladder"] for lab in labels}
    if plan.get("perturbation"):
        radii = [int(s.split(":")[1]) for s in plan["statistics"] if s.startswith("ball:")]
        r = radii[0] if radii else 1
        rows |= {(int(n1), lab) for n1 in plan["ladder"] for lab in ("moment_ratio(2)", f"ball_perturb_tv({r})")}
    return rows


def check_csv(text: str, header: str, plan: dict) -> tuple[list[str], list[list[str]]]:
    """Problems found in one ``converge.csv`` and its parsed rows."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"header {lines[0] if lines else ''!r} != {header!r}"], []
    problems, rows, seen = [], [], set()
    width = header.count(",") + 1
    for line in lines[1:]:
        row = line.split(",")
        try:
            if len(row) != width:
                raise ValueError(f"{len(row)} fields")
            seen.add((int(row[0]), row[1]))
            if not all(math.isfinite(float(x)) for x in row[2:] if x):
                raise ValueError("non-finite value")
        except ValueError as e:
            problems.append(f"row {line!r}: {e}")
            continue
        rows.append(row)
    missing = expected_rows(plan) - seen
    if missing:
        problems.append(f"missing rows {sorted(missing)}")
    return problems, rows


# -- one process ---------------------------------------------------------------------


def spawn(plans: list[str], seed: int, out: str, deadline: float, trace=False, setup_only=False) -> dict:
    """Run ``child.py`` once and return its record plus ``setup_s``."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--src", SRC, "--out", out, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + plans
    t_spawn = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out"}
    path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"error": f"child exited with {proc.returncode}: {err.strip()[-2000:]}"}
    with open(path) as fh:
        record = json.load(fh)
    record["setup_s"] = record["ready"] - t_spawn
    record["seed"] = seed
    return record


def inspect_rep(record: dict, plan_files: list[str], plans: list[dict]) -> dict:
    """Output checks, digests and accuracy figures for one repetition.

    ``bad`` holds the indices of the plans whose invocation failed."""
    n = len(plan_files)
    if "error" in record:
        return {"bad": set(range(n)), "problems": [record["error"]], "digests": [None] * n}
    check = {"bad": set(), "problems": [], "digests": [], "converged": [0, 0]}
    tvs = []
    for i, (name, plan) in enumerate(zip(plan_files, plans)):
        problems = []
        if record["exit_codes"][i] != 0:
            problems.append(f"exit code {record['exit_codes'][i]}: {record['stderr'][i].strip()[-500:]}")
        path = os.path.join(record["out"], str(i), "converge.csv")
        digest = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            csv_problems, rows = check_csv(data.decode(), record["csv_header"], plan)
            problems += csv_problems
            top = max(int(n1) for n1 in plan["ladder"])
            tvs += [float(r[7]) for r in rows if int(r[0]) == top and BALL_ROW.fullmatch(r[1])]
        else:
            problems.append("no converge.csv")
        m = CONVERGED.search(record["stdout"][i])
        if m:
            check["converged"][0] += int(m.group(1))
            check["converged"][1] += int(m.group(2))
        check["digests"].append(digest)
        if problems:
            check["bad"].add(i)
            check["problems"] += [f"{os.path.basename(name)}: {p}" for p in problems]
    check["ball_tv"] = statistics.fmean(tvs) if tvs else None
    return check


def compare_digests(checks: list[dict], ref: list[str | None], plan_files: list[str], what: str) -> None:
    """Fail a plan in each repetition whose CSV differs from ``ref``."""
    for check in checks:
        for i, d in enumerate(check["digests"]):
            if d is not None and ref[i] is not None and d != ref[i]:
                check["bad"].add(i)
                check["problems"].append(f"{os.path.basename(plan_files[i])}: CSV differs from {what}")


def workload_digest(digests: list[str | None]) -> str | None:
    if any(d is None for d in digests):
        return None
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# -- one benchmark run ---------------------------------------------------------------


def run_workload(spec: dict, seed: int, seconds: float, trace: bool, tmp: str, deadline: float) -> dict:
    name = spec["name"]
    plan_files = sorted(glob.glob(os.path.join(BENCH, "plans", name, "*.json")))
    if not plan_files:
        raise RunError(f"no plans for workload {name!r}")
    plans = []
    for path in plan_files:
        with open(path) as fh:
            plans.append(json.load(fh))
    counter = itertools.count()

    def rep(rep_seed: int, **kw) -> dict:
        out = os.path.join(tmp, f"{name}-{next(counter)}")
        record = spawn(plan_files, rep_seed, out, deadline, **kw)
        record["out"] = out
        return record

    started = time.monotonic()

    def repeat(minimum: int, plan_seed, traced) -> list[tuple[dict, dict]]:
        """Repetitions i = 0, 1, ... with plan seed ``plan_seed(i)``, traced
        when ``traced(i)``: at least ``minimum``, then more while another fits
        in ``seconds`` from the start of the run; none that would overrun the
        deadline."""
        done, last = [], 0.0
        while True:
            now = time.monotonic()
            if done and (now + 1.5 * last > deadline or (len(done) >= minimum and now + last - started > seconds)):
                return done
            r = rep(plan_seed(len(done)), trace=traced(len(done)))
            last = time.monotonic() - now
            done.append((r, inspect_rep(r, plan_files, plans)))

    setups, records = [], []
    if trace:
        # untraced and traced repetitions of one seed alternate, so both see
        # the same machine and their difference is the tracing overhead
        reps = repeat(MIN_TRACED_REPS * 2, lambda i: seed, lambda i: i % 2 == 1)
        untraced, traced = reps[0::2], reps[1::2]
    else:
        for _ in range(SETUP_PROBES):
            r = rep(seed, setup_only=True)
            if "error" in r:
                raise RunError(r["error"])
            setups.append(r["setup_s"])
            records.append(r)
        untraced, traced = repeat(MIN_UNTRACED_REPS, lambda i: seed + i * SEED_STRIDE, lambda i: False), []
    records += [r for r, _ in untraced + traced]
    versions = next((r["versions"] for r in records if "versions" in r), {})

    checks = [c for _, c in untraced + traced]
    ref = untraced[0][1]["digests"]
    compare_digests(checks[1:] if trace else [], ref, plan_files, "the first untraced run of this seed")
    ok_reps = [(r, c) for r, c in untraced if not c["bad"] and "wall_s" in r]

    result = {
        "workload": name,
        "why": spec["why"],
        "seed": seed,
        "trace": int(trace),
        "plans": [os.path.relpath(p, ROOT) for p in plan_files],
        "sha256": workload_digest(ref),
        "converged": untraced[0][1].get("converged"),
        "ball_tv": untraced[0][1].get("ball_tv"),
        "versions": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_line_count(),
        "rep_seeds": [r.get("seed") for r, _ in untraced + traced],
        "untraced_wall_s": [r["wall_s"] for r, _ in ok_reps],
    }
    conv = result["converged"]
    result["converged_frac"] = conv[0] / conv[1] if conv and conv[1] else None
    if not trace:
        finish(result, checks)
        setups += [r["setup_s"] for r, _ in untraced if "setup_s" in r]
        result["samples"] = {
            "wall_s": [r["wall_s"] for r, _ in ok_reps],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r, _ in ok_reps],
        }
        result["metrics"] = {}
        if ok_reps:
            result["metrics"] = {k: statistics.median(v) for k, v in result["samples"].items()}
        return result

    from tracer import summarize

    summaries = []
    for r, c in traced:
        path = os.path.join(r["out"], "spans.json")
        if c["bad"] or not os.path.exists(path):
            continue
        with open(path) as fh:
            spans = json.load(fh)
        result.setdefault("unwired", spans["unwired"])
        summaries.append((r["wall_s"], summarize(spans), c))
    result["traced_wall_s"] = [w for w, _, _ in summaries]
    result["metrics"] = {}
    if summaries and ok_reps:
        counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for _, s, _ in summaries]
        for c, (_, _, check) in zip(counts[1:], summaries[1:]):
            diff = sorted(k for k in counts[0] if c[k] != counts[0][k])
            if diff:
                check["bad"].update(range(len(plan_files)))
                check["problems"].append(f"work counts differ between traced runs of one seed: {diff}")
        layer = dict(counts[0])
        for key in summaries[0][1]:
            if key.endswith(".self_s"):
                layer[key] = statistics.median(s[key] for _, s, _ in summaries)
        layer["trace.overhead_s"] = (statistics.median(w for w, _, _ in summaries)
                                     - statistics.median(r["wall_s"] for r, _ in ok_reps))
        result["metrics"] = layer
    finish(result, checks)
    return result


def finish(result: dict, checks: list[dict]) -> None:
    """Record invocation counts and failures from the repetitions' checks."""
    result["attempted"] = len(result["plans"]) * len(checks)
    result["failed"] = sum(len(c["bad"]) for c in checks)
    result["error_rate"] = result["failed"] / result["attempted"]
    result["problems"] = sorted({p for c in checks for p in c["problems"]})


def src_line_count() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


# -- reporting -------------------------------------------------------------------------


def report(result: dict, wanted: list[dict]) -> dict:
    """Print a human-readable report and return the driver's metrics object."""
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"   why: {result['why']}")
    v = result["versions"]
    print(f"   python {v.get('python')}  numpy {v.get('numpy')}  scipy {v.get('scipy')}  "
          f"nproc {result['nproc']}  src lines {result['src_lines']}")
    print(f"   plans: {', '.join(result['plans'])}")
    print(f"   plan seeds by repetition: {result['rep_seeds']}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            continue
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        print(f"   {m['name']:<40} {result['metrics'][m['name']]:>16.6g} {m['unit']}")
    if result["trace"]:
        print(f"   untraced wall_s {result['untraced_wall_s']}, traced wall_s {result['traced_wall_s']}")
    else:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            samples = result["samples"][name]
            print(f"   {name} is the median of {len(samples)}: {[round(x, 4) for x in samples]}")
    # figures for plan seed --seed only, so they repeat exactly for a seed
    conv, tv = result["converged"], result["ball_tv"]
    print(f"   {'error_rate':<40} {result['error_rate']:>16.6g} ratio "
          f"({result['failed']}/{result['attempted']} converge invocations failed)")
    conv_text = f"{conv[0] / conv[1]:>16.6g} ratio ({conv[0]}/{conv[1]} scalar rows)" if conv and conv[1] else \
        "n/a (no scalar rows)"
    print(f"   {'converged_frac':<40} {conv_text}")
    print(f"   {'ball_tv':<40} {'n/a (no ball statistic)' if tv is None else format(tv, '>16.6g') + ' TV'}")
    print(f"   converge.csv sha256 {result['sha256']}")
    if result.get("unwired"):
        print(f"   bindings not found (spans missing): {', '.join(result['unwired'])}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "rigsim", "__init__.py")):
            raise RunError(f"no rigsim source tree under {SRC}")
        specs = {w["name"]: w for w in bench["workloads"]}
        names = list(specs) if args.workload == "all" else [args.workload]
        if any(n not in specs for n in names):
            raise RunError(f"unknown workload {args.workload!r}; choose from {sorted(specs)} or all")
        wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
        try:
            results = []
            for i, name in enumerate(names):
                deadline = start + RUN_LIMIT_S * (i + 1)
                results.append(run_workload(specs[name], args.seed, args.seconds, bool(args.trace), tmp, deadline))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (RunError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for result in results:
        path = os.path.join(WORK, "results", f"{result['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        metrics = report(result, wanted)
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["correct"] &= result["failed"] == 0 and len(metrics) == len(wanted)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
