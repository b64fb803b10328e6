"""One measured process: import rigsim, parse the plans, run ``converge`` on each.

Run by ``run.py`` in a fresh interpreter so that set-up (mostly the import
of numpy and scipy) and peak memory are those a user of ``rigsim converge``
sees.  Writes one JSON record to ``<out>/result.json``; with ``--trace`` it
also writes the span table to ``<out>/spans.json``.

    python3 perfbench/child.py --src SRC --out DIR --seed N [--trace] [--setup-only] PLAN...
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("plans", nargs="+")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import rigsim
    from rigsim import cli
    from rigsim.experiment import CSV_HEADER, ExperimentPlan

    if not os.path.abspath(rigsim.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"imported rigsim from {rigsim.__file__}, not from {args.src}")
    for path in args.plans:
        with open(path) as fh:
            ExperimentPlan.from_config(json.load(fh))
    record = {"ready": time.time()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        codes, stdout, stderr = [], [], []
        t0 = time.perf_counter()
        for i, path in enumerate(args.plans):
            argv = ["converge", "--config", path, "--seed", str(args.seed), "--threads", "1",
                    "--out", os.path.join(args.out, str(i))]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as e:  # argparse rejects the command line
                    codes.append(e.code if isinstance(e.code, int) else 1)
            stdout.append(out.getvalue())
            stderr.append(err.getvalue())
        record["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans.json"))
        record.update(
            exit_codes=codes,
            stdout=stdout,
            stderr=stderr,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            csv_header=CSV_HEADER,
        )
    import numpy
    import scipy

    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
