#!/usr/bin/env python3
"""monostar benchmark: one workload per process, timed from outside.

Usage:
    python3 benchmark/run.py --workload {mc-sparse,mc-dense,exact-structure}
        --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload's operations until S seconds have passed
(at least one round), checks every output, and prints one JSON object as the
last line of stdout. With --trace 0 the metrics are setup_s, wall_s (median
round time) and peak_rss_mb; with --trace 1 they are the per-layer figures
from timing spans, plus traced_wall_s. Exits 1 if a check fails or an
operation outside the two known faults raises, 2 if monostar's sources are
missing. See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, monostar; "
         "print('ready', flush=True)")


def setup_seconds() -> float:
    """Median time from starting a fresh interpreter until numpy and monostar
    are imported, over several probe processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return statistics.median(times)


def run_rounds(workload, tracer, seconds: float, log):
    """Whole rounds until ``seconds`` have passed; stops after a round with a problem."""
    import monostar.experiment
    from workloads import CheckFailed

    rounds, problems = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        tracer.spans = []
        workload.state.clear()
        busy = 0.0
        with tracer.intercept(monostar.experiment):
            for op in workload.ops:
                tracer.op = op.name
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # every raise is counted, and reported unless known
                    busy += time.perf_counter() - t0
                    attempted += 1
                    failed += 1
                    if not op.known_fault:
                        problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    continue
                busy += time.perf_counter() - t0
                attempted += 1
                try:
                    op.check(out)
                except CheckFailed as exc:
                    problems.append(f"{op.name}: {exc}")
                if not rounds and hasattr(out, "tv_to_reference"):
                    log(f"{op.name}: TV {out.tv_to_reference}")
                del out
        rounds.append((busy, tracer.spans))
        log(f"round {len(rounds)}: {busy:.3f} s")
        if problems or time.perf_counter() - started >= seconds:
            return rounds, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="monostar benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("mc-sparse", "mc-dense", "exact-structure"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="reduced input sizes, for the benchmark's own quick test")
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "monostar" / "__init__.py").is_file():
        log(f"error: monostar sources not found under {SRC}")
        return 2
    setup = None if args.trace else setup_seconds()
    sys.path.insert(0, str(SRC))
    import monostar
    if Path(monostar.__file__).resolve().parent != SRC / "monostar":
        log(f"error: imported monostar from {monostar.__file__}, not from {SRC}")
        return 2
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer() if args.trace else spans.Untraced()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.small, tracer, workdir)
        rounds, attempted, failed, problems = run_rounds(workload, tracer, args.seconds, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(busy for busy, _ in rounds)
    if args.trace:
        values = spans.median_metrics([spans.layer_metrics(s, workload.pair) for _, s in rounds])
        values["traced_wall_s"] = wall
        units = spans.UNITS
    else:
        values = {
            "setup_s": setup,
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for problem in problems:
        log(f"FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
