"""Command-line surface.

Exit codes: 0 success, 1 a Monte-Carlo worker process that died without a
result, 2 usage error, 3 budget refusal, 4 tolerance failure in ``verify``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .coloring import EmpiricalDist, monte_carlo
from .errors import BudgetExceededError, EdgeListParseError, InvalidParamsError, WorkerExitError
from .experiment import (
    birthday_probability,
    builtin_example,
    builtin_names,
    run_experiment,
)
from .graphs import edge_list_text, generate, parse_edge_list, parse_generator
from .limits import (
    DEFAULT_TAIL_EPS,
    LimitLawParams,
    limit_pmf,
    sample_limit_batch,
)
from .oracle import DEFAULT_ORACLE_BUDGET, exact_pmf
from .stars import DEFAULT_CLASS_BUDGET, class_counts, count_stars

WORKER_EXIT = 1
USAGE_EXIT = 2
BUDGET_EXIT = 3
TOLERANCE_EXIT = 4


def _load_graph(arg: str):
    p = Path(arg)
    if p.exists():
        return parse_edge_list(p.read_text())[0]
    return generate(parse_generator(arg))


def _emit(payload, args) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_limit_tokens(tokens) -> LimitLawParams:
    r = None
    thetas: tuple[float, ...] = ()
    lambda_map: dict[int, float] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key == "r":
            r = int(value)
        elif key == "theta":
            thetas = tuple(float(x) for x in value.split(",") if x)
        elif key.startswith("lambda"):
            lambda_map[int(key[len("lambda"):])] = float(value)
        else:
            raise ValueError(f"unknown parameter {key!r}")
    if r is None:
        raise ValueError("missing r=: give the star size, e.g. r=2")
    outside = [k for k in lambda_map if not 1 <= k <= r + 1]
    if outside:
        raise ValueError(f"lambda{min(outside)} is outside lambda1..lambda{r + 1} for r = {r}")
    lambdas = tuple(lambda_map.get(k, 0.0) for k in range(1, r + 2))
    return LimitLawParams(r=r, thetas=thetas, lambdas=lambdas)


def _cmd_gen(args) -> int:
    g = generate(parse_generator(args.spec))
    _emit(edge_list_text(g), args)
    return 0


def _cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    payload = {
        "vertex_count": g.vertex_count,
        "edge_count": g.edge_count,
        "max_degree": g.max_degree(),
        "r": args.r,
        "n_star": str(count_stars(g, args.r)),
    }
    if args.classes:
        stats = class_counts(g, args.r, budget=args.budget)
        payload["lambda_raw"] = stats.to_json_dict()["lambda_raw"]
    _emit(payload, args)
    return 0


def _cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    dist = monte_carlo(g, args.r, args.c, args.samples, args.seed, workers=args.workers)
    if args.csv:
        _emit(dist.to_csv(), args)
    else:
        _emit(dist.to_json_dict(), args)
    return 0


def _cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    pmf = exact_pmf(g, args.r, args.c, budget=args.budget)
    _emit(pmf.to_csv() if args.csv else pmf.to_json_dict(), args)
    return 0


def _cmd_limit(args) -> int:
    params = _parse_limit_tokens(args.params)
    if args.action == "params":
        lambda_r = params.lambdas[params.r - 1]
        if lambda_r > 0:
            # r full-degree vertices of an (r+1)-set make the last one full-degree too
            sys.stderr.write(f"warning: lambda{params.r} = {lambda_r} > 0 is accepted but not "
                             "realizable: every graph has Lambda_r = 0\n")
        _emit(params.to_json_dict(), args)
        return 0
    if args.action == "pmf":
        pmf = limit_pmf(params, args.tail_eps)
        _emit(pmf.to_csv() if args.csv else pmf.to_json_dict(), args)
        return 0
    if args.samples < 1:  # "sample", the last of the parser's choices
        raise ValueError("samples must be >= 1")
    if not 0 <= args.seed < 1 << 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
    draws = sample_limit_batch(params, args.samples, rng)
    values, counts = np.unique(draws, return_counts=True)
    dist = EmpiricalDist(dict(zip(values.tolist(), counts.tolist())), args.samples, args.seed)
    _emit(dist.to_json_dict(), args)
    return 0


def _cmd_verify(args) -> int:
    spec = builtin_example(args.name, n=args.n, samples=args.samples,
                           seed=args.seed, workers=args.workers)
    if args.tol is not None:
        spec = dataclasses.replace(spec, tv_tolerance=args.tol)
    report = run_experiment(spec)
    _emit(report.to_json_dict(), args)
    if report.failed:
        sys.stderr.write(f"verify failed: {report.error}\n")
        return BUDGET_EXIT if report.error_kind == "budget" else USAGE_EXIT
    for mode, tv in report.tv_to_reference.items():
        if tv > report.tolerance[mode]:
            sys.stderr.write(
                f"verify {args.name}: TV {tv:.4f} to {mode} exceeds tolerance "
                f"{report.tolerance[mode]}\n"
            )
            return TOLERANCE_EXIT
    return 0


def _cmd_birthday(args) -> int:
    g = _load_graph(args.graph)
    value = birthday_probability(g, args.r, args.c, args.method,
                                 samples=args.samples, seed=args.seed)
    _emit({"method": args.method, "r": args.r, "c": args.c,
           "probability": float(value), "exact": str(value)}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monostar",
        description="Monochromatic r-star statistics: counting, simulation, limit laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("spec", help='generator string, e.g. "star:4", "figure2:10", "er:100:0.05:seed=7"')
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("stats", help="star count and class counts")
    p.add_argument("graph", help="edge-list file or generator string")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--classes", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_CLASS_BUDGET)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("simulate", help="Monte-Carlo histogram of T")
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("-n", "--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("exact", help="exact pmf of T over set partitions, per component")
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET,
                   help="most evaluations to spend: the set partitions of each distinct "
                        "component, plus the word-weighted cells of each convolution step "
                        "(default: %(default)s)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("limit", help="limit-law parameters, pmf, and sampling")
    p.add_argument("action", choices=["params", "pmf", "sample"])
    p.add_argument("params", nargs="*", help='e.g. r=2 theta=1,0.5 lambda1=0.9 lambda3=0.2')
    p.add_argument("--tail-eps", type=float, default=DEFAULT_TAIL_EPS, dest="tail_eps")
    p.add_argument("-n", "--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("verify", help="run a pre-wired example and check its tolerance")
    p.add_argument("name", choices=list(builtin_names()))
    p.add_argument("-n", type=int, default=None, help="family size override")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("birthday", help="P(T > 0) by oracle, Monte Carlo, or limit law")
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--method", choices=["oracle", "mc", "limit"], default="oracle")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_birthday)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return BUDGET_EXIT
    except (EdgeListParseError, InvalidParamsError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except WorkerExitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return WORKER_EXIT


if __name__ == "__main__":
    sys.exit(main())
