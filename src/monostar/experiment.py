"""Experiment orchestration: generate -> count -> reference law -> Monte Carlo
-> distances, plus the pre-wired example suite and the birthday estimator.

Reports are deterministic given (spec, seed): every float reduction runs in
sorted order and the canonical JSON form excludes wall-clock runtime.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from math import comb

from .coloring import empirical_moments, monte_carlo
from .errors import BudgetExceededError, MonostarError
from .graphs import generate, parse_generator
from .limits import (
    DEFAULT_THETA_CUT,
    LimitLawParams,
    figure2_params,
    limit_moments,
    limit_pmf,
    params_from_graph,
)
from .oracle import exact_pmf
from .pmf import pmf_moments, tv_distance
from .stars import class_counts, count_stars

__all__ = [
    "ExperimentSpec",
    "Report",
    "run_experiment",
    "builtin_example",
    "builtin_names",
    "birthday_probability",
    "DEFAULT_TV_TOLERANCE",
]

# Finite-size tolerances are engineering choices, not theorem content; they
# are echoed in every report.
DEFAULT_TV_TOLERANCE = {"exact-oracle": 0.005, "limit-law": 0.05}


@dataclass(frozen=True)
class ExperimentSpec:
    """Generator + scaling + sampling plan and the comparison to run. Cost
    guards and the limit pmf's truncation take the library defaults."""

    generator: str
    r: int
    colors: int
    samples: int
    seed: int
    comparison: str = "limit-law"  # exact-oracle | limit-law | both
    workers: int = 1
    theta_cut: int = DEFAULT_THETA_CUT
    predicted_params: LimitLawParams | None = None
    tv_tolerance: float | None = None
    name: str = ""
    notes: tuple[str, ...] = ()

    def spec_echo(self) -> dict:
        d = asdict(self)
        d["predicted_params"] = (
            None if self.predicted_params is None else self.predicted_params.to_json_dict()
        )
        d["notes"] = list(self.notes)
        # execution detail with no effect on results; keeps reports byte-identical
        # across worker counts
        del d["workers"]
        return d


@dataclass
class Report:
    """Outcome of one experiment. On failure ``error`` holds the message and
    ``error_kind`` says what went wrong: "budget" when a cost guard refused,
    otherwise the exception class name. ``error_kind`` stays out of the JSON
    forms, whose ``error`` already starts with the class name."""

    spec: dict
    failed: bool = False
    error: str | None = None
    error_kind: str | None = None
    graph: dict | None = None
    star_stats: dict | None = None
    params_used: dict | None = None
    empirical: dict | None = None
    tv_to_reference: dict = field(default_factory=dict)
    moments: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        left_out = {"error_kind"} if include_runtime else {"error_kind", "runtime_seconds"}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in left_out}

    def canonical_json(self) -> str:
        """Deterministic byte form: identical across reruns and worker counts
        (wall-clock runtime excluded)."""
        import json  # not at the top: importing monostar should not load it

        return json.dumps(self.to_json_dict(include_runtime=False),
                          sort_keys=True, separators=(",", ":"))


def run_experiment(spec: ExperimentSpec) -> Report:
    started = time.perf_counter()
    report = Report(spec=spec.spec_echo(), warnings=list(spec.notes))
    try:
        c = spec.colors
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"colors must be an integer >= 1, got {c!r}")
        if spec.tv_tolerance is not None and math.isnan(spec.tv_tolerance):
            raise ValueError("tv_tolerance must be a number, got NaN")
        if spec.comparison not in ("exact-oracle", "limit-law", "both"):
            raise ValueError(f"unknown comparison {spec.comparison!r}")
        g = generate(parse_generator(spec.generator))
        n_star = count_stars(g, spec.r)
        report.graph = {
            "vertex_count": g.vertex_count,
            "edge_count": g.edge_count,
            "max_degree": g.max_degree(),
            "colors": c,
            "n_star": str(n_star),
            "mean_T": n_star / c**spec.r,
        }
        try:
            stats = class_counts(g, spec.r)
            report.star_stats = stats.to_json_dict()
        except BudgetExceededError as exc:
            stats = None
            report.warnings.append(f"class_counts skipped: {exc}")

        references = {}
        ref_moments = {}
        if spec.comparison in ("exact-oracle", "both"):
            references["exact-oracle"] = exact_pmf(g, spec.r, c)
            ref_moments["exact-oracle"] = pmf_moments(references["exact-oracle"], 4)
        if spec.comparison in ("limit-law", "both"):
            if spec.predicted_params is not None:
                params = spec.predicted_params
            else:
                if stats is None:
                    raise BudgetExceededError(
                        "limit-law comparison needs class counts, which hit the budget"
                    )
                params = params_from_graph(g, c, spec.r, theta_cut=spec.theta_cut,
                                           stats=stats)
            report.params_used = params.to_json_dict()
            report.warnings.extend(params.flags)
            references["limit-law"] = limit_pmf(params)
            # exact, where the moments of the truncated pmf are not
            ref_moments["limit-law"] = limit_moments(params, 4)

        dist = monte_carlo(g, spec.r, c, spec.samples, spec.seed, workers=spec.workers)
        emp_pmf = dist.to_pmf()
        emp_moments = [float(x) for x in empirical_moments(dist, 4)]
        report.empirical = {**dist.to_json_dict(), "mean": emp_moments[0]}
        report.moments = {
            "empirical": emp_moments,
            "reference": {
                mode: [float(x) for x in moments] for mode, moments in sorted(ref_moments.items())
            },
        }
        report.tv_to_reference = {
            mode: tv_distance(emp_pmf, ref) for mode, ref in sorted(references.items())
        }
        report.tolerance = {
            mode: (spec.tv_tolerance if spec.tv_tolerance is not None
                   else DEFAULT_TV_TOLERANCE[mode])
            for mode in references
        }
    except (MonostarError, ValueError, OverflowError) as exc:
        report.failed = True
        report.error = f"{type(exc).__name__}: {exc}"
        report.error_kind = ("budget" if isinstance(exc, BudgetExceededError)
                             else type(exc).__name__)
    report.runtime_seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------------
# Pre-wired example experiments
# ----------------------------------------------------------------------------


def _icbrt(n: int) -> int:
    k = max(0, round(n ** (1.0 / 3.0)))
    while k**3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def _rule_colors(name: str, n: int, c: int) -> int:
    """The color count c that family ``name``'s rule gives at size n,
    refused below 1, before anything divides by it."""
    if c < 1:
        raise ValueError(f"builtin {name} at n = {n} gives c = {c} colors; its rule needs c >= 1")
    return c


def _er_regime(n: int, p: float, r: int) -> str:
    if n ** ((r + 1) / r) * p <= 10.0:
        return "(a) sub-critical: T -> 0 in probability"
    return "(b) sparse: Poisson limit"


# every pre-wired example family, with its default size n
_BUILTIN_SIZES = {
    "star": 1000,
    "star-union": 3000,
    "star-union-shifted": 400,
    "regular": 1000,
    "bipartite": 40,
    "complete": 60,
    "figure2": 300,
    "tadpole-remark": 10_000,
    "er": 4000,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_SIZES)


def builtin_example(name: str, n: int | None = None, samples: int | None = None,
                    seed: int | None = None, workers: int = 1) -> ExperimentSpec:
    """Pre-wired experiment matching one of the named example families,
    including its predicted limit parameters."""
    n = _BUILTIN_SIZES.get(name) if n is None else n
    if n is not None and n < 0:
        raise ValueError(f"builtin {name} needs n >= 0, got n = {n}")
    samples = 200_000 if samples is None else samples
    seed = 20240601 if seed is None else seed
    base = dict(samples=samples, seed=seed, workers=workers, name=name)

    if name == "star":
        params = LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.5, 0.0, 0.0))
        return ExperimentSpec(generator=f"star:{n}", r=2, colors=_rule_colors(name, n, n),
                              predicted_params=params, **base)
    if name == "star-union":
        weights = (0.6, 0.3, 0.1)
        lam1 = sum(a**2 for a in weights) / 2
        params = LimitLawParams(r=2, thetas=weights, lambdas=(lam1, 0.0, 0.0))
        return ExperimentSpec(generator=f"union:0.6,0.3,0.1:{n}", r=2,
                              colors=_rule_colors(name, n, n), predicted_params=params, **base)
    if name == "star-union-shifted":
        weights = (0.6, 0.3, 0.1)
        lam1 = sum(a**2 for a in weights) / 2 + 0.5
        params = LimitLawParams(r=2, thetas=weights, lambdas=(lam1, 0.0, 0.0))
        return ExperimentSpec(generator=f"union:0.6,0.3,0.1:{n}:shift=0.5", r=2,
                              colors=_rule_colors(name, n, n), predicted_params=params, **base)
    if name == "regular":
        d = 6
        c = _rule_colors(name, n, round(math.sqrt(n * comb(d, 2) / 2.0)))
        return ExperimentSpec(generator=f"circulant:{n}:{d}", r=2, colors=c, theta_cut=0,
                              notes=("regular family: no degree atoms, plug-in class rates",),
                              **base)
    if name == "bipartite":
        c = _rule_colors(name, n, round(math.sqrt(n * n * (n - 1) / 3.9936)))
        mean = n * n * (n - 1) / c**2
        params = LimitLawParams(r=2, thetas=(), lambdas=(mean, 0.0, 0.0))
        return ExperimentSpec(generator=f"bipartite:{n}", r=2, colors=c, predicted_params=params,
                              notes=("triangle-free: pure coefficient-1 Poisson reference",),
                              **base)
    if name == "complete":
        n_star = 3 * comb(n, 3)  # n * comb(n - 1, 2), also at n = 0
        c = _rule_colors(name, n, round(math.sqrt(n_star / 3.0)))
        mean = n_star / c**2
        params = LimitLawParams(r=2, thetas=(), lambdas=(0.0, 0.0, mean / 3.0))
        return ExperimentSpec(generator=f"complete:{n}", r=2, colors=c, predicted_params=params,
                              notes=("complete family: support on multiples of 3",),
                              **base)
    if name == "figure2":
        return ExperimentSpec(generator=f"figure2:{n}", r=2, colors=_rule_colors(name, n, n),
                              predicted_params=figure2_params(1.0), tv_tolerance=0.07, **base)
    if name == "tadpole-remark":
        c = _rule_colors(name, n, _icbrt(n))
        mean = n / c**3
        params = LimitLawParams(r=3, thetas=(), lambdas=(mean, 0.0, 0.0, 0.0))
        return ExperimentSpec(generator=f"copies:{n}:star:3", r=3, colors=c,
                              predicted_params=params, **base)
    if name == "er":
        p = 0.001
        expected_stars = 3 * comb(n, 3) * p**2
        c = _rule_colors(name, n, round(math.sqrt(expected_stars / 2.0)))
        return ExperimentSpec(generator=f"er:{n}:{p}:seed=7", r=2, colors=c,
                              notes=(f"er-regime {_er_regime(n, p, 2)}; "
                                     "comparison conditions on the realized graph",),
                              **base)
    raise ValueError(f"unknown builtin example {name!r}; names: {', '.join(builtin_names())}")


# ----------------------------------------------------------------------------
# Birthday probability
# ----------------------------------------------------------------------------


def birthday_probability(g, r: int, c: int, method: str = "oracle", *,
                         samples: int = 200_000, seed: int = 0):
    """P(T > 0) under the chosen reference: exact, empirical, or limit law."""
    if method == "oracle":
        return Fraction(1) - exact_pmf(g, r, c).prob(0)
    if method == "mc":
        dist = monte_carlo(g, r, c, samples, seed)
        return Fraction(dist.total_samples - dist.counts.get(0, 0), dist.total_samples)
    if method == "limit":
        return 1.0 - float(limit_pmf(params_from_graph(g, c, r)).prob(0))
    raise ValueError(f"unknown method {method!r}: use oracle, mc, or limit")
