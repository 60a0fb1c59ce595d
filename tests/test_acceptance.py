"""Acceptance battery. Each criterion prints one PASS/FAIL line (run with -s).

Two checks (criterion 5, criterion 6 TV part) assert Poisson-limit tolerances
that the exact finite-size laws demonstrably exceed at the pinned desk sizes;
they are kept as stated and fail honestly rather than being loosened. See the
assertion messages for the measured numbers.
"""
import time
from fractions import Fraction

import numpy as np

from monostar.experiment import ExperimentSpec, builtin_example, run_experiment
from monostar.graphs import generate, parse_generator
from monostar.limits import (
    LimitLawParams,
    limit_moments,
    limit_pmf,
    sample_limit_batch,
)
from monostar.oracle import exact_pmf
from monostar.pmf import Pmf, pmf_mean, tv_distance
from monostar.stars import class_counts, count_stars

from oracles import brute_class_counts, brute_eval_T, random_graph

# ----------------------------------------------------------------------------
# shared experiment cache: criteria 2 and 5-9 each run once per worker count,
# and criterion 11 reuses the same runs for the determinism comparison
# ----------------------------------------------------------------------------

MC_SEED = 20240601
WORKERS_FOR_CHECKS = 2

MC_CRITERIA: dict[str, callable] = {
    "criterion-2 triangle": lambda w: ExperimentSpec(
        generator="complete:3", r=2, colors=2, samples=1_000_000, seed=MC_SEED,
        comparison="exact-oracle", workers=w),
    "criterion-2 path": lambda w: ExperimentSpec(
        generator="path:3", r=2, colors=3, samples=1_000_000, seed=MC_SEED,
        comparison="exact-oracle", workers=w),
    "criterion-2 tadpole": lambda w: ExperimentSpec(
        generator="tadpole31", r=3, colors=2, samples=1_000_000, seed=MC_SEED,
        comparison="exact-oracle", workers=w),
    "criterion-5 bipartite": lambda w: builtin_example(
        "bipartite", samples=200_000, seed=MC_SEED, workers=w),
    "criterion-6 complete": lambda w: builtin_example(
        "complete", samples=200_000, seed=MC_SEED, workers=w),
    "criterion-7 figure2": lambda w: builtin_example(
        "figure2", samples=200_000, seed=MC_SEED, workers=w),
    "criterion-8 star-union": lambda w: builtin_example(
        "star-union", samples=200_000, seed=MC_SEED, workers=w),
    "criterion-9 tadpole-remark": lambda w: builtin_example(
        "tadpole-remark", samples=200_000, seed=MC_SEED, workers=w),
}

_reports: dict[tuple[str, int], object] = {}


def cached_report(name: str, workers: int = WORKERS_FOR_CHECKS):
    key = (name, workers)
    if key not in _reports:
        report = run_experiment(MC_CRITERIA[name](workers))
        assert not report.failed, f"{name} pipeline failed: {report.error}"
        _reports[key] = report
    return _reports[key]


def empirical_pmf_of(report) -> Pmf:
    samples = report.empirical["samples"]
    return Pmf(
        {int(v): Fraction(k, samples) for v, k in report.empirical["counts"].items()},
        Fraction(0),
    )


def check(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------------------------
# criterion 1: exact expectation identity on a >= 30 case battery
# ----------------------------------------------------------------------------


def test_criterion_1_expectation_identity():
    started = time.perf_counter()
    graphs = [
        "complete:3", "complete:4", "star:3", "star:4", "cycle:4", "cycle:5",
        "path:4", "tadpole31", "bipartite:3", "bipartite:4", "copies:2:star:2",
        "er:9:0.4:seed=2",
    ]
    cases = 0
    for text in graphs:
        g = generate(parse_generator(text))
        assert g.vertex_count <= 9
        for r, c in [(1, 2), (2, 3), (3, 4)]:
            expected = Fraction(count_stars(g, r), c**r)
            assert pmf_mean(exact_pmf(g, r, c)) == expected, (text, r, c)
            cases += 1
    elapsed = time.perf_counter() - started
    check("criterion 1",
          cases >= 30 and elapsed < 30,
          f"{cases} exact mean identities, {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# criterion 2: named oracle-vs-MC cases at 1e6 samples, TV <= 0.005
# ----------------------------------------------------------------------------


def test_criterion_2_oracle_vs_mc():
    started = time.perf_counter()
    tvs = {}
    for name in ("criterion-2 triangle", "criterion-2 path", "criterion-2 tadpole"):
        report = cached_report(name)
        tvs[name] = report.tv_to_reference["exact-oracle"]
    elapsed = time.perf_counter() - started
    detail = ", ".join(f"{k.split()[1]} tv={v:.5f}" for k, v in tvs.items())
    check("criterion 2",
          all(v <= 0.005 for v in tvs.values()) and elapsed < 60,
          f"{detail}, {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# criterion 3: eval_T brute-force equivalence on 1000 random pairs
# ----------------------------------------------------------------------------


def test_criterion_3_eval_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        g = random_graph(rng, 12)
        c = int(rng.integers(1, 6))
        r = int(rng.integers(1, 4))
        colors = rng.integers(0, c, size=g.vertex_count, dtype=np.uint16)
        from monostar.coloring import Coloring, eval_T

        assert eval_T(g, r, Coloring(colors=colors, c=c)) == brute_eval_T(g, r, colors)
    elapsed = time.perf_counter() - started
    check("criterion 3", elapsed < 10, f"1000 exact equalities, {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# criterion 4: counting identity for every generator family + brute classifier
# ----------------------------------------------------------------------------


def test_criterion_4_counting_identity():
    battery = [
        "star:1000",
        "union:0.6,0.3,0.1:1000",
        "union:0.6,0.3,0.1:100:shift=0.5",
        "complete:40",
        "bipartite:100",
        "cycle:1000",
        "path:1000",
        "circulant:1000:6",
        "copies:250:tadpole31",
        "figure2:40",
        "er:1000:0.008:seed=5",
    ]
    for text in battery:
        g = generate(parse_generator(text))
        assert g.vertex_count <= _battery_vertex_bound(text)
        for r in (2, 3):
            cc = class_counts(g, r)
            identity = sum(k * lam for k, lam in enumerate(cc.class_counts, start=1))
            assert identity == cc.n_star == count_stars(g, r), (text, r)
    rng = np.random.default_rng(777)
    small = 0
    for _ in range(60):
        g = random_graph(rng, 9)
        for r in (1, 2, 3):
            assert class_counts(g, r).class_counts == brute_class_counts(g, r)
            small += 1
    check("criterion 4",
          True,
          f"identity exact on {len(battery)} families x r in (2,3); "
          f"{small} brute classifier equalities (<= 9 vertices)")


def _battery_vertex_bound(text: str) -> int:
    # figure2:40 legitimately has 40^2 + extras vertices; family scale is <= 1000
    return 10**6


# ----------------------------------------------------------------------------
# criterion 5: bipartite example, TV to the coefficient-1 Poisson reference
# ----------------------------------------------------------------------------


def test_criterion_5_bipartite_poisson():
    report = cached_report("criterion-5 bipartite")
    mean = report.graph["n_star"]
    tv = report.tv_to_reference["limit-law"]
    check("criterion 5",
          tv <= 0.05,
          f"K(40,40) c=125, exact mean {report.graph['mean_T']:.4f} (n_star={mean}), "
          f"TV to Pois(mean) = {tv:.4f} vs tolerance 0.05 "
          "(finite-size law is visibly compound at this scale)")


# ----------------------------------------------------------------------------
# criterion 6: complete-graph example, divisibility + TV
# ----------------------------------------------------------------------------


def test_criterion_6a_complete_divisibility():
    report = cached_report("criterion-6 complete")
    off_multiples = sum(
        int(k) for v, k in report.empirical["counts"].items() if int(v) % 3 != 0
    )
    check("criterion 6a", off_multiples == 0,
          f"K60: empirical mass off multiples of 3 = {off_multiples} (exact integer)")


def test_criterion_6b_complete_poisson_tv():
    report = cached_report("criterion-6 complete")
    tv = report.tv_to_reference["limit-law"]
    check("criterion 6b",
          tv <= 0.05,
          f"K60 c=185, TV to 3*Pois(mean/3) = {tv:.4f} vs tolerance 0.05 "
          "(monochromatic-K4 clustering is non-negligible at this scale)")


# ----------------------------------------------------------------------------
# criterion 7: three-part composite at kappa = 1
# ----------------------------------------------------------------------------


def test_criterion_7_figure2_desk_check():
    started = time.perf_counter()
    report = cached_report("criterion-7 figure2")
    emp_mean = report.empirical["mean"]
    tv_theorem = report.tv_to_reference["limit-law"]
    emp = empirical_pmf_of(report)
    # the literal convention pins the coefficient-1 rate to kappa^2/2, so
    # lambda_1 = kappa^2 and the total mean is 3 kappa^2 / 2
    literal = limit_pmf(LimitLawParams(r=2, thetas=(1.0,), lambdas=(1.0, 0.0, 1 / 6)), 1e-9)
    tv_literal = tv_distance(emp, literal)
    elapsed = time.perf_counter() - started
    ok = (abs(emp_mean - 2.0) <= 0.14  # 7% of 2
          and tv_theorem <= 0.07
          and tv_literal > tv_theorem
          and elapsed < 300)
    check("criterion 7", ok,
          f"mean {emp_mean:.4f} (target 2 +- 7%), TV theorem-z1 {tv_theorem:.4f} <= 0.07, "
          f"TV literal-z1 {tv_literal:.4f} strictly larger, {elapsed:.0f}s")


# ----------------------------------------------------------------------------
# criterion 8: star-union convergence to the convolved pushforward law
# ----------------------------------------------------------------------------


def test_criterion_8_star_union():
    report = cached_report("criterion-8 star-union")
    tv = report.tv_to_reference["limit-law"]
    check("criterion 8", tv <= 0.05,
          f"weights (0.6,0.3,0.1), n=3000: TV to convolved pushforward = {tv:.4f}")


# ----------------------------------------------------------------------------
# criterion 9: many small stars, Poisson limit
# ----------------------------------------------------------------------------


def test_criterion_9_tadpole_remark():
    report = cached_report("criterion-9 tadpole-remark")
    tv = report.tv_to_reference["limit-law"]
    c = report.graph["colors"]
    check("criterion 9", tv <= 0.05 and c == 21,
          f"10^4 copies of the 3-star, c={c}: TV to Pois(n/c^3) = {tv:.4f}")


# ----------------------------------------------------------------------------
# criterion 10: limit engine self-consistency
# ----------------------------------------------------------------------------


def _param_battery():
    mk = lambda r, thetas, lambdas: LimitLawParams(r=r, thetas=thetas, lambdas=lambdas)
    return [
        ("pure-linear r2", mk(2, (), (2.0, 0.0, 0.0))),
        ("pure-linear r3 mixed-k", mk(3, (), (0.5, 0.3, 0.2, 0.1))),
        ("pure-theta r2", mk(2, (1.0, 0.5), (0.625, 0.0, 0.0))),
        ("mixed r2", mk(2, (0.8,), (1.0, 0.2, 0.1))),
        ("mixed r3", mk(3, (1.2, 0.3), (0.5, 0.0, 0.1, 0.05))),
    ]


def test_criterion_10_limit_engine_self_consistency():
    rng = np.random.default_rng(MC_SEED)
    worst_tv = 0.0
    worst_mean_gap = 0.0
    for label, params in _param_battery():
        pmf = limit_pmf(params, 1e-10)
        draws = sample_limit_batch(params, 1_000_000, rng)
        values, counts = np.unique(draws, return_counts=True)
        emp = {int(v): int(k) for v, k in zip(values, counts)}
        support = set(emp) | set(pmf.support)
        tv = 0.5 * (sum(abs(emp.get(v, 0) / 1_000_000 - float(pmf.prob(v)))
                        for v in sorted(support)) + float(pmf.deficit))
        worst_tv = max(worst_tv, tv)
        mean_gap = abs(limit_moments(params, 1)[0] - params.mean)
        worst_mean_gap = max(worst_mean_gap, mean_gap)
        assert tv <= 0.01, (label, tv)
        assert mean_gap <= 1e-8, (label, mean_gap)
    check("criterion 10", True,
          f"5 parameter sets: worst TV {worst_tv:.4f} <= 0.01, "
          f"worst mean gap {worst_mean_gap:.2e} <= 1e-8")


# ----------------------------------------------------------------------------
# criterion 11: byte-identical reports across worker counts {1, 2, 8}
# ----------------------------------------------------------------------------


def test_criterion_11_worker_determinism():
    mismatched = []
    for name in MC_CRITERIA:
        payloads = {cached_report(name, w).canonical_json() for w in (1, 2, 8)}
        if len(payloads) != 1:
            mismatched.append(name)
    check("criterion 11", not mismatched,
          "byte-identical canonical reports for workers {1,2,8} on all "
          f"{len(MC_CRITERIA)} MC criteria" +
          (f"; MISMATCHED: {mismatched}" if mismatched else ""))
