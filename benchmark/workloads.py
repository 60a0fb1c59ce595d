"""The three benchmark workloads, as lists of operations with their checks.

Every operation is a call into monostar's public API; its check compares the
output with values from ``reference`` or with properties the method must
have, never with a stored copy of an earlier output. A round runs every
operation once, in order; operations pass inputs along in a shared ``state``
dict, which is emptied when a round starts. Checks only read it, so a check
can be run again on another output.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from monostar.experiment import ExperimentSpec, builtin_example, run_experiment
from monostar.graphs import edge_list_text, generate, parse_edge_list, parse_generator
from monostar.limits import (LimitLawParams, figure2_params, limit_moments, limit_pmf,
                             params_from_graph)
from monostar.oracle import exact_pmf
from monostar.stars import class_counts

WORKERS = 2
TAIL_EPS = 1e-9


class CheckFailed(Exception):
    """An output disagrees with its independently computed expectation."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def expect_close(got: float, want: float, rel: float, what: str):
    expect(abs(got - want) <= rel * max(1.0, abs(want)), f"{what}: got {got!r}, want {want!r}")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: bool = False


@dataclass
class Workload:
    ops: list[Op]
    # (op at workers=1, op at workers=2) running the same spec
    pair: tuple[str, str] | None = None
    state: dict = field(default_factory=dict)


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and a label."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# ----------------------------------------------------------------------------
# Monte-Carlo experiments
# ----------------------------------------------------------------------------


def check_report(report, shape: dict, r: int, c: int, samples: int):
    """Pipeline outputs against closed forms; the sample mean within six
    standard errors of the exact E[T] = n_star / c**r."""
    expect(not report.failed, f"experiment failed: {report.error}")
    graph = report.graph
    for key in ("vertex_count", "edge_count", "max_degree"):
        expect(graph[key] == shape[key], f"{key}: got {graph[key]}, want {shape[key]}")
    expect(graph["colors"] == c, f"colors: got {graph['colors']}, want {c}")
    expect(graph["n_star"] == str(shape["n_star"]),
           f"n_star: got {graph['n_star']}, want {shape['n_star']}")
    want_classes = [str(x) for x in shape["classes"]]
    expect(report.star_stats["lambda_raw"] == want_classes,
           f"class counts: got {report.star_stats['lambda_raw']}, want {want_classes}")
    hist = ref.histogram(report.empirical["counts"])
    expect(report.empirical["samples"] == samples and sum(hist.values()) == samples,
           f"histogram holds {sum(hist.values())} samples, want {samples}")
    for j, (got, want) in enumerate(zip(report.moments["empirical"],
                                        ref.raw_moments(hist, 4)), start=1):
        expect_close(got, float(want), 1e-12, f"empirical moment {j}")
    mean, stderr = ref.mean_and_stderr(hist)
    exact_mean = shape["n_star"] / c**r
    expect(abs(mean - exact_mean) <= 6 * stderr + 1e-12,
           f"sample mean {mean} (standard error {stderr}) is off E[T] = {exact_mean}")


def check_multiples_of_3(report):
    off = [v for v in ref.histogram(report.empirical["counts"]) if v % 3]
    expect(not off, f"values off multiples of 3: {off[:5]}")


def check_binomial(copies: int, c: int, samples: int):
    law = ref.binomial_pmf(copies, 1.0 / c**3)
    bound = ref.tv_noise_bound(law, samples)

    def check(report):
        dist = ref.tv(ref.histogram(report.empirical["counts"]), law)
        expect(dist <= bound, f"TV to Binomial({copies}, {c}^-3) is {dist:.4f} > {bound:.4f}")
    return check


def check_against_brute(law: dict[int, Fraction]):
    """Criterion-2 case: TV to the brute-force law within 0.005, and the
    oracle's reference moments and TV equal to the brute-force ones."""
    def check(report):
        hist = ref.histogram(report.empirical["counts"])
        dist = ref.tv(hist, law)
        expect(dist <= 0.005, f"TV to the brute-force law is {dist:.5f} > 0.005")
        expect_close(report.tv_to_reference["exact-oracle"], dist, 1e-12, "oracle TV")
        brute_moments = [sum(p * v**j for v, p in law.items()) for j in range(1, 5)]
        for j, (got, want) in enumerate(zip(report.moments["reference"]["exact-oracle"],
                                            brute_moments), start=1):
            expect_close(got, float(want), 1e-12, f"oracle moment {j}")
    return check


def experiment_op(tracer, name: str, spec: ExperimentSpec, shape: dict, c: int,
                  extra: Callable | None = None, state: dict | None = None,
                  same_as: str | None = None) -> Op:
    """run_experiment on ``spec``; with ``same_as``, its canonical report must
    equal that op's byte for byte."""
    def check(report):
        check_report(report, shape, spec.r, c, spec.samples)
        if extra is not None:
            extra(report)
        if state is not None:
            payload = report.canonical_json()
            if same_as is None:
                state[name] = payload
            else:
                expect(payload == state[same_as],
                       f"canonical report differs from {same_as}")
    return Op(name, lambda: tracer.call("experiment", run_experiment, spec), check)


def mc_sparse(seed: int, small: bool, tracer, workdir: Path) -> Workload:
    """figure2 (a star and a long path off a clique) and 10^4 disjoint 3-stars:
    large mostly-tree graphs whose sample blocks are too short for the matrix
    kernel, so each sample is evaluated row by row."""
    n, fig_samples = (20, 200) if small else (300, 1200)
    copies, tad_samples = (6000, 300) if small else (10_000, 3000)
    fig_seed = derive_seed(seed, "figure2")
    tad_seed = derive_seed(seed, "tadpole-remark")
    tad_c = ref.star_copies_colors(copies)
    w = Workload(ops=[], pair=("figure2 workers=1", "figure2 workers=2"))
    for workers in (2, 1):
        w.ops.append(experiment_op(
            tracer, f"figure2 workers={workers}",
            builtin_example("figure2", n=n, samples=fig_samples, seed=fig_seed,
                            workers=workers),
            ref.figure2_shape(n), n, state=w.state,
            same_as=None if workers == 2 else "figure2 workers=2"))
    w.ops.append(experiment_op(
        tracer, "tadpole-remark",
        builtin_example("tadpole-remark", n=copies, samples=tad_samples, seed=tad_seed,
                        workers=WORKERS),
        ref.star_copies_shape(copies), tad_c,
        extra=check_binomial(copies, tad_c, tad_samples)))
    return w


def mc_dense(seed: int, small: bool, tracer, workdir: Path) -> Workload:
    """K60 and K(40,40) at many samples on full matrix-kernel blocks, plus the
    three exact-oracle cases of acceptance criterion 2: small dense graphs that
    are their own 2-core."""
    kn, bn, dense_samples = (12, 8, 4000) if small else (60, 40, 100_000)
    oracle_samples = 200_000 if small else 1_000_000
    kc, bc = ref.complete_colors(kn), ref.bipartite_colors(bn)
    w = Workload(ops=[], pair=("complete workers=1", "complete workers=2"))
    complete_seed = derive_seed(seed, "complete")
    for workers in (2, 1):
        w.ops.append(experiment_op(
            tracer, f"complete workers={workers}",
            builtin_example("complete", n=kn, samples=dense_samples, seed=complete_seed,
                            workers=workers),
            ref.complete_shape(kn, 2), kc, extra=check_multiples_of_3, state=w.state,
            same_as=None if workers == 2 else "complete workers=2"))
    w.ops.append(experiment_op(
        tracer, "bipartite",
        builtin_example("bipartite", n=bn, samples=dense_samples,
                        seed=derive_seed(seed, "bipartite"), workers=WORKERS),
        ref.bipartite_shape(bn), bc))
    tadpole_shape = {"vertex_count": 4, "edge_count": 4, "max_degree": 3,
                     "n_star": 1, "classes": (1, 0, 0, 0)}
    for label, generator, r, c, graph, shape in (
        ("triangle", "complete:3", 2, 2, ref.TRIANGLE, ref.complete_shape(3, 2)),
        ("path", "path:3", 2, 3, ref.PATH3, ref.path_shape(3)),
        ("tadpole", "tadpole31", 3, 2, ref.TADPOLE31, tadpole_shape),
    ):
        spec = ExperimentSpec(generator=generator, r=r, colors=c, samples=oracle_samples,
                              seed=derive_seed(seed, label), comparison="exact-oracle",
                              workers=WORKERS)
        w.ops.append(experiment_op(tracer, f"criterion-2 {label}", spec, shape, c,
                                   extra=check_against_brute(ref.brute_pmf(graph, r, c))))
    return w


# ----------------------------------------------------------------------------
# Exact structure: graphs, class counts, the oracle and the limit engine
# ----------------------------------------------------------------------------


def check_path_graph(g, n: int):
    shape = ref.path_shape(n)
    expect(g.vertex_count == n and g.edge_count == n - 1, "path size")
    expect(np.array_equal(g.edge_u, np.arange(n - 1)) and
           np.array_equal(g.edge_v, np.arange(1, n)), "path edges")
    expect(g.max_degree() == shape["max_degree"], "path max degree")


def check_simple_graph(g, n: int, p: float):
    """Sorted, duplicate-free u < v edges; degrees match the edges; the edge
    count within six standard deviations of Binomial(C(n, 2), p)."""
    u = np.asarray(g.edge_u, dtype=np.int64)
    v = np.asarray(g.edge_v, dtype=np.int64)
    expect(g.vertex_count == n, "er vertex count")
    expect(bool(np.all(u < v)) and bool(np.all(np.diff(u * n + v) > 0)),
           "er edges are not sorted, simple pairs")
    expect(np.array_equal(np.bincount(np.concatenate([u, v]), minlength=n), g.degrees),
           "er degrees disagree with its edges")
    pairs = comb(n, 2)
    sd = math.sqrt(pairs * p * (1 - p))
    expect(abs(g.edge_count - pairs * p) <= 6 * sd,
           f"er edge count {g.edge_count} far from {pairs * p:.0f}")


def check_classes(shape: dict):
    def check(stats):
        expect(stats.n_star == shape["n_star"], f"n_star {stats.n_star} != {shape['n_star']}")
        expect(tuple(stats.class_counts) == tuple(shape["classes"]),
               f"class counts {stats.class_counts} != {shape['classes']}")
    return check


def check_exact_law(pmf, law: dict[int, Fraction] | None, g, r: int, c: int):
    """Exact pmf: mass exactly 1 and mean exactly n_star / c**r; with ``law``,
    equal to it value for value."""
    expect(pmf.deficit == 0 and sum(pmf.support.values()) == 1, "exact mass is not 1")
    degrees = np.bincount(np.concatenate([g.edge_u, g.edge_v]))
    n_star = sum(comb(int(d), r) for d in degrees)
    mean = sum(Fraction(p) * t for t, p in pmf.support.items())
    expect(mean == Fraction(n_star, c**r), f"exact mean {mean} != {n_star}/{c}^{r}")
    if law is not None:
        got = {t: p for t, p in pmf.support.items() if p}
        expect(got == law, "exact law differs from the brute-force convolution")


def check_limit_pmf(params: LimitLawParams):
    """Mass + deficit = 1, deficit < tail_eps, and mean and variance those of
    the law (the mean is sum(k * lambda_k))."""
    m1, m2 = ref.limit_raw_moments(params.r, params.thetas, params.lambdas, 2)
    expect_close(m1, sum(k * lam for k, lam in enumerate(params.lambdas, start=1)),
                 1e-12, "reference mean")

    def check(pmf):
        mass = math.fsum(float(p) for p in pmf.support.values())
        expect(abs(mass + float(pmf.deficit) - 1.0) <= 1e-12, f"mass {mass} + deficit != 1")
        expect(float(pmf.deficit) < TAIL_EPS, f"deficit {pmf.deficit} >= {TAIL_EPS}")
        mean = math.fsum(float(p) * t for t, p in pmf.support.items())
        var = math.fsum(float(p) * (t - mean) ** 2 for t, p in pmf.support.items())
        expect_close(mean, m1, 1e-7, "limit mean")
        expect_close(var, m2 - m1 * m1, 1e-6, "limit variance")
    return check


def check_limit_moments(params: LimitLawParams, order: int):
    want = ref.limit_raw_moments(params.r, params.thetas, params.lambdas, order)

    def check(moments):
        expect(len(moments) == order, "moment count")
        for j, (got, w) in enumerate(zip(moments, want), start=1):
            expect(abs(got - w) <= 1e-9 * abs(w), f"moment {j}: got {got!r}, want {w!r}")
    return check


def _linear(r: int, *lambdas: float) -> LimitLawParams:
    return LimitLawParams(r=r, thetas=(), lambdas=lambdas)


# Fixed parameter battery, independent of the seed; every entry passes today.
LIMIT_PMF_BATTERY = {
    "figure2 kappa=1": figure2_params(1.0),
    "figure2 kappa=2": figure2_params(2.0),
    "star-union": LimitLawParams(r=2, thetas=(0.6, 0.3, 0.1), lambdas=(0.23, 0.0, 0.0)),
    "two atoms": LimitLawParams(r=2, thetas=(1.5, 0.8), lambdas=(2.0, 0.0, 0.3)),
    "r=3 rate 1.08": _linear(3, 1.08, 0.0, 0.0, 0.0),
    "triangles rate 1": _linear(2, 0.0, 0.0, 1.0),
    "rate 50": _linear(2, 50.0, 0.0, 0.0),
}
# limit_moments fails on every law with a theta atom, so only the linear ones.
LIMIT_MOMENTS_BATTERY = {label: LIMIT_PMF_BATTERY[label]
                         for label in ("r=3 rate 1.08", "triangles rate 1", "rate 50")}
# Known faults, counted as failed until mended; the checks are what they must
# pass then. (a) the Poisson recursion starts at exp(-740), a subnormal, and
# the pmf mass comes out 1.00008; (b) the fourth moment stalls at the float
# floor of the tail_eps ladder.
FAULT_RATE_740 = _linear(2, 740.0, 0.0, 0.0)
FAULT_FIGURE2_MOMENTS = figure2_params(1.0)


def exact_structure(seed: int, small: bool, tracer, workdir: Path) -> Workload:
    """No Monte Carlo: graph building and edge-list I/O at 10^5-10^6 edges,
    class counts with and without enumeration, the exact oracle on a connected
    and a disconnected graph, and the limit engine."""
    path_n = 10_000 if small else 1_000_000
    er_n, er_p = (400, 0.05) if small else (4500, 0.01)
    kn = 12 if small else 60
    oracle_c = 3 if small else 5
    er_spec = f"er:{er_n}:{er_p}:seed={derive_seed(seed, 'er')}"
    edge_file = workdir / "er-edges.txt"
    w = Workload(ops=[])
    s = w.state

    def gen(key: str, text: str):
        s[key] = tracer.call("graphs.generate", generate, parse_generator(text))
        return s[key]

    def write_edges():
        def write():
            edge_file.write_text(edge_list_text(s["er"]))
        tracer.call("graphs.edge_list_write", write)

    def check_written(_):
        g = s["er"]
        want = "".join(f"{u} {v}\n" for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()))
        expect(edge_file.read_text() == want, "written edge list differs from the graph's edges")

    def parse_edges():
        def parse():
            with edge_file.open() as f:
                return parse_edge_list(f)
        return tracer.call("graphs.edge_list_parse", parse)

    def check_parsed(result):
        parsed, mapping = result
        g = s["er"]
        ids = np.unique(np.concatenate([g.edge_u, g.edge_v]))
        expect(list(mapping) == ids.tolist() and list(mapping.values()) == list(range(ids.size)),
               "id mapping is not the sorted compaction")
        dense = np.searchsorted(ids, g.edge_u), np.searchsorted(ids, g.edge_v)
        expect(parsed.vertex_count == ids.size and parsed.edge_count == g.edge_count and
               np.array_equal(parsed.edge_u, dense[0]) and
               np.array_equal(parsed.edge_v, dense[1]), "parsed edges differ from the written graph")

    def check_params(params):
        c = ref.complete_colors(kn)
        theta = (kn - 1) / c
        want = (0.0, 0.0, comb(kn, 3) / c**2)
        expect(all(abs(a - b) <= 1e-15 * max(b, 1.0) for a, b in zip(params.lambdas, want)),
               f"plug-in rates {params.lambdas} != {want}")
        expect(params.thetas == (theta,) * min(8, kn), f"atoms {params.thetas}")
        # lambda_1 = 0 is below the atoms' star mass: clamped to 0 and flagged
        expect(params.z1_rate == 0.0 and any("clamped" in f for f in params.flags),
               "coefficient-1 rate not clamped")

    def oracle(key: str, text: str, c: int):
        return tracer.call("oracle.exact_pmf", exact_pmf, gen(key, text), 2, c)

    tadpole_law = ref.brute_pmf(ref.TADPOLE31, 2, 3)
    copies_law = ref.convolve(ref.convolve(tadpole_law, tadpole_law), tadpole_law)

    w.ops += [
        Op(f"generate path:{path_n}", lambda: gen("path", f"path:{path_n}"),
           lambda g: check_path_graph(g, path_n)),
        Op(f"class_counts path:{path_n} r=2",
           lambda: tracer.call("stars.class_counts", class_counts, s.pop("path"), 2),
           check_classes(ref.path_shape(path_n))),
        Op(f"generate {er_spec}", lambda: gen("er", er_spec),
           lambda g: check_simple_graph(g, er_n, er_p)),
        Op("write edge list", write_edges, check_written),
        Op("parse edge list", parse_edges, check_parsed),
        Op(f"class_counts complete:{kn} r=3",
           lambda: tracer.call("stars.class_counts", class_counts,
                               gen("complete", f"complete:{kn}"), 3),
           check_classes(ref.complete_shape(kn, 3))),
        Op(f"params_from_graph complete:{kn} r=2",
           lambda: tracer.call("limits.params", params_from_graph, s.pop("complete"),
                               ref.complete_colors(kn), 2),
           check_params),
        Op(f"exact_pmf er:10:0.4:seed=2 c={oracle_c}",
           lambda: oracle("er10", "er:10:0.4:seed=2", oracle_c),
           lambda pmf: check_exact_law(pmf, None, s["er10"], 2, oracle_c)),
        Op("exact_pmf copies:3:tadpole31 c=3",
           lambda: oracle("copies", "copies:3:tadpole31", 3),
           lambda pmf: check_exact_law(pmf, copies_law, s["copies"], 2, 3)),
    ]
    for label, params in LIMIT_PMF_BATTERY.items():
        w.ops.append(Op(f"limit_pmf {label}",
                        lambda p=params: tracer.call("limits.limit_pmf", limit_pmf, p, TAIL_EPS),
                        check_limit_pmf(params)))
    for label, params in LIMIT_MOMENTS_BATTERY.items():
        w.ops.append(Op(f"limit_moments {label}",
                        lambda p=params: tracer.call("limits.limit_moments", limit_moments, p, 4),
                        check_limit_moments(params, 4)))
    w.ops += [
        Op("limit_pmf rate 740",
           lambda: tracer.call("limits.limit_pmf", limit_pmf, FAULT_RATE_740, TAIL_EPS),
           check_limit_pmf(FAULT_RATE_740), known_fault=True),
        Op("limit_moments figure2 kappa=1",
           lambda: tracer.call("limits.limit_moments", limit_moments, FAULT_FIGURE2_MOMENTS, 4),
           check_limit_moments(FAULT_FIGURE2_MOMENTS, 4), known_fault=True),
    ]
    return w


WORKLOADS = {
    "mc-sparse": mc_sparse,
    "mc-dense": mc_dense,
    "exact-structure": exact_structure,
}
