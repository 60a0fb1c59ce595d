"""Timing spans recorded around calls into monostar, and the per-layer
metrics derived from them.

Spans are kept in memory. Calls the benchmark makes itself are wrapped at the
call site; calls made inside ``run_experiment`` are caught by swapping the
public names that ``monostar.experiment`` imports for timed wrappers while a
traced round runs.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps

# Public names monostar.experiment imports, and the layer each belongs to.
EXPERIMENT_IMPORTS = {
    "generate": "graphs.generate",
    "count_stars": "stars.count_stars",
    "class_counts": "stars.class_counts",
    "params_from_graph": "limits.params",
    "limit_pmf": "limits.limit_pmf",
    "exact_pmf": "oracle.exact_pmf",
    "monte_carlo": "coloring.monte_carlo",
    "empirical_moments": "coloring.empirical_moments",
    "pmf_moments": "pmf.moments",
    "tv_distance": "pmf.tv_distance",
}


def _work(layer: str, args: tuple, result) -> dict:
    """Units of work a call did, read from its arguments and result."""
    if layer == "graphs.generate":
        return {"edges": result.edge_count}
    if layer == "stars.class_counts":
        return {"star_visits": result.n_star}
    if layer == "oracle.exact_pmf":
        g, _, c = args[:3]
        return {"colorings": c ** max(g.vertex_count - 1, 0)}
    if layer == "coloring.monte_carlo":
        g, samples = args[0], args[3]
        return {"samples": samples, "vertex_samples": samples * max(g.vertex_count, 1)}
    return {}


@dataclass
class Span:
    layer: str
    op: str
    start: float
    end: float
    parent: int | None
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one round; ``op`` labels every span it records."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, self.op, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.work = _work(layer, args, result)
        return result

    def wrap(self, layer: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return traced

    @contextmanager
    def intercept(self, module):
        """Swap the names in EXPERIMENT_IMPORTS on ``module`` for traced ones."""
        saved = {name: getattr(module, name) for name in EXPERIMENT_IMPORTS}
        try:
            for name, layer in EXPERIMENT_IMPORTS.items():
                setattr(module, name, self.wrap(layer, saved[name]))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)


class Untraced:
    """Same call interface as Tracer, recording nothing."""

    op = ""

    @staticmethod
    def call(layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def intercept(self, module):
        yield self


# ----------------------------------------------------------------------------
# Per-layer metrics of one round
# ----------------------------------------------------------------------------


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], pair: tuple[str, str] | None) -> dict[str, float]:
    """Per-layer figures of one round; a layer the round never called reads 0.

    ``pair`` names the ops run at workers=1 and workers=2 on the same spec.
    """
    seconds: dict[str, float] = {}
    work: dict[str, float] = {}
    for s in spans:
        seconds[s.layer] = seconds.get(s.layer, 0.0) + s.seconds
        for key, value in s.work.items():
            work[key] = work.get(key, 0) + value
    child_seconds = sum(s.seconds for s in spans
                        if s.parent is not None and spans[s.parent].layer == "experiment")

    def sec(layer):
        return seconds.get(layer, 0.0)

    scaling = 0.0
    if pair is not None:
        mc = {op: sum(s.seconds for s in spans
                      if s.layer == "coloring.monte_carlo" and s.op == op) for op in pair}
        scaling = _rate(mc[pair[0]], mc[pair[1]])
    return {
        "graphs.generate_s": sec("graphs.generate"),
        "graphs.edges_per_s": _rate(work.get("edges", 0), sec("graphs.generate")),
        "graphs.edge_list_write_s": sec("graphs.edge_list_write"),
        "graphs.edge_list_parse_s": sec("graphs.edge_list_parse"),
        "stars.class_counts_s": sec("stars.class_counts"),
        "stars.star_visits_per_s": _rate(work.get("star_visits", 0), sec("stars.class_counts")),
        "coloring.monte_carlo_s": sec("coloring.monte_carlo"),
        "coloring.ns_per_vertex_sample": 1e9 * _rate(sec("coloring.monte_carlo"),
                                                     work.get("vertex_samples", 0)),
        "coloring.samples_per_s": _rate(work.get("samples", 0), sec("coloring.monte_carlo")),
        "coloring.scaling_2w": scaling,
        "coloring.empirical_moments_s": sec("coloring.empirical_moments"),
        "oracle.exact_pmf_s": sec("oracle.exact_pmf"),
        "oracle.colorings_per_s": _rate(work.get("colorings", 0), sec("oracle.exact_pmf")),
        "limits.params_s": sec("limits.params"),
        "limits.limit_pmf_s": sec("limits.limit_pmf"),
        "limits.limit_moments_s": sec("limits.limit_moments"),
        "pmf.moments_s": sec("pmf.moments"),
        "pmf.tv_distance_s": sec("pmf.tv_distance"),
        "experiment.self_s": sec("experiment") - child_seconds,
    }


UNITS = {
    "graphs.generate_s": "s",
    "graphs.edges_per_s": "edges/s",
    "graphs.edge_list_write_s": "s",
    "graphs.edge_list_parse_s": "s",
    "stars.class_counts_s": "s",
    "stars.star_visits_per_s": "1/s",
    "coloring.monte_carlo_s": "s",
    "coloring.ns_per_vertex_sample": "ns",
    "coloring.samples_per_s": "1/s",
    "coloring.scaling_2w": "ratio",
    "coloring.empirical_moments_s": "s",
    "oracle.exact_pmf_s": "s",
    "oracle.colorings_per_s": "1/s",
    "limits.params_s": "s",
    "limits.limit_pmf_s": "s",
    "limits.limit_moments_s": "s",
    "pmf.moments_s": "s",
    "pmf.tv_distance_s": "s",
    "experiment.self_s": "s",
    "traced_wall_s": "s",
}


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
