"""Uniform random colorings, fast monochromatic r-star evaluation, and a
reproducible Monte-Carlo engine.

T = sum over vertices of C(m_v, r), m_v = number of v's monochromatic edges,
so a sample only needs to know which edges match. The engine peels the graph
to its 2-core once per call. Core vertices get explicit colors and core edges
are compared. The edges of the pendant trees hanging off the core match
independently with probability 1/c, whatever the core's colors, so their
matches are drawn directly as Bernoulli(1/c) positions via geometric skips.
One row kernel (``eval_T_hits``) turns both kinds of hit into T per row.

Sample indices are split into fixed-size blocks, and one Philox stream is
keyed per (seed, block). The block size depends on the graph and c alone, so
the sample-i draws depend only on (seed, i) and the merged histogram is
identical for any worker count. A graph that is its own 2-core draws exactly
the colors an explicit n-vertex sampler would.
"""
from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log1p

import numpy as np

from .errors import BudgetExceededError
from .graphs import Graph, two_core
from .stars import count_stars

__all__ = [
    "Coloring",
    "EmpiricalDist",
    "eval_T",
    "eval_T_hits",
    "star_table",
    "monte_carlo",
    "empirical_moments",
    "DEFAULT_MC_BUDGET",
]

DEFAULT_MC_BUDGET = 10**11

_BLOCK_CELL_TARGET = 2_000_000
_MAX_BLOCK_ROWS = 4096
_TREE_HIT_CELLS = 64


@dataclass(frozen=True)
class Coloring:
    """Per-vertex colors in [0, c)."""

    colors: np.ndarray
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.colors.size and int(self.colors.max()) >= self.c:
            raise ValueError("color out of range")


def _color_dtype(c: int):
    if c <= 1 << 16:
        return np.uint16
    if c <= 1 << 32:
        return np.uint32
    return np.uint64


def star_table(g: Graph, r: int) -> np.ndarray:
    """C(m, r) for m = 0 .. max degree: the share of T of a vertex with m
    matching neighbors.

    int64 when ``count_stars(g, r)`` fits: that is T with every edge
    monochromatic, so it bounds every row sum. Otherwise Python ints (object
    dtype), so sums stay exact at any size.
    """
    dtype = np.int64 if count_stars(g, r) < 1 << 63 else object
    return np.array([comb(m, r) for m in range(g.max_degree() + 1)], dtype=dtype)


def eval_T_hits(g: Graph, table: np.ndarray, rows: int, hit_rows: np.ndarray,
                hit_edges: np.ndarray) -> np.ndarray:
    """T of each of ``rows`` colorings of ``g``, given their monochromatic edges.

    Pair i says that edge ``hit_edges[i]`` (an index into ``g.edge_u`` /
    ``g.edge_v``) is monochromatic in row ``hit_rows[i]``; each edge appears at
    most once per row. Every hit adds a match at both endpoints; the unique
    (row, vertex) keys count m_v, and a row's T sums ``table[m_v]`` (see
    ``star_table``) over its keys. The result has the table's dtype.
    """
    out = np.zeros(rows, dtype=table.dtype)
    if hit_edges.size == 0:
        return out
    n = g.vertex_count
    base = hit_rows.astype(np.int64) * n
    keys, matches = np.unique(np.concatenate([base + g.edge_u[hit_edges],
                                              base + g.edge_v[hit_edges]]),
                              return_counts=True)
    np.add.at(out, keys // n, table[matches])
    return out


def eval_T(g: Graph, r: int, col: Coloring) -> int:
    if r < 1:
        raise ValueError("r must be >= 1")
    if col.colors.shape != (g.vertex_count,):
        raise ValueError("coloring does not match the graph")
    hits = np.flatnonzero(col.colors[g.edge_u] == col.colors[g.edge_v])
    return int(eval_T_hits(g, star_table(g, r), 1, np.zeros_like(hits), hits)[0])


@dataclass(frozen=True)
class EmpiricalDist:
    """Histogram of T over independent colorings."""

    counts: dict[int, int]
    total_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(sorted(self.counts.items())))
        if sum(self.counts.values()) != self.total_samples:
            raise ValueError("histogram mass does not match total_samples")
        if any(v < 0 for v in self.counts):
            raise ValueError("negative T value in histogram")

    def to_pmf(self):
        from .pmf import Pmf

        total = self.total_samples
        return Pmf({v: Fraction(k, total) for v, k in self.counts.items()}, Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.total_samples,
            "counts": {str(v): k for v, k in self.counts.items()},
        }

    def to_csv(self) -> str:
        lines = ["value,count"]
        lines.extend(f"{v},{k}" for v, k in self.counts.items())
        return "\n".join(lines) + "\n"


def empirical_moments(d: EmpiricalDist, order: int) -> list[Fraction]:
    """Exact rational raw moments 1..order of the empirical measure."""
    if order < 1:
        raise ValueError("order must be >= 1")
    out = []
    for j in range(1, order + 1):
        num = sum(k * v**j for v, k in d.counts.items())
        out.append(Fraction(num, d.total_samples))
    return out


@dataclass(frozen=True)
class _CoreTreeSplit:
    """A graph's edges split at its 2-core.

    Core edges need explicit colors: they close cycles, so their matches are
    dependent. A pendant-tree edge matches with probability 1/c independently
    of every other edge and of the core's colors (color each tree from its
    root outwards), so tree matches are drawn directly.
    """

    core_count: int
    core_u: np.ndarray  # core-local endpoints of the core edges
    core_v: np.ndarray
    core_edges: np.ndarray  # their indices in the graph's edge arrays
    tree_edges: np.ndarray

    @classmethod
    def of(cls, g: Graph) -> "_CoreTreeSplit":
        core = two_core(g)
        local = np.cumsum(core) - 1
        in_core = core[g.edge_u] & core[g.edge_v]
        core_edges = np.flatnonzero(in_core)
        return cls(core_count=int(core.sum()),
                   core_u=local[g.edge_u[core_edges]], core_v=local[g.edge_v[core_edges]],
                   core_edges=core_edges, tree_edges=np.flatnonzero(~in_core))

    def block_rows(self, c: int) -> int:
        """Rows per block: about ``_BLOCK_CELL_TARGET`` cells, counting a core
        color and both ends of a core edge as one cell each, and an expected
        tree hit as ``_TREE_HIT_CELLS``: the kernel's int64 row, edge, key and
        sort arrays take about 100 bytes per hit, a color cell a few."""
        cells = (self.core_count + 2 * self.core_edges.size
                 - (-_TREE_HIT_CELLS * self.tree_edges.size // c))
        return max(1, min(_MAX_BLOCK_ROWS, _BLOCK_CELL_TARGET // max(cells, 1)))


def _bernoulli_positions(rng: np.random.Generator, length: int, p: float) -> np.ndarray:
    """Sorted positions of the successes among ``length`` Bernoulli(p) trials,
    drawn as geometric gaps between successes (Batagelj & Brandes)."""
    # floor(Exp(1) / -log(1 - p)) is Geometric(p) failures before a success
    scale = -1.0 / log1p(-p) if p < 1 else 0.0
    chunks = []
    last = -1
    while True:
        mean = (length - 1 - last) * p
        draws = rng.standard_exponential(int(mean + 4 * mean**0.5) + 16)
        # clipping keeps the running sum in int64 for tiny p; a clipped gap
        # still lands past the end, as last >= -1
        gaps = np.minimum(draws * scale, length).astype(np.int64) + 1
        pos = last + np.cumsum(gaps)
        if pos[-1] >= length:
            chunks.append(pos[:np.searchsorted(pos, length)])
            return np.concatenate(chunks)
        chunks.append(pos)
        last = int(pos[-1])


def _run_blocks(g: Graph, split: _CoreTreeSplit, table: np.ndarray, c: int, seed: int,
                block_span, block_size: int, samples: int) -> Counter:
    counter: Counter = Counter()
    dtype = _color_dtype(c)
    tree_count = split.tree_edges.size
    for b in block_span:
        rows = min(block_size, samples - b * block_size)
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        colors = rng.integers(0, c, size=(rows, split.core_count), dtype=dtype)
        ri, ei = np.nonzero(colors[:, split.core_u] == colors[:, split.core_v])
        hit_rows, hit_edges = ri, split.core_edges[ei]
        if tree_count:
            pos = _bernoulli_positions(rng, rows * tree_count, 1.0 / c)
            hit_rows = np.concatenate([hit_rows, pos // tree_count])
            hit_edges = np.concatenate([hit_edges, split.tree_edges[pos % tree_count]])
        values, reps = np.unique(eval_T_hits(g, table, rows, hit_rows, hit_edges),
                                 return_counts=True)
        for v, k in zip(values, reps):
            counter[int(v)] += int(k)
    return counter


def monte_carlo(g: Graph, r: int, c: int, samples: int, seed: int,
                workers: int = 1, budget: int = DEFAULT_MC_BUDGET) -> EmpiricalDist:
    """Histogram of T over ``samples`` independent uniform colorings.

    Per-sample randomness is a fixed function of (seed, sample index), so the
    result is identical for any ``workers`` value; workers only split blocks.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cost = samples * max(g.vertex_count, 1)
    if cost > budget:
        raise BudgetExceededError(
            f"monte_carlo cost {cost} vertex-colorings exceeds budget {budget}",
            cost=cost,
            budget=budget,
        )
    table = star_table(g, r)
    split = _CoreTreeSplit.of(g)
    block = split.block_rows(c)
    nblocks = -(-samples // block)
    if workers == 1 or nblocks == 1:
        counter = _run_blocks(g, split, table, c, seed, range(nblocks), block, samples)
    else:
        spans = [rng for rng in np.array_split(np.arange(nblocks), workers) if rng.size]
        counter = Counter()
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            futures = [
                pool.submit(_run_blocks, g, split, table, c, seed,
                            [int(b) for b in span], block, samples)
                for span in spans
            ]
            for fut in futures:
                counter.update(fut.result())
    return EmpiricalDist(counts=dict(counter), total_samples=samples, seed=seed)
