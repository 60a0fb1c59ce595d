"""Uniform random colorings, fast monochromatic r-star evaluation, and a
reproducible Monte-Carlo engine.

T = sum over vertices of C(m_v, r), m_v = number of v's monochromatic edges,
so a sample only needs to know which edges match. The engine peels the graph
to its 2-core once per call. Core vertices get explicit colors and core edges
are compared. The edges of the pendant trees hanging off the core match
independently with probability 1/c, whatever the core's colors, so their
matches are drawn directly as Bernoulli(1/c) positions via geometric skips.
One vertex-major kernel (``eval_T_block``), also behind ``eval_T`` and the
exact oracle, turns both into T per row: one flat scan finds the matched core
edges and one bincount gives m_v for every colored vertex.

The samples are split into fixed-size blocks, and one Philox stream is
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
    "eval_T_block",
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


def eval_T_block(table: np.ndarray, colors: np.ndarray, edge_u: np.ndarray,
                 edge_v: np.ndarray, hit_rows: np.ndarray | None = None,
                 hit_ends: np.ndarray | None = None) -> np.ndarray:
    """T of each of ``rows`` colorings, from vertex-major colors.

    ``colors[j, i]`` is vertex j's color in row i, for k colored vertices, and
    the edges ``(edge_u[i], edge_v[i])`` join colored vertices. Each pair of
    ``hit_ends`` and ``hit_rows`` (broadcast together) adds one match at that
    vertex in that row, for an edge known to match without colors; ends k and
    up are vertices without colors.

    One flat scan of the (edge, row) equality array finds the matched edges,
    and one bincount over the keys ``vertex * rows + row`` gives m_v for every
    colored vertex; hits at uncolored vertices are counted sparsely. A row's T
    sums ``table[m_v]`` (see ``star_table``), in the table's dtype.
    """
    k, rows = colors.shape
    e, row = np.divmod(np.flatnonzero(colors[edge_u] == colors[edge_v]), rows)
    m = np.bincount(np.concatenate([edge_u[e] * rows + row, edge_v[e] * rows + row]),
                    minlength=k * rows)
    if hit_ends is not None:
        # sorted, so the keys of colored vertices (below k * rows) come first
        keys, matches = np.unique(hit_ends * rows + hit_rows, return_counts=True)
        colored = np.searchsorted(keys, k * rows)
        m[keys[:colored]] += matches[:colored]
    out = table[m].reshape(k, rows).sum(axis=0)
    if hit_ends is not None:
        np.add.at(out, keys[colored:] % rows, table[matches[colored:]])
    return out


def eval_T(g: Graph, r: int, col: Coloring) -> int:
    if r < 1:
        raise ValueError("r must be >= 1")
    if col.colors.shape != (g.vertex_count,):
        raise ValueError("coloring does not match the graph")
    return int(eval_T_block(star_table(g, r), col.colors[:, None], g.edge_u, g.edge_v)[0])


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
    """A graph's edges split at its 2-core, on vertices numbered core-first.

    Core edges need explicit colors: they close cycles, so their matches are
    dependent. A pendant-tree edge matches with probability 1/c independently
    of every other edge and of the core's colors (color each tree from its
    root outwards), so tree matches are drawn directly. Core vertices are
    numbered 0 .. core_count - 1 in their original order, tree vertices after
    them, so an end below ``core_count`` is a core vertex.
    """

    core_count: int
    core_u: np.ndarray  # endpoints of the core edges
    core_v: np.ndarray
    tree_ends: np.ndarray  # (2, tree edges): endpoints of the tree edges

    @classmethod
    def of(cls, g: Graph) -> "_CoreTreeSplit":
        core = two_core(g)
        core_count = int(core.sum())
        local = np.where(core, np.cumsum(core), core_count + np.cumsum(~core)) - 1
        u, v = local[g.edge_u], local[g.edge_v]
        in_core = core[g.edge_u] & core[g.edge_v]
        return cls(core_count=core_count, core_u=u[in_core], core_v=v[in_core],
                   tree_ends=np.stack([u[~in_core], v[~in_core]]))

    def block_rows(self, c: int) -> int:
        """Rows per block: about ``_BLOCK_CELL_TARGET`` cells, counting a core
        color and both ends of a core edge as one cell each, and an expected
        tree hit as ``_TREE_HIT_CELLS``. A core cell costs a color byte and 16
        bytes of counts (its m_v and ``table[m_v]``); a tree hit costs about
        100 bytes of int64 row, end, key and sort arrays on the sparse route."""
        cells = (self.core_count + 2 * self.core_u.size
                 - (-_TREE_HIT_CELLS * self.tree_ends.shape[1] // c))
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


def _run_blocks(split: _CoreTreeSplit, table: np.ndarray, c: int, seed: int,
                block_span, block_size: int, samples: int) -> Counter:
    counter: Counter = Counter()
    dtype = _color_dtype(c)
    tree_count = split.tree_ends.shape[1]
    for b in block_span:
        rows = min(block_size, samples - b * block_size)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        drawn = rng.integers(0, c, size=(rows, split.core_count), dtype=dtype)
        colors = np.ascontiguousarray(drawn.T, dtype=np.min_scalar_type(c - 1))
        hit_rows = hit_ends = None
        if tree_count:
            hit_rows, t = np.divmod(_bernoulli_positions(rng, rows * tree_count, 1.0 / c),
                                    tree_count)
            hit_ends = np.take(split.tree_ends, t, axis=1)
        t_vals = eval_T_block(table, colors, split.core_u, split.core_v, hit_rows, hit_ends)
        values, reps = np.unique(t_vals, return_counts=True)
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
        counter = _run_blocks(split, table, c, seed, range(nblocks), block, samples)
    else:
        spans = [rng for rng in np.array_split(np.arange(nblocks), workers) if rng.size]
        counter = Counter()
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            futures = [
                pool.submit(_run_blocks, split, table, c, seed,
                            [int(b) for b in span], block, samples)
                for span in spans
            ]
            for fut in futures:
                counter.update(fut.result())
    return EmpiricalDist(counts=dict(counter), total_samples=samples, seed=seed)
