"""Uniform random colorings, fast monochromatic r-star evaluation, and a
reproducible Monte-Carlo engine.

T = sum over vertices of C(m_v, r), m_v = number of v's monochromatic edges,
so a sample only needs to know which edges match, and T is a sum of
independent terms over the connected components. ``monte_carlo`` builds one
``_Plan`` per call, which draws each kind of term its cheapest exact way:
identical copies of a small component as one multinomial per group from
their exact law (``oracle.exact_pmf``), pendant-tree edges as Bernoulli(1/c)
matches via geometric skips, and explicit colors only for the 2-core of the
rest. One vertex-major kernel (``stars.eval_T_block``), also behind
``eval_T`` and the exact oracle, turns core colors and tree hits into T per
row: a scan of the core edges in cache-sized slices finds the matched ones,
and one bincount gives m_v for every colored vertex.

The samples are split into blocks of the plan's row count, and one Philox
stream is keyed per (seed, block); each block draws its core colors, then its
tree hits, then one multinomial per group. The block size depends on the
graph and c alone, so the sample-i draws depend only on (seed, i) and the
merged histogram is identical for any worker count. A graph with no group
that is its own 2-core draws exactly the colors an explicit n-vertex sampler
would.
"""
from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import log1p

import numpy as np

from .errors import BudgetExceededError
from .graphs import Graph, build_graph, component_groups, two_core
from .oracle import exact_pmf
from .pmf import Pmf
from .stars import eval_T_block, star_table

__all__ = [
    "Coloring",
    "EmpiricalDist",
    "eval_T",
    "monte_carlo",
    "empirical_moments",
    "DEFAULT_MC_BUDGET",
]

DEFAULT_MC_BUDGET = 10**11

_BLOCK_CELL_TARGET = 2_000_000
_MAX_BLOCK_ROWS = 4096
_TREE_HIT_CELLS = 64
_GROUP_COLORINGS = 1 << 16


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

    def to_pmf(self) -> Pmf:
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
    """Exact rational raw moments 1..order of the empirical measure: integer
    sums over the sample count, with no ``Pmf`` built."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return [Fraction(sum(k * v**j for v, k in d.counts.items()), d.total_samples)
            for j in range(1, order + 1)]


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


def _max_group_vertices(c: int, n: int) -> int:
    """Largest k with c^(k-1) <= ``_GROUP_COLORINGS`` (all n at c = 1): the
    vertex count up to which identical components are grouped.

    It is not the cost of a law, which is at most B(k) set partitions (see
    ``oracle``), so larger components would be cheap too. It stays fixed
    because the groups decide which draws a block makes: a larger bound
    would change histograms.
    """
    if c == 1:
        return n
    k = 1
    while c**k <= _GROUP_COLORINGS:
        k += 1
    return k


@dataclass(frozen=True)
class _Plan:
    """What one ``monte_carlo`` call draws from, built once by ``_Plan.of``.

    Each component with an identical copy and at most
    ``_max_group_vertices(c, n)`` vertices is grouped with its copies, and
    the group's law is ``exact_pmf`` of one copy: one evaluation per set
    partition of its vertices. A group's law is ``(copies, support, probs)``:
    each copy's T takes the ``support`` values (in the table's dtype) with
    ``probs``, so per row the numbers of copies at each value are one
    Multinomial(copies, probs) draw. A group whose T is always 0 gets no law.

    The rest is split at its 2-core. Core edges close cycles, so their
    matches are dependent and core vertices get explicit colors. A tree edge
    matches with probability 1/c independently of every other edge and of the
    core's colors (color each tree from its root outwards). Core vertices are
    numbered 0 .. core_count - 1 in their original order, tree vertices after
    them, so an end below ``core_count`` is a core vertex.

    ``block`` rows make about ``_BLOCK_CELL_TARGET`` cells: a core color and
    both ends of a core edge are one cell each, an expected tree hit
    ``_TREE_HIT_CELLS``. A core color holds a color byte and 8 bytes of m_v,
    which ``table[m_v]`` overwrites in place. The core edges are scanned in
    slices of ``stars._SCAN_CELLS`` cells, so their memory does not grow with
    the rows. A tree hit holds about 100 bytes of int64 row, end, key and sort
    arrays on the sparse route.
    """

    c: int
    table: np.ndarray  # star_table: C(m, r) by match count m
    laws: list  # (copies, support, probs) per group
    core_count: int
    core_u: np.ndarray  # endpoints of the core edges
    core_v: np.ndarray
    tree_ends: np.ndarray  # (2, tree edges): endpoints of the tree edges
    block: int

    @classmethod
    def of(cls, g: Graph, r: int, c: int) -> "_Plan":
        table = star_table(g, r)
        groups = component_groups(g, _max_group_vertices(c, g.vertex_count))
        laws = []
        if groups:
            keep = np.ones(g.vertex_count, dtype=bool)
            for copy, vertices in groups:
                keep[vertices] = False
                law = exact_pmf(copy, r, c).support
                if list(law) != [0]:
                    laws.append((vertices.shape[0], np.array(list(law), dtype=table.dtype),
                                 np.array([float(p) for p in law.values()])))
            local = np.cumsum(keep) - 1
            inside = keep[g.edge_u]
            g = build_graph(int(keep.sum()),
                            np.stack([local[g.edge_u[inside]], local[g.edge_v[inside]]], axis=1))
        core = two_core(g)
        core_count = int(core.sum())
        local = np.where(core, np.cumsum(core), core_count + np.cumsum(~core)) - 1
        u, v = local[g.edge_u], local[g.edge_v]
        in_core = core[g.edge_u] & core[g.edge_v]
        core_u, tree_ends = u[in_core], np.stack([u[~in_core], v[~in_core]])
        cells = core_count + 2 * core_u.size - (-_TREE_HIT_CELLS * tree_ends.shape[1] // c)
        return cls(c=c, table=table, laws=laws, core_count=core_count, core_u=core_u,
                   core_v=v[in_core], tree_ends=tree_ends,
                   block=max(1, min(_MAX_BLOCK_ROWS, _BLOCK_CELL_TARGET // max(cells, 1))))


def _run_blocks(plan: _Plan, seed: int, blocks, samples: int) -> Counter:
    counter: Counter = Counter()
    c, dtype = plan.c, _color_dtype(plan.c)
    tree_count = plan.tree_ends.shape[1]
    for b in blocks:
        rows = min(plan.block, samples - b * plan.block)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        drawn = rng.integers(0, c, size=(rows, plan.core_count), dtype=dtype)
        colors = np.ascontiguousarray(drawn.T, dtype=np.min_scalar_type(c - 1))
        hit_rows = hit_ends = None
        if tree_count:
            hit_rows, t = np.divmod(_bernoulli_positions(rng, rows * tree_count, 1.0 / c),
                                    tree_count)
            hit_ends = np.take(plan.tree_ends, t, axis=1)
        t_vals = eval_T_block(plan.table, colors, plan.core_u, plan.core_v, hit_rows, hit_ends)
        for copies, support, probs in plan.laws:
            t_vals = t_vals + rng.multinomial(copies, probs, size=rows) @ support
        values, reps = np.unique(t_vals, return_counts=True)
        for v, k in zip(values, reps):
            counter[int(v)] += int(k)
    return counter


def monte_carlo(g: Graph, r: int, c: int, samples: int, seed: int,
                workers: int = 1) -> EmpiricalDist:
    """Histogram of T over ``samples`` independent uniform colorings.

    Per-sample randomness is a fixed function of (seed, sample index), so the
    result is identical for any ``workers`` value; workers only split blocks.
    A call costing more than ``DEFAULT_MC_BUDGET`` vertex-colorings is refused.
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
    if cost > DEFAULT_MC_BUDGET:
        raise BudgetExceededError(f"monte_carlo cost {cost} vertex-colorings exceeds budget "
                                  f"{DEFAULT_MC_BUDGET}", cost=cost, budget=DEFAULT_MC_BUDGET)
    plan = _Plan.of(g, r, c)
    nblocks = -(-samples // plan.block)
    if workers == 1 or nblocks == 1:
        # not through a pool: a new thread starts on a fresh allocator arena;
        # figure2:300 at 1,200 samples took 53 ms in the calling thread and
        # 58 ms in a one-thread pool (medians of 8 processes, 2 vCPUs)
        counter = _run_blocks(plan, seed, range(nblocks), samples)
    else:
        spans = [span for span in np.array_split(np.arange(nblocks), workers) if span.size]
        counter = Counter()
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(_run_blocks, plan, seed, [int(b) for b in span], samples)
                       for span in spans]
            for fut in futures:
                counter.update(fut.result())
    return EmpiricalDist(counts=dict(counter), total_samples=samples, seed=seed)
