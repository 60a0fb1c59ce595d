"""Uniform random colorings, fast monochromatic r-star evaluation, and a
reproducible Monte-Carlo engine.

T = sum over vertices of C(m_v, r), m_v = number of v's monochromatic edges,
so a sample only needs to know which edges match, and T is a sum of
independent terms over the connected components. ``monte_carlo`` builds one
``_Plan`` per call: explicit colors only for the 2-core, and one draw from
an exact law of (a, S) for every other part, each tree outside the 2-core
(``_TreeLaws``, on ``pmf``'s law algebra) and each copy of a small component
with identical copies (``oracle.exact_pmf``). A tree's edges match with
probability 1/c each, whatever the core's colors, so its whole effect on T
is a, whether its edge to the core matches, and S, the sum of C(h_v, r) over
its own vertices; a copy has a = 0 and S its T. Parts of one shape share one
law. One vertex-major kernel (``stars.eval_T_block``), also behind
``eval_T`` and the exact oracle, turns core colors into T per row: a scan of
the core edges in cache-sized slices finds the matched ones, and one
bincount over their ends and the parts' a hits gives m_v for every colored
vertex. A dense core whose non-edges are fewer cells takes the count route
instead: m_v is the number of core vertices that share v's color, less one
and less v's matched non-neighbors, so only the non-edges are scanned. The
parts' S are then added per row.

The samples are split into blocks of the plan's row count, and one Philox
stream is keyed per (seed, block); each block draws its core colors, then
per part law the positions of its non-trivial outcomes over rows x parts, by
the shared sampler ``graphs.bernoulli_positions``, and those outcomes by
inverse CDF. The block size depends on the graph and c alone, so the
sample-i draws depend only on (seed, i) and the merged histogram is
identical for any worker count. Workers are processes forked with os.fork,
each running a contiguous span of blocks and sending its histogram, or the
exception it raised, back through a pipe, capped at the usable CPUs and at
one per ``_MIN_SPAN_BLOCKS`` blocks; with fewer blocks, or without os.fork,
the call runs in the calling process. A graph with no group that is its own
2-core draws exactly the colors an explicit n-vertex sampler would.
"""
from __future__ import annotations

import os
import pickle
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .errors import BudgetExceededError, WorkerExitError
from .graphs import Graph, bernoulli_positions, build_graph, component_groups, pendant_trees
from .oracle import exact_pmf
from .pmf import CUT, Pmf, add_laws, merge_law, power, sum_laws
from .stars import count_stars, eval_T_block, star_table

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
_OUTCOME_CELLS = 12
_GROUP_COLORINGS = 1 << 16
# blocks per worker process at least: a fork costs about 0.8 ms in the parent
# and 2.7 ms round trip from a 55 MB parent, against 0.1-1.7 ms per block
_MIN_SPAN_BLOCKS = 4


@dataclass(frozen=True)
class Coloring:
    """Per-vertex integer colors in [0, c)."""

    colors: np.ndarray
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not np.issubdtype(self.colors.dtype, np.integer):
            raise ValueError(f"colors must be integers, got {self.colors.dtype}")
        if self.colors.size and (int(self.colors.min()) < 0 or int(self.colors.max()) >= self.c):
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


def _max_group_vertices(c: int, n: int) -> int:
    """Largest k with c^(k-1) <= ``_GROUP_COLORINGS``, but at most n, as no
    component is larger: the vertex count up to which identical components
    are grouped.

    It is not the cost of a law, which is at most B(k) set partitions (see
    ``oracle``), so larger components would be cheap too. It stays fixed
    because the groups decide which draws a block makes: a larger bound
    would change histograms.
    """
    k = 1
    while k < n and c**k <= _GROUP_COLORINGS:
        k += 1
    return k


def _times(a: tuple, b: tuple) -> tuple:
    """Product of two transfer matrices ``(offset, matrix, deficit)``, whose
    ``matrix[i, j, s]`` is the chance of top edge j and S = offset + s given
    bottom edge i; the S columns at either end are cut while their total
    mass stays at most ``CUT``."""
    (oa, ma, da), (ob, mb, db) = a, b
    out = np.zeros((2, 2, ma.shape[2] + mb.shape[2] - 1))
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                out[i, j] += np.convolve(ma[i, k], mb[k, j])
    mass = out.sum(axis=(0, 1))
    low = int(np.searchsorted(np.cumsum(mass), CUT / 2, side="right"))
    high = mass.size - int(np.searchsorted(np.cumsum(mass[::-1]), CUT / 2, side="right"))
    cut = float(mass[:low].sum() + mass[high:].sum())
    return oa + ob + low, out[:, :, low:high], da + db + cut


class _TreeLaws:
    """Exact laws of the trees of ``graphs.pendant_trees``, one per shape.

    Every tree edge matches with probability 1/c, independently of every
    other edge and of the core's colors, so a tree adds to T only through
    the pair (a, S): a whether the edge to its anchor matches, which adds
    one to the anchor's match count, and S the sum of C(h_v, r) over its own
    vertices. A law is a ``pmf`` law ``(values, probs, deficit)`` with value
    ``S * keys + key``: the key is a match count M or an edge's match e, and
    ``keys`` is a power of two above the maximum degree, so summing two
    values sums the keys and the S parts apart. A node's children are independent, so the
    law of (M, S) below it is the sum of its children's laws of (e, S), and
    identical children are one law raised to their count by squaring.
    ``close`` then adds C(M + e, r) for the node itself. A run of L
    degree-2 vertices is ``close`` applied L times: a power of the 2x2
    transfer matrix of one such vertex, taken by squaring with each entry a
    dense array over S (Flajolet & Sedgewick, *Analytic Combinatorics*,
    2009). Each step cuts at most ``pmf.CUT`` of its lightest mass and adds the
    deficits it uses, so a law's deficit bounds the mass it lost.
    """

    def __init__(self, table: np.ndarray, c: int, n_star: int):
        self.table = table
        self.keys = 1 << (table.size - 1).bit_length()
        # every value is at most n_star * keys + 1
        self.dtype = np.int64 if (n_star + 1) * self.keys <= 1 << 63 else object
        self.steps = table.astype(self.dtype) * self.keys
        self.hit = 1.0 / c

    def point(self) -> tuple:
        return np.zeros(1, dtype=self.dtype), np.ones(1), 0.0

    def close(self, law: tuple, keyed: bool = True) -> tuple:
        """Law of (e, S + C(M + e, r)) with e a fresh parent-edge match, from
        the law of (M, S); without ``keyed``, of S + C(M, r) alone."""
        m = (law[0] % self.keys).astype(np.intp)
        s = law[0] - m
        if not keyed:
            return merge_law(s + self.steps[m], law[1], law[2])
        return merge_law(np.concatenate([s + self.steps[m], s + self.steps[m + 1] + 1]),
                      np.concatenate([law[1] * (1 - self.hit), law[1] * self.hit]), law[2])

    def chain(self, law: tuple, length: int) -> tuple:
        """``close`` applied ``length`` times to a law of (e, S)."""
        if not length:
            return law
        step = np.zeros((2, 2, 3))
        for i in (0, 1):
            for j in (0, 1):
                step[i, j, int(self.table[i + j])] = self.hit if j else 1 - self.hit
        offset, matrix, deficit = power((0, step, 0.0), length, _times)
        key = law[0] % self.keys
        rows = []
        for i in (0, 1):
            j, s = np.nonzero(matrix[i])
            rows.append(((law[0][key == i] - i, law[1][key == i]),
                         ((offset + s).astype(self.dtype) * self.keys + j, matrix[i, j, s])))
        return sum_laws(rows, law[2] + deficit)

    def of(self, shapes: list, trees: list) -> list:
        """``(anchors, law)`` per tree kind: pendant trees by their top
        node's shape and run length, whole components by their root's shape
        (their a is always 0)."""
        below, above = [], {}  # per shape: law of (M, S), and of (e, S) if it has a parent

        def up(shape: int, length: int) -> tuple:
            if shape not in above:
                above[shape] = self.close(below[shape])
            return self.chain(above[shape], length)

        for children in shapes:
            law = self.point()
            for child, length, count in children:
                law = add_laws(law, power(up(child, length), count, add_laws))
            below.append(law)
        return [(anchors, up(shape, length) if length >= 0
                 else self.close(below[shape], keyed=False))
                for shape, length, anchors in trees]


@dataclass(frozen=True)
class _Plan:
    """What one ``monte_carlo`` call draws from, built once by ``_Plan.of``.

    Core edges close cycles, so their matches are dependent and core
    vertices get explicit colors, numbered 0 .. core_count - 1 in their
    original order. The rest is parts, each adding to T only through its
    (a, S) pair: each copy of a component with identical copies and at most
    ``_max_group_vertices(c, n)`` vertices, with a = 0 and S its T from
    ``exact_pmf`` of one copy, and each tree outside the core
    (``graphs.pendant_trees``), from its shape's law (see ``_TreeLaws``).
    Parts of one law are one entry ``(ends, p, cdf, a, s, deficit)``:
    ``ends`` holds each one's core end (-1 for a whole component), p = 1 -
    P(a = 0, S = 0) is the chance that a part draws a non-trivial outcome,
    and ``cdf``, ``a`` and ``s`` list those outcomes with their cumulative
    probabilities given that one is drawn. ``deficit`` bounds the mass the
    law's support cut off. A law that is always trivial is dropped. Per
    block, ``bernoulli_positions`` draws where the non-trivial outcomes fall
    over rows x parts, a uniform each picks its outcome, an outcome with
    a = 1 passes the key of its core end and row to the kernel's bincount,
    and S is added to its row with ``np.add.at``, exact in the table's
    dtype. A single pendant edge is the part whose one non-trivial outcome
    has a = 1, at p = 1/c.

    ``block`` rows make about ``_BLOCK_CELL_TARGET`` cells: a core color and
    both ends of a core edge are one cell each, an expected non-trivial
    outcome ``_OUTCOME_CELLS``. A core color holds a color byte and 8 bytes
    of m_v, which ``table[m_v]`` overwrites in place. The pairs are
    scanned in slices of ``stars._SCAN_CELLS`` cells, so their memory does
    not grow with the rows. An outcome holds about 100 bytes of int64
    position, row, part, uniform, index and key arrays.

    The kernel scans the core edges, or on the count route (``counted``) the
    core's non-edges, with the c colors counted per row (see
    ``stars.eval_T_block``). The count route is taken when its cells per row
    are fewer: non-edges + core vertices + c < core edges. It takes K60 at
    c = 185 and figure2's K45 core at c = 300, but not K(40,40) at c = 125,
    whose 1,560 non-edges make 1,765 cells against 1,600 edges. The route
    leaves ``block``, and so every draw, as it is.
    """

    c: int
    table: np.ndarray  # star_table: C(m, r) by match count m
    core_count: int
    pair_u: np.ndarray  # ends of the pairs the kernel scans: core edges, or non-edges if counted
    pair_v: np.ndarray
    counted: bool  # whether the kernel counts same-colored core vertices (the count route)
    parts: list  # (ends, p, cdf, a, s, deficit) per part
    block: int

    @classmethod
    def of(cls, g: Graph, r: int, c: int) -> "_Plan":
        table = star_table(g, r)
        tree_laws = _TreeLaws(table, c, count_stars(g, r))
        groups = component_groups(g, _max_group_vertices(c, g.vertex_count))
        laws = []  # (ends, law) per part law, as in ``parts``
        if groups:
            keep = np.ones(g.vertex_count, dtype=bool)
            for copy, vertices in groups:
                keep[vertices] = False
                law = exact_pmf(copy, r, c).support
                laws.append((np.full(vertices.shape[0], -1),
                             (np.array(list(law), dtype=tree_laws.dtype) * tree_laws.keys,
                              np.array([float(p) for p in law.values()]), 0.0)))
            local = np.cumsum(keep) - 1
            inside = keep[g.edge_u]
            g = build_graph(int(keep.sum()),
                            np.stack([local[g.edge_u[inside]], local[g.edge_v[inside]]], axis=1))
        core, shapes, kinds = pendant_trees(g)
        core_count = int(core.sum())
        local = np.cumsum(core) - 1
        in_core = core[g.edge_u] & core[g.edge_v]
        laws += [(np.where(anchors >= 0, local[anchors], -1), law)
                 for anchors, law in tree_laws.of(shapes, kinds)]
        parts, cells = [], core_count + 2 * int(in_core.sum())
        for ends, (values, probs, deficit) in laws:
            values, cdf = values[values != 0], np.cumsum(probs[values != 0])
            if cdf.size:
                p = min(float(cdf[-1]), 1.0)
                parts.append((ends, p, cdf / cdf[-1], (values % tree_laws.keys).astype(bool),
                              (values // tree_laws.keys).astype(table.dtype), deficit))
                cells += ceil(_OUTCOME_CELLS * ends.size * p)
        pair_u, pair_v = local[g.edge_u[in_core]], local[g.edge_v[in_core]]
        counted = core_count * (core_count - 1) // 2 - pair_u.size + core_count + c < pair_u.size
        if counted:
            adjacent = np.zeros((core_count, core_count), dtype=bool)
            adjacent[pair_u, pair_v] = True
            pair_u, pair_v = np.nonzero(np.triu(~adjacent, 1))
        return cls(c=c, table=table, core_count=core_count, pair_u=pair_u, pair_v=pair_v,
                   counted=counted, parts=parts,
                   block=max(1, min(_MAX_BLOCK_ROWS, _BLOCK_CELL_TARGET // max(cells, 1))))


def _run_blocks(plan: _Plan, seed: int, blocks, samples: int) -> Counter:
    counter: Counter = Counter()
    c, dtype = plan.c, _color_dtype(plan.c)
    for b in blocks:
        rows = min(plan.block, samples - b * plan.block)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        drawn = rng.integers(0, c, size=(rows, plan.core_count), dtype=dtype)
        colors = np.ascontiguousarray(drawn.T, dtype=np.min_scalar_type(c - 1))
        hits, part_rows, part_s = [np.empty(0, dtype=np.int64)], [], []
        for ends, p, cdf, a, s, _ in plan.parts:
            row, t = np.divmod(bernoulli_positions(rng, rows * ends.size, p), ends.size)
            k = np.searchsorted(cdf, rng.random(row.size), side="right")
            hit = a[k]
            hits.append(ends[t[hit]] * rows + row[hit])
            part_rows.append(row)
            part_s.append(s[k])
        t_vals = eval_T_block(plan.table, colors, plan.pair_u, plan.pair_v,
                              np.concatenate(hits), c if plan.counted else 0)
        if part_rows:
            np.add.at(t_vals, np.concatenate(part_rows), np.concatenate(part_s))
        values, reps = np.unique(t_vals, return_counts=True)
        for v, k in zip(values, reps):
            counter[int(v)] += int(k)
    return counter


def _spans(nblocks: int, workers: int) -> list[range]:
    """Block spans, one per process: no more than ``workers``, the usable CPUs
    or one per ``_MIN_SPAN_BLOCKS`` blocks, and one span without os.fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    count = min(workers, cpus or 1, nblocks // _MIN_SPAN_BLOCKS) if hasattr(os, "fork") else 1
    return [range(int(span[0]), int(span[-1]) + 1)
            for span in np.array_split(np.arange(nblocks), max(count, 1))]


def _run_spans(plan: _Plan, seed: int, spans: list[range], samples: int) -> Counter:
    """Histogram of every block: spans[0] here, each other span in a forked
    child. A child pickles its Counter, or the exception it raised, into a
    pipe and leaves by os._exit (status 1 if it could not write), so it never
    returns into the caller's frames or flushes the stdio it inherited. The
    ``finally`` kills and reaps every child not yet reaped."""
    children = []  # (pid, pipe) of each child not yet reaped
    try:
        for span in spans[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                try:
                    try:
                        result = _run_blocks(plan, seed, span, samples)
                    except BaseException as exc:
                        result = exc
                    with open(write, "wb") as pipe:
                        pickle.dump(result, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        counter = _run_blocks(plan, seed, spans[0], samples)
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise WorkerExitError(f"Monte-Carlo worker {pid} {how} without a result")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            counter.update(result)
        return counter
    finally:
        for pid, pipe in children:
            import signal  # only on this path: importing monostar should not load it

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def monte_carlo(g: Graph, r: int, c: int, samples: int, seed: int,
                workers: int = 1) -> EmpiricalDist:
    """Histogram of T over ``samples`` independent uniform colorings.

    Per-sample randomness is a fixed function of (seed, sample index), so the
    result is identical for any ``workers`` value. Workers are forked
    processes that split the blocks (``_spans``): no more than the usable
    CPUs, at least ``_MIN_SPAN_BLOCKS`` blocks each, and none at all when
    blocks are few or the platform has no os.fork, where the call runs in
    the calling process. A call costing more than ``DEFAULT_MC_BUDGET``
    vertex-colorings is refused.
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
    counter = _run_spans(plan, seed, _spans(-(-samples // plan.block), workers), samples)
    return EmpiricalDist(counts=dict(counter), total_samples=samples, seed=seed)
