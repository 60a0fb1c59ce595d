"""Ground-truth distribution of T by complete enumeration of colorings.

The distribution of T is invariant under global color permutation, so vertex
0's color is pinned and only the c^(n-1) completions are enumerated; each then
carries probability exactly c^-(n-1).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .coloring import eval_T_hits, star_table
from .errors import BudgetExceededError
from .graphs import Graph
from .pmf import Pmf

__all__ = ["exact_pmf", "DEFAULT_ORACLE_BUDGET"]

DEFAULT_ORACLE_BUDGET = 10**8

_CHUNK = 1 << 16


def _decode_colorings(indices: np.ndarray, n: int, c: int) -> np.ndarray:
    """Mixed-radix decode: column j >= 1 is digit j-1 of the index in base c."""
    colors = np.zeros((indices.size, n), dtype=np.min_scalar_type(c - 1))
    q = indices.copy()
    for j in range(1, n):
        colors[:, j] = q % c
        q //= c
    return colors


def exact_pmf(g: Graph, r: int, c: int, budget: int = DEFAULT_ORACLE_BUDGET,
              witnesses: bool = False):
    """Exact rational pmf of T(g, r) under a uniform c-coloring.

    With ``witnesses=True`` also returns, per support value, one explicit
    coloring achieving it.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    n = g.vertex_count
    total = c ** max(n - 1, 0)
    if total > budget:
        raise BudgetExceededError(
            f"exact_pmf needs {total} evaluations, budget is {budget}",
            cost=total,
            budget=budget,
        )
    table = star_table(g, r)
    counts: dict[int, int] = {}
    found: dict[int, tuple[int, ...]] = {}
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        colors = _decode_colorings(idx, n, c)
        hit_rows, hit_edges = np.nonzero(colors[:, g.edge_u] == colors[:, g.edge_v])
        t_vals = eval_T_hits(g, table, stop - start, hit_rows, hit_edges)
        values, first, reps = np.unique(t_vals, return_index=True, return_counts=True)
        for v, k, pos in zip(values, reps, first):
            v = int(v)
            counts[v] = counts.get(v, 0) + int(k)
            if witnesses and v not in found:
                found[v] = tuple(int(x) for x in colors[int(pos)])
    pmf = Pmf({v: Fraction(k, total) for v, k in counts.items()}, Fraction(0))
    if witnesses:
        return pmf, found
    return pmf
