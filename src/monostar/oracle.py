"""Ground-truth distribution of T by complete enumeration of colorings.

The distribution of T is invariant under global color permutation, so vertex
0's color is pinned and only the c^(n-1) completions are enumerated; each then
carries probability exactly c^-(n-1).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .coloring import eval_T_block, star_table
from .errors import BudgetExceededError
from .graphs import Graph
from .pmf import Pmf

__all__ = ["exact_pmf", "DEFAULT_ORACLE_BUDGET"]

DEFAULT_ORACLE_BUDGET = 10**8

_CHUNK = 1 << 16


def _decode_colorings(codes: np.ndarray, n: int, c: int) -> np.ndarray:
    """Mixed-radix decode into vertex-major colors: ``colors[j, i]`` is digit
    j-1 of ``codes[i]`` in base c for j >= 1, and vertex 0 keeps color 0."""
    colors = np.zeros((n, codes.size), dtype=np.min_scalar_type(c - 1))
    q = codes.copy()
    for j in range(1, n):
        colors[j] = q % c
        q //= c
    return colors


def exact_pmf(g: Graph, r: int, c: int, budget: int = DEFAULT_ORACLE_BUDGET) -> Pmf:
    """Exact rational pmf of T(g, r) under a uniform c-coloring; ``_CHUNK``
    completions at a time are decoded and scored by ``eval_T_block``."""
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
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        t_vals = eval_T_block(table, _decode_colorings(idx, n, c), g.edge_u, g.edge_v)
        values, reps = np.unique(t_vals, return_counts=True)
        for v, k in zip(values.tolist(), reps.tolist()):
            counts[v] = counts.get(v, 0) + k
    return Pmf({v: Fraction(k, total) for v, k in counts.items()}, Fraction(0))
