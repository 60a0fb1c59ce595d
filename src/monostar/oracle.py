"""Ground-truth distribution of T over set partitions, per component.

T depends on a coloring only through which vertices share a color: a set
partition of the vertices. A partition into k blocks arises from the
(c)_k = c(c-1)...(c-k+1) colorings that give its blocks distinct colors, so

    P(T = t) = sum_k N(t, k) (c)_k / c^n,

where N(t, k) counts the partitions with k blocks and value t. T is also a
sum over connected components, so its law is the convolution of the
component laws, and identical components (``graphs.component_groups``) need
one law and a convolution power, both in ``pmf``'s law algebra, taken onto
the law so far. A component without an r-star adds 0.

Each distinct component's partitions are restricted growth strings (Knuth,
TAOCP 7.2.1.5) with at most min(c, n) blocks, built in numpy by prefix,
about ``_CHUNK`` at a time, and scored by ``stars.eval_T_block``. The laws
are kept as integer counts of colorings and divided by c^n once.

The budget counts evaluations: the set partitions of each distinct
component, sum_{k <= min(c, n)} S(n, k) by the Stirling recurrence, plus the
word-weighted cells of each convolution step. A cell is one product of two
counts of colorings, which grow to c^n, so it is charged the product of their
sizes in 64-bit words.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .graphs import Graph, component_groups
from .pmf import Pmf, add_laws, power
from .stars import eval_T_block, star_table

__all__ = ["exact_pmf", "DEFAULT_ORACLE_BUDGET"]

DEFAULT_ORACLE_BUDGET = 10**8

_CHUNK = 1 << 16


def _refuse(cost: int, budget: int, at_least: bool = False):
    raise BudgetExceededError(
        f"exact_pmf needs {'at least ' if at_least else ''}{cost} evaluations, "
        f"budget is {budget}", cost=cost, budget=budget)


def _partition_count(n: int, blocks: int, cap: int) -> int:
    """sum_{k <= blocks} S(n, k) by S(m + 1, k) = k S(m, k) + S(m, k - 1).

    These sums only grow with m, so the count stops at the first row past
    ``cap``, whose sum is then a lower bound.
    """
    row = [1]  # S(m, k) for k = 0 .. min(m, blocks), from m = 0
    for _ in range(n):
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))][:blocks + 1]
        if sum(row) > cap:
            break
    return sum(row)


def _growth_strings(n: int, blocks: int):
    """Every restricted growth string of length n >= 1 with at most
    ``blocks`` blocks, in chunks of ``(strings, used)``: vertex-major
    ``strings[j, i]`` is vertex j's block in string i, and ``used[i]`` the
    string's block count.

    A prefix of length j with b blocks has ``ways[j][b]`` completions. A
    batch of prefixes with at most ``_CHUNK`` completions is completed as one
    chunk. A larger batch is extended by one symbol and split where its
    running count of completions passes a multiple of ``_CHUNK``, and each
    part is taken in turn, so memory stays flat at any n.
    """
    dtype = np.min_scalar_type(blocks - 1)
    ways = [[0] * (blocks + 2) for _ in range(n + 1)]
    ways[n][1:blocks + 1] = [1] * blocks
    for j in range(n - 1, 0, -1):
        for b in range(1, min(j, blocks) + 1):
            ways[j][b] = b * ways[j + 1][b] + ways[j + 1][b + 1]
    ways = [np.array(row, dtype=np.int64) for row in ways]

    def extend(strings, used):
        # a prefix with b blocks takes any of symbols 0 .. b, b only if b < blocks
        fan = np.minimum(used + 1, blocks)
        parent = np.repeat(np.arange(used.size), fan)
        symbol = np.arange(parent.size) - (np.cumsum(fan) - fan)[parent]
        longer = np.empty((strings.shape[0] + 1, parent.size), dtype=dtype)
        longer[:-1] = strings[:, parent]
        longer[-1] = symbol
        return longer, np.maximum(used[parent], symbol + 1)

    stack = [(np.zeros((1, 1), dtype=dtype), np.ones(1, dtype=np.int64))]
    while stack:
        strings, used = stack.pop()
        if ways[strings.shape[0]][used].sum() <= _CHUNK:
            while strings.shape[0] < n:
                strings, used = extend(strings, used)
            yield strings, used
            continue
        strings, used = extend(strings, used)
        w = ways[strings.shape[0]][used]
        cuts = np.flatnonzero(np.diff((np.cumsum(w) - w) // _CHUNK)) + 1
        stack += reversed(list(zip(np.split(strings, cuts, axis=1), np.split(used, cuts))))


def _partition_law(g: Graph, r: int, c: int) -> tuple:
    """The law ``(values, counts, 0)`` of T on g from its set partitions:
    each value with the number of its c^n colorings, as Python ints."""
    n = g.vertex_count
    blocks = min(c, n)
    falling = [c]  # falling[k - 1] = (c)_k
    for k in range(1, blocks):
        falling.append(falling[-1] * (c - k))
    table = star_table(g, r)
    counts: dict[int, np.ndarray] = {}
    for strings, used in _growth_strings(n, blocks):
        t_vals = eval_T_block(table, strings, g.edge_u, g.edge_v)
        values, which = np.unique(t_vals, return_inverse=True)
        by_blocks = np.bincount(which.ravel() * blocks + used - 1,
                                minlength=values.size * blocks).reshape(-1, blocks)
        for v, row in zip(values.tolist(), by_blocks):
            counts[v] = counts[v] + row if v in counts else row
    return (np.array(list(counts), dtype=object), np.array(
        [sum(count * f for count, f in zip(row.tolist(), falling)) for row in counts.values()],
        dtype=object), 0)


def exact_pmf(g: Graph, r: int, c: int, budget: int = DEFAULT_ORACLE_BUDGET) -> Pmf:
    """Exact rational pmf of T(g, r) under a uniform c-coloring: one law per
    distinct component, from its set partitions, convolved over the copies.
    See the module docstring for what ``budget`` counts."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    cap = max(budget, 1 << 64)  # past the budget a count is only reported; a bound will do
    shapes = [(shape, vertices.shape[0])
              for shape, vertices in component_groups(g, g.vertex_count, min_copies=1)
              if shape.max_degree() >= r]
    cost = 0
    for shape, _ in shapes:
        cost += _partition_count(shape.vertex_count, min(c, shape.vertex_count), cap)
        if cost > budget:
            _refuse(cost, budget, at_least=cost > cap)

    def words(m):  # 64-bit words of a count of the colorings of m vertices
        return m * c.bit_length() // 64 + 1

    def times(a, b):  # laws, each with its vertex count
        nonlocal cost
        cost += a[0][0].size * b[0][0].size * words(a[1]) * words(b[1])
        if cost > budget:
            _refuse(cost, budget, at_least=True)
        return add_laws(a[0], b[0]), a[1] + b[1]

    law = None
    for shape, copies in shapes:
        law = power((_partition_law(shape, r, c), shape.vertex_count), copies, times, law)
    (values, counts, _), vertices = law or (([0], [1], 0), 0)  # no r-star: T is 0
    total = c**vertices
    return Pmf({v: Fraction(k, total) for v, k in zip(values, counts)}, Fraction(0))
