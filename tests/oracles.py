"""Independent brute-force reference implementations for the test suite.

Everything here enumerates explicitly (subsets, colorings) and never shares
code paths with the package kernels it checks.
"""
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from monostar.graphs import Graph, build_graph


def brute_count_stars(g: Graph, r: int) -> int:
    """Count (center, r-subset-of-neighbors) pairs by explicit enumeration."""
    total = 0
    for v in range(g.vertex_count):
        total += sum(1 for _ in combinations(g.adjacency[v], r))
    return total


def brute_eval_T(g: Graph, r: int, colors) -> int:
    """Test every (center, r-subset) pair for being monochromatic."""
    total = 0
    for v in range(g.vertex_count):
        cv = colors[v]
        for subset in combinations(g.adjacency[v], r):
            if all(colors[u] == cv for u in subset):
                total += 1
    return total


def brute_class_counts(g: Graph, r: int) -> tuple[int, ...]:
    """Classify every (r+1)-subset of V by its number of full-degree vertices."""
    lams = [0] * (r + 2)
    adj = [set(nb) for nb in g.adjacency]
    for subset in combinations(range(g.vertex_count), r + 1):
        sset = set(subset)
        k = sum(1 for v in subset if len(adj[v] & sset) == r)
        if k >= 1:
            lams[k] += 1
    return tuple(lams[1:])


def brute_exact_pmf(g: Graph, r: int, c: int) -> dict[int, Fraction]:
    """Distribution of T over all c^n colorings, no symmetry tricks."""
    n = g.vertex_count
    counts: dict[int, int] = {}
    for coloring in product(range(c), repeat=n):
        t = brute_eval_T(g, r, coloring)
        counts[t] = counts.get(t, 0) + 1
    total = c**n
    return {t: Fraction(k, total) for t, k in sorted(counts.items())}


def random_graph(rng: np.random.Generator, max_vertices: int, p: float | None = None) -> Graph:
    """Small Erdos-Renyi-style graph for randomized batteries."""
    n = int(rng.integers(0, max_vertices + 1))
    if p is None:
        p = float(rng.uniform(0.1, 0.9))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def with_pendant_trees(rng: np.random.Generator, core: Graph, extra: int) -> Graph:
    """``core`` plus ``extra`` new vertices, each joined by one edge to a
    uniformly chosen earlier vertex: random trees hanging off the graph."""
    n = core.vertex_count
    edges = list(zip(core.edge_u.tolist(), core.edge_v.tolist()))
    for v in range(n, n + extra):
        if v:
            edges.append((int(rng.integers(0, v)), v))
    return build_graph(n + extra, edges)


def brute_two_core(g: Graph) -> set[int]:
    """Vertices left after deleting a minimum-degree vertex while that degree is <= 1."""
    alive = set(range(g.vertex_count))
    degree = {v: len(g.adjacency[v]) for v in alive}
    while alive:
        v = min(alive, key=degree.__getitem__)
        if degree[v] > 1:
            break
        alive.remove(v)
        for u in g.adjacency[v]:
            if u in alive:
                degree[u] -= 1
    return alive


def own_core_block_rows(g: Graph) -> int:
    """Rows per Philox block that the sampler uses on a graph that is its own
    2-core: about 2e6 cells of n + 2E each, at most 4096."""
    return max(1, min(4096, 2_000_000 // max(g.vertex_count + 2 * g.edge_count, 1)))


def reference_monte_carlo(g: Graph, r: int, c: int, samples: int, seed: int,
                          block: int) -> dict[int, int]:
    """Histogram of T drawing every vertex's color from the stream keyed by
    (seed, block index), ``block`` rows at a time, each row scored by
    brute_eval_T. Colors are uint16 as in the sampler, so c <= 2**16."""
    counts: dict[int, int] = {}
    for b, start in enumerate(range(0, samples, block)):
        rows = min(block, samples - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        for colors in rng.integers(0, c, size=(rows, g.vertex_count), dtype=np.uint16):
            t = brute_eval_T(g, r, colors)
            counts[t] = counts.get(t, 0) + 1
    return counts
