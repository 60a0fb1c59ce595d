"""Exact combinatorial star statistics.

Counts r-stars and classifies the (r+1)-vertex subsets carrying them by the
number k of spanning-star centers.

A spanning r-star in an (r+1)-vertex induced subgraph is exactly a vertex of
full within-subset degree r, so "contains k spanning stars" is equivalent to
"has k full-degree vertices". The classifier counts by inclusion-exclusion
over cliques: any j full-degree vertices J of a subset S are pairwise
adjacent, and S is J plus r+1-j common neighbors of J. So the number N_j of
pairs (S, J) is the sum over j-cliques J of C(|common neighborhood of J|,
r+1-j), with N_1 the r-star count. Since N_j = sum_k C(k, j) Lambda_k,
binomial inversion gives Lambda_k = sum_{j>=k} (-1)^(j-k) C(j, k) N_j.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetExceededError
from .graphs import Graph

__all__ = ["StarClassCounts", "count_stars", "class_counts", "DEFAULT_CLASS_BUDGET"]

DEFAULT_CLASS_BUDGET = 10**9


def count_stars(g: Graph, r: int) -> int:
    """Number of r-stars: sum over vertices of C(degree, r). Exact big integer."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.vertex_count == 0:
        return 0
    values, counts = np.unique(g.degrees, return_counts=True)
    return sum(comb(int(d), r) * int(c) for d, c in zip(values, counts))


@dataclass(frozen=True)
class StarClassCounts:
    """r-star count and the class counts Lambda_1..Lambda_{r+1}.

    class_counts[k-1] is the number of (r+1)-vertex subsets whose induced
    subgraph contains a spanning r-star and has exactly k full-degree vertices.
    Always satisfies sum(k * Lambda_k) == n_star.
    """

    r: int
    n_star: int
    class_counts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n_star": str(self.n_star),
            "lambda_raw": [str(x) for x in self.class_counts],
        }


_WEDGE_CHUNK = 1 << 16


def _triangle_vertices(g: Graph) -> np.ndarray:
    """Boolean mask of the vertices that lie in a triangle.

    Each edge is oriented from its endpoint of lower (degree, id) rank, so
    every out-degree is at most sqrt(2E) (Chiba & Nishizeki). A triangle is
    then a wedge of two out-arcs at its lowest-ranked vertex whose far ends
    are adjacent: O(E^1.5) wedges, looked up among the sorted edge keys about
    ``_WEDGE_CHUNK`` at a time.
    """
    n = g.vertex_count
    in_triangle = np.zeros(n, dtype=bool)
    u, v = g.edge_u.astype(np.int64), g.edge_v.astype(np.int64)
    edge_keys = u * n + v  # sorted: the edges are in lexicographic order
    rank = g.degrees * n + np.arange(n)
    up = rank[u] < rank[v]
    arcs = np.sort(np.where(up, u, v) * n + np.where(up, v, u))
    source, target = arcs // n, arcs % n
    # arc i pairs with the arcs after it in its source's run
    out_degree = np.bincount(source, minlength=n)
    later = np.cumsum(out_degree)[source] - np.arange(arcs.size) - 1
    wedges_to = np.cumsum(later)
    start = 0
    while start < arcs.size:
        stop = int(np.searchsorted(wedges_to, wedges_to[start] - later[start] + _WEDGE_CHUNK,
                                   side="right"))
        stop = max(stop, start + 1)
        counts = later[start:stop]
        first = np.repeat(np.arange(start, stop), counts)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = target[first], target[second]
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        closed = edge_keys[np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)] == keys
        for ends in (source[first], a, b):
            in_triangle[ends[closed]] = True
        start = stop
    return in_triangle


def class_counts(g: Graph, r: int, budget: int = DEFAULT_CLASS_BUDGET) -> StarClassCounts:
    """Classify star-carrying (r+1)-subsets by their spanning-star count.

    Cost guard: refuses when the star count sum_v C(d_v, r) exceeds
    ``budget``. For r = 1 every star is an edge whose two ends are both
    full-degree. For r >= 2, Lambda comes from the clique sums N_j of the
    module docstring. Every member of a j-clique J (j >= 2) with a common
    neighbor, and every such neighbor, lies in a triangle, so the cliques grow
    in index order on the subgraph induced by the triangle vertices (Chiba &
    Nishizeki; Danisch, Balalau & Sozio, "Listing k-cliques in sparse
    real-world graphs", 2018). A clique stops growing once too few common
    neighbors are left for any extension to count. A later common neighbor
    adjacent to all the others is held out of the listing: it stays so for
    every larger clique, so each listed clique counts the cliques that add any
    a held vertices in closed form. Every other member past the first edge
    cuts off a distinct common neighbor of that edge, so below an edge with c
    common neighbors at most r C(c, r-1) cliques are listed, and at most
    r^2 n_star in all, whatever the labels. Growth ends at the r-cliques: each
    (r+1)-clique is an r-clique plus a common neighbor in r+1 ways, so
    N_{r+1} = N_r / (r+1).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n_star = count_stars(g, r)
    if n_star > budget:
        raise BudgetExceededError(
            f"class_counts needs {n_star} star visits, budget is {budget}",
            cost=n_star,
            budget=budget,
        )
    lams = [0] * (r + 2)
    if r == 1:
        lams[2] = g.edge_count
        return StarClassCounts(r=r, n_star=n_star, class_counts=tuple(lams[1:]))
    in_triangle = _triangle_vertices(g)
    tri = np.flatnonzero(in_triangle)
    inner = in_triangle[g.edge_u] & in_triangle[g.edge_v]
    # rows of the subgraph on the triangle vertices, relabelled in order
    rows: list[list[int]] = [[] for _ in range(tri.size)]
    for u, v in zip(np.searchsorted(tri, g.edge_u[inner]).tolist(),
                    np.searchsorted(tri, g.edge_v[inner]).tolist()):
        rows[u].append(v)
        rows[v].append(u)
    nbrs = [frozenset(row) for row in rows]
    pairs = [0, n_star] + [0] * r  # pairs[j] = N_j

    def grow(j: int, last: int, rest: frozenset, held: int) -> None:
        # a j-clique whose latest member is ``last``; its common neighborhood
        # is ``rest`` plus ``held`` vertices adjacent to all of it, which an
        # ancestor took out of the listing
        size = len(rest) + held
        if j == r or size <= r - j:
            pairs[j] += comb(size, r + 1 - j)
            return
        later = [(u, rest & nbrs[u]) for u in rest if u > last]
        joined = frozenset(u for u, c in later if len(c) == len(rest) - 1)
        held += len(joined)
        # a held vertex stays adjacent to every later common neighbor, so
        # adding any a of them leaves size - a common neighbors
        for a in range(min(held, r - j) + 1):
            pairs[j + a] += comb(held, a) * comb(size - a, r + 1 - j - a)
        for u, c in later:
            if u not in joined:
                grow(j + 1, u, c - joined, held)

    for v, row in enumerate(nbrs):
        for u in row:
            if u > v:
                grow(2, u, row & nbrs[u], 0)
    pairs[r + 1] = pairs[r] // (r + 1)
    for k in range(1, r + 2):
        lams[k] = sum((-1) ** (j - k) * comb(j, k) * pairs[j] for j in range(k, r + 2))
    result = StarClassCounts(r=r, n_star=n_star, class_counts=tuple(lams[1:]))
    if sum(k * lam for k, lam in enumerate(result.class_counts, start=1)) != n_star:
        raise AssertionError("class counts violate the star counting identity")
    return result
