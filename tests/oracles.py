"""Independent brute-force reference implementations for the test suite.

Everything here enumerates explicitly (subsets, colorings) and never shares
code paths with the package kernels it checks. ``coloring_exact_pmf`` checks
the oracle's partitions and components, not its kernel: it scores colorings
with ``eval_T_block``, which is checked against ``brute_eval_T`` on its own.
"""
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from monostar.errors import EdgeListParseError
from monostar.graphs import Graph, build_graph
from monostar.pmf import Pmf
from monostar.stars import StarClassCounts, count_stars, eval_T_block, star_table

_COLORING_CHUNK = 1 << 16


def brute_adjacency(g: Graph) -> list[set[int]]:
    """Neighbor sets built from the flat edge arrays in plain Python."""
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_count_stars(g: Graph, r: int) -> int:
    """Count (center, r-subset-of-neighbors) pairs by explicit enumeration."""
    return sum(sum(1 for _ in combinations(nb, r)) for nb in brute_adjacency(g))


def brute_eval_T(g: Graph, r: int, colors) -> int:
    """Test every (center, r-subset) pair for being monochromatic."""
    return _brute_eval_T(brute_adjacency(g), r, colors)


def _brute_eval_T(adj: list[set[int]], r: int, colors) -> int:
    total = 0
    for v, nb in enumerate(adj):
        cv = colors[v]
        for subset in combinations(nb, r):
            if all(colors[u] == cv for u in subset):
                total += 1
    return total


def brute_class_counts(g: Graph, r: int) -> tuple[int, ...]:
    """Classify every (r+1)-subset of V by its number of full-degree vertices."""
    lams = [0] * (r + 2)
    adj = brute_adjacency(g)
    for subset in combinations(range(g.vertex_count), r + 1):
        sset = set(subset)
        k = sum(1 for v in subset if len(adj[v] & sset) == r)
        if k >= 1:
            lams[k] += 1
    return tuple(lams[1:])


def brute_triangles(adj: list[set[int]]) -> tuple[np.ndarray, int]:
    """Triangle membership of each vertex and the triangle count, from
    neighbor sets: each triangle a < b < c is found once, at its edge (a, b),
    as a common neighbor c > b."""
    in_triangle = np.zeros(len(adj), dtype=bool)
    count = 0
    for a, nb in enumerate(adj):
        for b in nb:
            if b > a:
                for c in adj[a] & adj[b]:
                    if c > b:
                        in_triangle[[a, b, c]] = True
                        count += 1
    return in_triangle, count


def enumerate_class_counts(g: Graph, r: int) -> StarClassCounts:
    """Class counts by enumerating the r-subsets of each triangle vertex's
    neighborhood: a reference for ``class_counts`` on graphs too large for
    ``brute_class_counts``. It shares only the star count with the package,
    which is checked on its own; the triangle mask is ``brute_triangles``.

    A subset S = {v} union U (U inside the neighborhood of v) has k(S) = 1 +
    #{u in U adjacent to all of U \\ {u}}, and every full-degree vertex of S
    discovers S once, so accumulating weight 1/k(S) per discovery counts each
    subset exactly once. A center in no triangle has no full-degree leaf and
    contributes C(d_v, r) class-1 subsets in closed form.
    """
    n_star = count_stars(g, r)
    lams = [0] * (r + 2)
    if r == 1:
        lams[2] = g.edge_count
        return StarClassCounts(r=r, n_star=n_star, class_counts=tuple(lams[1:]))
    adj = brute_adjacency(g)
    in_triangle, _ = brute_triangles(adj)
    free = np.bincount(g.degrees[~in_triangle])
    lam1_direct = sum(math.comb(d, r) * int(free[d]) for d in range(r, free.size))
    discoveries = [0] * (r + 2)  # index k: discoveries of subsets with k centers
    triangle_vertices = np.flatnonzero(in_triangle).tolist()
    adjacency = {v: sorted(adj[v]) for v in triangle_vertices}
    # a neighbor in no triangle shares no neighbor with v, so it is never a
    # full-degree leaf and needs no set
    adj_sets = {v: set(nb) for v, nb in adjacency.items()}
    for v in triangle_vertices:
        nb = adjacency[v]
        if len(nb) < r:
            continue
        nb_set = adj_sets[v]
        # Candidate full-degree leaves: need >= r-1 neighbors inside nb.
        local: dict[int, set[int]] = {}
        for u in nb:
            u_set = adj_sets.get(u)
            if u_set is None:
                continue
            common = u_set & nb_set
            if len(common) >= r - 1:
                local[u] = common
        if not local:
            lam1_direct += math.comb(len(nb), r)
            continue
        for subset in combinations(nb, r):
            k = 1
            for u in subset:
                commons = local.get(u)
                if commons is None:
                    continue
                for w in subset:
                    if w != u and w not in commons:
                        break
                else:
                    k += 1
            discoveries[k] += 1
    lams[1] = lam1_direct + discoveries[1]
    for k in range(2, r + 2):
        lam_k = Fraction(discoveries[k], k)
        if lam_k.denominator != 1:
            raise AssertionError(f"non-integral class count at k={k}: {lam_k}")
        lams[k] = int(lam_k)
    return StarClassCounts(r=r, n_star=n_star, class_counts=tuple(lams[1:]))


def brute_clique_pair_counts(g: Graph, r: int) -> list[int]:
    """N_1..N_{r+1} straight from their clique definition: over every j-subset
    J of V that is a clique, C(|vertices adjacent to all of J|, r+1-j)."""
    adj = brute_adjacency(g)
    out = []
    for j in range(1, r + 2):
        total = 0
        for subset in combinations(range(g.vertex_count), j):
            if all(b in adj[a] for a, b in combinations(subset, 2)):
                common = set.intersection(*(adj[v] for v in subset))
                total += math.comb(len(common), r + 1 - j)
        out.append(total)
    return out


def brute_exact_pmf(g: Graph, r: int, c: int) -> dict[int, Fraction]:
    """Distribution of T over all c^n colorings, no symmetry tricks."""
    n = g.vertex_count
    adj = brute_adjacency(g)
    counts: dict[int, int] = {}
    for coloring in product(range(c), repeat=n):
        t = _brute_eval_T(adj, r, coloring)
        counts[t] = counts.get(t, 0) + 1
    total = c**n
    return {t: Fraction(k, total) for t, k in sorted(counts.items())}


def brute_pendant_pmf(tree: Graph, r: int, c: int) -> dict[tuple[int, int], Fraction]:
    """Joint law of (a, S) for ``tree`` hung by its vertex 0 off one more
    vertex, the anchor: a is 1 when the edge to the anchor matches, and S sums
    C(h_v, r) over the tree's vertices, h_0 counting that edge. The anchor's
    color is pinned to 0, as the law is invariant under color permutations,
    and all c^n colorings of the tree are enumerated."""
    adj = brute_adjacency(tree)
    counts: dict[tuple[int, int], int] = {}
    for coloring in product(range(c), repeat=tree.vertex_count):
        a = int(coloring[0] == 0)
        s = 0
        for v, nb in enumerate(adj):
            h = sum(coloring[u] == coloring[v] for u in nb) + (a if v == 0 else 0)
            s += math.comb(h, r)
        counts[(a, s)] = counts.get((a, s), 0) + 1
    total = c**tree.vertex_count
    return {key: Fraction(k, total) for key, k in sorted(counts.items())}


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
    """Vertices left after deleting vertices of degree <= 1 one at a time,
    from a worklist of adjacency sets, until none is left."""
    adj = brute_adjacency(g)
    pending = [v for v in range(g.vertex_count) if len(adj[v]) <= 1]
    while pending:
        v = pending.pop()
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) == 1:
                pending.append(u)
        adj[v] = None
    return {v for v in range(g.vertex_count) if adj[v] is not None}


def brute_components(g: Graph) -> list[int]:
    """Each vertex's component label, the smallest vertex of its component,
    by breadth-first search from the vertices in increasing order."""
    adj = brute_adjacency(g)
    label = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if label[root] >= 0:
            continue
        label[root] = root
        queue = [root]
        for v in queue:
            for u in adj[v]:
                if label[u] < 0:
                    label[u] = root
                    queue.append(u)
    return label


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each part's vertices numbered after the
    previous part's."""
    edges, base = [], 0
    for g in parts:
        edges += [(base + u, base + v) for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())]
        base += g.vertex_count
    return build_graph(base, edges)


def own_core_block_rows(g: Graph) -> int:
    """Rows per Philox block that the sampler uses on a graph that is its own
    2-core: about 2e6 cells of n + 2E each, at most 4096."""
    return max(1, min(4096, 2_000_000 // max(g.vertex_count + 2 * g.edge_count, 1)))


def reference_monte_carlo(g: Graph, r: int, c: int, samples: int, seed: int,
                          block: int) -> dict[int, int]:
    """Histogram of T drawing every vertex's color from the stream keyed by
    (seed, block index), ``block`` rows at a time, each row scored by
    brute_eval_T. Colors are drawn as uint16 up to c = 2**16 and as uint32
    above, as in the sampler, so c <= 2**32."""
    adj = brute_adjacency(g)
    dtype = np.uint16 if c <= 1 << 16 else np.uint32
    counts: dict[int, int] = {}
    for b, start in enumerate(range(0, samples, block)):
        rows = min(block, samples - start)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        for colors in rng.integers(0, c, size=(rows, g.vertex_count), dtype=dtype):
            t = _brute_eval_T(adj, r, colors)
            counts[t] = counts.get(t, 0) + 1
    return counts


def reference_erdos_renyi_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) edges as the successes among the candidate pairs (u, u+1 ..
    n-1), rows in order: one geometric gap per scalar ``standard_exponential``
    draw from the generator's Philox stream, with the generator's float ops
    per gap, and each position mapped to (u, v) by walking the rows."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0x4752415048], dtype=np.uint64)))
    if p == 0:
        return []
    scale = -1.0 / math.log1p(-p) if p < 1 else 0.0
    length = n * (n - 1) // 2
    edges, u, row_start, pos = [], 0, 0, -1
    while True:
        pos += int(min(rng.standard_exponential() * scale, float(length))) + 1
        if pos >= length:
            return edges
        while pos >= row_start + n - 1 - u:  # past row u's last pair
            row_start += n - 1 - u
            u += 1
        edges.append((u, u + 1 + pos - row_start))


def reference_parse_edge_list(text: str) -> tuple[Graph, dict[int, int]]:
    """Edge-list text read one line at a time by ``int()``, compacted to
    dense ids in sorted order: the whole parser before it gained a C reader,
    kept as it was."""
    ends: list[int] = []
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected two vertex ids, got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"vertex ids must be integers, got {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, f"vertex ids must be non-negative, got {raw.strip()!r}")
        if u == v:
            raise EdgeListParseError(lineno, f"self-loop at vertex {u} rejected")
        ends += (u, v)
    try:
        ids = np.array(ends, dtype=np.int64)
    except OverflowError:
        ids = np.array(ends, dtype=object)
    ids, dense = np.unique(ids, return_inverse=True)
    mapping = dict(zip(ids.tolist(), range(ids.size)))
    return build_graph(ids.size, dense.reshape(-1, 2)), mapping


def brute_limit_moments(r: int, thetas, rates, order: int, terms: int = 400) -> list[float]:
    """Raw moments 1..order of sum_v C(T_v, r) + sum_k k * Z_k (T_v ~
    Poisson(theta_v), Z_k ~ Poisson(rates[k-1])): each part by a direct fsum
    over t < ``terms`` with lgamma Poisson weights, the parts combined by the
    binomial expansion of (X + Y)^n."""
    def part(rate, value):
        if rate == 0:
            return [1.0] + [float(value(0)) ** j for j in range(1, order + 1)]
        weights = [math.exp(t * math.log(rate) - rate - math.lgamma(t + 1))
                   for t in range(terms)]
        return [math.fsum(w * float(value(t)) ** j for t, w in enumerate(weights))
                for j in range(order + 1)]

    parts = [part(theta, lambda t: math.comb(t, r)) for theta in thetas]
    parts += [part(rate, lambda t, k=k: k * t) for k, rate in enumerate(rates, start=1)]
    total = [1.0] + [0.0] * order
    for moments in parts:
        total = [math.fsum(math.comb(n, i) * total[i] * moments[n - i] for i in range(n + 1))
                 for n in range(order + 1)]
    return total[1:]



def _decode_colorings(codes: np.ndarray, n: int, c: int) -> np.ndarray:
    """Mixed-radix decode into vertex-major colors: ``colors[j, i]`` is digit
    j-1 of ``codes[i]`` in base c for j >= 1, and vertex 0 keeps color 0."""
    colors = np.zeros((n, codes.size), dtype=np.min_scalar_type(c - 1))
    q = codes.copy()
    for j in range(1, n):
        colors[j] = q % c
        q //= c
    return colors


def coloring_exact_pmf(g: Graph, r: int, c: int) -> Pmf:
    """Exact rational pmf of T by complete enumeration of colorings.

    The law is invariant under global color permutation, so vertex 0's color
    is pinned and only the c^(n-1) completions are enumerated; each carries
    probability exactly c^-(n-1). ``_COLORING_CHUNK`` completions at a time
    are decoded and scored by ``eval_T_block``. The reference for the set
    partitions and components of ``oracle.exact_pmf``.
    """
    n = g.vertex_count
    total = c ** max(n - 1, 0)
    table = star_table(g, r)
    counts: dict[int, int] = {}
    for start in range(0, total, _COLORING_CHUNK):
        stop = min(start + _COLORING_CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        t_vals = eval_T_block(table, _decode_colorings(idx, n, c), g.edge_u, g.edge_v)
        values, reps = np.unique(t_vals, return_counts=True)
        for v, k in zip(values.tolist(), reps.tolist()):
            counts[v] = counts.get(v, 0) + k
    return Pmf({v: Fraction(k, total) for v, k in counts.items()}, Fraction(0))
