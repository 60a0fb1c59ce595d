"""Immutable simple-graph container, deterministic generators, and edge-list I/O.

A graph is its edge list, sorted lexicographically with ``edge_u < edge_v``
and no duplicates, plus the vertex degrees. It is built by one key sort with
no per-vertex Python objects; the generators emit edge arrays. Vertices are
dense 0-based integers. Loaders compact arbitrary ids and report the mapping.
Graphs are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

import numpy as np

from .errors import EdgeListParseError

__all__ = [
    "Graph",
    "GeneratorSpec",
    "build_graph",
    "generate",
    "parse_generator",
    "generator_scale",
    "degree_sequence",
    "pendant_trees",
    "component_groups",
    "parse_edge_list",
    "edge_list_text",
    "star",
    "star_union",
    "complete",
    "complete_bipartite",
    "cycle",
    "path",
    "circulant",
    "tadpole31",
    "disjoint_copies",
    "figure2_composite",
    "erdos_renyi",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph as a sorted edge list plus degrees.

    Edge i joins ``edge_u[i] < edge_v[i]`` (int32); the pairs are distinct and
    sorted lexicographically, so there are no self-loops and no duplicates.
    ``degrees[v]`` (int64) counts the edges at v, and ``edge_count ==
    sum(degrees) / 2``. Every array is read-only. Build one with
    ``build_graph``.
    """

    vertex_count: int
    degrees: np.ndarray = field(repr=False)
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return self.edge_u.size

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.vertex_count else 0


def build_graph(vertex_count: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph from endpoint pairs: an (E, 2) array-like or an
    iterable of pairs.

    Duplicate edges (in either orientation) collapse; self-loops and
    out-of-range endpoints raise ValueError. Edges are deduplicated and
    ordered by one sort of the keys ``min * n + max``.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    if vertex_count > (1 << 31) - 1:
        raise ValueError(f"vertex_count {vertex_count} exceeds supported addressing")
    n = vertex_count
    try:
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64)
    except OverflowError:
        raise ValueError(f"edge endpoint out of range for {n} vertices") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be endpoint pairs, got shape {pairs.shape}")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        u, v = pairs[np.argmax(bad)].tolist()
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
    # np.sort plus a mask, not np.unique: plain np.unique takes a hash path
    # that is tens of times slower on int64 keys
    keys = np.sort(lo * n + hi)
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    edge_u = (keys // n).astype(np.int32)
    edge_v = (keys % n).astype(np.int32)
    degrees = (np.bincount(edge_u, minlength=n)
               + np.bincount(edge_v, minlength=n)).astype(np.int64, copy=False)
    for arr in (degrees, edge_u, edge_v):
        arr.flags.writeable = False
    return Graph(vertex_count=n, degrees=degrees, edge_u=edge_u, edge_v=edge_v)


def degree_sequence(g: Graph) -> list[int]:
    """Degrees arranged in non-increasing order."""
    return np.sort(g.degrees)[::-1].tolist()


def pendant_trees(g: Graph) -> tuple[np.ndarray, list[tuple], list[tuple]]:
    """The 2-core mask of g (what is left after repeatedly deleting vertices
    of degree <= 1) and the trees outside it, contracted and grouped by
    shape: ``(core, shapes, trees)``.

    Each tree either hangs off one core vertex, its anchor, by one edge, or
    is a whole component. Every run of degree-2 vertices (a component of
    the subgraph they span, labelled once by ``_labels``) is
    contracted into one edge that keeps the run's length. What is left are
    the vertices of other degrees (nodes), numbered by their own ids.
    Whole-array rounds of raking (Miller & Reif, 1985) then take every node
    with at most one edge left: that edge goes to its parent, a node with
    none is the root of a whole component, and of two nodes joined only to
    each other the larger goes first. This deletes what one-at-a-time
    peeling deletes, in another order, which does not change the 2-core. A
    core node keeps at least two edges, so it is never raked, and the core
    is the nodes never raked, the runs between two of them and the lone
    cycles. A graph with no vertex of degree <= 1 is its own 2-core.

    A node's shape is the multiset of its children's (shape, run length)
    pairs, the AHU canonical form of its subtree (Aho, Hopcroft & Ullman,
    1974). A node is raked one round after its last child, so equal shapes
    are raked in one round, and each round numbers its new shapes after all
    earlier ones, by ``_unique_rows`` over the sorted child rows. A round
    costs what it rakes, not the whole graph: each node keeps its degree
    and the XOR of its edges' numbers, which is its one edge once the others
    are gone. The children whose parent is never raked are the pendant
    trees.

    ``shapes[s]`` lists the ``(child shape, run length, count)`` of shape s,
    so children come first. ``trees`` holds one ``(shape, length, anchors)``
    per kind of tree: a pendant tree's top node has that shape and hangs off
    its anchor by a run of ``length`` vertices; a whole component has its
    root's shape, length -1 and anchor -1. Isolated vertices are in no tree.
    """
    n = g.vertex_count
    if not (g.degrees <= 1).any():
        return np.ones(n, dtype=bool), [], []
    u, v = g.edge_u, g.edge_v
    chain = g.degrees == 2
    in_run = chain[u] & chain[v]
    runs = _labels(n, u[in_run], v[in_run])
    # every edge with a node end, that end first; each run has two of them
    x, y = u[~in_run], v[~in_run]
    flip = chain[x]
    x, y = np.where(flip, y, x), np.where(flip, x, y)
    into_run = chain[y]
    run_of = runs[y[into_run]]
    order = np.argsort(run_of, kind="stable")
    run_ends = x[into_run][order].reshape(-1, 2)
    run = run_of[order][::2]
    ends = np.concatenate([x[~into_run], run_ends[:, 0],
                           y[~into_run], run_ends[:, 1]]).reshape(2, -1)
    length = np.concatenate([np.zeros(int((~into_run).sum()), dtype=np.int64),
                             np.bincount(runs, minlength=n)[run]])
    edge = np.arange(length.size)
    degree = g.degrees.copy()  # a node's contracted degree is its degree
    last = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(last, ends[0], edge)
    np.bitwise_xor.at(last, ends[1], edge)
    shape = np.full(n, -1, dtype=np.int64)
    marked = np.zeros(n, dtype=bool)
    shapes: list[tuple] = []
    child_parent = child_code = np.empty(0, dtype=np.int64)
    rows = []  # (shape, length, anchor) of every tree
    low = np.flatnonzero(g.degrees == 1)
    while low.size:
        # of two low nodes joined only to each other, the smaller waits a round
        single = degree[low] == 1
        other = np.where(single, ends[0, last[low]] ^ ends[1, last[low]] ^ low, low)
        marked[low] = True
        raked = low[~(single & marked[other] & (low < other))]
        marked[low] = False
        # the raked nodes' shapes, from their children's sorted codes
        marked[raked] = True
        mine = marked[child_parent]
        marked[raked] = False
        parent, code = child_parent[mine], child_code[mine]
        child_parent, child_code = child_parent[~mine], child_code[~mine]
        by = np.lexsort((code, parent))
        parent, code = parent[by], code[by]
        heads, counts = np.unique(parent, return_counts=True)
        children = np.zeros(raked.size, dtype=np.int64)
        children[np.searchsorted(raked, heads)] = counts
        per_code = np.repeat(counts, counts)
        for k in np.unique(children).tolist():
            nodes = raked[children == k]
            keys, inverse, _ = _unique_rows(code[per_code == k].reshape(nodes.size, k))
            shape[nodes] = len(shapes) + inverse
            for key in keys:
                pairs, repeats = np.unique(key, return_counts=True)
                shapes.append(tuple(zip((pairs // (n + 1)).tolist(), (pairs % (n + 1)).tolist(),
                                        repeats.tolist())))
        # each raked node's last edge goes to its parent
        node = raked[degree[raked] == 1]
        e = last[node]
        by = np.argsort(e)
        node, e = node[by], e[by]
        above = ends[0, e] ^ ends[1, e] ^ node
        child_parent = np.concatenate([child_parent, above])
        child_code = np.concatenate([child_code, shape[node] * (n + 1) + length[e]])
        roots = raked[degree[raked] == 0]
        rows.append(np.stack([shape[roots], np.full(roots.size, -1), np.full(roots.size, -1)]))
        np.subtract.at(degree, above, 1)
        np.bitwise_xor.at(last, above, e)
        low = np.unique(above[degree[above] <= 1])
    # a node has a shape once raked; an isolated vertex is in no tree and
    # not in the core
    hanging = np.zeros(n, dtype=bool)
    hanging[run] = (shape[run_ends[:, 0]] >= 0) | (shape[run_ends[:, 1]] >= 0)
    core = np.where(chain, ~hanging[runs], (shape < 0) & (g.degrees > 0))
    # the children left hang off the core, each by the run of its edge
    rows.append(np.stack([child_code // (n + 1), child_code % (n + 1), child_parent]))
    rows = np.concatenate(rows, axis=1)
    kinds, kind_of, counts = _unique_rows(rows[:2].T)
    groups = np.split(rows[2][np.argsort(kind_of, kind="stable")], np.cumsum(counts)[:-1])
    return core, shapes, [(s, k, group) for (s, k), group in zip(kinds.tolist(), groups)]


def _labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n vertices under the edges
    (u, v): the smallest vertex of its component (int32).

    Min-label hooking with pointer jumping. Each round hooks every root to
    the smallest root across an edge that still joins two trees, then jumps
    pointers until each vertex points at its root; a parent is always smaller
    than its child, so no cycle forms. A tree that neither hooks nor is
    hooked into in one round hooks in the next (its neighbor took a root
    no larger than its own), so each tree merges within two rounds and
    O(log n) rounds suffice.
    """
    label = np.arange(n, dtype=np.int32)
    while True:
        # np.take gathers about twice as fast as label[...] here
        lu, lv = np.take(label, u), np.take(label, v)
        cross = lu != lv
        if not cross.any():
            return label
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = np.take(label, label)
            if np.array_equal(up, label):
                break
            label = up


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in lexicographic order, each row's
    index among them, and their counts: ``np.unique(rows, axis=0,
    return_inverse=True, return_counts=True)`` with a 1-D inverse, by one
    ``lexsort`` and a compare of adjacent rows in place of a sort of rows as
    a structured dtype."""
    count, width = rows.shape
    # lexsort's last key is the primary one; rows of width 0 are all equal
    order = np.lexsort(rows.T[::-1]) if width else np.arange(count)
    ranked = rows[order]
    first = np.ones(count, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[starts], inverse, np.diff(starts, append=count)


def component_groups(g: Graph, max_vertices: int,
                     min_copies: int = 2) -> list[tuple[Graph, np.ndarray]]:
    """The components of at most ``max_vertices`` vertices that have at least
    ``min_copies`` identical copies (themselves included), grouped: one
    ``(copy, vertices)`` pair per group. ``copy`` is one of the components,
    each vertex numbered by its rank in it, and row i of ``vertices``
    (copies, copy.vertex_count) lists the i-th component's vertices in rank
    order. With ``min_copies=1`` every component of the graph is in a group.

    Two components are identical when they have the same vertex count and
    the same edge list after each vertex is relabelled by its rank in its
    component. So disjoint copies of one graph form one group, and isomorphic
    components numbered differently stay apart. Groups come ordered by vertex
    count, edge count and relabelled edge list; rows by smallest vertex.

    Only the vertices of degree below ``max_vertices`` are labelled, as no
    vertex of a small enough component has more neighbors; a component of
    theirs with an edge to any other vertex is not a whole component.
    """
    n = g.vertex_count
    small = g.degrees < max_vertices
    inside = small[g.edge_u] & small[g.edge_v]
    labels = _labels(n, g.edge_u[inside], g.edge_v[inside])
    inner = np.bincount(g.edge_u[inside], minlength=n) + np.bincount(g.edge_v[inside], minlength=n)
    sizes = np.bincount(labels, minlength=n)  # non-zero only at the roots
    # a vertex outside ``small`` is a component of its own here
    sizes[~small] = 0
    sizes[labels[small & (inner < g.degrees)]] = 0
    roots = np.flatnonzero((sizes >= 1) & (sizes <= max_vertices))
    if roots.size < min_copies:
        return []
    edge_comp = labels[g.edge_u]
    edge_counts = np.bincount(edge_comp, minlength=n)
    shapes, shape_of, repeats = _unique_rows(
        np.stack([sizes[roots], edge_counts[roots]], axis=1))
    if not (repeats >= min_copies).any():
        return []
    order = np.argsort(labels, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    rank = pos - pos[labels]  # a root is the smallest vertex, so it comes first
    # each component's edges in a row, still sorted, so relabelled by rank
    # they are sorted too
    edge_order = np.argsort(edge_comp, kind="stable")
    edge_start = np.cumsum(edge_counts) - edge_counts
    groups = []
    for (k, e), shape_roots in zip(shapes.tolist(), np.split(
            roots[np.argsort(shape_of, kind="stable")], np.cumsum(repeats)[:-1])):
        if shape_roots.size < min_copies:
            continue
        edges = edge_order[edge_start[shape_roots][:, None] + np.arange(e)]
        relabelled = np.stack([rank[g.edge_u[edges]], rank[g.edge_v[edges]]], axis=2)
        keys, key_of, copies = _unique_rows(relabelled.reshape(len(edges), 2 * e))
        for j in np.flatnonzero(copies >= min_copies):
            members = shape_roots[key_of == j]
            groups.append((build_graph(k, keys[j].reshape(e, 2)),
                           order[pos[members][:, None] + np.arange(k)]))
    return groups


# ----------------------------------------------------------------------------
# Edge-list text format: one "u v" pair per line, '#' comments, blanks ignored.
# ----------------------------------------------------------------------------


def parse_edge_list(text: str | IO[str]) -> tuple[Graph, dict[int, int]]:
    """Parse edge-list text; returns the compacted graph and the id mapping.

    Ids need not be contiguous; they are compacted to dense 0-based ids in
    sorted order. Duplicate lines and reversed duplicates collapse to one edge.
    """
    if hasattr(text, "read"):
        text = text.read()
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
    except OverflowError:  # ids past int64 stay Python ints
        ids = np.array(ends, dtype=object)
    # return_inverse takes np.unique's sort path, not its slower hash path
    ids, dense = np.unique(ids, return_inverse=True)
    mapping = dict(zip(ids.tolist(), range(ids.size)))
    return build_graph(ids.size, dense.reshape(-1, 2)), mapping


def edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list format; round-trips up to id compaction."""
    lines = [f"{int(u)} {int(v)}" for u, v in zip(g.edge_u, g.edge_v)]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------------
# Deterministic generators
# ----------------------------------------------------------------------------


def _pairs(u, v) -> np.ndarray:
    """(E, 2) int64 edge array from two broadcastable endpoint arrays."""
    return np.stack(np.broadcast_arrays(u, v), axis=1).astype(np.int64, copy=False)


def star(n: int) -> Graph:
    """K_{1,n}: hub vertex 0 with n leaves."""
    if n < 0:
        raise ValueError("star size must be non-negative")
    return build_graph(n + 1, _pairs(0, np.arange(1, n + 1)))


def star_union(weights: tuple[float, ...], n: int, shift_exponent: float | None = None) -> Graph:
    """Disjoint union of stars with floor(n * a_s) leaves each (size-0 dropped).

    With ``shift_exponent`` set, the union has n stars of floor(n*a_s + n**e)
    leaves, padding the weight list with zeros; this realizes the shifted
    family whose limit gains an extra Poisson term.
    """
    if any(a < 0 for a in weights):
        raise ValueError("star-union weights must be non-negative")
    if n < 0:
        raise ValueError("n must be non-negative")
    if shift_exponent is None:
        sizes = [int(n * a) for a in weights]
    else:
        shift = float(n) ** shift_exponent
        padded = list(weights) + [0.0] * max(0, n - len(weights))
        sizes = [int(n * a + shift) for a in padded[:n]]
    sizes = np.array([s for s in sizes if s > 0], dtype=np.int64)
    # each star is its hub followed by its leaves
    hubs = np.cumsum(sizes + 1) - (sizes + 1)
    total = int((sizes + 1).sum())
    return build_graph(total, _pairs(np.repeat(hubs, sizes), np.delete(np.arange(total), hubs)))


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be non-negative")
    return build_graph(n, _pairs(*np.triu_indices(n, 1)))


def complete_bipartite(n: int) -> Graph:
    """K_{n,n}: parts {0..n-1} and {n..2n-1}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return build_graph(2 * n, _pairs(np.repeat(np.arange(n), n), n + np.tile(np.arange(n), n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    i = np.arange(n)
    return build_graph(n, _pairs(i, (i + 1) % n))


def path(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    i = np.arange(n - 1)
    return build_graph(n, _pairs(i, i + 1))


def circulant(n: int, d: int) -> Graph:
    """d-regular circulant: vertex v adjacent to v +- 1 .. v +- d/2 (mod n)."""
    if d < 0 or d % 2 != 0:
        raise ValueError("circulant degree must be even and non-negative")
    if d >= n:
        raise ValueError("circulant needs d < n")
    v = np.repeat(np.arange(n), d // 2)
    return build_graph(n, _pairs(v, (v + np.tile(np.arange(1, d // 2 + 1), n)) % n))


def tadpole31() -> Graph:
    """Triangle joined to a single pendant vertex by a bridge."""
    return build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def disjoint_copies(inner: Graph, count: int) -> Graph:
    if count < 0:
        raise ValueError("count must be non-negative")
    k = inner.vertex_count
    base = np.arange(count, dtype=np.int64)[:, None] * k
    return build_graph(count * k, _pairs((base + inner.edge_u).ravel(),
                                         (base + inner.edge_v).ravel()))


def _ceil_pow23(n: int) -> int:
    """Smallest k with k**3 >= n**2 (exact integer ceil of n^(2/3)), n >= 1."""
    k = max(1, round(n ** (2.0 / 3.0)))
    while k**3 < n * n:
        k += 1
    while k > 1 and (k - 1) ** 3 >= n * n:
        k -= 1
    return k


def figure2_composite(n: int) -> Graph:
    """Three parts in a chain: K_{1,n}, K_{ceil(n^(2/3))}, P_{n^2}, two bridges.

    One leaf of the star bridges to the clique; the clique bridges to one end
    of the path. Vertex layout: hub 0, leaves 1..n, clique, then path.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m2 = _ceil_pow23(n)
    clique_base = n + 1
    path_base = clique_base + m2
    clique_u, clique_v = np.triu_indices(m2, 1)
    steps = np.arange(n * n - 1)
    edges = np.concatenate([
        _pairs(0, np.arange(1, n + 1)),
        _pairs(clique_base + clique_u, clique_base + clique_v),
        _pairs(path_base + steps, path_base + steps + 1),
        [(1, clique_base), (clique_base + (1 if m2 > 1 else 0), path_base)],
    ])
    return build_graph(path_base + n * n, edges)


_ER_CHUNK_CELLS = 1 << 20


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with edges drawn from a Philox stream keyed by the seed.

    Row u holds one uniform per candidate pair (u, u+1 .. n-1), the rows in
    order. Whole rows are drawn about ``_ER_CHUNK_CELLS`` at a time: uniforms
    drawn from one stream in consecutive calls concatenate exactly, so the
    chunking does not change the graph.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x4752415048], dtype=np.uint64)))
    # offsets[u]: index of pair (u, u+1) in the flat pair order
    offsets = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))))
    hits = [np.empty(0, dtype=np.int64)]
    start = 0
    while start < n - 1:
        stop = int(np.searchsorted(offsets, offsets[start] + _ER_CHUNK_CELLS, side="right")) - 1
        stop = max(stop, start + 1)
        draws = rng.random(int(offsets[stop] - offsets[start]))
        hits.append(offsets[start] + np.flatnonzero(draws < p))
        start = stop
    flat = np.concatenate(hits)
    u = np.searchsorted(offsets, flat, side="right") - 1
    return build_graph(n, _pairs(u, u + 1 + flat - offsets[u]))


# ----------------------------------------------------------------------------
# Generator specs and their CLI string form
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator: the canonical name of its ``_KINDS`` row and the row
    builder's positional arguments, the fields in CLI order and then every
    option, with its default where the string leaves it out."""

    name: str
    args: tuple


# A field is (argument name, read): read parses its part of the CLI string.
_N = ("n", int)
_WEIGHTS = ("weights", lambda text: tuple(float(w) for w in text.split(",") if w))
_INNER = ("inner", lambda text: parse_generator(text))


@dataclass(frozen=True)
class _Kind:
    """One generator kind, written ``names[0]:field:...[:option=value]``.

    ``fields`` come in CLI order; ``options`` maps an option name to a field
    plus its default. The builder takes the fields and then the options,
    positionally. ``scale`` names the argument a color rule calls ``n``.
    """

    names: tuple[str, ...]
    fields: tuple[tuple, ...]
    build: Callable[..., Graph]
    options: dict = field(default_factory=dict)
    scale: str = "n"

    @property
    def params(self) -> list[str]:
        """The builder's argument names: the fields, then the options."""
        return [arg for arg, *_ in (*self.fields, *self.options.values())]

    @property
    def form(self) -> str:
        return ":".join([self.names[0], *(attr for attr, *_ in self.fields)]) + "".join(
            f"[:{name}={attr}]" for name, (attr, *_) in self.options.items())


_KINDS = (
    _Kind(("star",), (_N,), star),
    _Kind(("union", "star-union"), (_WEIGHTS, _N), star_union,
          {"shift": ("shift_exponent", float, None)}),
    _Kind(("complete",), (_N,), complete),
    _Kind(("bipartite", "complete-bipartite"), (_N,), complete_bipartite),
    _Kind(("cycle",), (_N,), cycle),
    _Kind(("path",), (_N,), path),
    _Kind(("circulant",), (_N, ("d", int)), circulant),
    _Kind(("tadpole31",), (), tadpole31),
    _Kind(("copies",), (("count", int), _INNER),
          lambda count, inner: disjoint_copies(generate(inner), count), scale="count"),
    _Kind(("figure2",), (_N,), figure2_composite),
    _Kind(("er", "erdos-renyi"), (_N, ("p", float)), erdos_renyi,
          {"seed": ("seed", int, 0)}),
)
_BY_NAME = {name: row for row in _KINDS for name in row.names}


def _row(name: str) -> _Kind:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown generator kind {name!r}") from None


def generate(spec: GeneratorSpec) -> Graph:
    """Materialize a GeneratorSpec; deterministic given the spec (incl. seed)."""
    return _row(spec.name).build(*spec.args)


def generator_scale(spec: GeneratorSpec) -> int:
    """The size parameter that the color rule ``"n"`` stands for: the
    argument its row's ``scale`` names, or 1 when there is none."""
    row = _row(spec.name)
    return dict(zip(row.params, spec.args)).get(row.scale, 1)


def parse_generator(text: str) -> GeneratorSpec:
    """Parse CLI generator strings, e.g. "star:4", "figure2:10", "er:100:0.05:seed=7".

    The name is case-insensitive, and an alias gives its row's first name.
    Every field of the kind must be given, and anything after them must be
    one of its ``option=value`` parts; options left out take their defaults.
    """
    name, *args = text.strip().split(":")
    row = _BY_NAME.get(name.lower())
    if row is None:
        raise ValueError(f"unknown generator {text!r}")
    if row.names[0] == "copies" and len(args) > 2:
        args = [args[0], ":".join(args[1:])]  # the inner spec keeps its colons
    options = [part.split("=", 1) for part in args[len(row.fields):]]
    if len(args) < len(row.fields) or any(len(kv) != 2 or kv[0] not in row.options
                                          for kv in options):
        raise ValueError(f"generator {text.strip()!r} does not match {row.form}")
    parts = [*zip(row.fields, args), *((row.options[key], part) for key, part in options)]
    values = {arg: default for arg, _, default in row.options.values()}
    try:
        values.update((arg, read(part)) for (arg, read, *_), part in parts)
    except ValueError as exc:
        raise ValueError(f"generator {text.strip()!r} does not match {row.form}: {exc}") from None
    return GeneratorSpec(row.names[0], tuple(values[arg] for arg in row.params))
