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
    "two_core",
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


def two_core(g: Graph) -> np.ndarray:
    """Boolean mask of the 2-core: what is left after repeatedly deleting
    vertices of degree <= 1.

    One stack pass in O(n + E) (Batagelj & Zaversnik). The deleted vertices
    form pendant trees, each hanging off at most one core vertex.
    """
    # other[v] is the XOR of v's remaining neighbors, so a vertex of degree 1
    # names its last neighbor without a search of the edge list
    other = np.zeros(g.vertex_count, dtype=np.int64)
    # int64 values, matching ``other``, keep ufunc.at on its fast loop
    np.bitwise_xor.at(other, g.edge_u, g.edge_v.astype(np.int64))
    np.bitwise_xor.at(other, g.edge_v, g.edge_u.astype(np.int64))
    other = other.tolist()
    degree = g.degrees.tolist()
    stack = np.flatnonzero(g.degrees == 1).tolist()
    while stack:
        v = stack.pop()
        if degree[v] == 1:  # else its last neighbor went first
            degree[v] = 0
            u = other[v]
            other[u] ^= v
            degree[u] -= 1
            if degree[u] == 1:
                stack.append(u)
    return np.array(degree, dtype=np.int64) >= 2


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
    """Smallest k with k**3 >= n**2 (exact integer ceil of n^(2/3))."""
    if n <= 0:
        return 0
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
    """Tagged generator choice; only the fields relevant to ``kind`` are set."""

    kind: str
    n: int | None = None
    d: int | None = None
    p: float | None = None
    seed: int | None = None
    weights: tuple[float, ...] | None = None
    shift_exponent: float | None = None
    count: int | None = None
    inner: "GeneratorSpec | None" = None


# A field is (GeneratorSpec attribute, read): read parses its part of the CLI
# string.
_N = ("n", int)
_WEIGHTS = ("weights", lambda text: tuple(float(w) for w in text.split(",") if w))
_INNER = ("inner", lambda text: parse_generator(text))


@dataclass(frozen=True)
class _Kind:
    """One generator kind, written ``names[0]:field:...[:option=value]``.

    ``fields`` come in CLI order; ``options`` maps an option name to a field
    plus its default. The builder takes the fields and then the options,
    positionally. ``scale`` is the attribute a color rule calls ``n``.
    """

    kind: str
    names: tuple[str, ...]
    fields: tuple[tuple, ...]
    build: Callable[..., Graph]
    options: dict = field(default_factory=dict)
    scale: str = "n"

    @property
    def form(self) -> str:
        return ":".join([self.names[0], *(attr for attr, *_ in self.fields)]) + "".join(
            f"[:{name}={attr}]" for name, (attr, *_) in self.options.items())


_KINDS = (
    _Kind("star", ("star",), (_N,), star),
    _Kind("star-union", ("union", "star-union"), (_WEIGHTS, _N), star_union,
          {"shift": ("shift_exponent", float, None)}),
    _Kind("complete", ("complete",), (_N,), complete),
    _Kind("complete-bipartite", ("bipartite", "complete-bipartite"), (_N,), complete_bipartite),
    _Kind("cycle", ("cycle",), (_N,), cycle),
    _Kind("path", ("path",), (_N,), path),
    _Kind("circulant", ("circulant",), (_N, ("d", int)), circulant),
    _Kind("tadpole31", ("tadpole31",), (), tadpole31),
    _Kind("disjoint-copies", ("copies",), (("count", int), _INNER),
          lambda count, inner: disjoint_copies(generate(inner), count), scale="count"),
    _Kind("figure2", ("figure2",), (_N,), figure2_composite),
    _Kind("erdos-renyi", ("er", "erdos-renyi"), (_N, ("p", float)), erdos_renyi,
          {"seed": ("seed", int, 0)}),
)
_BY_KIND = {row.kind: row for row in _KINDS}
_BY_NAME = {name: row for row in _KINDS for name in row.names}


def _row(kind: str) -> _Kind:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {kind!r}") from None


def generate(spec: GeneratorSpec) -> Graph:
    """Materialize a GeneratorSpec; deterministic given the spec (incl. seed)."""
    row = _row(spec.kind)
    options = [default if getattr(spec, attr) is None else getattr(spec, attr)
               for attr, _, default in row.options.values()]
    return row.build(*(getattr(spec, attr) for attr, *_ in row.fields), *options)


def generator_scale(spec: GeneratorSpec) -> int:
    """The size parameter that the color rule ``"n"`` stands for."""
    scale = getattr(spec, _row(spec.kind).scale)
    return scale if scale is not None else 1


def parse_generator(text: str) -> GeneratorSpec:
    """Parse CLI generator strings, e.g. "star:4", "figure2:10", "er:100:0.05:seed=7".

    The name is case-insensitive. Every field of the kind must be given, and
    anything after them must be one of its ``option=value`` parts.
    """
    name, *args = text.strip().split(":")
    row = _BY_NAME.get(name.lower())
    if row is None:
        raise ValueError(f"unknown generator {text!r}")
    if row.kind == "disjoint-copies" and len(args) > 2:
        args = [args[0], ":".join(args[1:])]  # the inner spec keeps its colons
    options = [part.split("=", 1) for part in args[len(row.fields):]]
    if len(args) < len(row.fields) or any(len(kv) != 2 or kv[0] not in row.options
                                          for kv in options):
        raise ValueError(f"generator {text.strip()!r} does not match {row.form}")
    parts = [*zip(row.fields, args), *((row.options[key], part) for key, part in options)]
    values = {attr: default for attr, _, default in row.options.values()}
    try:
        values.update((attr, read(part)) for (attr, read, *_), part in parts)
    except ValueError as exc:
        raise ValueError(f"generator {text.strip()!r} does not match {row.form}: {exc}") from None
    return GeneratorSpec(row.kind, **values)

