"""Immutable simple-graph container, deterministic generators, and edge-list I/O.

Vertices are dense 0-based integers. Loaders compact arbitrary ids and report
the mapping. Graphs are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import EdgeListParseError

__all__ = [
    "Graph",
    "GeneratorSpec",
    "build_graph",
    "generate",
    "parse_generator",
    "generator_scale",
    "spec_to_string",
    "degree_sequence",
    "two_core",
    "parse_edge_list",
    "load_edge_list",
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
    """Simple undirected graph: sorted adjacency lists plus flat edge arrays.

    Invariants: no self-loops, no duplicate neighbors, symmetric adjacency,
    ``edge_count == sum(degrees) / 2``. ``edge_u[i] < edge_v[i]`` and edges are
    sorted lexicographically; the flat arrays exist for vectorized kernels.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int
    degrees: np.ndarray = field(repr=False)
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.vertex_count else 0


def build_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph from an iterable of endpoint pairs.

    Duplicate edges (in either orientation) collapse; self-loops and
    out-of-range endpoints raise ValueError.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    if vertex_count > (1 << 31) - 1:
        raise ValueError(f"vertex_count {vertex_count} exceeds supported addressing")
    pair_set = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        pair_set.add((u, v) if u < v else (v, u))
    pairs = sorted(pair_set)
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(nb)) for nb in adj)
    degrees = np.array([len(nb) for nb in adjacency], dtype=np.int64)
    if pairs:
        edge_u = np.array([p[0] for p in pairs], dtype=np.int32)
        edge_v = np.array([p[1] for p in pairs], dtype=np.int32)
    else:
        edge_u = np.empty(0, dtype=np.int32)
        edge_v = np.empty(0, dtype=np.int32)
    for arr in (degrees, edge_u, edge_v):
        arr.flags.writeable = False
    return Graph(
        vertex_count=vertex_count,
        adjacency=adjacency,
        edge_count=len(pairs),
        degrees=degrees,
        edge_u=edge_u,
        edge_v=edge_v,
    )


def degree_sequence(g: Graph) -> list[int]:
    """Degrees arranged in non-increasing order."""
    return sorted((int(d) for d in g.degrees), reverse=True)


def two_core(g: Graph) -> np.ndarray:
    """Boolean mask of the 2-core: what is left after repeatedly deleting
    vertices of degree <= 1.

    One queue pass in O(n + E) (Batagelj & Zaversnik). The deleted vertices
    form pendant trees, each hanging off at most one core vertex.
    """
    degree = g.degrees.tolist()
    peeled = [d <= 1 for d in degree]
    queue = [v for v, gone in enumerate(peeled) if gone]
    for v in queue:  # grows while it is walked
        for u in g.adjacency[v]:
            if not peeled[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    peeled[u] = True
                    queue.append(u)
    return ~np.array(peeled, dtype=bool)


# ----------------------------------------------------------------------------
# Edge-list text format: one "u v" pair per line, '#' comments, blanks ignored.
# ----------------------------------------------------------------------------


def parse_edge_list(text: str | IO[str]) -> tuple[Graph, dict[int, int]]:
    """Parse edge-list text; returns the compacted graph and the id mapping.

    Ids need not be contiguous; they are compacted to dense 0-based indices in
    sorted order. Duplicate lines and reversed duplicates collapse to one edge.
    """
    if hasattr(text, "read"):
        text = text.read()
    raw_edges: list[tuple[int, int]] = []
    ids: set[int] = set()
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
        ids.update((u, v))
        raw_edges.append((u, v))
    mapping = {orig: dense for dense, orig in enumerate(sorted(ids))}
    g = build_graph(len(mapping), ((mapping[u], mapping[v]) for u, v in raw_edges))
    return g, mapping


def load_edge_list(text: str | IO[str]) -> Graph:
    g, _ = parse_edge_list(text)
    return g


def edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list format; round-trips up to id compaction."""
    lines = [f"{int(u)} {int(v)}" for u, v in zip(g.edge_u, g.edge_v)]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------------
# Deterministic generators
# ----------------------------------------------------------------------------


def star(n: int) -> Graph:
    """K_{1,n}: hub vertex 0 with n leaves."""
    if n < 0:
        raise ValueError("star size must be non-negative")
    return build_graph(n + 1, ((0, i) for i in range(1, n + 1)))


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
    sizes = [s for s in sizes if s > 0]
    edges = []
    base = 0
    for s in sizes:
        edges.extend((base, base + 1 + j) for j in range(s))
        base += s + 1
    return build_graph(base, edges)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be non-negative")
    return build_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(n: int) -> Graph:
    """K_{n,n}: parts {0..n-1} and {n..2n-1}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return build_graph(2 * n, ((i, n + j) for i in range(n) for j in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def circulant(n: int, d: int) -> Graph:
    """d-regular circulant: vertex v adjacent to v +- 1 .. v +- d/2 (mod n)."""
    if d < 0 or d % 2 != 0:
        raise ValueError("circulant degree must be even and non-negative")
    if d >= n:
        raise ValueError("circulant needs d < n")
    edges = []
    for v in range(n):
        for off in range(1, d // 2 + 1):
            edges.append((v, (v + off) % n))
    return build_graph(n, edges)


def tadpole31() -> Graph:
    """Triangle joined to a single pendant vertex by a bridge."""
    return build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def disjoint_copies(inner: Graph, count: int) -> Graph:
    if count < 0:
        raise ValueError("count must be non-negative")
    k = inner.vertex_count
    edges = []
    for i in range(count):
        base = i * k
        edges.extend((base + int(u), base + int(v)) for u, v in zip(inner.edge_u, inner.edge_v))
    return build_graph(count * k, edges)


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
    edges = [(0, i) for i in range(1, n + 1)]
    edges.extend(
        (clique_base + i, clique_base + j) for i in range(m2) for j in range(i + 1, m2)
    )
    edges.extend((path_base + i, path_base + i + 1) for i in range(n * n - 1))
    edges.append((1, clique_base))
    edges.append((clique_base + (1 if m2 > 1 else 0), path_base))
    return build_graph(path_base + n * n, edges)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with edges drawn from a Philox stream keyed by the seed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0x4752415048]))
    edges = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - u - 1) < p)
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return build_graph(n, edges)


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


def generate(spec: GeneratorSpec) -> Graph:
    """Materialize a GeneratorSpec; deterministic given the spec (incl. seed)."""
    k = spec.kind
    if k == "star":
        return star(spec.n)
    if k == "star-union":
        return star_union(spec.weights, spec.n, spec.shift_exponent)
    if k == "complete":
        return complete(spec.n)
    if k == "complete-bipartite":
        return complete_bipartite(spec.n)
    if k == "cycle":
        return cycle(spec.n)
    if k == "path":
        return path(spec.n)
    if k == "circulant":
        return circulant(spec.n, spec.d)
    if k == "tadpole31":
        return tadpole31()
    if k == "disjoint-copies":
        return disjoint_copies(generate(spec.inner), spec.count)
    if k == "figure2":
        return figure2_composite(spec.n)
    if k == "erdos-renyi":
        return erdos_renyi(spec.n, spec.p, spec.seed if spec.seed is not None else 0)
    raise ValueError(f"unknown generator kind {k!r}")


def generator_scale(spec: GeneratorSpec) -> int:
    """The size parameter a color-scaling expression refers to as ``n``."""
    if spec.kind == "disjoint-copies":
        return spec.count
    if spec.kind == "tadpole31":
        return 1
    return spec.n if spec.n is not None else 1


def parse_generator(text: str) -> GeneratorSpec:
    """Parse CLI generator strings, e.g. "star:4", "figure2:10", "er:100:0.05:seed=7"."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    args = parts[1:]

    def _int(s: str, what: str) -> int:
        try:
            return int(s)
        except ValueError:
            raise ValueError(f"{what} must be an integer in {text!r}") from None

    if kind == "star":
        return GeneratorSpec("star", n=_int(args[0], "star size"))
    if kind in ("union", "star-union"):
        weights = tuple(float(w) for w in args[0].split(",") if w)
        n = _int(args[1], "star-union n")
        shift = None
        for extra in args[2:]:
            if extra.startswith("shift="):
                shift = float(extra[len("shift="):])
            else:
                raise ValueError(f"unknown star-union option {extra!r}")
        return GeneratorSpec("star-union", n=n, weights=weights, shift_exponent=shift)
    if kind == "complete":
        return GeneratorSpec("complete", n=_int(args[0], "n"))
    if kind in ("bipartite", "complete-bipartite"):
        return GeneratorSpec("complete-bipartite", n=_int(args[0], "n"))
    if kind == "cycle":
        return GeneratorSpec("cycle", n=_int(args[0], "n"))
    if kind == "path":
        return GeneratorSpec("path", n=_int(args[0], "n"))
    if kind == "circulant":
        return GeneratorSpec("circulant", n=_int(args[0], "n"), d=_int(args[1], "d"))
    if kind == "tadpole31":
        return GeneratorSpec("tadpole31")
    if kind == "copies":
        count = _int(args[0], "copy count")
        inner = parse_generator(":".join(args[1:]))
        return GeneratorSpec("disjoint-copies", count=count, inner=inner)
    if kind == "figure2":
        return GeneratorSpec("figure2", n=_int(args[0], "n"))
    if kind in ("er", "erdos-renyi"):
        n = _int(args[0], "n")
        p = float(args[1])
        seed = 0
        for extra in args[2:]:
            if extra.startswith("seed="):
                seed = _int(extra[len("seed="):], "seed")
            else:
                raise ValueError(f"unknown er option {extra!r}")
        return GeneratorSpec("erdos-renyi", n=n, p=p, seed=seed)
    raise ValueError(f"unknown generator {text!r}")


def spec_to_string(spec: GeneratorSpec) -> str:
    k = spec.kind
    if k == "star":
        return f"star:{spec.n}"
    if k == "star-union":
        w = ",".join(repr(float(x)) for x in spec.weights)
        s = f"union:{w}:{spec.n}"
        if spec.shift_exponent is not None:
            s += f":shift={spec.shift_exponent!r}"
        return s
    if k == "complete":
        return f"complete:{spec.n}"
    if k == "complete-bipartite":
        return f"bipartite:{spec.n}"
    if k == "cycle":
        return f"cycle:{spec.n}"
    if k == "path":
        return f"path:{spec.n}"
    if k == "circulant":
        return f"circulant:{spec.n}:{spec.d}"
    if k == "tadpole31":
        return "tadpole31"
    if k == "disjoint-copies":
        return f"copies:{spec.count}:{spec_to_string(spec.inner)}"
    if k == "figure2":
        return f"figure2:{spec.n}"
    if k == "erdos-renyi":
        return f"er:{spec.n}:{spec.p!r}:seed={spec.seed}"
    raise ValueError(f"unknown generator kind {k!r}")
