import io
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monostar import graphs
from monostar.errors import EdgeListParseError
from monostar.graphs import (
    GeneratorSpec,
    build_graph,
    circulant,
    complete,
    component_groups,
    complete_bipartite,
    cycle,
    degree_sequence,
    disjoint_copies,
    edge_list_text,
    erdos_renyi,
    figure2_composite,
    generate,
    generator_scale,
    parse_edge_list,
    parse_generator,
    path,
    pendant_trees,
    star,
    star_union,
    tadpole31,
)

from oracles import (brute_components, brute_two_core, disjoint_union, random_graph,
                     reference_erdos_renyi_edges)


def rows(g):
    """Sorted neighbor lists derived from the edge arrays in plain Python."""
    adjacency = [[] for _ in range(g.vertex_count)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return [sorted(nb) for nb in adjacency]


def same_edges(a, b):
    return (a.vertex_count == b.vertex_count and np.array_equal(a.edge_u, b.edge_u)
            and np.array_equal(a.edge_v, b.edge_v))


def assert_well_formed(g):
    pairs = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert pairs == sorted(set(pairs)), "edges sorted lexicographically and distinct"
    assert all(0 <= u < v < g.vertex_count for u, v in pairs), "u < v, in range"
    assert g.edge_count == len(pairs)
    assert g.degrees.tolist() == [len(nb) for nb in rows(g)]


class TestLoader:
    def test_two_edge_path(self):
        g = parse_edge_list("0 1\n1 2")[0]
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert degree_sequence(g) == [2, 1, 1]

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1")[0]
        assert (g.vertex_count, g.edge_count) == (2, 1)

    def test_tadpole_edge_list(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n2 3")[0]
        assert degree_sequence(g) == [3, 2, 2, 1]

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\n0 1  # inline\n   \n1 2\n")[0]
        assert g.edge_count == 2

    def test_id_compaction(self):
        g, mapping = parse_edge_list("10 70\n70 300")
        assert g.vertex_count == 3
        assert mapping == {10: 0, 70: 1, 300: 2}

    def test_reads_streams(self):
        g = parse_edge_list(io.StringIO("0 1\n"))[0]
        assert g.edge_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("0 1\n0 1 2\n")
        assert err.value.line_number == 2

    def test_non_integer_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("a b\n")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("-1 2\n")

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("0 1\n3 3\n")
        assert err.value.line_number == 2


class TestGenerators:
    def test_star(self):
        g = star(4)
        assert g.vertex_count == 5
        assert degree_sequence(g) == [4, 1, 1, 1, 1]

    def test_complete(self):
        g = complete(4)
        assert (g.vertex_count, g.edge_count) == (4, 6)
        assert degree_sequence(g) == [3, 3, 3, 3]

    def test_cycle(self):
        assert degree_sequence(cycle(5)) == [2] * 5

    def test_path(self):
        g = path(7)
        assert g.edge_count == 6
        assert degree_sequence(g) == [2] * 5 + [1, 1]

    def test_bipartite(self):
        g = complete_bipartite(3)
        assert (g.vertex_count, g.edge_count) == (6, 9)
        assert degree_sequence(g) == [3] * 6

    def test_tadpole(self):
        assert degree_sequence(tadpole31()) == [3, 2, 2, 1]

    def test_star_union_floor_sizes(self):
        g = star_union((0.6, 0.3, 0.1), 10)
        # floor sizes 6, 3, 1 -> 10 leaves + 3 hubs
        assert g.vertex_count == 13
        assert sorted(d for d in degree_sequence(g) if d > 1) == [3, 6]

    def test_star_union_drops_empty(self):
        g = star_union((0.05, 0.9), 10)
        # floor(0.5) = 0 star dropped
        assert g.vertex_count == 10
        assert max(degree_sequence(g)) == 9

    def test_star_union_shifted_has_n_stars(self):
        g = star_union((0.5,), 9, shift_exponent=0.5)
        # 9 stars of floor(9a_s + 3) leaves: one of 7, eight of 3
        assert degree_sequence(g)[0] == 7
        assert degree_sequence(g).count(3) == 8

    def test_figure2_small(self):
        g = figure2_composite(10)
        assert g.vertex_count == 11 + 5 + 100
        assert degree_sequence(g)[0] == 10  # star hub dominates

    def test_figure2_three_parts_two_bridges(self):
        n = 10
        g = figure2_composite(n)
        m2 = 5
        part = [0] * (n + 1) + [1] * m2 + [2] * (n * n)
        cross = [
            (int(u), int(v))
            for u, v in zip(g.edge_u, g.edge_v)
            if part[int(u)] != part[int(v)]
        ]
        assert len(cross) == 2
        kinds = sorted((part[u], part[v]) for u, v in cross)
        assert kinds == [(0, 1), (1, 2)]

    def test_figure2_max_degree_is_hub(self):
        g = figure2_composite(100)
        assert degree_sequence(g)[0] == 100
        assert int(g.degrees[0]) == 100

    def test_circulant_regularity(self):
        g = circulant(10, 4)
        assert degree_sequence(g) == [4] * 10

    def test_circulant_rejects_odd(self):
        with pytest.raises(ValueError):
            circulant(10, 3)

    def test_erdos_renyi_deterministic(self):
        a = generate(parse_generator("er:50:0.2:seed=7"))
        b = generate(parse_generator("er:50:0.2:seed=7"))
        c = generate(parse_generator("er:50:0.2:seed=8"))
        assert same_edges(a, b)
        assert not same_edges(a, c)

    def test_disjoint_copies(self):
        g = generate(parse_generator("copies:3:star:3"))
        assert g.vertex_count == 12
        assert degree_sequence(g) == [3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("text", [
        "star:4", "union:0.6,0.3,0.1:30", "complete:5", "bipartite:4", "cycle:6",
        "path:9", "circulant:12:4", "tadpole31", "copies:4:tadpole31",
        "figure2:5", "er:20:0.3:seed=3",
    ])
    def test_every_generator_well_formed(self, text):
        g = generate(parse_generator(text))
        assert_well_formed(g)

    def test_spec_string_round_trip(self):
        for canonical, text in [
            ("star:4", "STAR:4"),
            ("figure2:10", " figure2:10 "),
            ("er:100:0.05:seed=7", "erdos-renyi:100:5e-2:seed=07"),
            ("copies:10000:star:3", "copies:10000:Star:3"),
            ("union:0.6,0.3,0.1:3000", "star-union:0.6,0.3,0.1,:3000"),
        ]:
            assert parse_generator(text) == parse_generator(canonical)
        assert parse_generator("copies:10000:star:3") == GeneratorSpec(
            "copies", (10000, GeneratorSpec("star", (3,))))

    def test_generator_scale(self):
        assert generator_scale(parse_generator("star:123")) == 123
        assert generator_scale(parse_generator("copies:77:star:3")) == 77

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_generator("moebius:7")

    @pytest.mark.parametrize("text, form", [
        ("star", "star:n"), ("circulant:10", "circulant:n:d"), ("er:10", "er:n:p"),
        ("union:0.5", "union:weights:n"), ("copies", "copies:count:inner"),
        ("copies:3", "copies:count:inner"), ("path:5:9", "path:n"),
        ("tadpole31:5", "tadpole31"), ("star:3:extra", "star:n"),
        ("er:10:0.5:shift=1", "er:n:p"), ("union:1:5:seed=1", "union:weights:n"),
        ("er:10:0.5:seed", "er:n:p"), ("star:x", "star:n"), ("er:10:0.5:seed=x", "er:n:p"),
        ("copies:2:circulant:9", "circulant:n:d"),
    ])
    def test_malformed_generator_names_its_form(self, text, form):
        with pytest.raises(ValueError, match=f"does not match {form}"):
            parse_generator(text)

    @pytest.mark.parametrize("text, canonical", [
        ("er:100:0.05", "er:100:0.05:seed=0"),
        ("ERDOS-RENYI:5:0.5:seed=3", "er:5:0.5:seed=3"),
        ("union:1,0.5:10", "union:1.0,0.5:10"),
        ("star-union:1:10:shift=0.5", "union:1.0:10:shift=0.5"),
        ("complete-bipartite:3", "bipartite:3"),
        ("  copies:2:copies:3:tadpole31 ", "copies:2:copies:3:tadpole31"),
        ("copies:2:er:9:0.5", "copies:2:er:9:0.5:seed=0"),
    ])
    def test_canonical_string(self, text, canonical):
        assert parse_generator(text) == parse_generator(canonical)


# Sample text for every field and option of the generator table; a kind with
# a new field needs an entry here before the table tests below can run.
_SAMPLE = {"n": "6", "d": "2", "p": "0.25", "weights": "0.6,0.3,0.1", "count": "3",
           "inner": "copies:2:star:3", "seed": "7", "shift_exponent": "0.5"}
_SCALE = {"star": 6, "union": 6, "complete": 6, "bipartite": 6, "cycle": 6, "path": 6,
          "circulant": 6, "tadpole31": 1, "copies": 3, "figure2": 6, "er": 6}


def _table_strings():
    """Every name and alias of every table row, bare and with each option."""
    for row in graphs._KINDS:
        for name in row.names:
            text = ":".join([name, *(_SAMPLE[attr] for attr, *_ in row.fields)])
            yield text
            for option, (attr, *_) in row.options.items():
                yield f"{text}:{option}={_SAMPLE[attr]}"


@pytest.mark.parametrize("text", list(_table_strings()))
def test_table_round_trip_and_scale(text):
    spec = parse_generator(text)
    row = graphs._BY_NAME[spec.name]
    assert spec.name == row.names[0]
    # first name, then every option that is set, defaults included
    options = [f"{option}={value}"
               for option, value in zip(row.options, spec.args[len(row.fields):])
               if value is not None]
    canonical = ":".join([row.names[0], *(_SAMPLE[attr] for attr, *_ in row.fields), *options])
    assert parse_generator(canonical) == spec
    name, sep, rest = text.partition(":")
    assert parse_generator(f" {name.upper()}{sep}{rest} ") == spec
    assert generator_scale(spec) == _SCALE[spec.name]
    assert_well_formed(generate(spec))


class TestRoundTrip:
    def test_save_load_identity_on_dense_ids(self):
        g = figure2_composite(4)
        g2 = parse_edge_list(edge_list_text(g))[0]
        assert same_edges(g2, g)

    @given(st.integers(2, 12), st.random_module())
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip(self, n, _rnd):
        rng = np.random.default_rng(n * 977)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        if g.edge_count == 0:
            return
        g2 = parse_edge_list(edge_list_text(g))[0]
        # compaction drops isolated vertices; degree sequences match on support
        assert [d for d in degree_sequence(g) if d > 0] == degree_sequence(g2)

    @given(st.integers(3, 40), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_circulant_always_regular(self, n, half_d):
        d = 2 * half_d
        if d >= n:
            return
        g = circulant(n, d)
        assert degree_sequence(g) == [d] * n


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 5)])


def test_vertex_count_addressing_guard():
    with pytest.raises(ValueError):
        build_graph(1 << 40, [])


def test_generate_spec_dataclass_direct():
    g = generate(GeneratorSpec("star", (2,)))
    assert g.vertex_count == 3


def set_based_build(n, edges):
    """Sorted unique (u < v) pairs and neighbor sets, built with Python sets."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return pairs, adj


class TestCSR:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_set_based_build(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 30))
        m = int(rng.integers(0, 3 * n + 1)) if n > 1 else 0
        edges = []
        for _ in range(m):
            u, v = rng.choice(n, size=2, replace=False).tolist()
            edges.append((u, v))
            if rng.random() < 0.3:
                edges.append((v, u))  # reversed duplicate
            if rng.random() < 0.2:
                edges.append((u, v))  # exact duplicate
        pairs, adj = set_based_build(n, edges)
        as_array = np.array(edges, dtype=np.int32).reshape(-1, 2)
        for g in (build_graph(n, edges), build_graph(n, as_array), build_graph(n, iter(edges))):
            assert g.vertex_count == n and g.edge_count == len(pairs)
            assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == pairs, "lexicographic edges"
            assert g.edge_u.dtype == g.edge_v.dtype == np.int32
            assert g.degrees.dtype == np.int64 and g.degrees.shape == (n,)
            assert [len(a) for a in adj] == g.degrees.tolist()
            assert rows(g) == [sorted(a) for a in adj]
            for arr in (g.degrees, g.edge_u, g.edge_v):
                assert not arr.flags.writeable

    def test_empty_graphs(self):
        for n in (0, 5):
            g = build_graph(n, [])
            assert g.edge_count == 0 and g.edge_u.size == g.edge_v.size == 0
            assert g.degrees.tolist() == [0] * n
            assert g.max_degree() == 0

    def test_first_bad_pair_is_reported(self):
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            build_graph(3, [(0, 1), (2, 2), (0, 7)])
        with pytest.raises(ValueError, match=r"edge \(0,7\) out of range"):
            build_graph(3, [(0, 1), (0, 7), (2, 2)])
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1 << 70)])
        with pytest.raises(ValueError):
            build_graph(3, [(0, 1, 2)])


def _reference_edges(kind):
    """The generators' edge streams, written as Python loops."""
    def star_union_edges(sizes):
        edges, base = [], 0
        for s in sizes:
            edges.extend((base, base + 1 + j) for j in range(s))
            base += s + 1
        return edges

    def figure2_edges(n, m2):
        cb, pb = n + 1, n + 1 + m2
        edges = [(0, i) for i in range(1, n + 1)]
        edges.extend((cb + i, cb + j) for i in range(m2) for j in range(i + 1, m2))
        edges.extend((pb + i, pb + i + 1) for i in range(n * n - 1))
        return edges + [(1, cb), (cb + (1 if m2 > 1 else 0), pb)]

    return {
        "star:6": [(0, i) for i in range(1, 7)],
        "union:0.6,0.3,0.1:30": star_union_edges([18, 9, 3]),
        "complete:6": [(i, j) for i in range(6) for j in range(i + 1, 6)],
        "bipartite:4": [(i, 4 + j) for i in range(4) for j in range(4)],
        "cycle:7": [(i, (i + 1) % 7) for i in range(7)],
        "path:8": [(i, i + 1) for i in range(7)],
        "circulant:11:4": [(v, (v + off) % 11) for v in range(11) for off in (1, 2)],
        "figure2:1": figure2_edges(1, 1),
        "figure2:4": figure2_edges(4, 3),
    }[kind]


@pytest.mark.parametrize("text", ["star:6", "union:0.6,0.3,0.1:30", "complete:6", "bipartite:4",
                                  "cycle:7", "path:8", "circulant:11:4", "figure2:1", "figure2:4"])
def test_generator_edges_match_python_loops(text):
    g = generate(parse_generator(text))
    want = build_graph(g.vertex_count, _reference_edges(text))
    assert np.array_equal(g.edge_u, want.edge_u) and np.array_equal(g.edge_v, want.edge_v)


def test_disjoint_copies_offsets_each_copy():
    inner = tadpole31()
    g = disjoint_copies(inner, 3)
    want = [(4 * i + u, 4 * i + v) for i in range(3)
            for u, v in zip(inner.edge_u.tolist(), inner.edge_v.tolist())]
    assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == want
    assert disjoint_copies(inner, 0).vertex_count == 0


class TestErdosRenyiChunks:
    @pytest.mark.parametrize("n,p,seed", [
        (0, 0.5, 1), (1, 0.5, 1), (2, 1.0, 4), (40, 0.0, 3), (40, 1.0, 3),
        (60, 0.3, 7), (200, 0.05, 11), (1600, 0.002, 5),  # 1600 rows span two chunks
    ])
    def test_matches_row_by_row_draws(self, n, p, seed):
        g = erdos_renyi(n, p, seed)
        assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == \
            reference_erdos_renyi_edges(n, p, seed)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_chunk_boundaries(self, monkeypatch, cells):
        monkeypatch.setattr(graphs, "_ER_CHUNK_CELLS", cells)
        for n, p, seed in [(30, 0.4, 2), (25, 1.0, 9)]:
            g = erdos_renyi(n, p, seed)
            assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == \
                reference_erdos_renyi_edges(n, p, seed)

    @pytest.mark.filterwarnings("error")
    def test_seeds_past_2_63_keep_their_low_bits(self):
        graphs_by_seed = {seed: generate(parse_generator(f"er:50:0.2:seed={seed}"))
                          for seed in (2**63, 2**63 + 1, 2**64 - 1, -1)}
        assert not same_edges(graphs_by_seed[2**63], graphs_by_seed[2**63 + 1])
        # the seed is taken modulo 2**64
        assert same_edges(graphs_by_seed[-1], graphs_by_seed[2**64 - 1])
        g = graphs_by_seed[2**63 + 1]
        assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == \
            reference_erdos_renyi_edges(50, 0.2, 2**63 + 1)

    def test_complete_at_p_one(self):
        g = erdos_renyi(9, 1.0, 0)
        assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == list(combinations(range(9), 2))


def test_parse_keeps_ids_past_int64():
    big = 1 << 70
    g, mapping = parse_edge_list(f"5 {big}\n{big} 7\n")
    assert mapping == {5: 0, 7: 1, big: 2}
    assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == [(0, 2), (1, 2)]


class _CountingMinimum:
    """``np.minimum`` that counts its ``at`` calls: one per hooking round of
    ``_labels``."""

    def __init__(self):
        self.rounds = 0
        self.ufunc = np.minimum

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def at(self, *args):
        self.rounds += 1
        return self.ufunc.at(*args)


class TestComponents:
    def test_random_graphs_with_isolated_vertices_vs_bfs(self):
        rng = np.random.default_rng(811)
        isolated = 0
        for _ in range(200):
            g = random_graph(rng, 30, p=float(rng.uniform(0.0, 0.15)))
            labels = graphs._labels(g.vertex_count, g.edge_u, g.edge_v)
            assert labels.dtype == np.int32
            assert labels.tolist() == brute_components(g)
            isolated += int((g.degrees == 0).sum())
        assert isolated > 200

    def test_generators_vs_bfs(self):
        for text in ["figure2:6", "er:400:0.004:seed=3", "copies:7:tadpole31",
                     "union:0.6,0.3,0.1:50", "star:0", "path:1", "cycle:9"]:
            g = generate(parse_generator(text))
            labels = graphs._labels(g.vertex_count, g.edge_u, g.edge_v)
            assert labels.tolist() == brute_components(g), text

    def test_empty_and_one_vertex(self):
        empty, one = build_graph(0, []), build_graph(1, [])
        assert graphs._labels(0, empty.edge_u, empty.edge_v).tolist() == []
        assert graphs._labels(1, one.edge_u, one.edge_v).tolist() == [0]
        assert component_groups(empty, 5) == []
        assert component_groups(one, 5) == []

    def test_long_paths_take_few_rounds(self, monkeypatch):
        n = 100_000
        shuffled = np.random.default_rng(823).permutation(n)
        for g in (path(n), build_graph(n, np.stack([shuffled[:-1], shuffled[1:]], axis=1))):
            counter = _CountingMinimum()
            monkeypatch.setattr(np, "minimum", counter)
            labels = graphs._labels(g.vertex_count, g.edge_u, g.edge_v)
            monkeypatch.undo()
            assert not labels.any()
            # each tree merges within two rounds, so at most 2 * log2(n) + 2
            assert 1 <= counter.rounds <= 36
        assert counter.rounds > 1  # the shuffled path does need more than one

    @pytest.mark.parametrize("inner", ["star:3", "path:4", "complete:3", "tadpole31", "path:1"])
    def test_copies_form_one_group(self, inner):
        h = generate(parse_generator(inner))
        g = disjoint_copies(h, 25)
        [(copy, vertices)] = component_groups(g, h.vertex_count)
        assert same_edges(copy, h)
        k = h.vertex_count
        assert vertices.tolist() == [list(range(k * i, k * i + k)) for i in range(25)]
        assert component_groups(g, h.vertex_count - 1) == []
        assert component_groups(disjoint_copies(h, 1), h.vertex_count) == []

    def test_renumbered_isomorphic_copy_stays_apart(self):
        # the path 0-2-1-3 is a path:4 numbered otherwise
        renumbered = build_graph(4, [(0, 2), (1, 2), (1, 3)])
        g = disjoint_union(disjoint_copies(path(4), 3), renumbered, star(3))
        [(copy, vertices)] = component_groups(g, 4)
        assert same_edges(copy, path(4))
        assert vertices.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        # two of them group with each other, ordered by the relabelled edges
        g = disjoint_union(renumbered, path(4), renumbered, path(4))
        (first, first_rows), (second, second_rows) = component_groups(g, 4)
        assert same_edges(first, path(4)) and same_edges(second, renumbered)
        assert first_rows.tolist() == [[4, 5, 6, 7], [12, 13, 14, 15]]
        assert second_rows.tolist() == [[0, 1, 2, 3], [8, 9, 10, 11]]

    def test_groups_partition_the_matching_components(self):
        # er: isolated vertices, edges and short trees in several numberings
        for seed in range(5):
            g = generate(parse_generator(f"er:300:0.005:seed={seed}"))
            labels = np.array(brute_components(g))
            sizes = np.bincount(labels, minlength=g.vertex_count)
            groups = component_groups(g, 4)
            assert groups
            seen = set()
            for copy, vertices in groups:
                assert vertices.shape[0] >= 2
                for row in vertices.tolist():
                    assert row == sorted(row) and set(row) == set(np.flatnonzero(labels == row[0]))
                    ranks = {v: i for i, v in enumerate(row)}
                    edges = sorted((ranks[u], ranks[v]) for u, v in
                                   zip(g.edge_u.tolist(), g.edge_v.tolist()) if u in ranks)
                    assert edges == list(zip(copy.edge_u.tolist(), copy.edge_v.tolist()))
                    seen.add(row[0])
            # every small component left out has no identical copy
            keys = {}
            for root in np.flatnonzero((sizes >= 1) & (sizes <= 4)).tolist():
                row = np.flatnonzero(labels == root).tolist()
                ranks = {v: i for i, v in enumerate(row)}
                key = (len(row), tuple(sorted((ranks[u], ranks[v]) for u, v in zip(
                    g.edge_u.tolist(), g.edge_v.tolist()) if u in ranks)))
                keys.setdefault(key, []).append(root)
            assert seen == {root for roots in keys.values() if len(roots) >= 2 for root in roots}

    def test_small_vertices_next_to_a_large_one_form_no_group(self):
        # the leaves of two 5-stars have degree 1, but their components have
        # 6 vertices; the hubs are not labelled below max_vertices 5
        g = disjoint_union(star(5), star(5), path(2), path(2))
        [(copy, vertices)] = component_groups(g, 5)
        assert same_edges(copy, path(2)) and vertices.tolist() == [[12, 13], [14, 15]]
        assert len(component_groups(g, 6)) == 2
        within = g.degrees < 5
        inside = within[g.edge_u] & within[g.edge_v]
        labels = graphs._labels(g.vertex_count, g.edge_u[inside], g.edge_v[inside])
        assert labels.tolist() == list(range(12)) + [12, 12, 14, 14]

    def test_min_copies_one_covers_every_component(self):
        # the exact oracle's grouping: every component, with or without a copy
        for seed in range(3):
            g = generate(parse_generator(f"er:300:0.005:seed={seed}"))
            groups = component_groups(g, g.vertex_count, min_copies=1)
            rows = [row for _, vertices in groups for row in vertices.tolist()]
            assert sorted(v for row in rows for v in row) == list(range(g.vertex_count))
            assert sorted(row[0] for row in rows) == sorted(set(brute_components(g)))
            repeated = [(copy, vertices) for copy, vertices in groups if vertices.shape[0] >= 2]
            default = component_groups(g, g.vertex_count)
            assert len(repeated) == len(default)
            for (a, rows_a), (b, rows_b) in zip(repeated, default):
                assert same_edges(a, b) and np.array_equal(rows_a, rows_b)
        # a connected graph is its own copy, whatever its numbering
        g = build_graph(5, [(3, 1), (1, 4), (4, 0), (0, 2)])
        [(copy, vertices)] = component_groups(g, 5, min_copies=1)
        assert same_edges(copy, g) and vertices.tolist() == [[0, 1, 2, 3, 4]]


def _random_tree(rng, n):
    """A random recursive tree on n vertices, numbered in a random order."""
    label = rng.permutation(n)
    parent = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    return build_graph(n, np.stack([label[parent], label[1:]], axis=1))


def _with_extra_edges(rng, g, count):
    ends = rng.integers(0, g.vertex_count, size=(count, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    return build_graph(g.vertex_count, np.concatenate([np.stack([g.edge_u, g.edge_v], 1), ends]))


def _binary_tree(n):
    """The binary heap on n vertices: vertex i is the parent of 2i+1, 2i+2."""
    child = np.arange(1, n)
    return build_graph(n, np.stack([(child - 1) // 2, child], axis=1))


def _rake_rounds(monkeypatch, g):
    """The 2-core mask of ``pendant_trees(g)``, checked against the worklist
    peel, and its number of raking rounds: each round orders its raked
    nodes' edges by one ``np.argsort`` call that names no ``kind``, and no
    other call leaves out ``kind``."""
    calls = 0
    argsort = np.argsort

    def counting(*args, **kwargs):
        nonlocal calls
        calls += "kind" not in kwargs
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    core = pendant_trees(g)[0]
    monkeypatch.undo()
    assert set(np.flatnonzero(core).tolist()) == brute_two_core(g)
    return core, calls


class TestTwoCore:
    """The 2-core of the one rake against the one-at-a-time worklist peel."""

    @staticmethod
    def assert_brute(g):
        core = pendant_trees(g)[0]
        assert core.dtype == bool and core.shape == (g.vertex_count,)
        assert set(np.flatnonzero(core).tolist()) == brute_two_core(g)
        return core

    def test_empty_isolated_and_k2(self):
        for g in (build_graph(0, []), build_graph(6, []), path(2), path(1)):
            assert not self.assert_brute(g).any()

    def test_lone_cycle_is_one_run_and_stays(self):
        # every vertex has degree 2 and none is next to a leaf
        for n in (3, 4, 1000):
            assert self.assert_brute(cycle(n)).all()
        # paths beside it go, the cycle stays
        g = disjoint_union(cycle(50), path(30), path(2))
        assert self.assert_brute(g).tolist() == [True] * 50 + [False] * 32

    def test_two_cycles_joined_by_a_long_path_stay(self):
        # cycles 0..9 and 10..19, joined 9 - 20 - ... - 2019 - 10; a tail
        # hangs off the joining path's middle
        joint = 20 + np.arange(2000)
        g = disjoint_union(cycle(10), cycle(10), path(2000), path(700))
        extra = [(9, 20), (2019, 10), (1020, 2020)]
        g = build_graph(g.vertex_count, np.concatenate(
            [np.stack([g.edge_u, g.edge_v], 1), extra]))
        core = self.assert_brute(g)
        assert core[:20].all() and core[joint].all() and not core[2020:].any()

    def test_triangle_with_long_tails(self):
        tails = disjoint_union(complete(3), path(500), path(1), path(3000))
        g = build_graph(tails.vertex_count, np.concatenate(
            [np.stack([tails.edge_u, tails.edge_v], 1), [(0, 3), (1, 503), (2, 504)]]))
        assert np.flatnonzero(self.assert_brute(g)).tolist() == [0, 1, 2]

    def test_caterpillar_with_a_long_spine(self):
        spine = 10_000
        legs = np.arange(spine, 3 * spine)
        g = build_graph(3 * spine, np.concatenate([
            np.stack([np.arange(spine - 1), np.arange(1, spine)], 1),
            np.stack([legs % spine, legs], 1)]))
        assert not self.assert_brute(g).any()
        # one chord closing the spine leaves the spine as the core
        closed = build_graph(g.vertex_count, np.concatenate(
            [np.stack([g.edge_u, g.edge_v], 1), [(0, spine - 1)]]))
        assert np.flatnonzero(self.assert_brute(closed)).tolist() == list(range(spine))

    def test_complete_binary_tree(self):
        for height in range(1, 13):
            assert not self.assert_brute(_binary_tree(2 ** (height + 1) - 1)).any()

    def test_random_trees_with_and_without_extra_edges(self):
        rng = np.random.default_rng(1811)
        for _ in range(60):
            tree = _random_tree(rng, int(rng.integers(2, 400)))
            assert not self.assert_brute(tree).any()
            for extra in (1, 2, 5, 40):
                self.assert_brute(_with_extra_edges(rng, tree, extra))

    def test_random_graphs_and_generators(self):
        rng = np.random.default_rng(1813)
        for _ in range(300):
            self.assert_brute(random_graph(rng, 40, p=float(rng.uniform(0.0, 0.12))))
        for text in ["figure2:1", "figure2:30", "union:0.6,0.3,0.1:50", "copies:9:tadpole31",
                     "circulant:30:4", "er:2000:0.001:seed=5", "complete:6", "bipartite:4"]:
            self.assert_brute(generate(parse_generator(text)))

    def test_rounds_follow_the_height_of_the_trees(self, monkeypatch):
        # a complete binary tree of height h loses one level a round; its
        # root is a run of one between two nodes joined only to each other,
        # so the larger goes in round h and the smaller, now a root, in h + 1
        for height in (1, 2, 5, 14):
            core, rounds = _rake_rounds(monkeypatch, _binary_tree(2 ** (height + 1) - 1))
            assert not core.any() and rounds == height + 1
        # so does the binary heap on 10^5 vertices, of height 16
        core, rounds = _rake_rounds(monkeypatch, _binary_tree(100_000))
        assert not core.any() and rounds == 17
        core, _ = _rake_rounds(monkeypatch, _random_tree(np.random.default_rng(1817), 100_000))
        assert not core.any()
        # a path is one run between its two ends: the larger goes in round
        # 1, the smaller in round 2
        core, rounds = _rake_rounds(monkeypatch, path(100_000))
        assert not core.any() and rounds == 2
        # figure2's path end and star leaves go in round 1, the hub in round 2
        core, rounds = _rake_rounds(monkeypatch, figure2_composite(300))
        assert rounds == 2 and core.sum() == 45
        # no vertex of degree <= 1: the graph is its own 2-core, with no round
        core, rounds = _rake_rounds(monkeypatch, complete(60))
        assert core.all() and rounds == 0


def _shape_sizes(shapes):
    """Vertex count of each shape's subtree, its runs included."""
    sizes = []
    for children in shapes:
        sizes.append(1 + sum((sizes[child] + length) * count for child, length, count in children))
    return sizes


class TestPendantTrees:
    """The trees outside the 2-core, contracted and grouped by shape."""

    def test_trees_cover_every_tree_vertex(self):
        rng = np.random.default_rng(1831)
        graphs = [_with_extra_edges(rng, _random_tree(rng, int(rng.integers(2, 300))), k)
                  for k in (0, 1, 3, 20) for _ in range(10)]
        graphs += [random_graph(rng, 40, p=float(rng.uniform(0.0, 0.12))) for _ in range(60)]
        graphs += [generate(parse_generator(t)) for t in
                   ["figure2:1", "figure2:30", "union:0.6,0.3,0.1:50", "copies:9:tadpole31",
                    "er:2000:0.001:seed=5", "path:2", "star:0", "cycle:5", "complete:4"]]
        for g in graphs:
            core, shapes, trees = pendant_trees(g)
            assert set(np.flatnonzero(core).tolist()) == brute_two_core(g)
            sizes = _shape_sizes(shapes)
            labels = np.array(brute_components(g))
            whole = {root for root in set(labels.tolist())
                     if not core[labels == root].any() and (labels == root).sum() > 1}
            assert sum(anchors.size * (sizes[shape] + max(length, 0))
                       for shape, length, anchors in trees) == int((~core & (g.degrees > 0)).sum())
            assert sum(anchors.size for _, length, anchors in trees if length < 0) == len(whole)
            for shape, length, anchors in trees:
                assert np.all(anchors == -1) if length < 0 else core[anchors].all()
            assert len({(shape, length) for shape, length, _ in trees}) == len(trees)

    def test_figure2(self):
        # hub 0 with 299 leaves hangs off the clique by leaf 1, a run of one;
        # the path's end hangs off it by a run of 89,999
        core, shapes, trees = pendant_trees(figure2_composite(300))
        assert core.sum() == 45 and shapes == [(), ((0, 0, 299),)]
        assert [(s, k, a.tolist()) for s, k, a in trees] == [(0, 89_999, [302]), (1, 1, [301])]

    def test_isomorphic_trees_share_a_kind(self):
        # one random tree, numbered three ways, hung off three core vertices
        # by its vertex 0; a fourth copy is a whole component
        rng = np.random.default_rng(1837)
        tree = _random_tree(rng, 12)
        edges, n = [(0, 1), (1, 2), (2, 3), (3, 0)], 4
        for anchor in (0, 1, 2, None):
            label = np.concatenate([[0], 1 + rng.permutation(11)])  # vertex 0 stays first
            edges += [(n + label[u], n + label[v]) for u, v in zip(tree.edge_u.tolist(),
                                                                   tree.edge_v.tolist())]
            if anchor is not None:
                edges.append((anchor, n))
            n += 12
        core, shapes, trees = pendant_trees(build_graph(n, edges))
        assert core.sum() == 4 and len(trees) == 2
        assert sorted(a.tolist() for _, _, a in trees) == [[-1], [0, 1, 2]]


class TestUniqueRows:
    """The lexsort row dedup against ``np.unique(axis=0)``."""

    @staticmethod
    def assert_matches_unique(rows):
        keys, inverse, counts = graphs._unique_rows(rows)
        expected = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
        assert np.array_equal(keys, expected[0]) and keys.dtype == rows.dtype
        assert np.array_equal(inverse, expected[1].ravel()) and inverse.ndim == 1
        assert np.array_equal(counts, expected[2])

    def test_random_rows_with_heavy_ties(self):
        rng = np.random.default_rng(1821)
        for _ in range(200):
            count, width = int(rng.integers(1, 300)), int(rng.integers(1, 9))
            high = int(rng.choice([2, 3, 50, 1 << 40]))
            rows = rng.integers(-high, high, size=(count, width))
            self.assert_matches_unique(rows)
            self.assert_matches_unique(rows[rng.integers(0, 3, size=count)])

    def test_one_row_and_width_zero(self):
        self.assert_matches_unique(np.array([[3, -1, 2]]))
        self.assert_matches_unique(np.zeros((1, 0), dtype=np.int64))
        self.assert_matches_unique(np.zeros((7, 0), dtype=np.int64))
        self.assert_matches_unique(np.zeros((0, 4), dtype=np.int64))

    def test_groups_in_lexicographic_order(self):
        # er graphs hold isolated vertices, edges and short trees; the
        # renumbered copies of path:4 add a second group of that shape
        renumbered = build_graph(4, [(0, 2), (1, 2), (1, 3)])
        for seed in range(4):
            g = disjoint_union(generate(parse_generator(f"er:300:0.006:seed={seed}")),
                               renumbered, path(4), renumbered, path(4))
            groups = component_groups(g, 5)
            keys = [(copy.vertex_count, copy.edge_count,
                     list(zip(copy.edge_u.tolist(), copy.edge_v.tolist())))
                    for copy, _ in groups]
            assert keys == sorted(keys) and len(set(map(str, keys))) == len(keys)
            assert (1, 0, []) in keys and (4, 3, [(0, 2), (1, 2), (1, 3)]) in keys
            for _, vertices in groups:
                assert np.all(np.diff(vertices[:, 0]) > 0)
