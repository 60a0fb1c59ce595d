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
    star,
    star_union,
    tadpole31,
)

from oracles import reference_erdos_renyi_edges


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
            "disjoint-copies", count=10000, inner=GeneratorSpec("star", n=3))

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
_SCALE = {"star": 6, "star-union": 6, "complete": 6, "complete-bipartite": 6, "cycle": 6,
          "path": 6, "circulant": 6, "tadpole31": 1, "disjoint-copies": 3, "figure2": 6,
          "erdos-renyi": 6}


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
    row = graphs._BY_KIND[spec.kind]
    # first name, then every option that is set, defaults included
    options = [f"{option}={getattr(spec, attr)}" for option, (attr, *_) in row.options.items()
               if getattr(spec, attr) is not None]
    canonical = ":".join([row.names[0], *(_SAMPLE[attr] for attr, *_ in row.fields), *options])
    assert parse_generator(canonical) == spec
    name, sep, rest = text.partition(":")
    assert parse_generator(f" {name.upper()}{sep}{rest} ") == spec
    assert generator_scale(spec) == _SCALE[spec.kind]
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
    g = generate(GeneratorSpec("star", n=2))
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
