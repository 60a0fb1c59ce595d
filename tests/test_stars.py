from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monostar import stars
from monostar.errors import BudgetExceededError
from monostar.graphs import (
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    generate,
    parse_generator,
    path,
    star,
    tadpole31,
)
from monostar.stars import class_counts, count_stars

from oracles import (brute_adjacency, brute_class_counts, brute_clique_pair_counts,
                     brute_count_stars, brute_triangles, enumerate_class_counts,
                     random_graph, with_pendant_trees)

# star visits up to which a randomized case is also run through the
# enumeration oracle, which spends a few microseconds per visit
ENUMERATION_CAP = 400_000


@st.composite
def triangle_graphs(draw):
    """A graph of ``random_graph``'s kind on up to 14 vertices, with up to
    three triangles planted on its vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_graph(rng, 14, p=float(rng.uniform(0.05, 0.5)))
    n = g.vertex_count
    if n < 3:
        return g
    planted = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                                     unique=True), max_size=3))
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    edges += [(a, b) for x, y, z in planted for a, b in ((x, y), (y, z), (x, z))]
    return build_graph(n, edges)


def complete_minus(n, missing):
    u, v = np.triu_indices(n, 1)
    keep = np.ones(u.size, dtype=bool)
    for a, b in missing:
        keep &= ~((u == min(a, b)) & (v == max(a, b)))
    return build_graph(n, np.stack((u[keep], v[keep]), axis=1))


class TestCountStars:
    def test_triangle(self):
        assert count_stars(complete(3), 2) == 3

    @pytest.mark.parametrize("n,r", [(3, 2), (5, 2), (7, 3), (10, 4)])
    def test_star_formula(self, n, r):
        assert count_stars(star(n), r) == comb(n, r)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_formula_vs_brute(self, n):
        for r in (1, 2, 3):
            g = complete(n)
            assert count_stars(g, r) == n * comb(n - 1, r)
            assert count_stars(g, r) == brute_count_stars(g, r)

    def test_zero_when_max_degree_small(self):
        assert count_stars(cycle(5), 3) == 0

    def test_empty_graph(self):
        assert count_stars(build_graph(0, []), 2) == 0

    def test_big_integer_exactness(self):
        # C(5000, 3) overflows 32-bit arithmetic comfortably
        assert count_stars(star(5000), 3) == comb(5000, 3)

    @given(st.integers(0, 9), st.integers(1, 4), st.random_module())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, r, _rnd):
        g = random_graph(np.random.default_rng(n * 31 + r), n)
        assert count_stars(g, r) == brute_count_stars(g, r)


class TestClassCounts:
    def test_triangle(self):
        cc = class_counts(complete(3), 2)
        assert cc.class_counts == (0, 0, 1)
        assert 3 * 1 == cc.n_star

    def test_cycle4(self):
        assert class_counts(cycle(4), 2).class_counts == (4, 0, 0)

    def test_tadpole_r3(self):
        assert class_counts(tadpole31(), 3).class_counts == (1, 0, 0, 0)

    def test_r1_counts_edges_twice(self):
        g = cycle(6)
        cc = class_counts(g, 1)
        assert cc.class_counts == (0, 6)
        assert cc.n_star == 12

    def test_complete_r2(self):
        # every 3-subset of K_n induces a triangle
        cc = class_counts(complete(6), 2)
        assert cc.class_counts == (0, 0, comb(6, 3))

    def test_bipartite_has_only_class1(self):
        cc = class_counts(complete_bipartite(4), 2)
        assert cc.class_counts[1:] == (0, 0)
        assert cc.class_counts[0] == cc.n_star

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as err:
            class_counts(star(100), 2, budget=10)
        assert err.value.budget == 10

    def test_budget_refuses_only_above_star_count(self):
        # triangle-rich: the refusal rule counts star visits, not cliques
        g = complete(8)
        n_star = count_stars(g, 3)
        assert class_counts(g, 3, budget=n_star).class_counts == (0, 0, 0, comb(8, 4))
        with pytest.raises(BudgetExceededError) as err:
            class_counts(g, 3, budget=n_star - 1)
        assert err.value.cost == n_star

    def test_json_serialization(self):
        d = class_counts(complete(3), 2).to_json_dict()
        assert d == {"r": 2, "n_star": "3", "lambda_raw": ["0", "0", "1"]}

    @given(st.integers(0, 9), st.integers(1, 3), st.random_module())
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_classifier(self, n, r, _rnd):
        g = random_graph(np.random.default_rng(n * 101 + r), n)
        assert class_counts(g, r).class_counts == brute_class_counts(g, r)

    @given(st.integers(0, 9), st.integers(1, 3), st.random_module())
    @settings(max_examples=80, deadline=None)
    def test_counting_identity(self, n, r, _rnd):
        g = random_graph(np.random.default_rng(n * 53 + r), n)
        cc = class_counts(g, r)
        assert sum(k * lam for k, lam in enumerate(cc.class_counts, start=1)) == cc.n_star

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("pendant", [False, True])
    def test_shortcut_and_enumeration_match_subset_classifier(self, seed, pendant):
        # pendant trees add centers in no triangle, which take the closed form
        rng = np.random.default_rng(seed + 1000 * pendant)
        g = random_graph(rng, 8, p=float(rng.uniform(0.2, 0.7)))
        if pendant:
            g = with_pendant_trees(rng, g, int(rng.integers(1, 5)))
        for r in (1, 2, 3, 4):
            assert class_counts(g, r).class_counts == brute_class_counts(g, r), (seed, r)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("pendant", [False, True])
    def test_cliques_match_enumeration(self, seed, pendant):
        rng = np.random.default_rng(7000 + seed + 100 * pendant)
        n, p = int(rng.integers(20, 61)), float(rng.uniform(0.3, 0.8))
        u, v = np.triu_indices(n, 1)
        keep = rng.random(u.size) < p
        g = build_graph(n, np.stack((u[keep], v[keep]), axis=1))
        if pendant:
            g = with_pendant_trees(rng, g, int(rng.integers(5, 40)))
        checked = 0
        for r in range(2, 6):
            if count_stars(g, r) <= ENUMERATION_CAP:
                want = enumerate_class_counts(g, r)
                assert class_counts(g, r) == want, (seed, r)
                checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_clique_pair_counts_invert_to_classes(self, n, r):
        # the package's Lambda mapped forward, N_j = sum_k C(k, j) Lambda_k,
        # against N_j from its clique definition
        g = random_graph(np.random.default_rng(n * 71 + r), n)
        lams = class_counts(g, r).class_counts
        pairs = [sum(comb(k, j) * lam for k, lam in enumerate(lams, start=1))
                 for j in range(1, r + 2)]
        assert pairs == brute_clique_pair_counts(g, r)

    @pytest.mark.parametrize("n", range(13))
    def test_complete_closed_form(self, n):
        for r in range(1, 7):
            assert class_counts(complete(n), r).class_counts == (0,) * r + (comb(n, r + 1),)

    @pytest.mark.parametrize("n,r", [(40, 39), (30, 20), (41, 38)])
    def test_complete_at_large_r(self, n, r):
        # few stars but 2^n cliques: the extensions of a clique whose later
        # common neighbors are all adjacent are counted in closed form
        assert class_counts(complete(n), r).class_counts == (0,) * r + (comb(n, r + 1),)

    @pytest.mark.parametrize("n,m,r,labels", [
        (30, 1, 27, "high"), (30, 1, 27, "low"), (40, 1, 36, "high"), (40, 1, 36, "low"),
        (20, 10, 9, "shuffled"), (20, 10, 12, "shuffled"), (30, 5, 25, "shuffled"),
        (24, 12, 5, "shuffled")])
    def test_complete_minus_matching(self, n, m, r, labels):
        # K_n less m disjoint edges: a subset holding t whole missing pairs
        # has r+1-2t centers. The ends of a missing edge are never adjacent to
        # all other common neighbors, whatever their labels.
        order = {"high": list(range(n))[::-1], "low": list(range(n)),
                 "shuffled": np.random.default_rng(n + m + r).permutation(n).tolist()}[labels]
        g = complete_minus(n, [(order[2 * i], order[2 * i + 1]) for i in range(m)])
        want = [0] * (r + 2)
        for t in range(m + 1):
            if r + 1 - 2 * t >= 1:
                want[r + 1 - 2 * t] = comb(m, t) * sum(
                    comb(m - t, i) * 2 ** i * comb(n - 2 * m, r + 1 - 2 * t - i)
                    for i in range(r + 2 - 2 * t))
        got = class_counts(g, r, budget=10**12)
        assert got.class_counts == tuple(want[1:])
        if got.n_star <= 20_000:
            assert got == enumerate_class_counts(g, r)

    @pytest.mark.parametrize("seed", range(6))
    def test_near_complete_match_enumeration(self, seed):
        rng = np.random.default_rng(7100 + seed)
        n = int(rng.integers(12, 23))
        u, v = np.triu_indices(n, 1)
        drop = rng.choice(u.size, int(rng.integers(1, 2 * n)), replace=False)
        g = complete_minus(n, list(zip(u[drop].tolist(), v[drop].tolist())))
        checked = 0
        for r in range(n - 7, n - 1):
            if count_stars(g, r) <= ENUMERATION_CAP:
                assert class_counts(g, r) == enumerate_class_counts(g, r), (seed, r)
                checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_copies_of_k6(self, r):
        g = generate(parse_generator("copies:5:complete:6"))
        cc = class_counts(g, r)
        assert cc.class_counts == (0,) * r + (5 * comb(6, r + 1),)
        assert cc == enumerate_class_counts(g, r)

    def test_k60_r4_closed_form(self):
        assert class_counts(complete(60), 4).class_counts == (0, 0, 0, 0, comb(60, 5))

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 16])
    @given(g=triangle_graphs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(g=star(5))  # every arc flipped to a leaf: no wedge
    @example(g=path(6))  # one flipped arc, still in order: no wedge
    @example(g=build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]))  # bowtie
    def test_triangle_vertices_against_brute_force(self, monkeypatch, chunk, g):
        # the mask, the triangle count and the r = 2 class counts they give
        monkeypatch.setattr(stars, "_WEDGE_CHUNK", chunk)
        want, triangles = brute_triangles(brute_adjacency(g))
        in_triangle, count = stars._triangle_vertices(g)
        assert np.array_equal(in_triangle, want) and count == triangles
        assert class_counts(g, 2) == enumerate_class_counts(g, 2)
