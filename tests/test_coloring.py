from fractions import Fraction

import numpy as np
import pytest

from monostar.coloring import (
    Coloring,
    EmpiricalDist,
    _CoreTreeSplit,
    empirical_moments,
    eval_T,
    eval_T_block,
    monte_carlo,
    star_table,
)
from monostar.errors import BudgetExceededError
from monostar.graphs import (build_graph, complete, cycle, generate, parse_generator, star,
                             two_core)
from monostar.oracle import exact_pmf
from monostar.stars import count_stars

from oracles import (brute_eval_T, brute_two_core, own_core_block_rows, random_graph,
                     reference_monte_carlo, with_pendant_trees)


def _coloring(g, values):
    return Coloring(colors=np.asarray(values, dtype=np.uint16), c=int(max(values)) + 1)


class TestEvalT:
    def test_cycle4_one_star(self):
        g = cycle(4)
        assert eval_T(g, 2, _coloring(g, [0, 0, 0, 1])) == 1

    def test_all_same_color_recovers_count(self):
        for text in ["complete:5", "star:6", "cycle:7", "tadpole31"]:
            g = generate(parse_generator(text))
            col = Coloring(colors=np.zeros(g.vertex_count, dtype=np.uint16), c=1)
            for r in (1, 2, 3):
                assert eval_T(g, r, col) == count_stars(g, r)

    def test_triangle_aba(self):
        assert eval_T(complete(3), 2, _coloring(complete(3), [0, 1, 0])) == 0

    def test_color_relabeling_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            g = random_graph(rng, 10)
            c = int(rng.integers(1, 5))
            col = Coloring(colors=rng.integers(0, c, size=g.vertex_count, dtype=np.uint16), c=c)
            perm = rng.permutation(c)
            relabeled = Coloring(colors=perm[col.colors].astype(col.colors.dtype), c=c)
            for r in (1, 2, 3):
                assert eval_T(g, r, col) == eval_T(g, r, relabeled)

    def test_brute_force_equivalence_battery(self):
        rng = np.random.default_rng(12345)
        for _ in range(300):
            g = random_graph(rng, 12)
            c = int(rng.integers(1, 6))
            r = int(rng.integers(1, 4))
            col = Coloring(colors=rng.integers(0, c, size=g.vertex_count, dtype=np.uint16), c=c)
            assert eval_T(g, r, col) == brute_eval_T(g, r, col.colors)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            eval_T(cycle(4), 2, _coloring(complete(3), [0, 1, 0]))


class TestMonteCarlo:
    def test_single_edge_match_rate(self):
        # a matched edge carries one 1-star per endpoint, so T is 2, not 1
        g = build_graph(2, [(0, 1)])
        dist = monte_carlo(g, 1, 2, 1_000_000, seed=7)
        assert set(dist.counts) == {0, 2}
        freq = dist.counts.get(2, 0) / dist.total_samples
        assert abs(freq - 0.5) < 0.002

    def test_triangle_pmf(self):
        dist = monte_carlo(complete(3), 2, 2, 200_000, seed=3)
        assert set(dist.counts) <= {0, 3}
        assert abs(dist.counts[0] / dist.total_samples - 0.75) < 0.005

    def test_worker_count_invariance(self):
        g = generate(parse_generator("er:60:0.1:seed=2"))
        dists = [monte_carlo(g, 2, 5, 30_000, seed=11, workers=w) for w in (1, 2, 8)]
        assert dists[0].counts == dists[1].counts == dists[2].counts

    def test_mean_matches_expectation_identity(self):
        g = complete(4)
        r, c = 2, 3
        dist = monte_carlo(g, r, c, 200_000, seed=17)
        mean = empirical_moments(dist, 1)[0]
        expected = Fraction(count_stars(g, r), c**r)
        second = empirical_moments(dist, 2)[1]
        se = float(second - mean**2) ** 0.5 / dist.total_samples**0.5
        assert abs(float(mean - expected)) < 3 * se + 1e-12

    def test_complete_graph_multiples_of_r_plus_1(self):
        for r in (1, 2, 3):
            dist = monte_carlo(complete(8), r, 2, 20_000, seed=23)
            assert all(v % (r + 1) == 0 for v in dist.counts)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            monte_carlo(complete(100), 2, 2, 10**10, seed=0)

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            monte_carlo(complete(3), 2, 2, 10, seed=-1)
        with pytest.raises(ValueError):
            monte_carlo(complete(3), 2, 2, 10, seed=1 << 64)

    @pytest.mark.filterwarnings("error")
    def test_seeds_past_2_63_keep_their_low_bits(self):
        g = complete(6)
        counts = {}
        for seed in (1 << 63, (1 << 63) + 1, (1 << 64) - 1):
            counts[seed] = monte_carlo(g, 2, 3, 2000, seed).counts
            assert counts[seed] == reference_monte_carlo(g, 2, 3, 2000, seed,
                                                         own_core_block_rows(g))
        assert counts[1 << 63] != counts[(1 << 63) + 1]

    def test_vanishing_mean_kills_positive_probability(self):
        # raising c so the mean drops drives P(T > 0) down monotonically
        g = star(30)
        rates = []
        for c in (10, 30, 100, 300):
            dist = monte_carlo(g, 2, c, 20_000, seed=5)
            rates.append(1 - dist.counts.get(0, 0) / dist.total_samples)
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] < 0.05


def _z_scores(counts_a: dict, n_a: int, counts_b: dict, n_b: int) -> list[float]:
    """Two-proportion z score of every value seen in either histogram."""
    out = []
    for v in set(counts_a) | set(counts_b):
        pa, pb = counts_a.get(v, 0) / n_a, counts_b.get(v, 0) / n_b
        pooled = (counts_a.get(v, 0) + counts_b.get(v, 0)) / (n_a + n_b)
        if pooled < 1:
            out.append(abs(pa - pb) / (pooled * (1 - pooled) * (1 / n_a + 1 / n_b)) ** 0.5)
    return out


def _mixed_graphs():
    rng = np.random.default_rng(2718)
    return [with_pendant_trees(rng, random_graph(rng, 6, p=0.7), 4) for _ in range(3)]


class TestCoreTreeSampler:
    """The sampler draws colors for the 2-core only and pendant-tree matches as
    Bernoulli(1/c) hits; each part is checked against an independent oracle."""

    def test_peel_matches_brute_force_core(self):
        texts = ["figure2:1", "figure2:3", "figure2:6", "tadpole31", "cycle:3", "cycle:9",
                 "path:1", "path:2", "path:9", "path:3000", "star:0", "star:7",
                 "copies:3:tadpole31", "copies:4:star:2", "complete:5", "bipartite:3"]
        graphs = [generate(parse_generator(t)) for t in texts]
        rng = np.random.default_rng(31)
        for _ in range(40):
            graphs.append(with_pendant_trees(rng, random_graph(rng, 8),
                                             int(rng.integers(0, 8))))
        for g in graphs:
            assert set(np.flatnonzero(two_core(g)).tolist()) == brute_two_core(g)

    def test_own_core_graph_matches_reference_sampler_exactly(self):
        # nothing to peel: the same colors as the explicit reference, sample
        # for sample, across more than one block
        for text, r, c in [("complete:3", 2, 2), ("complete:5", 2, 3), ("cycle:6", 1, 2),
                           ("bipartite:3", 2, 2)]:
            g = generate(parse_generator(text))
            assert two_core(g).all()
            block = own_core_block_rows(g)
            samples = block + 900
            dist = monte_carlo(g, r, c, samples, seed=41, workers=2)
            assert dist.counts == reference_monte_carlo(g, r, c, samples, 41, block), text

    def test_mixed_graphs_and_forests_within_noise_of_exact(self):
        # every value's frequency within 5 standard errors of its exact
        # probability, and no value outside the exact support
        samples = 200_000
        cases = [("tadpole31", 2, 2), ("tadpole31", 3, 2), ("path:6", 2, 2),
                 ("star:4", 2, 3), ("figure2:2", 2, 2), ("copies:2:tadpole31", 2, 3)]
        graphs = [(text, generate(parse_generator(text)), r, c) for text, r, c in cases]
        graphs += [("mixed", g, 2, 2) for g in _mixed_graphs()]
        for label, g, r, c in graphs:
            law = exact_pmf(g, r, c).support
            dist = monte_carlo(g, r, c, samples, seed=43)
            assert set(dist.counts) <= set(law), label
            for v, p in law.items():
                se = float(p * (1 - p) / samples) ** 0.5
                assert abs(dist.counts.get(v, 0) / samples - float(p)) <= 5 * se + 1e-12, (label, v)

    def test_path_3000_forest_mean(self):
        # a path is all tree: T(r=1) counts both ends of every matched edge,
        # a 2 * Binomial(2999, 1/3) law
        g = generate(parse_generator("path:3000"))
        samples = 4_000
        dist = monte_carlo(g, 1, 3, samples, seed=9)
        assert all(v % 2 == 0 for v in dist.counts)
        mean = float(empirical_moments(dist, 1)[0])
        sd = 2 * (2999 * (1 / 3) * (2 / 3)) ** 0.5
        assert abs(mean - 2 * 2999 / 3) <= 5 * sd / samples**0.5

    def test_mid_size_mixed_graph_two_sample_vs_reference(self):
        # figure2:12 has a K6 core and 157 tree vertices; the reference draws
        # all 163 colors explicitly and counts stars by brute force
        rng = np.random.default_rng(47)
        cases = [(generate(parse_generator("figure2:12")), 2, 12),
                 (with_pendant_trees(rng, complete(7), 60), 2, 6)]
        for g, r, c in cases:
            assert 0 < two_core(g).sum() < g.vertex_count
            ref = reference_monte_carlo(g, r, c, 6000, seed=53, block=500)
            dist = monte_carlo(g, r, c, 100_000, seed=59)
            assert max(_z_scores(dist.counts, 100_000, ref, 6000)) <= 5

    def test_mixed_graph_worker_invariance(self):
        for text, r, c, samples in [("figure2:20", 2, 20, 20_000),
                                    ("copies:2000:star:3", 3, 5, 5_000),
                                    ("path:3000", 2, 3, 2_000)]:
            g = generate(parse_generator(text))
            dists = [monte_carlo(g, r, c, samples, seed=61, workers=w) for w in (1, 2, 8)]
            assert dists[0].counts == dists[1].counts == dists[2].counts, text

    def test_skip_extremes(self):
        # c = 1: every tree edge matches, T = n_star; c = 2**40: gaps clipped
        # past the end, no tree edge matches
        for text, r in [("path:50", 2), ("figure2:4", 2), ("copies:30:star:3", 3)]:
            g = generate(parse_generator(text))
            assert monte_carlo(g, r, 1, 300, seed=67).counts == {count_stars(g, r): 300}
            assert monte_carlo(g, r, 1 << 40, 300, seed=71).counts == {0: 300}


def _split_T(g, r, colors):
    """T of each row of ``colors`` (rows, n) through the kernel as the sampler
    feeds it: core colors vertex-major, and every tree edge whose two colors
    agree passed as a hit at both of its ends."""
    split = _CoreTreeSplit.of(g)
    core = two_core(g)
    local = colors[:, np.concatenate([np.flatnonzero(core), np.flatnonzero(~core)])].T
    tree_u, tree_v = split.tree_ends
    row, t = np.nonzero((local[tree_u] == local[tree_v]).T)
    return eval_T_block(star_table(g, r), np.ascontiguousarray(local[:split.core_count]),
                        split.core_u, split.core_v, row, split.tree_ends[:, t])


class TestVertexMajorKernel:
    """The one kernel behind monte_carlo, eval_T and exact_pmf, checked row for
    row against brute_eval_T and the explicit reference sampler."""

    def test_core_first_numbering(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            g = with_pendant_trees(rng, random_graph(rng, 8, p=0.6), int(rng.integers(0, 10)))
            split = _CoreTreeSplit.of(g)
            k = split.core_count
            assert k == len(brute_two_core(g))
            assert split.core_u.size + split.tree_ends.shape[1] == g.edge_count
            assert np.all(split.core_u < k) and np.all(split.core_v < k)
            # a tree edge has at most one core end
            assert np.all((split.tree_ends < k).sum(axis=0) <= 1)

    def test_tree_hits_at_core_vertices_and_forests_vs_brute(self):
        # pendant trees hung on core vertices put tree hits into the dense
        # counts; forests (k = 0) send every hit down the sparse route
        rng = np.random.default_rng(79)
        graphs = [with_pendant_trees(rng, random_graph(rng, 7, p=0.7), int(rng.integers(1, 9)))
                  for _ in range(25)]
        graphs += [with_pendant_trees(rng, complete(4), 6), with_pendant_trees(rng, cycle(5), 8)]
        forests = [generate(parse_generator(t))
                   for t in ["path:9", "star:6", "copies:3:star:2", "figure2:1"]]
        forests += [with_pendant_trees(rng, build_graph(1, []), 10) for _ in range(5)]
        assert all(two_core(g).sum() == 0 for g in forests)
        assert all(0 < two_core(g).sum() < g.vertex_count for g in graphs[-2:])
        for g in graphs + forests:
            for r, c in [(1, 2), (2, 2), (2, 3), (3, 2)]:
                colors = rng.integers(0, c, size=(40, g.vertex_count), dtype=np.uint16)
                expected = [brute_eval_T(g, r, row) for row in colors]
                assert _split_T(g, r, colors).tolist() == expected

    def test_sampler_counts_both_tree_ends_at_one_color(self):
        # c = 1: every edge matches, so T = n_star exactly, with tree hits at
        # core vertices (dense counts) and at tree vertices (sparse)
        rng = np.random.default_rng(97)
        for core in (complete(4), cycle(5), build_graph(1, [])):
            g = with_pendant_trees(rng, core, 12)
            for r in (1, 2, 3):
                assert monte_carlo(g, r, 1, 50, seed=101).counts == {count_stars(g, r): 50}

    @pytest.mark.parametrize("c", [255, 256, 257, 65536, 65537])
    def test_color_dtype_boundaries_vs_reference_sampler(self, c):
        # colors are drawn as uint16 (uint32 past 2**16) and compared as the
        # smallest type holding c - 1: uint8, uint16 or uint32
        g = complete(40)
        dist = monte_carlo(g, 1, c, 400, seed=83)
        assert dist.counts == reference_monte_carlo(g, 1, c, 400, 83, own_core_block_rows(g))
        assert len(dist.counts) > 1

    @pytest.mark.parametrize("c", [255, 256, 257, 65536, 65537])
    def test_color_dtype_boundaries_eval_T(self, c):
        rng = np.random.default_rng(c)
        g = with_pendant_trees(rng, complete(12), 5)
        dtype = np.uint16 if c <= 1 << 16 else np.uint32
        for _ in range(20):
            # few colors in play, so that edges match
            palette = rng.choice(c, size=3, replace=False).astype(dtype)
            col = Coloring(colors=rng.choice(palette, size=g.vertex_count), c=c)
            assert eval_T(g, 2, col) == brute_eval_T(g, 2, col.colors)

    def test_empty_graph_and_single_vertex(self):
        for n in (0, 1):
            g = build_graph(n, [])
            assert eval_T(g, 2, Coloring(colors=np.zeros(n, dtype=np.uint16), c=3)) == 0
            for workers in (1, 2):
                assert monte_carlo(g, 2, 3, 500, seed=89, workers=workers).counts == {0: 500}
            assert exact_pmf(g, 2, 3).support == {0: Fraction(1)}


class TestExactSums:
    """Row sums past 2**63 are summed as Python ints, not wrapped in int64."""

    def test_monte_carlo_past_int64(self):
        assert count_stars(complete(65), 32) == 119120569161268384710
        # a graph that is all core, and one that is all tree
        for g, r, samples in [(complete(65), 32, 10), (complete(65), 32, 100),
                              (star(70), 35, 50)]:
            assert monte_carlo(g, r, 1, samples, seed=0).counts == {count_stars(g, r): samples}

    def test_exact_pmf_complete_65_r32(self):
        n_star = count_stars(complete(65), 32)
        assert exact_pmf(complete(65), 32, 1).support == {n_star: Fraction(1)}


class TestEmpiricalDist:
    def test_moments_single_sample(self):
        d = EmpiricalDist(counts={5: 1}, total_samples=1, seed=0)
        assert empirical_moments(d, 1) == [Fraction(5)]

    def test_moments_two_point(self):
        d = EmpiricalDist(counts={0: 1, 3: 1}, total_samples=2, seed=0)
        assert empirical_moments(d, 2) == [Fraction(3, 2), Fraction(9, 2)]

    def test_mc_moments_match_exact_within_3se(self):
        from monostar.pmf import pmf_moments

        g = complete(3)
        dist = monte_carlo(g, 2, 2, 400_000, seed=29)
        exact = pmf_moments(exact_pmf(g, 2, 2), 2)
        emp = empirical_moments(dist, 2)
        # var of T: moments of T^j bounded by 9, crude SE bound suffices
        for j in range(2):
            se = 9 / dist.total_samples**0.5
            assert abs(float(emp[j] - exact[j])) < 3 * se

    def test_histogram_consistency_enforced(self):
        with pytest.raises(ValueError):
            EmpiricalDist(counts={0: 3}, total_samples=5, seed=0)

    def test_json_round_shape(self):
        d = EmpiricalDist(counts={0: 2, 3: 1}, total_samples=3, seed=9)
        assert d.to_json_dict() == {"seed": 9, "samples": 3, "counts": {"0": 2, "3": 1}}
        assert d.to_csv() == "value,count\n0,2\n3,1\n"

    def test_to_pmf_exact(self):
        d = EmpiricalDist(counts={0: 3, 3: 1}, total_samples=4, seed=0)
        pmf = d.to_pmf()
        assert pmf.is_exact
        assert pmf.support == {0: Fraction(3, 4), 3: Fraction(1, 4)}
