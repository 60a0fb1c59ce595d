import signal
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from monostar import oracle, stars
from monostar.coloring import monte_carlo
from monostar.errors import BudgetExceededError
from monostar.graphs import (build_graph, complete, component_groups, cycle, generate,
                             parse_generator, star)
from monostar.oracle import exact_pmf
from monostar.pmf import pmf_moments, tv_distance
from monostar.stars import count_stars

from oracles import brute_exact_pmf, coloring_exact_pmf, disjoint_union, random_graph


class TestExactPmf:
    def test_triangle(self):
        pmf = exact_pmf(complete(3), 2, 2)
        assert pmf.support == {0: Fraction(3, 4), 3: Fraction(1, 4)}
        assert pmf.deficit == 0

    def test_centered_path(self):
        pmf = exact_pmf(star(2), 2, 3)
        assert pmf.support == {0: Fraction(8, 9), 1: Fraction(1, 9)}

    def test_single_color_point_mass(self):
        for text in ["complete:4", "star:5", "tadpole31"]:
            g = generate(parse_generator(text))
            for r in (1, 2, 3):
                pmf = exact_pmf(g, r, 1)
                assert pmf.support == {count_stars(g, r): Fraction(1)}

    def test_empty_graph(self):
        pmf = exact_pmf(build_graph(0, []), 2, 3)
        assert pmf.support == {0: Fraction(1)}

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            g = random_graph(rng, 6)
            c = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            assert exact_pmf(g, r, c).support == brute_exact_pmf(g, r, c)

    def test_isolated_vertices(self):
        # isolated vertices, the pinned vertex 0 among them, add no stars but
        # multiply the colorings enumerated
        graphs = [build_graph(5, [(1, 2), (2, 3), (1, 3)]),
                  build_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3)]),
                  build_graph(4, []),
                  build_graph(7, [(2, 5), (5, 6)])]
        for g in graphs:
            for r, c in [(1, 2), (2, 3), (2, 2)]:
                assert exact_pmf(g, r, c).support == brute_exact_pmf(g, r, c)

    @pytest.mark.parametrize("c", [255, 256, 257])
    def test_triangle_at_color_dtype_boundaries(self, c):
        # the (c)_k weights at large c: the partitions into 3, 2 and 1
        # blocks stand for (c)_3, (c)_2 and c of the c**3 colorings
        pmf = exact_pmf(complete(3), 1, c)
        assert pmf.support == {0: Fraction((c - 1) * (c - 2), c**2),
                               2: Fraction(3 * (c - 1), c**2), 6: Fraction(1, c**2)}

    @pytest.mark.parametrize("c", [65536, 65537])
    def test_edge_at_color_dtype_boundaries(self, c):
        # the (c)_k weights at large c: (c)_2 and c**2 are about 2**32 here
        pmf = exact_pmf(build_graph(2, [(0, 1)]), 1, c)
        assert pmf.support == {0: Fraction(c - 1, c), 2: Fraction(1, c)}

    def test_budget_error_names_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            exact_pmf(complete(12), 2, 10, budget=1000)
        assert "budget" in str(err.value)
        assert err.value.budget == 1000
        # the partitions of 12 vertices into at most 10 blocks: B(12) less
        # S(12, 11) = 66 and S(12, 12) = 1
        assert err.value.cost == 4_213_530

    def test_budget_charges_each_distinct_component(self):
        # three copies of a 2-star: the 4 partitions of one copy with at most
        # 2 blocks, plus 10 convolution cells, not the 256 partitions of the
        # whole graph
        g = generate(parse_generator("copies:3:star:2"))
        pmf = exact_pmf(g, 2, 2, budget=100)
        assert pmf.support == {0: Fraction(27, 64), 1: Fraction(27, 64),
                               2: Fraction(9, 64), 3: Fraction(1, 64)}
        with pytest.raises(BudgetExceededError) as err:
            exact_pmf(g, 2, 2, budget=10)
        assert err.value.cost == 14
        # each shape's power is taken onto the law so far, which fixes the
        # order, and so the sizes, of the cells charged
        for parts, c, charge in [(["copies:3:star:2", "copies:7:tadpole31"], 3, 584),
                                 (["copies:7:tadpole31", "copies:5:star:3", "copies:3:path:3"],
                                  4, 2159)]:
            g = disjoint_union(*(generate(parse_generator(text)) for text in parts))
            pmf = exact_pmf(g, 2, c, budget=charge)
            assert pmf_moments(pmf, 1)[0] == Fraction(count_stars(g, 2), c**2)
            with pytest.raises(BudgetExceededError) as err:
                exact_pmf(g, 2, c, budget=charge - 1)
            assert err.value.cost == charge

    def test_complete_10_at_185_colors(self):
        # B(10) = 115,975 partitions stand in for 185^9 colorings
        g = complete(10)
        pmf = exact_pmf(g, 2, 185)
        assert pmf_moments(pmf, 1)[0] == Fraction(count_stars(g, 2), 185**2)

    def test_many_copies_refused_or_fast(self):
        # the convolution power's cells are charged by the size of their
        # counts, which grow to 21^40000: refused at once, never a long run.
        # The alarm makes a long run fail here rather than hang the suite
        def too_slow(signum, frame):
            raise TimeoutError("exact_pmf ran past 5 s")

        g = generate(parse_generator("copies:10000:star:3"))
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            pmf = exact_pmf(g, 3, 21)
        except BudgetExceededError as err:
            assert err.cost > err.budget == oracle.DEFAULT_ORACLE_BUDGET
        else:
            assert pmf_moments(pmf, 1)[0] == Fraction(10_000, 21**3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_object_star_table(self, monkeypatch):
        # values past int64 take an object table; N(t, k) is counted the same
        g = disjoint_union(complete(5), star(3), complete(5))
        want = exact_pmf(g, 2, 3).support
        monkeypatch.setattr(oracle, "star_table",
                            lambda g, r: stars.star_table(g, r).astype(object))
        assert exact_pmf(g, 2, 3).support == want


def _stirling2(n, k):
    """S(n, k) by the explicit sum over the surjections onto k blocks."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


class TestGrowthStrings:
    @pytest.mark.parametrize("n, blocks, chunk", [(1, 1, 4), (5, 1, 4), (6, 6, 1 << 16),
                                                  (7, 3, 5), (8, 8, 30), (9, 4, 1000)])
    def test_every_partition_once(self, monkeypatch, n, blocks, chunk):
        # small chunks split the prefixes at several depths
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        seen = []
        for strings, used in oracle._growth_strings(n, blocks):
            assert strings.shape == (n, used.size)
            assert strings.shape[1] <= chunk
            seen += [tuple(row) for row in strings.T.tolist()]
            assert used.tolist() == [max(row) + 1 for row in strings.T.tolist()]
        assert len(seen) == len(set(seen))
        # a restricted growth string starts at 0 and rises by at most 1
        assert all(s[0] == 0 and all(x <= max(s[:i]) + 1 for i, x in enumerate(s) if i)
                   for s in seen)
        assert all(max(s) < blocks for s in seen)
        assert len(seen) == sum(_stirling2(n, k) for k in range(1, blocks + 1))
        assert oracle._partition_count(n, blocks, 1 << 64) == len(seen)

    def test_partition_count_stops_past_cap(self):
        # rows only grow, so a count past the cap is a lower bound
        assert oracle._partition_count(1000, 2, 1 << 64) > 1 << 64
        assert oracle._partition_count(20, 20, 1 << 64) == 51_724_158_235_372

    def test_chunked_law_matches(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 7)
        for text, c in [("er:8:0.5:seed=3", 4), ("copies:2:tadpole31", 3), ("complete:6", 9)]:
            g = generate(parse_generator(text))
            assert exact_pmf(g, 2, c).support == coloring_exact_pmf(g, 2, c).support


def _sweep_graph(rng):
    """At most 9 vertices: a random part repeated 1-3 times, another part,
    and 0-2 isolated vertices, with the vertices shuffled."""
    while True:
        first = random_graph(rng, 4)
        parts = [first] * int(rng.integers(1, 4)) + [random_graph(rng, 4)]
        parts += [build_graph(1, [])] * int(rng.integers(0, 3))
        g = disjoint_union(*parts)
        if g.vertex_count <= 9:
            break
    perm = rng.permutation(g.vertex_count)
    return build_graph(g.vertex_count, np.stack([perm[g.edge_u], perm[g.edge_v]], axis=1))


# every graph is split into its components at either size; at the default
# a component's partitions fit one chunk, at 16 strings a chunk a component
# of more than 16 partitions takes several
CHUNKS = pytest.mark.parametrize("chunk", [1 << 16, 16], ids=["one-chunk", "multi-chunk"])


class TestAgainstColorings:
    """Set partitions against an enumeration of colorings."""

    @CHUNKS
    def test_sweep(self, monkeypatch, chunk):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        rng = np.random.default_rng(1717)
        seen = set()
        for case in range(300):
            g = _sweep_graph(rng)
            n = g.vertex_count
            c_max = int(2 ** (16 / max(n - 1, 1)))
            c = 1 if rng.random() < 0.15 else int(np.exp(rng.uniform(0, np.log(c_max + 1))))
            c = min(max(c, 1), c_max)
            r = int(rng.integers(1, g.max_degree() + 3))
            seen |= {label for label, hit in [
                ("isolated vertices", (g.degrees == 0).any()),
                ("identical components", bool(component_groups(g, n))),
                ("c = 1", c == 1), ("c > n", c > n), ("r > max degree", r > g.max_degree()),
            ] if hit}
            got, want = exact_pmf(g, r, c), coloring_exact_pmf(g, r, c)
            assert list(got.support.items()) == list(want.support.items()), (case, n, r, c)
            assert got.deficit == want.deficit == 0
        assert seen == {"isolated vertices", "identical components", "c = 1", "c > n",
                        "r > max degree"}

    @CHUNKS
    def test_criterion_1_battery(self, monkeypatch, chunk):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for text in ["complete:3", "complete:4", "star:3", "star:4", "cycle:4", "cycle:5",
                     "path:4", "tadpole31", "bipartite:3", "bipartite:4", "copies:2:star:2",
                     "er:9:0.4:seed=2"]:
            g = generate(parse_generator(text))
            for r, c in [(1, 2), (2, 3), (3, 4)]:
                assert exact_pmf(g, r, c).support == coloring_exact_pmf(g, r, c).support, (
                    text, r, c)


class TestMeanIdentity:
    @pytest.mark.parametrize("text", ["complete:3", "star:3", "cycle:4", "tadpole31"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("c", [2, 3])
    def test_exact_mean_identity(self, text, r, c):
        g = generate(parse_generator(text))
        assert pmf_moments(exact_pmf(g, r, c), 1)[0] == Fraction(count_stars(g, r), c**r)

    def test_star3_r3_c2(self):
        assert pmf_moments(exact_pmf(star(3), 3, 2), 1)[0] == Fraction(1, 8)

    def test_point_mass_mean(self):
        pmf = exact_pmf(build_graph(1, []), 2, 5)
        assert pmf_moments(pmf, 1)[0] == 0


class TestMonteCarloConvergence:
    def test_tv_shrinks_with_samples(self):
        g = cycle(5)
        exact = exact_pmf(g, 2, 3)
        tv_small = tv_distance(monte_carlo(g, 2, 3, 2_000, seed=1).to_pmf(), exact)
        tv_large = tv_distance(monte_carlo(g, 2, 3, 200_000, seed=1).to_pmf(), exact)
        assert tv_large < tv_small
        # binomial-tail scale: ~ sqrt(k / N) over a handful of support atoms
        assert tv_large < 0.01
