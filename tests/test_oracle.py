from fractions import Fraction

import numpy as np
import pytest

from monostar.coloring import monte_carlo
from monostar.errors import BudgetExceededError
from monostar.graphs import build_graph, complete, cycle, generate, parse_generator, star
from monostar.oracle import exact_pmf
from monostar.pmf import pmf_mean, tv_distance
from monostar.stars import count_stars

from oracles import brute_exact_pmf, random_graph


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
        # digits decode into uint8 up to c = 256 and uint16 above; c**2
        # colorings span two chunks past c = 256
        pmf = exact_pmf(complete(3), 1, c)
        assert pmf.support == {0: Fraction((c - 1) * (c - 2), c**2),
                               2: Fraction(3 * (c - 1), c**2), 6: Fraction(1, c**2)}

    @pytest.mark.parametrize("c", [65536, 65537])
    def test_edge_at_color_dtype_boundaries(self, c):
        # uint16 digits at c = 2**16, uint32 one past it
        pmf = exact_pmf(build_graph(2, [(0, 1)]), 1, c)
        assert pmf.support == {0: Fraction(c - 1, c), 2: Fraction(1, c)}

    def test_budget_error_names_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            exact_pmf(complete(12), 2, 10, budget=1000)
        assert "budget" in str(err.value)
        assert err.value.budget == 1000


class TestMeanIdentity:
    @pytest.mark.parametrize("text", ["complete:3", "star:3", "cycle:4", "tadpole31"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("c", [2, 3])
    def test_exact_mean_identity(self, text, r, c):
        g = generate(parse_generator(text))
        assert pmf_mean(exact_pmf(g, r, c)) == Fraction(count_stars(g, r), c**r)

    def test_star3_r3_c2(self):
        assert pmf_mean(exact_pmf(star(3), 3, 2)) == Fraction(1, 8)

    def test_point_mass_mean(self):
        pmf = exact_pmf(build_graph(1, []), 2, 5)
        assert pmf_mean(pmf) == 0


class TestMonteCarloConvergence:
    def test_tv_shrinks_with_samples(self):
        g = cycle(5)
        exact = exact_pmf(g, 2, 3)
        tv_small = tv_distance(monte_carlo(g, 2, 3, 2_000, seed=1).to_pmf(), exact)
        tv_large = tv_distance(monte_carlo(g, 2, 3, 200_000, seed=1).to_pmf(), exact)
        assert tv_large < tv_small
        # binomial-tail scale: ~ sqrt(k / N) over a handful of support atoms
        assert tv_large < 0.01
