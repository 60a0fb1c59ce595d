import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monostar import pmf
from monostar.graphs import generate, parse_generator
from monostar.limits import figure2_params, limit_pmf
from monostar.oracle import exact_pmf
from monostar.pmf import CUT, Pmf, add_laws, merge_law, pmf_moments, power, tv_distance


def exact(d):
    total = sum(Fraction(x) for x in d.values())
    return Pmf({k: Fraction(v) for k, v in d.items()}, Fraction(1) - total)


class TestPmfType:
    def test_exact_flavor_mass_checked(self):
        with pytest.raises(ValueError):
            Pmf({0: Fraction(1, 2)}, Fraction(0))

    def test_float_flavor_tolerance(self):
        Pmf({0: 0.5, 1: 0.5 - 1e-13}, 0.0)  # inside 1e-12
        with pytest.raises(ValueError):
            Pmf({0: 0.5, 1: 0.4}, 0.0)

    def test_float_mass_is_exactly_rounded(self):
        # each tiny atom is under half a unit in the last place of a running
        # sum near 1, so a left-to-right sum drops all 40,000 of them: 1.7e-12
        # of mass, though the exactly rounded sum is 1
        tiny, k = 1.5 * 2.0**-55, 40_000
        support = {0: 0.5, 1: 0.5 - k * tiny, **dict.fromkeys(range(2, k + 2), tiny)}
        assert 1.0 - sum(support.values()) > 1e-12
        assert Pmf(support, 0.0).deficit == 0.0

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Pmf({0: Fraction(3, 2), 1: Fraction(-1, 2)}, Fraction(0))

    def test_support_sorted(self):
        p = Pmf({3: 0.25, 0: 0.75}, 0.0)
        assert list(p.support) == [0, 3]

    def test_exact_json(self):
        p = exact({0: Fraction(3, 4), 3: Fraction(1, 4)})
        assert p.to_json_dict() == {
            "support": {"0": "3/4", "3": "1/4"},
            "deficit": "0",
        }

    def test_csv(self):
        p = exact({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert p.to_csv() == "value,probability\n0,1/2\n2,1/2\n"

    def test_moments(self):
        p = exact({0: Fraction(3, 4), 3: Fraction(1, 4)})
        assert pmf_moments(p, 1)[0] == Fraction(3, 4)
        assert pmf_moments(p, 2) == [Fraction(3, 4), Fraction(9, 4)]

    def test_moments_of_float_pmf_are_exact(self):
        # a float probability counts as the binary fraction it stores
        assert pmf_moments(Pmf({0: 0.25, 1: 0.75}), 2) == [Fraction(3, 4), Fraction(3, 4)]
        p = limit_pmf(figure2_params(1.0))
        for j, moment in enumerate(pmf_moments(p, 4), start=1):
            want = math.fsum(prob * v**j for v, prob in p.support.items())
            assert float(moment) == pytest.approx(want, rel=1e-12)


class TestTvDistance:
    def test_identical_is_zero(self):
        p = exact({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        p = exact({0: Fraction(1)})
        q = exact({5: Fraction(1)})
        assert tv_distance(p, q) == 1.0

    def test_quarter(self):
        p = exact({0: Fraction(3, 4), 3: Fraction(1, 4)})
        q = exact({0: Fraction(1)})
        assert tv_distance(p, q) == 0.25

    def test_linear_time_on_large_exact_pmfs(self):
        # exactness is fixed at construction; a per-lookup check that walks the
        # support makes this quadratic (minutes at this size)
        n = 20_000
        p = Pmf({v: Fraction(1, n) for v in range(n)}, Fraction(0))
        q = Pmf({v: Fraction(1, n) for v in range(n // 2, n // 2 + n)}, Fraction(0))
        started = time.perf_counter()
        assert tv_distance(p, q) == pytest.approx(0.5)
        assert p.to_csv().count("\n") == n + 1
        assert time.perf_counter() - started < 5.0

    def test_deficit_enters_shared_atom(self):
        p = Pmf({0: 0.9}, 0.1)
        q = Pmf({0: 0.9, 1: 0.1}, 0.0)
        assert tv_distance(p, q) == pytest.approx(0.1)

    @st.composite
    @staticmethod
    def small_pmf(draw):
        n = draw(st.integers(1, 5))
        values = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        total = sum(weights)
        return Pmf({v: Fraction(w, total) for v, w in zip(values, weights)}, Fraction(0))

    @given(small_pmf(), small_pmf())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, p, q):
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(tv_distance(q, p))

    @given(small_pmf(), small_pmf(), small_pmf())
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, p, q, s):
        assert tv_distance(p, q) <= tv_distance(p, s) + tv_distance(s, q) + 1e-12


def _counts_law(rng, size):
    """An exact law: distinct values with counts of colorings past 2^64, as
    Python ints in object arrays."""
    values = sorted(rng.choice(50, size=size, replace=False).tolist())
    counts = [int(k) * 3**50 + 1 for k in rng.integers(1, 1000, size=size)]
    return np.array(values, dtype=object), np.array(counts, dtype=object), 0


def _as_dict(law):
    return dict(zip(law[0].tolist(), law[1].tolist()))


def _convolve(*laws):
    """The plain dict convolution of exact laws."""
    out = {0: 1}
    for law in laws:
        sums = {}
        for x, p in out.items():
            for y, q in _as_dict(law).items():
                sums[x + y] = sums.get(x + y, 0) + p * q
        out = sums
    return out


class TestLawAlgebra:
    def test_exact_counts_are_summed_exactly(self):
        # counts past 2^64 are never lighter than CUT over the support size:
        # nothing is cut and the deficit stays 0
        rng = np.random.default_rng(226)
        a, b = _counts_law(rng, 7), _counts_law(rng, 11)
        assert max(a[1]) > 1 << 64
        cases = [(add_laws(a, b), [a, b]), (power(a, 5, add_laws), [a] * 5),
                 (power(a, 6, add_laws, b), [b] + [a] * 6), (power(a, 0, add_laws, b), [b])]
        for law, parts in cases:
            assert _as_dict(law) == _convolve(*parts)
            assert list(law[0]) == sorted(law[0]) and law[2] == 0

    def test_float_cut_mass_enters_the_deficit(self):
        # each outcome lighter than CUT over the support size is cut, at most
        # CUT in all, and its mass is added to the deficit
        values = np.array([2, 0, 2, 1, 3])
        probs = np.array([0.25, 0.5, 0.25, 1e-19, 2e-19])
        merged = merge_law(values, probs, 1e-18)
        assert merged[0].tolist() == [0, 2] and merged[1].tolist() == [0.5, 0.5]
        assert merged[2] == 1e-18 + (1e-19 + 2e-19) and 1e-19 + 2e-19 <= CUT
        near = (np.array([0, 1]), np.array([1 - 1e-10, 1e-10]), 0.0)
        law = add_laws(near, near)
        assert law[0].tolist() == [0, 1] and 0 < law[2] == 1e-10 * 1e-10 <= CUT

    def test_merging_in_chunks_keeps_exact_laws(self, monkeypatch):
        # the outer sums are merged every pmf._OUTER_CELLS cells; a bound of 64
        # merges many times on the way, to identical exact laws
        rng = np.random.default_rng(227)
        a, b = _counts_law(rng, 20), _counts_law(rng, 30)
        g = generate(parse_generator("copies:9:star:3"))
        whole = [add_laws(a, b), power(a, 3, add_laws, b), exact_pmf(g, 2, 3)]
        monkeypatch.setattr(pmf, "_OUTER_CELLS", 64)
        chunked = [add_laws(a, b), power(a, 3, add_laws, b), exact_pmf(g, 2, 3)]
        for mine, its in zip(whole[:2], chunked[:2]):
            assert _as_dict(mine) == _as_dict(its) and mine[0].size > 64
            assert list(mine[0]) == list(its[0]) and its[2] == 0
        assert whole[2] == chunked[2]
