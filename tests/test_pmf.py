import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monostar.limits import figure2_params, limit_pmf
from monostar.pmf import Pmf, pmf_moments, tv_distance


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
