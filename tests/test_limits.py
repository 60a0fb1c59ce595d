import dataclasses
import math
import re
import time
import tracemalloc
from math import comb, exp, factorial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import brute_limit_moments

from monostar.errors import BudgetExceededError, InvalidParamsError
from monostar.graphs import complete, complete_bipartite, figure2_composite, star, star_union
from monostar.limits import (
    DEFAULT_TAIL_EPS,
    LimitLawParams,
    figure2_params,
    limit_moments,
    limit_pmf,
    params_from_graph,
    sample_limit_batch,
)


# the largest rate numpy's Poisson sampler accepts (numpy 2.4.6)
POISSON_RATE_MAX = 9.223372006484771e18


def make(r, thetas=(), **lam):
    lambdas = tuple(lam.get(f"l{k}", 0.0) for k in range(1, r + 2))
    return LimitLawParams(r=r, thetas=tuple(thetas), lambdas=lambdas)


class TestValidate:
    def test_pure_poisson_valid(self):
        p = LimitLawParams(r=2, thetas=(), lambdas=(2.0, 0.0, 0.0))
        assert p.z1_rate == 2.0

    def test_star_example_z1_zero(self):
        p = LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.5, 0.0, 0.0))
        assert p.z1_rate == 0.0
        assert p.flags == ()

    def test_lambda1_below_star_mass_invalid(self):
        with pytest.raises(InvalidParamsError, match="below the atom star mass"):
            LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.3, 0.0, 0.0))

    def test_shortfall_within_slack_accepted(self):
        p = LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.5 - 1e-10, 0.0, 0.0))
        assert p.z1_rate == 0.0 and p.flags == ()

    def test_clamp_flags_the_shortfall(self):
        p = LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.3, 0.0, 0.0), flags=("given",),
                           clamp_z1=True)
        assert p.z1_rate == 0.0
        assert p.flags[0] == "given"
        assert len(p.flags) == 2 and "clamped" in p.flags[1]

    def test_clamp_leaves_representable_params_alone(self):
        p = LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.9, 0.0, 0.0), clamp_z1=True)
        assert p.z1_rate == pytest.approx(0.4)
        assert p.flags == ()
        assert p == LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.9, 0.0, 0.0))

    def test_z1_rate_is_derived_not_given(self):
        with pytest.raises(TypeError):
            LimitLawParams(r=2, thetas=(), lambdas=(1.0, 0.0, 0.0), z1_rate=5.0)

    def test_replace_checks_again(self):
        p = LimitLawParams(r=2, thetas=(1.0,), lambdas=(0.9, 0.0, 0.0))
        assert dataclasses.replace(p, lambdas=(2.0, 0.0, 0.0)).z1_rate == pytest.approx(1.5)
        with pytest.raises(InvalidParamsError):
            dataclasses.replace(p, lambdas=(0.3, 0.0, 0.0))

    @pytest.mark.parametrize("r", [0, -1])
    def test_r_must_be_positive(self, r):
        with pytest.raises(InvalidParamsError, match="r must be >= 1"):
            LimitLawParams(r=r, thetas=(), lambdas=(1.0,) * max(r + 1, 0))

    def test_wrong_lambda_length(self):
        with pytest.raises(InvalidParamsError):
            LimitLawParams(r=2, thetas=(), lambdas=(1.0, 0.0))

    def test_decreasing_thetas_required(self):
        with pytest.raises(InvalidParamsError):
            LimitLawParams(r=2, thetas=(0.5, 1.0), lambdas=(1.0, 0, 0))

    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParamsError):
            LimitLawParams(r=2, thetas=(), lambdas=(0.0, -0.5, 0.0))

    @pytest.mark.parametrize("thetas", [(-0.1,), (math.nan,), (1.0, math.nan)])
    def test_thetas_must_be_non_negative_numbers(self, thetas):
        with pytest.raises(InvalidParamsError, match="theta atoms must be non-negative"):
            LimitLawParams(r=2, thetas=thetas, lambdas=(5.0, 0.0, 0.0))

    @pytest.mark.parametrize("lambdas", [(math.nan, 0.0, 0.0), (1.0, math.inf, 0.0)])
    def test_rates_must_be_finite_numbers(self, lambdas):
        with pytest.raises(InvalidParamsError):
            LimitLawParams(r=2, thetas=(), lambdas=lambdas)

    @pytest.mark.parametrize("r, thetas, lambdas", [
        (2, (1e200,), (1e300, 0.0, 0.0)), (3, (1e120,), (0.0,) * 4),
        (200, (1.0,), (1.0,) + (0.0,) * 200)])
    def test_star_mass_past_float_range_invalid(self, r, thetas, lambdas):
        # theta^r past 1.8e308, or an r! that no float holds
        with pytest.raises(InvalidParamsError, match=f"star mass .* at r = {r} overflows"):
            LimitLawParams(r=r, thetas=thetas, lambdas=lambdas)

    def test_mean(self):
        p = LimitLawParams(r=2, thetas=(), lambdas=(1.0, 0.5, 0.25))
        assert p.mean == pytest.approx(1.0 + 1.0 + 0.75)


class TestLimitPmf:
    def test_pure_poisson_pointwise(self):
        lam = 1.7
        pmf = limit_pmf(make(2, l1=lam), tail_eps=1e-12)
        expected = exp(-lam)
        for j in range(15):
            assert float(pmf.prob(j)) == pytest.approx(expected, abs=1e-10)
            expected *= lam / (j + 1)
        assert float(pmf.deficit) < 1e-12

    def test_theta_only_mass_at_zero(self):
        pmf = limit_pmf(make(2, thetas=(1.0,), l1=0.5), tail_eps=1e-12)
        assert float(pmf.prob(0)) == pytest.approx(2 * exp(-1), abs=1e-10)

    def test_scaled_poisson_on_multiples(self):
        mu = 0.8
        pmf = limit_pmf(make(2, l3=mu), tail_eps=1e-12)
        assert all(v % 3 == 0 for v in pmf.support)
        expected = exp(-mu)
        for j in range(10):
            assert float(pmf.prob(3 * j)) == pytest.approx(expected, abs=1e-10)
            expected *= mu / (j + 1)

    @pytest.mark.parametrize("r,theta", [(2, 1.0), (2, 0.4), (3, 1.3)])
    def test_pushforward_structure(self, r, theta):
        # single atom, no linear part: the law is C(Poisson(theta), r)
        lam1 = theta**r / factorial(r)
        lambdas = tuple(lam1 if k == 1 else 0.0 for k in range(1, r + 2))
        pmf = limit_pmf(LimitLawParams(r=r, thetas=(theta,), lambdas=lambdas), tail_eps=1e-13)
        pois = [exp(-theta)]
        for t in range(1, 40):
            pois.append(pois[-1] * theta / t)
        # mass at zero collects everything below t = r
        assert float(pmf.prob(0)) == pytest.approx(sum(pois[:r]), abs=1e-10)
        # beyond, t -> C(t, r) is injective and carries the Poisson mass across
        for t in range(r, 25):
            assert float(pmf.prob(comb(t, r))) == pytest.approx(pois[t], abs=1e-10)
        # strictly decreasing tail beyond the Poisson mode, over represented atoms
        tail = [float(pmf.prob(comb(t, r))) for t in range(max(r, math.ceil(theta)), 25)
                if comb(t, r) in pmf.support]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_deficit_below_budget(self):
        pmf = limit_pmf(make(2, thetas=(1.5, 0.7), l1=2.0, l2=0.3, l3=0.2), tail_eps=1e-6)
        assert 0 <= float(pmf.deficit) < 1e-6

    def test_invalid_tail_eps(self):
        with pytest.raises(ValueError):
            limit_pmf(make(2, l1=1.0), tail_eps=0.0)

    @pytest.mark.parametrize("rate", [740.0, 760.0, 1e4, 1e6])
    def test_large_rate(self, rate):
        # exp(-rate) is subnormal at 740 and zero at 760: the window must
        # start from the mode, not from zero
        tail_eps = 1e-9
        pmf = limit_pmf(make(2, l1=rate), tail_eps)
        mass = math.fsum(pmf.support.values())
        assert mass + pmf.deficit == pytest.approx(1.0, abs=1e-12)
        assert 0 <= pmf.deficit < tail_eps
        mean = math.fsum(v * prob for v, prob in pmf.support.items())
        var = math.fsum(prob * (v - mean) ** 2 for v, prob in pmf.support.items())
        assert mean == pytest.approx(rate, rel=1e-9)
        assert var == pytest.approx(rate, rel=1e-7)

    def test_subnormal_tail_eps_returns(self):
        pmf = limit_pmf(figure2_params(1.0), tail_eps=5e-324)
        assert math.fsum(pmf.support.values()) + pmf.deficit == pytest.approx(1.0, abs=1e-12)

    def test_high_r_atoms_fast(self):
        # values C(t, 10) reach 10^5: the atoms must not be convolved densely
        p = make(10, thetas=(3.0, 3.0), l1=2 * 3.0**10 / factorial(10))
        started = time.perf_counter()
        pmf = limit_pmf(p)
        assert time.perf_counter() - started < 1.0
        assert 0 <= pmf.deficit < 1e-9

    @pytest.mark.parametrize("r,thetas,l1", [
        (2, (), 1e12),  # the window may reach 80 * sqrt(rate) = 8e7 values
        (10, (12.0, 12.0), 2 * 12.0**10 / factorial(10)),  # C(29, 10) > 2^24
    ])
    def test_dense_array_guard(self, r, thetas, l1):
        # refused before the array is allocated, not after
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            limit_pmf(make(r, thetas=thetas, l1=l1))
        assert time.perf_counter() - started < 1.0


# 1e-6 .. 1e7, each decade alike: the rates ``monostar limit`` accepts
_RATE = st.floats(-6, 7).map(lambda e: 10.0**e)


@st.composite
def _accepted_laws(draw):
    """r = 1..8, up to four atoms, lambda_1 above the atoms' star mass by a
    rate, and every other lambda 0 or a rate."""
    r = draw(st.integers(1, 8))
    thetas = tuple(sorted(draw(st.lists(_RATE, max_size=4)), reverse=True))
    star_mass = sum(t**r for t in thetas) / factorial(r)
    rates = draw(st.lists(st.one_of(st.just(0.0), _RATE), min_size=r, max_size=r))
    return LimitLawParams(r=r, thetas=thetas, lambdas=(star_mass + draw(_RATE), *rates))


class TestAcceptedRange:
    def test_float_mass_checked_exactly_rounded(self):
        # 1,199,266 values, whose plain left-to-right sum falls 1.1e-12 short
        # of their exactly rounded sum: the mass check must not refuse it
        p = make(4, thetas=(30.4882934091001, 9.902731766292645, 8.297183046246337,
                            7.779262316621872),
                 l1=36753.925444850465, l2=0.29712459025147975, l3=0.7849707865344508,
                 l4=0.5062336004408544, l5=0.5233401604657013)
        pmf = limit_pmf(p)
        assert math.fsum(pmf.support.values()) + pmf.deficit == pytest.approx(1.0, abs=1e-12)
        assert 0 < pmf.deficit < DEFAULT_TAIL_EPS

    @seed(16)
    @given(_accepted_laws())
    @settings(max_examples=60, deadline=None, database=None)
    def test_sweep(self, p):
        # every law is refused by a budget or comes back whole: mass 1 with
        # the deficit, and the closed-form mean up to the truncated share,
        # which sits at or below about the largest value kept
        try:
            pmf = limit_pmf(p, DEFAULT_TAIL_EPS)
        except BudgetExceededError:
            return
        assert math.fsum(pmf.support.values()) + pmf.deficit == pytest.approx(1.0, abs=1e-12)
        assert 0 <= pmf.deficit < DEFAULT_TAIL_EPS
        mean = math.fsum(v * prob for v, prob in pmf.support.items())
        assert abs(mean - limit_moments(p, 1)[0]) <= DEFAULT_TAIL_EPS * max(1, max(pmf.support))
        draws = sample_limit_batch(p, 64, np.random.default_rng(16))
        assert draws.shape == (64,) and (draws >= 0).all()


class TestLimitMoments:
    def test_poisson_mean_and_variance(self):
        m = limit_moments(make(2, l1=2.0), 2)
        assert m[0] == pytest.approx(2.0, abs=1e-9)
        assert m[1] - m[0] ** 2 == pytest.approx(2.0, abs=1e-8)

    def test_star_example_mean_half(self):
        m = limit_moments(make(2, thetas=(1.0,), l1=0.5), 1)
        assert m[0] == pytest.approx(0.5, abs=1e-9)

    def test_triple_rate_mean(self):
        kappa = 1.3
        m = limit_moments(make(2, l3=kappa**2 / 6), 1)
        assert m[0] == pytest.approx(kappa**2 / 2, abs=1e-9)

    @given(
        st.integers(1, 3),
        st.lists(st.floats(0.1, 2.0), min_size=0, max_size=3),
        st.lists(st.floats(0.0, 1.5), min_size=4, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_mean_identity_for_valid_params(self, r, thetas, lams):
        thetas = tuple(sorted(thetas, reverse=True))
        star_mass = sum(t**r for t in thetas) / factorial(r)
        lambdas = (star_mass + lams[0],) + tuple(lams[1 : r + 1])
        p = LimitLawParams(r=r, thetas=thetas, lambdas=lambdas)
        moments = limit_moments(p, 1)
        assert moments[0] == pytest.approx(p.mean, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("p", [
        figure2_params(1.0),
        figure2_params(2.0),
        make(2, thetas=(0.6, 0.3, 0.1), l1=0.23),
        make(2, thetas=(1.5, 0.8), l1=2.0, l3=0.3),
    ], ids=["figure2-1", "figure2-2", "star-union", "two-atoms"])
    def test_matches_brute_reference(self, p):
        rates = (p.z1_rate,) + p.lambdas[1:]
        want = brute_limit_moments(p.r, p.thetas, rates, 4)
        assert limit_moments(p, 4) == pytest.approx(want, rel=1e-12)

    def test_clamped_plugin_first_moment_is_pmf_mean(self):
        # z1 clamped to 0: the law's mean exceeds sum(k * lambda_k)
        p = params_from_graph(complete(60), 185, 2)
        assert any("clamped" in f for f in p.flags)
        mean = limit_moments(p, 2)[0]
        pmf = limit_pmf(p, 1e-12)
        assert mean == pytest.approx(math.fsum(v * prob for v, prob in pmf.support.items()),
                                     abs=1e-9)
        assert mean > p.mean + 0.4


class TestPgf:
    def test_matches_theta_free_pmf_power_series(self):
        # theta-free: the law's PGF is exp(sum_k rate_k * (s^k - 1))
        p = make(3, l1=0.9, l2=0.4, l3=0.2, l4=0.1)
        rates = (p.z1_rate,) + p.lambdas[1:]
        pmf = limit_pmf(p, tail_eps=1e-13)
        for s in (0.3, 0.5, 0.9):
            series = sum(float(prob) * s**v for v, prob in pmf.support.items())
            pgf = exp(sum(rate * (s**k - 1.0) for k, rate in enumerate(rates, start=1)))
            assert series == pytest.approx(pgf, abs=1e-12)

    def test_theta_atoms_excluded_from_linear_pgf(self):
        # z1 sees only the reduced rate, not the atoms: the PGF factors into
        # the atom pushforward's and exp(z1 * (s - 1))
        p = make(2, thetas=(1.0,), l1=1.5)
        assert p.z1_rate == pytest.approx(1.0)
        pmf = limit_pmf(p, tail_eps=1e-13)
        pois = [exp(-1.0) / factorial(t) for t in range(40)]
        for s in (0.3, 0.5, 0.9):
            series = sum(float(prob) * s**v for v, prob in pmf.support.items())
            atom = sum(w * s ** comb(t, 2) for t, w in enumerate(pois))
            assert series == pytest.approx(atom * exp(s - 1.0), abs=1e-12)


class TestSampling:
    def test_all_zero_params(self):
        p = make(2)
        rng = np.random.default_rng(0)
        assert not sample_limit_batch(p, 100, rng).any()

    def test_poisson_mean(self):
        p = make(2, l1=2.0)
        rng = np.random.default_rng(1)
        draws = sample_limit_batch(p, 1_000_000, rng)
        assert abs(draws.mean() - 2.0) < 0.005

    def test_theta_component_mean(self):
        p = make(2, thetas=(1.0,), l1=0.5)
        rng = np.random.default_rng(2)
        draws = sample_limit_batch(p, 400_000, rng)
        assert abs(draws.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("p", [make(1, l1=8e18, l2=8e18),
                                   make(8, thetas=(900.0,), l1=1.1e19)], ids=["linear", "atom"])
    def test_draws_past_int64_are_exact(self, p):
        # the same Poisson draws, summed in Python ints: nothing wraps at 2^63
        draws = sample_limit_batch(p, 50, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        parts = [(t, p.r, 1) for t in p.thetas] + [(p.z1_rate, 1, 1), (p.lambdas[1], 1, 2)]
        want = [0] * 50
        for rate, s, k in parts:
            want = [w + k * comb(int(t), s) for w, t in zip(want, rng.poisson(rate, size=50))]
        assert max(want) >= 1 << 63
        assert draws.tolist() == want

    def test_memory_grows_with_samples_not_theta(self):
        # C(t, r) once per distinct draw, not for every m up to the largest
        p = make(2, thetas=(2e6,), l1=2e12)
        tracemalloc.start()
        try:
            draws = sample_limit_batch(p, 3, np.random.default_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        rng = np.random.default_rng(9)
        atoms, linear = rng.poisson(2e6, size=3), rng.poisson(p.z1_rate, size=3)
        assert draws.tolist() == [comb(int(t), 2) + int(x) for t, x in zip(atoms, linear)]

    @pytest.mark.parametrize("p", [
        make(1, l1=1e19), make(1, l2=np.nextafter(POISSON_RATE_MAX, np.inf)),
        make(2, thetas=(1e19,), l1=1e38)], ids=["lambda1", "lambda2", "theta"])
    def test_rate_past_numpy_poisson_limit_refused_before_drawing(self, p):
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        limit = re.escape(f"exceeds numpy's limit {POISSON_RATE_MAX!r}")
        with pytest.raises(BudgetExceededError, match=limit):
            sample_limit_batch(p, 3, rng)
        assert rng.bit_generator.state == state

    def test_draws_at_largest_accepted_rate(self):
        draws = sample_limit_batch(make(1, l1=POISSON_RATE_MAX), 3, np.random.default_rng(11))
        assert all(abs(v / POISSON_RATE_MAX - 1) < 1e-8 for v in draws.tolist())

    def test_batch_and_single_agree_in_distribution(self):
        p = make(2, thetas=(0.8,), l1=1.0, l3=0.2)
        rng = np.random.default_rng(3)
        singles = np.concatenate([sample_limit_batch(p, 1, rng) for _ in range(20_000)])
        batch = sample_limit_batch(p, 20_000, np.random.default_rng(4))
        pmf = limit_pmf(p, 1e-10)
        for draws in (singles, batch):
            values, counts = np.unique(draws, return_counts=True)
            emp = {int(v): int(k) for v, k in zip(values, counts)}
            tv = 0.5 * sum(
                abs(emp.get(v, 0) / draws.size - float(pmf.prob(v)))
                for v in set(emp) | set(pmf.support)
            )
            assert tv < 0.02


class TestParamsFromGraph:
    def test_star_plugin(self):
        n = 1000
        p = params_from_graph(star(n), c=n, r=2, theta_cut=1)
        assert p.thetas == (1.0,)
        assert p.lambdas[0] == pytest.approx(comb(n, 2) / n**2)
        assert p.z1_rate == 0.0  # raw value is -1/(2n), clamped finite-size bias
        assert any("finite-size bias" in f for f in p.flags)

    def test_star_bias_shrinks_monotonically(self):
        gaps = []
        for n in (50, 200, 1000):
            p = params_from_graph(star(n), c=n, r=2, theta_cut=1)
            gaps.append(0.5 - p.lambdas[0])
            assert p.z1_rate == 0.0
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] == pytest.approx(0.0, abs=1e-3)

    def test_complete_plugin(self):
        n, lam = 30, 2.0
        c = math.ceil((n * comb(n - 1, 2) / lam) ** 0.5)
        p = params_from_graph(complete(n), c=c, r=2, theta_cut=0)
        assert p.lambdas[0] == 0.0
        assert p.lambdas[1] == 0.0
        assert p.lambdas[2] == pytest.approx(lam / 3, rel=0.15)

    def test_bipartite_plugin(self):
        n, lam = 20, 2.0
        c = math.ceil((2 * n * comb(n, 2) / lam) ** 0.5)
        p = params_from_graph(complete_bipartite(n), c=c, r=2, theta_cut=0)
        assert p.lambdas[1] == p.lambdas[2] == 0.0
        assert p.lambdas[0] == pytest.approx(lam, rel=0.1)

    def test_theta_threshold_drops_tail(self):
        g = star(100)
        p = params_from_graph(g, c=100, r=2, theta_cut=5)
        # leaves have degree 1 -> 0.01 < 0.05 threshold
        assert p.thetas == (1.0,)
        # the tail note comes first, before the clamp note
        prefix, mass = p.flags[0].split("star mass ")
        assert prefix == "theta tail dropped: "
        assert float(mass) == pytest.approx(4 * (0.01) ** 2 / 2)

    @pytest.mark.parametrize("g", [star(100), star_union((0.6, 0.3, 0.1), 100)],
                             ids=["star", "star-union"])
    def test_r1_plugin_mean_is_twice_edges_over_c(self, g):
        # T = 2 * (monochromatic edges) at r = 1, so E[T] = 2E/c; every edge
        # is a class-2 subset and no degree atom may count its stars again
        c = 100
        p = params_from_graph(g, c=c, r=1)
        # no tail flag: no candidate atom was dropped
        assert p.thetas == () and p.flags == ()
        assert p.lambdas == (0.0, g.edge_count / c)
        assert limit_moments(p, 1)[0] == pytest.approx(2 * g.edge_count / c)


class TestFigure2Params:
    def test_kappa_one(self):
        p = figure2_params(1.0)
        assert p.thetas == (1.0,)
        assert p.lambdas == (1.5, 0.0, pytest.approx(1 / 6))
        assert p.z1_rate == pytest.approx(1.0)
        assert p.mean == pytest.approx(2.0)
        assert p.flags == ("z1-convention: kappa^2, consistent with total mean 2k^2",)

    def test_small_kappa_rates_vanish(self):
        p = figure2_params(1e-4)
        assert p.z1_rate == pytest.approx(0.0, abs=1e-7)
        assert p.mean == pytest.approx(0.0, abs=1e-7)

    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            figure2_params(0.0)

    def test_matches_figure2_plugin(self):
        n = 300
        plug = params_from_graph(figure2_composite(n), c=n, r=2, theta_cut=1)
        wired = figure2_params(1.0)
        assert plug.thetas == wired.thetas
        assert plug.lambdas[0] == pytest.approx(wired.lambdas[0], rel=0.02)
        assert plug.lambdas[2] == pytest.approx(wired.lambdas[2], rel=0.06)


class TestSampleVsPmfTv:
    @pytest.mark.parametrize("kwargs", [
        dict(r=2, l1=1.5),
        dict(r=2, thetas=(1.0,), l1=0.5),
        dict(r=3, thetas=(1.2,), l1=0.6, l4=0.1),
    ])
    def test_tv_small(self, kwargs):
        thetas = kwargs.pop("thetas", ())
        r = kwargs.pop("r")
        p = make(r, thetas=thetas, **kwargs)
        pmf = limit_pmf(p, 1e-10)
        draws = sample_limit_batch(p, 200_000, np.random.default_rng(77))
        values, counts = np.unique(draws, return_counts=True)
        emp = {int(v): int(k) for v, k in zip(values, counts)}
        tv = 0.5 * (
            sum(abs(emp.get(v, 0) / draws.size - float(pmf.prob(v)))
                for v in set(emp) | set(pmf.support))
            + float(pmf.deficit)
        )
        assert tv < 0.015
