import os
import signal
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from monostar import coloring
from monostar.coloring import (
    Coloring,
    EmpiricalDist,
    _bernoulli_positions,
    _max_group_vertices,
    _Plan,
    empirical_moments,
    eval_T,
    monte_carlo,
)
from monostar.errors import BudgetExceededError, EdgeListParseError, WorkerExitError
from monostar.graphs import (build_graph, complete, component_groups, cycle, generate,
                             parse_generator, path, pendant_trees, star)
from monostar.oracle import exact_pmf
from monostar.stars import _SCAN_CELLS, count_stars, eval_T_block, star_table

from oracles import (brute_eval_T, brute_exact_pmf, brute_pendant_pmf, brute_two_core,
                     disjoint_union, own_core_block_rows, random_graph, reference_monte_carlo,
                     with_pendant_trees)


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

    @pytest.mark.parametrize("colors, message", [
        (np.array([-1, -1, -1]), "color out of range"),
        (np.array([0, 2, 1]), "color out of range"),
        (np.array([0.5, 0.5, 0.5]), "colors must be integers"),
        (np.array([0.0, 1.0, 0.0]), "colors must be integers")])
    def test_colors_outside_the_integers_0_to_c_rejected(self, colors, message):
        with pytest.raises(ValueError, match=message):
            Coloring(colors=colors, c=2)


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


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _fail_off_block_0(monkeypatch, fail):
    """Make every span but the parent's own (the one starting at block 0) call
    ``fail``; a forked child inherits the patch."""
    run_blocks = coloring._run_blocks

    def patched(plan, seed, blocks, samples):
        if blocks[0] != 0:
            fail()
        return run_blocks(plan, seed, blocks, samples)

    monkeypatch.setattr(coloring, "_run_blocks", patched)
    _two_cpus(monkeypatch)


def _worker_dists(monkeypatch, g, r, c, samples, seed):
    """monte_carlo at workers 1, 2 and 8 on two CPUs. The workers=2 call must
    fork, counted as in ``TestWorkers``, so the histograms do not all come
    from the calling process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _two_cpus(monkeypatch)
    one = monte_carlo(g, r, c, samples, seed=seed)
    two = monte_carlo(g, r, c, samples, seed=seed, workers=2)
    assert forks, "workers=2 ran in the calling process"
    return [one, two, monte_carlo(g, r, c, samples, seed=seed, workers=8)]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _lowest_free_pipe():
    pipe = os.pipe()
    for fd in pipe:
        os.close(fd)
    return pipe


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
class TestWorkers:
    # complete:3 at c = 2 runs 4,096 rows per block: 25 blocks at 10^5 samples
    G, R, C, SAMPLES = complete(3), 2, 2, 100_000

    def test_spans_are_capped_by_cpus_and_block_count(self, monkeypatch):
        def no_fork():
            raise AssertionError("_spans started a process")

        monkeypatch.setattr(os, "fork", no_fork)
        _two_cpus(monkeypatch)
        spans = coloring._spans(10_000, 10**6)
        assert spans == [range(0, 5000), range(5000, 10_000)]
        assert coloring._spans(25, 10**6) == [range(0, 13), range(13, 25)]
        # a span holds at least _MIN_SPAN_BLOCKS blocks, so few blocks stay in one
        few = 2 * coloring._MIN_SPAN_BLOCKS - 1
        assert coloring._spans(few, 10**6) == [range(few)]
        assert coloring._spans(1, 8) == [range(1)]
        assert coloring._spans(10_000, 1) == [range(10_000)]

    def test_spans_without_fork_stay_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert coloring._spans(10_000, 8) == [range(10_000)]

    def test_eight_workers_on_two_cpus_fork_one_child(self, monkeypatch):
        one = monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=23).counts
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        _two_cpus(monkeypatch)
        eight = monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=23, workers=8).counts
        assert len(forks) == 1 and eight == one
        _no_child_left()

    def test_child_exception_is_raised_in_the_parent(self, monkeypatch):
        def fail():
            raise KeyError("off block 0")

        _fail_off_block_0(monkeypatch, fail)
        with pytest.raises(KeyError, match="off block 0"):
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=29, workers=2)
        _no_child_left()

    def test_child_parse_error_keeps_its_line_number(self, monkeypatch):
        def fail():
            raise EdgeListParseError(3, "bad")

        _fail_off_block_0(monkeypatch, fail)
        with pytest.raises(EdgeListParseError, match="line 3: bad") as info:
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=47, workers=2)
        assert info.value.line_number == 3
        _no_child_left()

    def test_child_that_cannot_pickle_its_exception_exits_with_status_1(self, monkeypatch):
        def fail():
            error = KeyError("unpicklable")
            error.hook = lambda: None
            raise error

        _fail_off_block_0(monkeypatch, fail)
        with pytest.raises(WorkerExitError, match="exited with status 1"):
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=53, workers=2)
        _no_child_left()

    def test_child_exit_without_result(self, monkeypatch):
        _fail_off_block_0(monkeypatch, lambda: os._exit(3))
        with pytest.raises(WorkerExitError, match="exited with status 3"):
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=31, workers=2)
        _no_child_left()

    def test_child_killed_by_a_signal(self, monkeypatch):
        _fail_off_block_0(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(WorkerExitError, match=f"killed by signal {int(signal.SIGKILL)}"):
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=37, workers=2)
        _no_child_left()

    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        _two_cpus(monkeypatch)
        free = _lowest_free_pipe()
        with pytest.raises(BlockingIOError, match="fork refused"):
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=43, workers=2)
        assert _lowest_free_pipe() == free

    def test_parent_raise_stops_the_children(self, monkeypatch):
        run_blocks = coloring._run_blocks

        def patched(plan, seed, blocks, samples):
            if blocks[0] == 0:
                raise KeyError("parent span")
            time.sleep(60)
            return run_blocks(plan, seed, blocks, samples)

        monkeypatch.setattr(coloring, "_run_blocks", patched)
        _two_cpus(monkeypatch)
        start = time.monotonic()
        with pytest.raises(KeyError, match="parent span"):
            monte_carlo(self.G, self.R, self.C, self.SAMPLES, seed=41, workers=2)
        assert time.monotonic() - start < 30
        _no_child_left()


def _z_scores(counts_a: dict, n_a: int, counts_b: dict, n_b: int) -> list[float]:
    """Two-proportion z score of every value seen in either histogram."""
    out = []
    for v in set(counts_a) | set(counts_b):
        pa, pb = counts_a.get(v, 0) / n_a, counts_b.get(v, 0) / n_b
        pooled = (counts_a.get(v, 0) + counts_b.get(v, 0)) / (n_a + n_b)
        if pooled < 1:
            out.append(abs(pa - pb) / (pooled * (1 - pooled) * (1 / n_a + 1 / n_b)) ** 0.5)
    return out


def _tail_pooled_z_scores(counts_a: dict, n_a: int, counts_b: dict, n_b: int,
                          tail: int = 20) -> list[float]:
    """``_z_scores`` with every value above the point where fewer than ``tail``
    of the b samples lie merged into one bin: one rare draw in a small
    reference sample says nothing about the law."""
    above = 0
    cap = max(counts_b)
    for v in sorted(counts_b, reverse=True):
        above += counts_b[v]
        if above >= tail:
            break
        cap = v

    def pooled(counts):
        out: dict = {}
        for v, k in counts.items():
            out[min(v, cap)] = out.get(min(v, cap), 0) + k
        return out
    return _z_scores(pooled(counts_a), n_a, pooled(counts_b), n_b)


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
            assert set(np.flatnonzero(pendant_trees(g)[0]).tolist()) == brute_two_core(g)

    def test_own_core_graph_matches_reference_sampler_exactly(self):
        # nothing to peel: the same colors as the explicit reference, sample
        # for sample, across more than one block
        for text, r, c in [("complete:3", 2, 2), ("complete:5", 2, 3), ("cycle:6", 1, 2),
                           ("bipartite:3", 2, 2)]:
            g = generate(parse_generator(text))
            assert pendant_trees(g)[0].all()
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
            assert 0 < pendant_trees(g)[0].sum() < g.vertex_count
            ref = reference_monte_carlo(g, r, c, 6000, seed=53, block=500)
            dist = monte_carlo(g, r, c, 100_000, seed=59)
            assert max(_tail_pooled_z_scores(dist.counts, 100_000, ref, 6000)) <= 5

    def test_mixed_graph_worker_invariance(self, monkeypatch):
        # 4,096 rows per block: 10 blocks, so workers=2 forks on two CPUs
        for text, r, c, samples in [("figure2:20", 2, 20, 40_000),
                                    ("copies:2000:star:3", 3, 5, 40_000),
                                    ("path:3000", 2, 3, 40_000)]:
            g = generate(parse_generator(text))
            dists = _worker_dists(monkeypatch, g, r, c, samples, seed=61)
            assert dists[0].counts == dists[1].counts == dists[2].counts, text

    def test_skip_extremes(self):
        # c = 1: every tree edge matches, T = n_star; c = 2**40: gaps clipped
        # past the end, no tree edge matches
        for text, r in [("path:50", 2), ("figure2:4", 2), ("copies:30:star:3", 3)]:
            g = generate(parse_generator(text))
            assert monte_carlo(g, r, 1, 300, seed=67).counts == {count_stars(g, r): 300}
            assert monte_carlo(g, r, 1 << 40, 300, seed=71).counts == {0: 300}

    @pytest.mark.parametrize("gap", [1, 3])
    def test_bernoulli_positions_continue_past_first_draw(self, gap):
        # a constant exponential draw makes every gap `gap` long: more
        # successes than one draw is sized for, so each later draw goes on
        # from the last position of the draw before
        p = 0.01

        class ConstantExponential:
            calls = 0

            def standard_exponential(self, size):
                self.calls += 1
                return np.full(size, (gap - 0.5) * -np.log1p(-p))

        rng = ConstantExponential()
        positions = _bernoulli_positions(rng, 1000, p)
        assert np.array_equal(positions, np.arange(gap - 1, 1000, gap))
        assert rng.calls > 1

    def test_small_graph_sweep_vs_exact(self):
        # random graphs of at most 8 vertices at random (r, c), c = 1 and r
        # past the maximum degree among them; c goes up to where the graph
        # has 2^17 colorings. The exact law stands in as the second
        # sample, at its expected counts
        rng = np.random.default_rng(8128)
        samples, edge_cases = 50_000, set()
        for case in range(80):
            g = random_graph(rng, 8)
            c_max = int(2 ** (17 / max(g.vertex_count - 1, 1)))
            c = 1 if rng.random() < 0.2 else int(np.exp(rng.uniform(0, np.log(c_max + 1))))
            c = min(max(c, 1), c_max)
            r = int(rng.integers(1, g.max_degree() + 3))
            if c == 1:
                edge_cases.add("c = 1")
            if r > g.max_degree():
                edge_cases.add("r > max degree")
            law = exact_pmf(g, r, c).support
            dist = monte_carlo(g, r, c, samples, seed=case)
            assert set(dist.counts) <= set(law), (case, r, c)
            expected = {v: float(p) * samples for v, p in law.items()}
            z = _tail_pooled_z_scores(dist.counts, samples, expected, samples)
            assert max(z, default=0.0) <= 5, (case, r, c)
        assert edge_cases == {"c = 1", "r > max degree"}


def _tree_law(law):
    """A plan's tree law as ``{(a, S): probability}``, its trivial outcome
    (0, 0) included."""
    _, p, cdf, a, s, _ = law
    out = {(0, 0): 1 - p}
    for hit, value, q in zip(a.tolist(), s.tolist(), np.diff(cdf, prepend=0.0) * p):
        out[(int(hit), int(value))] = out.get((int(hit), int(value)), 0.0) + float(q)
    return out


def _hung_off_triangle(tree):
    """Triangle 0-1-2 with ``tree`` (numbered from 3) hung by its vertex 0 off
    vertex 0: one pendant tree, anchored at core vertex 0."""
    edges = [(0, 1), (1, 2), (0, 2), (0, 3)]
    edges += [(u + 3, v + 3) for u, v in zip(tree.edge_u.tolist(), tree.edge_v.tolist())]
    return build_graph(tree.vertex_count + 3, edges)


def _random_trees(rng, count, max_vertices):
    return [with_pendant_trees(rng, build_graph(1, []), int(rng.integers(1, max_vertices)))
            for _ in range(count)]


class TestTreeLaws:
    """Each pendant tree and each whole tree component is drawn from its exact
    law of (a, S), one law per shape; the laws are checked against brute
    enumeration of colorings and against closed forms."""

    CASES = [(1, 2), (2, 2), (2, 3), (3, 2), (1, 3)]

    def test_whole_tree_laws_vs_brute_exact_pmf(self):
        # a tree component has no edge to a core: its law is that of S = T
        rng = np.random.default_rng(191)
        trees = _random_trees(rng, 12, 8) + [path(2), path(7), star(5)]
        for tree in trees:
            for r, c in self.CASES:
                exact = {(0, t): float(q) for t, q in brute_exact_pmf(tree, r, c).items()}
                plan = _Plan.of(tree, r, c)
                assert plan.core_count == 0
                if exact == {(0, 0): 1.0}:
                    assert plan.parts == []
                    continue
                [law] = plan.parts
                assert law[0].tolist() == [-1] and 0 <= law[5] <= 1e-15
                got = _tree_law(law)
                assert set(got) <= set(exact)
                assert all(abs(got.get(key, 0.0) - q) <= 1e-12 for key, q in exact.items())

    def test_pendant_tree_laws_vs_brute(self):
        # the joint law of (a, S), and the law of S + C(a, r), which is T of
        # the tree and its anchor alone, against brute_exact_pmf
        rng = np.random.default_rng(193)
        for tree in _random_trees(rng, 12, 7) + [path(1), path(6), star(4)]:
            anchored = build_graph(tree.vertex_count + 1, [(0, tree.vertex_count)] + list(
                zip(tree.edge_u.tolist(), tree.edge_v.tolist())))
            for r, c in self.CASES:
                [law] = _Plan.of(_hung_off_triangle(tree), r, c).parts
                assert law[0].tolist() == [0] and 0 <= law[5] <= 1e-15
                got = _tree_law(law)
                exact = brute_pendant_pmf(tree, r, c)
                assert set(got) <= set(exact)
                assert all(abs(got.get(key, 0.0) - float(q)) <= 1e-12
                           for key, q in exact.items())
                t_law = {}
                for (a, value), q in got.items():
                    t_law[value + comb(a, r)] = t_law.get(value + comb(a, r), 0.0) + q
                t_exact = brute_exact_pmf(anchored, r, c)
                assert all(abs(t_law.get(t, 0.0) - float(q)) <= 1e-12 for t, q in t_exact.items())

    def test_identical_trees_share_one_law(self):
        # K4 with a 2-star hung off each vertex and three whole 2-stars: one
        # pendant law with four core ends, and one forest law for the three
        # (at c = 300 the stars are too large to group)
        g = disjoint_union(complete(4), star(2), star(2), star(2))
        edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        n = g.vertex_count
        for v in range(4):
            edges += [(v, n), (n, n + 1), (n, n + 2)]
            n += 3
        g = build_graph(n, edges)
        plan = _Plan.of(g, 2, 300)
        assert not _grouped(g, 300) and plan.core_count == 4
        assert sorted(law[0].tolist() for law in plan.parts) == [[-1, -1, -1], [0, 1, 2, 3]]

    @pytest.mark.parametrize("length,c", [(90_000, 300), (3000, 3), (40, 2)])
    def test_path_law_closed_form_mean_and_variance(self, length, c):
        # a path of n vertices is n - 1 independent Bernoulli(p) edges, p =
        # 1/c; S counts, at r = 2, the adjacent matched pairs, and at r = 1
        # twice the matched edges
        p = 1 / c
        for r in (1, 2):
            for hung in (False, True):
                g = _hung_off_triangle(path(length)) if hung else path(length)
                [law] = _Plan.of(g, r, c).parts
                got = _tree_law(law)
                mass = sum(got.values())
                a_mean = sum(q * a for (a, _), q in got.items())
                mean = sum(q * value for (_, value), q in got.items())
                var = sum(q * value**2 for (_, value), q in got.items()) - mean**2
                cov = sum(q * a * value for (a, value), q in got.items()) - a_mean * mean
                edges = length if hung else length - 1
                if r == 1:
                    # S = 2 * (tree edges matched) + a
                    want = (2 * edges * p - hung * p,
                            4 * edges * p * (1 - p) - 3 * hung * p * (1 - p), hung * p * (1 - p))
                else:
                    pairs = edges - 1
                    want = (pairs * p**2, pairs * (p**2 - p**4) + 2 * (pairs - 1) * (p**3 - p**4),
                            hung * (p**2 - p**3))
                assert abs(mass - 1) <= 1e-9 and 0 <= law[5] <= 1e-12
                assert abs(a_mean - hung * p) <= 1e-12
                assert mean == pytest.approx(want[0], rel=1e-9)
                assert var == pytest.approx(want[1], rel=1e-8)
                assert cov == pytest.approx(want[2], rel=1e-7, abs=1e-15)

    def test_merging_in_chunks_keeps_each_law(self, monkeypatch):
        # the outer sums of two laws are merged every _OUTER_CELLS cells; a
        # bound of 64 cells merges many times on the way, to the same laws
        rng = np.random.default_rng(223)
        g = disjoint_union(with_pendant_trees(rng, cycle(3), 40), star(9), path(30))
        for r, c in [(1, 2), (2, 3)]:
            whole = _Plan.of(g, r, c).parts
            monkeypatch.setattr(coloring, "_OUTER_CELLS", 64)
            chunked = _Plan.of(g, r, c).parts
            monkeypatch.undo()
            assert len(whole) == len(chunked) > 3
            for mine, its in zip(whole, chunked):
                assert np.array_equal(mine[0], its[0]) and np.array_equal(mine[3], its[3])
                assert np.array_equal(mine[4], its[4]) and mine[1] == pytest.approx(its[1])
                assert np.allclose(mine[2], its[2], rtol=0, atol=1e-14)

    def test_sampler_vs_reference_on_pendant_tree_graphs(self):
        # random trees hung off small cores and forests beside them: the
        # sampler against the explicit reference, by the tail-pooled test
        rng = np.random.default_rng(197)
        cases = [(with_pendant_trees(rng, random_graph(rng, 6, p=0.8), 30), 2, 3),
                 (with_pendant_trees(rng, cycle(4), 40), 1, 4),
                 (disjoint_union(with_pendant_trees(rng, complete(5), 25),
                                 *_random_trees(rng, 3, 9)), 2, 2)]
        for g, r, c in cases:
            assert 0 < pendant_trees(g)[0].sum() < g.vertex_count
            ref = reference_monte_carlo(g, r, c, 3000, seed=199, block=500)
            dist = monte_carlo(g, r, c, 100_000, seed=211)
            assert max(_tail_pooled_z_scores(dist.counts, 100_000, ref, 3000)) <= 5


def _forms_group(g):
    """Whether two components of ``g`` are identical: then the sampler's plan
    may draw them as a group, and its core/tree arrays leave them out."""
    return bool(component_groups(g, g.vertex_count))


def _ungrouped_graphs(rng, count, draw):
    """``count`` graphs from ``draw(rng)`` that form no group, so that the
    plan's core-first numbering covers every vertex of the graph."""
    graphs = []
    while len(graphs) < count:
        g = draw(rng)
        if not _forms_group(g):
            graphs.append(g)
    return graphs


def _plan_T(g, r, c, colors):
    """T of each row of ``colors`` (rows, n) split as the sampler splits it:
    the kernel scores the plan's core colors, vertex-major, with a hit at the
    core end of every edge into a tree whose two colors agree, and the tree
    vertices add their own C(h_v, r), counted here by brute force."""
    assert not _forms_group(g)
    plan = _Plan.of(g, r, c)
    core = pendant_trees(g)[0]
    assert plan.core_count == core.sum()
    rows = colors.shape[0]
    local = np.cumsum(core) - 1
    matched = colors[:, g.edge_u] == colors[:, g.edge_v]  # (rows, edges)
    attach = core[g.edge_u] != core[g.edge_v]
    row, e = np.nonzero(matched[:, attach])
    ends = np.where(core[g.edge_u], g.edge_u, g.edge_v)[attach][e]
    t = eval_T_block(plan.table, np.ascontiguousarray(colors[:, core].T), plan.core_u,
                     plan.core_v, local[ends] * rows + row)
    h = np.zeros((rows, g.vertex_count), dtype=np.int64)
    np.add.at(h, (slice(None), g.edge_u), matched)
    np.add.at(h, (slice(None), g.edge_v), matched)
    return t + np.array([sum(comb(int(m), r) for m in hv[~core]) for hv in h])


def _grouped(g, c):
    """The groups of identical components that the sampler's plan draws from
    their exact laws, leaving them out of its core and trees."""
    return component_groups(g, _max_group_vertices(c, g.vertex_count))


def _group_parts(g, r, c):
    """The parts that draw the groups of ``g``'s plan, checked against
    ``exact_pmf`` of each group's copy: they come first, one per group whose
    T is not always 0, each with every core end -1, a always 0, and ``s``
    and ``cdf`` the copy's non-zero support and its cumulative probabilities
    given T > 0."""
    laws = [(vertices.shape[0], exact_pmf(copy, r, c).support)
            for copy, vertices in _grouped(g, c)]
    laws = [(copies, law) for copies, law in laws if list(law) != [0]]
    parts = _Plan.of(g, r, c).parts[:len(laws)]
    assert len(parts) == len(laws)
    for (copies, law), (ends, p, cdf, a, s, deficit) in zip(laws, parts):
        support = [v for v in law if v != 0]
        probs = np.cumsum([float(law[v]) for v in support])
        assert ends.tolist() == [-1] * copies and not a.any() and deficit == 0
        assert s.tolist() == support and s.dtype == star_table(g, r).dtype
        assert p == pytest.approx(1 - float(law.get(0, 0)), rel=0, abs=1e-15)
        assert np.allclose(cdf, probs / probs[-1], rtol=0, atol=1e-15) and cdf[-1] == 1
    return parts


def _core_edges(g):
    """Number of edges with both ends in the 2-core, by brute force."""
    core = brute_two_core(g)
    return sum(u in core and v in core for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()))


class TestVertexMajorKernel:
    """The one kernel behind monte_carlo, eval_T and exact_pmf, checked row for
    row against brute_eval_T and the explicit reference sampler."""

    def test_core_first_numbering(self):
        rng = np.random.default_rng(73)
        graphs = _ungrouped_graphs(rng, 20, lambda rng: with_pendant_trees(
            rng, random_graph(rng, 8, p=0.6), int(rng.integers(0, 10))))
        for g in graphs:
            plan = _Plan.of(g, 2, 3)
            k = plan.core_count
            assert k == len(brute_two_core(g))
            assert plan.core_u.size == _core_edges(g)
            assert np.all(plan.core_u < k) and np.all(plan.core_v < k)
            # a tree hangs off one core vertex, or is a whole component (-1)
            for ends, *_ in plan.parts:
                assert np.all((ends >= -1) & (ends < k))

    def test_tree_hits_at_core_vertices_and_forests_vs_brute(self):
        # pendant trees hung on core vertices put tree hits into the dense
        # counts; forests (k = 0) send every hit down the sparse route
        rng = np.random.default_rng(79)
        graphs = _ungrouped_graphs(rng, 25, lambda rng: with_pendant_trees(
            rng, random_graph(rng, 7, p=0.7), int(rng.integers(1, 9))))
        graphs += [with_pendant_trees(rng, complete(4), 6), with_pendant_trees(rng, cycle(5), 8)]
        # identical copies (copies:3:star:2) are grouped: TestGroupedSampler
        forests = [generate(parse_generator(t)) for t in ["path:9", "star:6", "figure2:1"]]
        forests += [disjoint_union(path(4), star(3), star(2))]
        forests += [with_pendant_trees(rng, build_graph(1, []), 10) for _ in range(5)]
        assert all(pendant_trees(g)[0].sum() == 0 for g in forests)
        assert all(0 < pendant_trees(g)[0].sum() < g.vertex_count for g in graphs[-2:])
        for g in graphs + forests:
            for r, c in [(1, 2), (2, 2), (2, 3), (3, 2)]:
                colors = rng.integers(0, c, size=(40, g.vertex_count), dtype=np.uint16)
                expected = [brute_eval_T(g, r, row) for row in colors]
                assert _plan_T(g, r, c, colors).tolist() == expected

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


def _brute_rows(g, r, colors):
    """brute_eval_T of each row of ``colors`` (rows, n), scored once per
    distinct row."""
    distinct, index = np.unique(colors, axis=0, return_inverse=True)
    t = [brute_eval_T(g, r, row) for row in distinct]
    return [t[i] for i in index.reshape(-1)]


def _rows_for_step(step):
    """Row count at which eval_T_block scans ``step`` edges per slice."""
    rows = _SCAN_CELLS // step
    assert max(1, _SCAN_CELLS // rows) == step
    return rows


_K34 = [(u, v) for u in range(3) for v in range(3, 7)]


class TestSlicedScan:
    """eval_T_block scans the core edges ``_SCAN_CELLS`` (edge, row) cells at
    a time; T must not depend on where the slices end. K(3,4) has 12 edges:
    slices of 1 edge, of 4 (dividing 12), of 5 (a partial last slice) and of
    20 (one slice, longer than the edge list)."""

    @pytest.mark.parametrize("step", [1, 4, 5, 20])
    def test_slice_boundaries_vs_brute(self, step):
        g = build_graph(7, _K34)
        colors = np.random.default_rng(step).integers(
            0, 2, size=(g.vertex_count, _rows_for_step(step)), dtype=np.uint8)
        got = eval_T_block(star_table(g, 2), colors, g.edge_u, g.edge_v)
        assert got.tolist() == _brute_rows(g, 2, colors.T)

    @pytest.mark.parametrize("step", [1, 4, 5, 20])
    def test_slice_boundaries_with_tree_hits_vs_brute(self, step):
        # hits at the core ends of the tree edges 0-7 and 3-9 go into the
        # same bincount as the matched core edges
        g = build_graph(10, _K34 + [(0, 7), (7, 8), (3, 9)])
        plan = _Plan.of(g, 2, 2)
        assert (plan.core_count, plan.core_u.size) == (7, 12)
        assert sorted(int(end) for ends, *_ in plan.parts for end in ends) == [0, 3]
        colors = np.random.default_rng(step).integers(
            0, 2, size=(_rows_for_step(step), g.vertex_count), dtype=np.uint8)
        assert _plan_T(g, 2, 2, colors).tolist() == _brute_rows(g, 2, colors)

    def test_slice_boundaries_object_table(self):
        # two K65 at r = 32: row sums pass 2**63, so the table is Python ints;
        # 4160 edges make four slices of 1000 and a partial one of 160
        g = disjoint_union(complete(65), complete(65))
        r, rows = 32, _rows_for_step(1000)
        table = star_table(g, r)
        assert table.dtype == object
        rng = np.random.default_rng(167)
        colors = np.zeros((g.vertex_count, rows), dtype=np.uint8)
        colors[rng.integers(0, g.vertex_count, size=(3, rows)), np.arange(rows)] = 1
        got = eval_T_block(table, colors, g.edge_u, g.edge_v)
        # m_v is the number of v's clique mates that share its color
        expected = []
        for row in colors.T:
            same = [np.bincount(row[i:i + 65], minlength=2)[row[i:i + 65]] - 1 for i in (0, 65)]
            expected.append(sum(comb(int(m), r) for m in np.concatenate(same)))
        assert got.tolist() == expected
        assert max(expected) >= 1 << 63

    @pytest.mark.parametrize("text,c,rows", [("complete:60", 185, 555),
                                             ("bipartite:40", 125, 609)])
    def test_block_peak_memory(self, text, c, rows):
        # the sampler's block on the dense acceptance graphs: temporaries of
        # one slice, not of the whole (edge, row) array (2.8 MiB)
        g = generate(parse_generator(text))
        plan = _Plan.of(g, 2, c)
        assert plan.block == rows and plan.core_count == g.vertex_count
        colors = np.random.default_rng(c).integers(
            0, c, size=(plan.core_count, rows), dtype=np.uint8)
        tracemalloc.start()
        try:
            t_vals = eval_T_block(plan.table, colors, plan.core_u, plan.core_v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t_vals.shape == (rows,)
        assert peak < 1 << 20


class TestGroupedSampler:
    """Each copy of an identical small component is a part drawn from its
    exact law, by the same route as the trees; checked against the explicit
    reference sampler, which colors every vertex."""

    @pytest.mark.parametrize("text,r,c", [("copies:30:complete:3", 2, 2),
                                          ("copies:25:tadpole31", 2, 3)])
    def test_group_is_one_part_of_its_exact_law(self, text, r, c):
        # the whole graph is one group: no core, no tree, one part
        g = generate(parse_generator(text))
        plan = _Plan.of(g, r, c)
        assert plan.core_count == 0 and plan.core_u.size == 0
        assert len(plan.parts) == len(_group_parts(g, r, c)) == 1

    @pytest.mark.parametrize("text,r,c", [
        ("copies:40:star:3", 2, 3), ("copies:40:star:3", 3, 2), ("copies:30:path:4", 2, 2),
        ("copies:30:complete:3", 2, 2), ("copies:25:tadpole31", 2, 3),
        ("copies:25:tadpole31", 3, 2), ("er:150:0.012:seed=5", 1, 3), ("copies:3:star:2", 2, 2)])
    def test_grouped_graphs_two_sample_vs_reference(self, text, r, c):
        g = generate(parse_generator(text))
        assert _group_parts(g, r, c)
        ref = reference_monte_carlo(g, r, c, 3000, seed=107, block=500)
        dist = monte_carlo(g, r, c, 100_000, seed=109)
        assert set(dist.counts) >= {v for v, k in ref.items() if k >= 5}
        assert max(_tail_pooled_z_scores(dist.counts, 100_000, ref, 3000)) <= 5

    def test_mixed_union_two_sample_vs_reference(self):
        # figure2:6 stays on the core/tree kernel, the copies are grouped
        g = disjoint_union(generate(parse_generator("figure2:6")),
                           generate(parse_generator("copies:20:tadpole31")),
                           generate(parse_generator("copies:30:star:2")))
        plan = _Plan.of(g, 2, 3)
        figure2 = generate(parse_generator("figure2:6"))
        alone = _Plan.of(figure2, 2, 3)
        assert len(_group_parts(g, 2, 3)) == 2 and plan.core_count == alone.core_count
        assert all((ends >= 0).all() for ends, *_ in alone.parts)
        anchored = [part for part in plan.parts if (part[0] >= 0).any()]
        assert np.array_equal(plan.core_u, alone.core_u) and len(anchored) == len(alone.parts)
        for mine, its in zip(anchored, alone.parts):
            assert all(np.array_equal(x, y) for x, y in zip(mine, its))
        ref = reference_monte_carlo(g, 2, 3, 3000, seed=113, block=500)
        dist = monte_carlo(g, 2, 3, 100_000, seed=127)
        assert max(_tail_pooled_z_scores(dist.counts, 100_000, ref, 3000)) <= 5

    def test_binomial_copies_mean_and_variance(self):
        # T is Binomial(10**4, 21**-3) for 10**4 copies of the 3-star at r = 3
        g = generate(parse_generator("copies:10000:star:3"))
        samples = 200_000
        dist = monte_carlo(g, 3, 21, samples, seed=131)
        mean, second = (float(x) for x in empirical_moments(dist, 2))
        p = 21.0**-3
        assert abs(mean - 10_000 * p) <= 5 * (10_000 * p * (1 - p) / samples) ** 0.5
        assert abs((second - mean**2) / (10_000 * p * (1 - p)) - 1) <= 0.05

    @pytest.mark.parametrize("text,r,c,samples", [
        ("copies:2000:star:3", 3, 5, 40_000), ("copies:500:tadpole31", 2, 3, 20_000),
        ("er:400:0.005:seed=3", 1, 4, 20_000)])
    def test_worker_invariance(self, monkeypatch, text, r, c, samples):
        # 10, 16 and 11 blocks: workers=2 forks on two CPUs
        g = generate(parse_generator(text))
        assert _group_parts(g, r, c)
        dists = _worker_dists(monkeypatch, g, r, c, samples, seed=137)
        assert dists[0].counts == dists[1].counts == dists[2].counts

    def test_mixed_union_worker_invariance(self, monkeypatch):
        g = disjoint_union(generate(parse_generator("figure2:20")),
                           generate(parse_generator("copies:300:star:3")))
        assert _group_parts(g, 2, 20)
        # 4,096 rows per block: 10 blocks, so workers=2 forks on two CPUs
        dists = _worker_dists(monkeypatch, g, 2, 20, 40_000, seed=139)
        assert dists[0].counts == dists[1].counts == dists[2].counts

    @pytest.mark.parametrize("text,r,c", [
        ("complete:3", 2, 2), ("path:3", 2, 3), ("tadpole31", 3, 2), ("figure2:300", 2, 300),
        ("complete:60", 2, 185), ("bipartite:40", 2, 125), ("union:0.6,0.3,0.1:3000", 2, 3000),
        ("union:0.6,0.3,0.1:400:shift=0.5", 2, 400), ("circulant:1000:6", 2, 87),
        ("star:1000", 2, 1000)])
    def test_acceptance_graphs_form_no_group(self, text, r, c):
        # the criteria that check the kernel keep checking the kernel
        g = generate(parse_generator(text))
        whole = sum(anchors.size for _, length, anchors in pendant_trees(g)[2] if length < 0)
        unanchored = sum(ends.size for ends, *_ in _Plan.of(g, r, c).parts if ends[0] < 0)
        assert not _grouped(g, c) and unanchored <= whole

    def test_constant_and_zero_groups(self):
        # c = 1: every copy's T is its star count; r above the degrees: T = 0,
        # and the group needs no draw
        for text, r in [("copies:30:star:3", 3), ("copies:12:tadpole31", 2)]:
            g = generate(parse_generator(text))
            assert monte_carlo(g, r, 1, 300, seed=149).counts == {count_stars(g, r): 300}
        g = disjoint_union(generate(parse_generator("copies:50:star:3")), complete(5))
        plan = _Plan.of(g, 4, 3)
        assert _grouped(g, 3) and _group_parts(g, 4, 3) == []
        assert plan.core_count == 5 and plan.core_u.size == 10 and plan.parts == []
        assert (monte_carlo(g, 4, 3, 5000, seed=151).counts
                == monte_carlo(complete(5), 4, 3, 5000, seed=151).counts)

    def test_groups_sum_past_int64(self):
        # the part's values take the table's object dtype
        g = disjoint_union(complete(65), complete(65))
        assert star_table(g, 32).dtype == object
        [(ends, p, cdf, a, s, _)] = _group_parts(g, 32, 1)
        assert ends.size == 2 and s.dtype == object and p == 1 and cdf.tolist() == [1.0]
        assert monte_carlo(g, 32, 1, 20, seed=0).counts == {count_stars(g, 32): 20}


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
