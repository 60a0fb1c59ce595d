import hashlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from monostar.experiment import (
    ExperimentSpec,
    birthday_probability,
    builtin_example,
    builtin_names,
    resolve_colors,
    run_experiment,
)
from monostar.graphs import build_graph, complete, generate, parse_generator
from monostar.limits import figure2_params, limit_moments, params_from_graph
from monostar.stars import class_counts, count_stars


class TestResolveColors:
    def test_fixed(self):
        assert resolve_colors(7, 100) == 7

    def test_expression(self):
        assert resolve_colors("n", 42) == 42

    def test_must_be_positive(self):
        with pytest.raises(ValueError, match="c = 0 < 1"):
            resolve_colors(0, 10)
        with pytest.raises(ValueError, match="c = 0 < 1"):
            resolve_colors("n", 0)

    @pytest.mark.parametrize("rule", [
        "().__class__.__base__.__subclasses__().__len__()",
        "[x for x in (9,)][0]",
        "n.real", "(7, 8)[0]", "{n: 1}[n]", "sum(x for x in (3,))",
        "(lambda: 5)()", "m", "__import__('os')", "eval('5')", "floor",
        "True + n", "'5'", "1j", "round(n, ndigits=1)", "max(*(n, 2))",
        "n if n else 2", "n < 3", "n(",
        "floor(n**(1/3))", "round((15*n/2)**0.5)", "-n + 2*n", "n / (n - 5)",
        "N", " n", "7", 7.0, None,
    ])
    def test_rejects_anything_outside_the_grammar(self, rule):
        with pytest.raises(ValueError):
            resolve_colors(rule, 5)

    def test_unsupported_rule_fails_report(self):
        spec = ExperimentSpec(generator="star:5", r=2, colors="n / (n - 5)", samples=10, seed=0)
        report = run_experiment(spec)
        assert report.failed
        assert report.error_kind == "ValueError"
        assert "neither an integer nor 'n'" in report.error


class TestRunExperiment:
    def test_oracle_comparison_triangle(self):
        spec = ExperimentSpec(generator="complete:3", r=2, colors=2,
                              samples=100_000, seed=5, comparison="exact-oracle")
        report = run_experiment(spec)
        assert not report.failed
        assert report.tv_to_reference["exact-oracle"] < 0.01
        assert report.tolerance["exact-oracle"] == 0.005
        assert report.graph["n_star"] == "3"
        assert report.moments["reference"]["exact-oracle"][0] == pytest.approx(0.75)

    def test_both_comparisons(self):
        spec = ExperimentSpec(generator="cycle:6", r=2, colors=3,
                              samples=50_000, seed=9, comparison="both")
        report = run_experiment(spec)
        assert not report.failed
        assert set(report.tv_to_reference) == {"exact-oracle", "limit-law"}

    def test_reports_deterministic(self):
        spec = ExperimentSpec(generator="er:50:0.1:seed=4", r=2, colors=6,
                              samples=20_000, seed=31, comparison="both")
        a = run_experiment(spec).canonical_json()
        b = run_experiment(spec).canonical_json()
        assert a == b

    def test_worker_counts_same_bytes(self):
        specs = [
            ExperimentSpec(generator="star:200", r=2, colors=200, samples=30_000,
                           seed=3, comparison="limit-law", workers=w)
            for w in (1, 2, 8)
        ]
        payloads = {run_experiment(s).canonical_json() for s in specs}
        assert len(payloads) == 1

    def test_plugin_warnings_in_order(self):
        # the spec's notes, then the dropped theta tail, then the clamp: the
        # leaves of star:100 at c = 100 are candidate atoms below threshold
        spec = ExperimentSpec(generator="star:100", r=2, colors=100, samples=1000, seed=7,
                              comparison="limit-law", theta_cut=5, notes=("given note",))
        report = run_experiment(spec)
        assert not report.failed
        tail = 4 * 0.01**2 / 2
        assert report.warnings[:2] == ["given note", f"theta tail dropped: star mass {tail!r}"]
        assert len(report.warnings) == 3 and "clamped to 0" in report.warnings[2]

    def test_failure_recorded_not_raised(self):
        # about 4.8e16 partitions into at most 4 blocks, past the oracle's
        # default budget of 10^8
        spec = ExperimentSpec(generator="complete:30", r=2, colors=4,
                              samples=1000, seed=0, comparison="exact-oracle")
        report = run_experiment(spec)
        assert report.failed
        assert "Budget" in report.error
        assert report.error_kind == "budget"

    @pytest.mark.parametrize("generator, form", [
        ("star", "star:n"), ("circulant:10", "circulant:n:d"), ("path:5:9", "path:n"),
    ])
    def test_malformed_generator_fails_report(self, generator, form):
        spec = ExperimentSpec(generator=generator, r=2, colors=2, samples=10, seed=0)
        report = run_experiment(spec)
        assert report.failed
        assert f"does not match {form}" in report.error
        assert report.error_kind == "ValueError"

    def test_class_counts_computed_once(self, monkeypatch):
        # plug-in params (no predicted_params) reuse the counts behind star_stats
        import monostar.experiment as experiment
        import monostar.limits as limits

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return class_counts(*args, **kwargs)

        monkeypatch.setattr(experiment, "class_counts", counting)
        monkeypatch.setattr(limits, "class_counts", counting)
        spec = builtin_example("regular", n=200, samples=2_000, seed=5)
        report = run_experiment(spec)
        assert not report.failed
        assert calls == [2]
        g = generate(parse_generator(spec.generator))
        want = params_from_graph(g, spec.colors, spec.r, theta_cut=spec.theta_cut)
        assert report.params_used == want.to_json_dict()

    def test_unknown_comparison(self):
        spec = ExperimentSpec(generator="star:5", r=2, colors=2, samples=10,
                              seed=0, comparison="nonsense")
        report = run_experiment(spec)
        assert report.failed
        assert report.error_kind == "ValueError"

    def test_limit_law_reference_moments_are_exact(self):
        # the closed-form moments of the law, not those of its truncated pmf
        spec = builtin_example("figure2", n=30, samples=2_000, seed=3)
        report = run_experiment(spec)
        assert not report.failed and report.error_kind is None
        assert report.moments["reference"]["limit-law"] == limit_moments(figure2_params(1.0), 4)

    def test_runtime_excluded_from_canonical_form(self):
        spec = ExperimentSpec(generator="star:20", r=2, colors=20, samples=2_000,
                              seed=1, comparison="limit-law")
        report = run_experiment(spec)
        assert "runtime_seconds" not in report.canonical_json()
        assert "runtime_seconds" in str(report.to_json_dict())


def _quick_sizes() -> dict:
    """``QUICK_SIZES`` of ``scripts/run_builtin_examples.py``."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_builtin_examples.py"
    module_spec = importlib.util.spec_from_file_location("run_builtin_examples", path)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    return script.QUICK_SIZES


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == (
            "star", "star-union", "star-union-shifted", "regular", "bipartite",
            "complete", "figure2", "tadpole-remark", "er",
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError) as err:
            builtin_example("nope")
        assert "star" in str(err.value)

    # finite-size tolerance of each family's predicted mean at its default size
    MEAN_RTOL = {"star": 0.01, "star-union": 0.01, "star-union-shifted": 0.08,
                 "regular": 0.01, "bipartite": 1e-9, "complete": 1e-9, "figure2": 0.07,
                 "tadpole-remark": 1e-9, "er": 1e-9}

    @pytest.mark.parametrize("name", builtin_names())
    def test_predicted_mean_matches_star_density(self, name):
        # the wired prediction must agree with n_star / c^r at the default size
        spec = builtin_example(name, samples=1)
        gen = parse_generator(spec.generator)
        g = generate(gen)
        from monostar.experiment import resolve_colors as rc
        from monostar.graphs import generator_scale

        c = rc(spec.colors, generator_scale(gen))
        exact_mean = count_stars(g, spec.r) / c**spec.r
        if spec.predicted_params is not None:
            predicted = spec.predicted_params.mean
        else:
            from monostar.limits import params_from_graph
            predicted = params_from_graph(g, c, spec.r, theta_cut=spec.theta_cut).mean
        assert predicted == pytest.approx(exact_mean, rel=self.MEAN_RTOL[name])

    def test_quick_sweep_sizes_cover_every_builtin(self):
        assert sorted(_quick_sizes()) == sorted(builtin_names())

    # sha256 of canonical_json() at the quick sizes, 2,000 samples, seed 20240601
    CANONICAL_SHA256 = {
        "star": "a8ab15adbd897eb11fd2803aa66db2a71f3c32b3c79bb6a4e8bddb881e4dddcd",
        "star-union": "4cc7d98b4efa79a09f22269130f7b5a8acb9a377fd5cecee1f59a6ae582ec2b9",
        "star-union-shifted": "9a64eba22107a48ab836a5c64e201337f3817c85c4987f6c77a4d0a93a45f346",
        "regular": "1c33c496cb8457157c271f2cf6588b0ff4c2b7bf67a7b9fb2b37db1d16283ea1",
        "bipartite": "e92ace2e2928ddf7dd1438c71df090188ab3740679028435adb9fb4b9eb0b98c",
        "complete": "3d705d43f7baa1352112532609101dc111343e73669ed0fe20bcd809b11d6122",
        "figure2": "3d425fa34862bff76df550dd3fb9b7ddc61e3c47a32175d3554409f2194ac7d0",
        "tadpole-remark": "4c9cd8ec2684493bc4375ba153a195469dcb289acfb7b000a2b4240794b25297",
        "er": "59d185b21f346a9582317afd95e3ad989f502f2ebf65fd12950a51fa424e9700",
    }

    @pytest.mark.parametrize("name", builtin_names())
    def test_canonical_report_digests_pinned(self, name):
        """Every built-in's canonical report, byte for byte, at workers 1 and 2.
        Taken with numpy 2.4.6: a numpy whose streams differ changes them too.
        A change that alters a sample stream on purpose updates these digests
        and says so in CHANGES.md."""
        for workers in (1, 2):
            spec = builtin_example(name, n=_quick_sizes()[name], samples=2000, seed=20240601,
                                   workers=workers)
            digest = hashlib.sha256(run_experiment(spec).canonical_json().encode()).hexdigest()
            assert digest == self.CANONICAL_SHA256[name], workers

    def test_star_runs_small(self):
        spec = builtin_example("star", n=200, samples=20_000, seed=7)
        report = run_experiment(spec)
        assert not report.failed
        assert report.tv_to_reference["limit-law"] < 0.05

    def test_tadpole_remark_runs_small(self):
        spec = builtin_example("tadpole-remark", n=1000, samples=20_000, seed=7)
        report = run_experiment(spec)
        assert not report.failed
        assert report.tv_to_reference["limit-law"] < 0.05

    def test_er_regime_note_present(self):
        spec = builtin_example("er", samples=1)
        assert any("er-regime" in note for note in spec.notes)
        # n^(3/2) p <= 10 at p = 0.001 up to n = 464
        assert any("er-regime (a)" in note for note in builtin_example("er", n=464).notes)
        assert any("er-regime (b)" in note for note in builtin_example("er", n=465).notes)

    def test_er_conditional_comparison_runs(self):
        report = run_experiment(builtin_example("er", samples=30_000, seed=5))
        assert not report.failed
        assert report.tv_to_reference["limit-law"] < 0.05
        assert any("er-regime (b)" in w for w in report.warnings)

    def test_regular_family_runs(self):
        report = run_experiment(builtin_example("regular", samples=30_000, seed=5))
        assert not report.failed
        assert report.params_used["thetas"] == []
        assert report.tv_to_reference["limit-law"] < 0.05

    def test_star_union_shifted_runs(self):
        spec = builtin_example("star-union-shifted", samples=30_000, seed=5)
        report = run_experiment(spec)
        assert not report.failed
        # the shift adds a coefficient-1 Poisson of rate 1/2 on top of the atoms
        assert spec.predicted_params.z1_rate == pytest.approx(0.5)
        assert report.tv_to_reference["limit-law"] < 0.05


class TestBirthday:
    def test_single_edge_calendar(self):
        g = build_graph(2, [(0, 1)])
        assert birthday_probability(g, 1, 365, "oracle") == Fraction(1, 365)

    def test_triangle(self):
        assert birthday_probability(complete(3), 2, 2, "oracle") == Fraction(1, 4)

    def test_nine_people_365_days(self):
        # the birthday problem: r = 1 on K9 counts the pairs sharing a day.
        # 365^8 colorings, but only B(9) = 21,147 partitions
        no_match = Fraction(1)
        for k in range(9):
            no_match *= Fraction(365 - k, 365)
        assert birthday_probability(complete(9), 1, 365, "oracle") == 1 - no_match

    def test_certain_with_one_color(self):
        g = complete(4)
        assert birthday_probability(g, 2, 1, "oracle") == 1
        assert birthday_probability(g, 2, 1, "mc", samples=1000, seed=1) == 1

    def test_mc_close_to_oracle(self):
        g = complete(3)
        mc = birthday_probability(g, 2, 2, "mc", samples=200_000, seed=13)
        assert abs(float(mc) - 0.25) < 0.005

    def test_limit_method_close_to_mc(self):
        g = generate(parse_generator("circulant:400:4"))
        value = birthday_probability(g, 2, 30, "limit")
        mc = birthday_probability(g, 2, 30, "mc", samples=50_000, seed=3)
        assert abs(value - float(mc)) < 0.03

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            birthday_probability(complete(3), 2, 2, "psychic")
