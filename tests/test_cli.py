import json
import math
import os
from functools import partial

import pytest

from monostar import cli, coloring, experiment
from monostar.cli import BUDGET_EXIT, USAGE_EXIT, WORKER_EXIT, main
from monostar.experiment import Report
from monostar.stars import class_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_edge_list(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(capsys, "gen", "star:3", "-o", str(out))
        assert code == 0
        assert out.read_text() == "0 1\n0 2\n0 3\n"

    def test_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "path:3")
        assert code == 0
        assert out == "0 1\n1 2\n"

    def test_bad_spec_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "klein-bottle:4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("spec, form", [
        ("star", "star:n"), ("circulant:10", "circulant:n:d"), ("er:10", "er:n:p"),
        ("union:0.5", "union:weights:n"), ("path:5:9", "path:n"),
    ])
    def test_malformed_spec_usage_error(self, capsys, spec, form):
        code, out, err = run_cli(capsys, "gen", spec)
        assert code == 2
        assert out == ""
        assert f"does not match {form}" in err


class TestStats:
    def test_generator_argument(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "complete:4", "-r", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_star"] == "12"
        assert payload["edge_count"] == 6

    def test_classes_flag(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "tadpole31", "-r", "3", "--classes")
        assert code == 0
        assert json.loads(out)["lambda_raw"] == ["1", "0", "0", "0"]

    def test_file_argument(self, capsys, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\n1 2\n2 0\n")
        code, out, _ = run_cli(capsys, "stats", str(f), "-r", "2")
        assert code == 0
        assert json.loads(out)["n_star"] == "3"

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "stats", "star:100", "-r", "2",
                               "--classes", "--budget", "10")
        assert code == 3
        assert "budget" in err.lower()


class TestSimulate:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "complete:3", "-r", "2", "-c", "2",
                               "-n", "5000", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 5000
        assert set(payload["counts"]) <= {"0", "3"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
    def test_deterministic_across_workers(self, capsys, monkeypatch):
        # 10 blocks of 4,096 rows, so workers=2 forks on two CPUs
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        outputs = []
        for w in ("1", "2"):
            code, out, _ = run_cli(capsys, "simulate", "cycle:9", "-r", "2", "-c", "3",
                                   "-n", "40000", "--seed", "5", "--workers", w)
            assert code == 0
            assert bool(forks) == (w == "2"), f"workers={w} forked {len(forks)} times"
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "star:3", "-r", "2", "-c", "2",
                               "-n", "100", "--seed", "0", "--csv")
        assert code == 0
        assert out.startswith("value,count\n")


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
    def test_dead_worker_is_one_error_line(self, capsys, monkeypatch):
        run_blocks = coloring._run_blocks

        def patched(plan, seed, blocks, samples):
            if blocks[0] != 0:  # only the forked child dies
                os._exit(3)
            return run_blocks(plan, seed, blocks, samples)

        monkeypatch.setattr(coloring, "_run_blocks", patched)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # 25 blocks of 4,096 rows: two spans on two CPUs
        code, out, err = run_cli(capsys, "simulate", "complete:3", "-r", "2", "-c", "2",
                                 "-n", "100000", "--seed", "5", "--workers", "2")
        assert code == WORKER_EXIT == 1
        assert out == ""
        assert err.startswith("error: Monte-Carlo worker ") and err.count("\n") == 1
        assert "exited with status 3 without a result" in err


class TestExact:
    def test_triangle_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "complete:3", "-r", "2", "-c", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == {"0": "3/4", "3": "1/4"}

    def test_budget_exit(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "complete:20", "-r", "2", "-c", "10",
                             "--budget", "100")
        assert code == 3

    def test_budget_charged_per_distinct_component(self, capsys):
        # 4 partitions of one 2-star plus 10 convolution cells: cost 14
        code, out, _ = run_cli(capsys, "exact", "copies:3:star:2", "-r", "2", "-c", "2",
                               "--budget", "100")
        assert code == 0
        assert json.loads(out)["support"] == {"0": "27/64", "1": "27/64", "2": "9/64",
                                              "3": "1/64"}


class TestLimit:
    def test_params_echo(self, capsys):
        code, out, err = run_cli(capsys, "limit", "params", "r=2", "theta=1",
                                 "lambda1=0.5", "lambda3=0.5")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["z1_rate"] == pytest.approx(0.0)

    @pytest.mark.parametrize("tokens", [["r=2", "lambda2=1.0"],
                                        ["r=3", "lambda1=1", "lambda3=0.25"],
                                        ["r=1", "lambda1=0.5"]])
    def test_unrealizable_lambda_r_warns(self, capsys, tokens):
        # accepted and echoed as before, with a warning on stderr
        code, out, err = run_cli(capsys, "limit", "params", *tokens)
        r = int(tokens[0][2:])
        assert code == 0
        assert json.loads(out)["lambdas"][r - 1] > 0
        assert err.startswith(f"warning: lambda{r} = ") and "not realizable" in err

    def test_invalid_params_usage_exit(self, capsys):
        code, _, err = run_cli(capsys, "limit", "params", "r=2", "theta=1",
                               "lambda1=0.3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("tokens", [("r=2", "theta=1e200", "lambda1=1e300"),
                                        ("r=3", "theta=1e120")])
    def test_star_mass_overflow_usage_exit(self, capsys, tokens):
        code, out, err = run_cli(capsys, "limit", "pmf", *tokens)
        assert code == USAGE_EXIT
        assert out == ""
        assert "star mass" in err and "overflows float arithmetic" in err

    def test_star_mass_past_float_factorial(self, capsys):
        # 171! has no float form, but 0.5^171 / 171! is tiny
        for r in (170, 171):
            code, out, err = run_cli(capsys, "limit", "params", f"r={r}", "theta=0.5",
                                     "lambda1=1")
            assert code == 0 and err == ""
            assert json.loads(out)["z1_rate"] == 1.0

    def test_pmf_csv(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "pmf", "r=2", "lambda1=1.0", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "value,probability"

    @pytest.mark.parametrize("rate", ["740", "760"])
    def test_pmf_large_rate(self, capsys, rate):
        # exp(-rate) is subnormal at 740 and zero at 760
        code, out, _ = run_cli(capsys, "limit", "pmf", "r=2", f"lambda1={rate}")
        assert code == 0
        payload = json.loads(out)
        mass = math.fsum(payload["support"].values())
        assert mass + payload["deficit"] == pytest.approx(1.0, abs=1e-12)

    def test_sample(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "sample", "r=2", "lambda3=0.5",
                               "-n", "2000", "--seed", "3")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert all(int(v) % 3 == 0 for v in counts)

    @pytest.mark.filterwarnings("error")
    def test_sample_seeds_past_2_63_keep_their_low_bits(self, capsys):
        counts = []
        for seed in (2**63, 2**63 + 1, 2**64 - 1):
            code, out, _ = run_cli(capsys, "limit", "sample", "r=2", "lambda1=3", "-n", "500",
                                   "--seed", str(seed))
            assert code == 0
            counts.append(json.loads(out)["counts"])
        assert counts[0] != counts[1]

    def test_sample_payload_is_the_histogram_form(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "sample", "r=2", "lambda1=2", "-n", "500",
                               "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"seed", "samples", "counts"}
        assert payload["seed"] == 11 and payload["samples"] == 500
        assert sum(payload["counts"].values()) == 500

    @pytest.mark.parametrize("tokens", [
        ("r=2", "lambda4=1.0", "lambda0=3"),
        ("r=2", "lambda4=1.0"),
        ("r=2", "lambda0=3"),
        ("r=1", "lambda1=1", "lambda3=0.5"),
        ("r=2", "lambda-1=1"),
    ])
    @pytest.mark.parametrize("action", ["params", "pmf", "sample"])
    def test_lambda_index_outside_classes_usage_exit(self, capsys, action, tokens):
        code, out, err = run_cli(capsys, "limit", action, *tokens)
        assert code == USAGE_EXIT
        assert out == ""
        assert "outside lambda1..lambda" in err

    @pytest.mark.parametrize("token, message", [
        ("foo", "expected key=value, got 'foo'"),
        ("mu=1", "unknown parameter 'mu'"),
    ])
    def test_malformed_token_usage_exit(self, capsys, token, message):
        code, out, err = run_cli(capsys, "limit", "params", "r=2", token)
        assert code == USAGE_EXIT == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("action", ["params", "pmf", "sample"])
    def test_missing_r_usage_exit(self, capsys, action):
        # inferring r from the top lambda index would always put that lambda
        # on lambda_r, which no graph realizes
        code, out, err = run_cli(capsys, "limit", action, "lambda1=0.5")
        assert code == USAGE_EXIT
        assert out == ""
        assert "r=" in err

    @pytest.mark.parametrize("tokens, mean", [
        (("r=1", "lambda1=8e18", "lambda2=8e18"), 2.4e19),
        (("r=8", "theta=900", "lambda1=1.1e19"), None),
    ])
    def test_sample_past_int64(self, capsys, tokens, mean):
        # draws past 2^63 neither wrap nor overflow while the table is built
        code, out, _ = run_cli(capsys, "limit", "sample", *tokens, "-n", "5")
        assert code == 0
        values = [int(v) for v in json.loads(out)["counts"]]
        assert len(values) == 5 and min(values) > 0
        if mean is not None:
            assert all(abs(v / mean - 1) < 1e-6 for v in values)

    def test_sample_rate_past_numpy_limit_budget_exit(self, capsys):
        # refused as limit pmf refuses it, naming the rate and the limit
        code, out, err = run_cli(capsys, "limit", "sample", "r=1", "lambda1=1e19", "-n", "3")
        assert code == BUDGET_EXIT
        assert out == ""
        assert "1e+19" in err and "9.223372006484771e+18" in err

    @pytest.mark.parametrize("flags", [
        ("-n", "0"), ("-n", "-3"), ("--seed", "-1"), ("--seed", str(2**64)),
    ])
    def test_sample_bad_count_or_seed_usage_exit(self, capsys, flags):
        code, out, err = run_cli(capsys, "limit", "sample", "r=2", "lambda1=1", *flags)
        assert code == USAGE_EXIT
        assert out == ""
        assert "must be" in err


class TestVerify:
    def test_passing_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "tadpole-remark", "-n", "1000",
                               "--samples", "20000", "--seed", "9")
        assert code == 0
        report = json.loads(out)
        assert report["tv_to_reference"]["limit-law"] < 0.05

    def test_tolerance_failure_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "verify", "star", "-n", "100",
                               "--samples", "2000", "--seed", "1", "--tol", "1e-9")
        assert code == 4
        assert "exceeds tolerance" in err

    def test_unknown_name_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "not-a-family"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name, n, c", [
        ("complete", 1, 0), ("complete", 2, 0), ("complete", 0, 0), ("bipartite", 1, 0),
        ("tadpole-remark", 0, 0), ("er", 0, 0), ("regular", 0, 0)])
    def test_color_rule_below_one_usage_exit(self, capsys, name, n, c):
        # refused before the rule's mean divides by c
        code, out, err = run_cli(capsys, "verify", name, "-n", str(n), "--samples", "10")
        assert code == USAGE_EXIT
        assert out == ""
        assert f"builtin {name} at n = {n} gives c = {c} colors" in err

    @pytest.mark.parametrize("name", ["tadpole-remark", "complete", "star"])
    def test_negative_size_usage_exit(self, capsys, name):
        code, out, err = run_cli(capsys, "verify", name, "-n", "-1", "--samples", "10")
        assert code == USAGE_EXIT
        assert out == ""
        assert f"builtin {name} needs n >= 0, got n = -1" in err

    def test_budget_exit_from_error_kind(self, capsys, monkeypatch):
        # plug-in limit law with class counts refused by their budget
        monkeypatch.setattr(experiment, "class_counts", partial(class_counts, budget=1))
        code, out, err = run_cli(capsys, "verify", "regular", "-n", "50", "--samples", "100")
        assert code == BUDGET_EXIT
        assert "verify failed: BudgetExceededError" in err
        assert json.loads(out)["failed"]

    @pytest.mark.parametrize("kind, code", [("budget", BUDGET_EXIT), ("ValueError", USAGE_EXIT)])
    def test_exit_code_reads_error_kind_not_message(self, capsys, monkeypatch, kind, code):
        report = Report(spec={}, failed=True, error="Budget in the message only", error_kind=kind)
        monkeypatch.setattr(cli, "run_experiment", lambda spec: report)
        assert run_cli(capsys, "verify", "star", "--samples", "10")[0] == code


class TestBirthday:
    def test_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "birthday", "complete:3", "-r", "2", "-c", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"] == pytest.approx(0.25)
        assert payload["exact"] == "1/4"

    def test_mc_method(self, capsys):
        code, out, _ = run_cli(capsys, "birthday", "complete:3", "-r", "2", "-c", "2",
                               "--method", "mc", "--samples", "20000")
        assert code == 0
        assert abs(json.loads(out)["probability"] - 0.25) < 0.02


def test_usage_error_no_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
