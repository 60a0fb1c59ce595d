"""Quick test of the benchmark itself, at reduced input sizes.

    python3 -m pytest benchmark/test_quick.py

Checks that every metric BENCHMARK.json names is printed with its unit, and
that the output checks catch deliberately corrupted outputs.
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from monostar.graphs import build_graph  # noqa: E402
from monostar.pmf import Pmf  # noqa: E402
from monostar.stars import StarClassCounts  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN_FAULTS = {"mc-sparse": 0, "mc-dense": 0, "exact-structure": 2}


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(workload, trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == KNOWN_FAULTS[workload]
    assert result["attempted"] > result["failed"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def run_small(name, tmp_path):
    """One round at reduced size; every real output must pass its check."""
    w = wl.WORKLOADS[name](3, True, spans.Untraced(), tmp_path)
    ops, outputs = {}, {}
    for op in w.ops:
        try:
            out = op.run()
        except Exception:
            assert op.known_fault, op.name
            continue
        op.check(out)
        ops[op.name], outputs[op.name] = op, out
    return ops, outputs


def caught(op, bad) -> bool:
    try:
        op.check(bad)
    except wl.CheckFailed:
        return True
    return False


def shifted(report):
    bad = copy.deepcopy(report)
    bad.empirical["counts"] = {str(int(v) + 1): k for v, k in report.empirical["counts"].items()}
    return bad


def test_corrupted_monte_carlo_outputs_are_caught(tmp_path):
    ops, outputs = run_small("mc-sparse", tmp_path)
    assert caught(ops["tadpole-remark"], shifted(outputs["tadpole-remark"]))
    relabelled = copy.deepcopy(outputs["figure2 workers=1"])
    relabelled.warnings.append("extra")
    assert caught(ops["figure2 workers=1"], relabelled)

    ops, outputs = run_small("mc-dense", tmp_path)
    for name in ("complete workers=2", "bipartite", "criterion-2 triangle"):
        assert caught(ops[name], shifted(outputs[name])), name
    with pytest.raises(wl.CheckFailed):
        wl.check_multiples_of_3(shifted(outputs["complete workers=2"]))
    swapped = copy.deepcopy(outputs["bipartite"])
    swapped.star_stats["lambda_raw"].reverse()
    assert caught(ops["bipartite"], swapped)


def test_corrupted_exact_outputs_are_caught(tmp_path):
    ops, outputs = run_small("exact-structure", tmp_path)
    name = next(n for n in ops if n.startswith("class_counts complete"))
    stats = outputs[name]
    assert caught(ops[name], StarClassCounts(stats.r, stats.n_star, stats.class_counts[::-1]))

    pmf = outputs["exact_pmf copies:3:tadpole31 c=3"]
    assert caught(ops["exact_pmf copies:3:tadpole31 c=3"],
                  Pmf({v + 1: p for v, p in pmf.support.items()}, pmf.deficit))

    pmf = outputs["limit_pmf rate 50"]
    assert caught(ops["limit_pmf rate 50"],
                  Pmf({v + 1: p for v, p in pmf.support.items()}, pmf.deficit))

    parsed, mapping = outputs["parse edge list"]
    fewer = build_graph(parsed.vertex_count,
                        list(zip(parsed.edge_u.tolist(), parsed.edge_v.tolist()))[:-1])
    assert caught(ops["parse edge list"], (fewer, mapping))

    moments = outputs["limit_moments rate 50"]
    assert caught(ops["limit_moments rate 50"], moments[:-1] + [moments[-1] * (1 + 1e-6)])
