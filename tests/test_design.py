"""Design rules checked on the package source: no dynamic code execution, no
module reaching into another module's private names, no package import hidden
below module top level, no exception type that nothing raises, no r-subset
enumeration beside the clique-sum classifier, an exact oracle on the one T
kernel with no enumeration of colorings, one finite-law algebra shared by the
oracle and the sampler, one draw route in the sampler, one Bernoulli-trial
sampler for its parts and the G(n, p) edges, one cleanup path for
its worker processes, one graph representation, an
experiment spec holding only what callers set, a color count that is a
number, a generator spec that is a table row's name plus its builder's
arguments, CLI options shared by subcommands declared once, no exported name
that the package itself never uses, and no json or concurrent.futures loaded
by the import."""
import ast
import dataclasses
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from monostar import coloring, experiment, graphs
from monostar.experiment import ExperimentSpec
from monostar.graphs import GeneratorSpec, Graph

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "monostar").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_eval_or_exec(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert not {"eval", "exec"} & set(calls)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    private += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names
                if any(part.startswith("_") for part in alias.name.split(".")[1:])]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_at_module_top(path):
    # an import inside a function hides a cycle between the package's modules
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [node.lineno for node in ast.walk(tree) if node not in tree.body and (
        isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("monostar"))
        or isinstance(node, ast.Import) and any(alias.name.startswith("monostar")
                                                for alias in node.names))]
    assert nested == []


def test_every_leaf_error_is_raised():
    errors = ast.parse(next(p for p in SOURCES if p.name == "errors.py").read_text())
    classes = [node for node in errors.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    leaves = {node.name for node in classes} - bases
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert leaves and sorted(leaves - raised) == []


def test_class_counts_has_no_subset_enumeration():
    # the clique sums replace the r-subset enumeration; it lives on only as a
    # test oracle
    stars = next(p for p in SOURCES if p.name == "stars.py")
    tree = ast.parse(stars.read_text(), filename=str(stars))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    imported |= {(alias.name, None) for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert ("itertools", "combinations") not in imported
    assert ("itertools", None) not in imported


def test_oracle_scores_partitions_with_the_one_kernel():
    # the exact oracle scores set partitions through stars.eval_T_block: no
    # mixed-radix decode of colorings and no count of c^(n-1) of them
    source = next(p for p in SOURCES if p.name == "oracle.py").read_text()
    calls = {node.func.id for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "eval_T_block" in calls
    assert "_decode_colorings" not in source
    assert "c ** (n - 1)" not in source and "c ** max(n - 1" not in source


def test_one_law_algebra_in_pmf():
    # pmf sums and raises every finite law, the oracle's counts of colorings
    # and the sampler's tree laws alike: no outer sums, dict convolution or
    # law sums beside it
    outer = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "outer"
             and isinstance(node.value, ast.Attribute) and node.value.attr in ("add", "multiply")]
    assert outer and {mention.split(":")[0] for mention in outer} == {"pmf.py"}
    defined = {path.name: {node.name for node in ast.walk(ast.parse(path.read_text()))
                           if isinstance(node, ast.FunctionDef)}
               for path in SOURCES if path.name in ("oracle.py", "coloring.py")}
    assert "convolve" not in defined["oracle.py"]
    assert not {"_merge", "_sums", "_add", "_power"} & defined["coloring.py"]


def _calls(name: str) -> set[str]:
    """Names of the functions and methods that module ``name`` calls."""
    source = next(p for p in SOURCES if p.name == name).read_text()
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))}


def test_sampler_draws_every_part_by_one_route():
    # the 2-core's colors and one table of exact-law parts, groups of
    # identical components and trees alike: no second draw route beside it
    assert [f.name for f in dataclasses.fields(coloring._Plan)] == [
        "c", "table", "core_count", "pair_u", "pair_v", "counted", "parts", "block"]
    calls = _calls("coloring.py")
    assert "bernoulli_positions" in calls and "multinomial" not in calls


def test_one_bernoulli_trial_sampler():
    # the Monte-Carlo parts and the G(n, p) edges find their successes by one
    # sampler of geometric skips: no per-pair uniform scan beside it
    defined = [path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef) and "bernoulli" in node.name.lower()]
    assert defined == ["graphs.py"]
    assert "bernoulli_positions" in _calls("coloring.py") & _calls("graphs.py")
    assert "random" not in _calls("graphs.py")


def test_one_rake_finds_the_core_and_the_trees():
    # pendant_trees finds the 2-core with the rake that shapes the trees: no
    # second peel beside it
    assert not hasattr(graphs, "_peel")


def test_workers_are_cleaned_up_by_one_finally():
    # _run_spans forks each child itself, and one try/finally at its own level
    # kills and reaps the children not yet reaped: no except clause there and
    # no second cleanup path. Only the fork and the child's own code, inside
    # the loop that forks, nest a try of their own.
    assert not hasattr(coloring, "_fork_span")
    source = next(p for p in SOURCES if p.name == "coloring.py").read_text()
    [run_spans] = [node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "_run_spans"]
    [cleanup] = [node for node in run_spans.body if isinstance(node, ast.Try)]
    assert cleanup.handlers == [] and cleanup.finalbody


def test_graph_is_its_edge_list_and_degrees():
    # the sorted edge arrays are the one graph representation: no CSR rows
    # beside them
    assert [f.name for f in dataclasses.fields(Graph)] == [
        "vertex_count", "degrees", "edge_u", "edge_v"]
    row_access = re.compile(r"\bindptr\b|\bindices\b|\.neighbors\(")
    mentions = [f"{path.name}:{lineno}" for path in SOURCES
                for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                if row_access.search(line)]
    assert mentions == []


def test_experiment_spec_keeps_what_callers_set():
    # budgets, truncation and the atom threshold take the library defaults
    assert [f.name for f in dataclasses.fields(ExperimentSpec)] == [
        "generator", "r", "colors", "samples", "seed", "comparison", "workers", "theta_cut",
        "predicted_params", "tv_tolerance", "name", "notes"]


def test_color_count_is_a_number():
    # one way to state a color count: no rule resolved against a generator's
    # size argument, and no table column naming that argument
    assert typing.get_type_hints(ExperimentSpec)["colors"] is int
    assert not hasattr(experiment, "resolve_colors")
    assert not hasattr(graphs, "generator_scale")
    assert "scale" not in [f.name for f in dataclasses.fields(graphs._Kind)]


def test_cli_declares_shared_options_once():
    cli = ast.parse(next(p for p in SOURCES if p.name == "cli.py").read_text())
    declared = [node.args[0].value for node in ast.walk(cli)
                if isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and (isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
                     or isinstance(node.func, ast.Name) and node.func.id == "_shared")]
    assert {flag: declared.count(flag) for flag in ("-o", "graph", "-r", "-c", "--csv")} == {
        "-o": 1, "graph": 1, "-r": 1, "-c": 1, "--csv": 1}


def test_generator_spec_is_a_name_and_its_arguments():
    # a generator kind is declared once, in its table row: the spec holds the
    # row's first name and the builder's arguments, no field per kind
    assert [f.name for f in dataclasses.fields(GeneratorSpec)] == ["name", "args"]
    names = [name for row in graphs._KINDS for name in row.names]
    assert len(names) == len(set(names))


# exported for the acceptance battery, which checks results through them
UNUSED_EXPORTS_ALLOWED = {
    "eval_T",  # T of one explicit coloring: criterion 3 checks it against brute force
}


def test_every_export_is_used_in_the_package():
    exported, used = {}, set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported.update((name, path.name) for name in ast.literal_eval(node.value))
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert exported
    unused = sorted(f"{module}:{name}" for name, module in exported.items()
                    if name not in used | UNUSED_EXPORTS_ALLOWED)
    assert unused == []


def test_import_loads_neither_json_nor_concurrent_futures():
    # every module imported at the top is loaded by each ``import monostar``;
    # json serves only canonical reports; concurrent.futures serves nothing, since
    # Monte-Carlo workers are forked processes
    src = str(SOURCES[0].parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, monostar; "
            "print(sorted({'json', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"
