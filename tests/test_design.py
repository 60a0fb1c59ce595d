"""Design rules checked on the package source: no dynamic code execution, no
module reaching into another module's private names, no exception type that
nothing raises, no r-subset enumeration beside the clique-sum classifier, one
graph representation, and no exported name that the package itself never
uses."""
import ast
import dataclasses
import re
from pathlib import Path

import pytest

from monostar.graphs import Graph

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


# exported for the acceptance battery, which checks results through them
UNUSED_EXPORTS_ALLOWED = {
    "eval_T",  # T of one explicit coloring: criterion 3 checks it against brute force
    "pmf_mean",  # mean of a pmf: criterion 1 checks E[T] = n_star / c^r with it
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
