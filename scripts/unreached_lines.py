#!/usr/bin/env python3
"""List the statements in monostar's functions that a pytest run never runs.

Usage: python scripts/unreached_lines.py [pytest arguments ...]

It needs no coverage package. pytest runs in this process under
``sys.settrace``, and only frames whose code lies under ``src/monostar``
record line events. A forked child (the sampler's worker processes) keeps
the trace function; a fork hook makes its ``os._exit`` first write the lines
the child ran to a temporary directory, which is merged after the run.
Then every statement in a function body that never ran is printed as
``path:line: source``. With no arguments it runs the unit suites, that is
``tests`` without the acceptance battery. It exits with pytest's status.

A statement counts as run when any line of it ran; a compound statement
(``if``, ``for``, ``while``, ``with``) counts by its header alone.
``try``, ``pass``, ``global`` and ``nonlocal`` run no code of their own and
are skipped, as are docstrings.
"""
import ast
import os
import pickle
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monostar"
UNIT_SUITES = ["-q", "-p", "no:cacheprovider", f"--ignore={ROOT / 'tests' / 'test_acceptance.py'}",
               str(ROOT / "tests")]
_NO_CODE = (ast.Try, ast.Pass, ast.Global, ast.Nonlocal)


def _children(node: ast.stmt) -> list[ast.stmt]:
    out = [*getattr(node, "body", []), *getattr(node, "orelse", []),
           *getattr(node, "finalbody", [])]
    for handler in getattr(node, "handlers", []):
        out += handler.body
    return out


def _statement_spans(tree: ast.Module):
    """(first, last) line of every statement inside a function body; a
    compound statement's span stops before its first child statement."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack = list(fn.body)
        if isinstance(stack[0], ast.Expr) and isinstance(stack[0].value, ast.Constant) \
                and isinstance(stack[0].value.value, str):
            stack.pop(0)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # the definition runs here; ast.walk reaches a function's body
                yield min([node.lineno] + [d.lineno for d in node.decorator_list]), node.lineno
                continue
            children = _children(node)
            stack += children
            if not isinstance(node, _NO_CODE):
                last = min((child.lineno for child in children), default=node.end_lineno + 1) - 1
                yield node.lineno, max(node.lineno, last)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: set[tuple] = set()
    record = ran.add

    def local(frame, event, arg):  # call, return and exception events fall on lines that ran
        record((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    with tempfile.TemporaryDirectory(prefix="unreached-") as forked:
        def in_child():
            ran.clear()
            exit_now = os._exit

            def dump_then_exit(status):
                with open(os.path.join(forked, str(os.getpid())), "wb") as out:
                    pickle.dump(ran, out)
                exit_now(status)

            os._exit = dump_then_exit

        os.register_at_fork(after_in_child=in_child)
        sys.settrace(on_call)
        try:
            status = pytest.main(argv or UNIT_SUITES)
        finally:
            sys.settrace(None)
        for path in Path(forked).iterdir():
            ran |= pickle.loads(path.read_bytes())

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = {line for name, line in ran if name == str(path)}
        for first, last in sorted(set(_statement_spans(ast.parse("\n".join(source))))):
            if not lines.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
