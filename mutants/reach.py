"""Statement reach: which statements of src/ does no tier-1 test run?

    python3 mutants/reach.py

Runs the tier-1 tests in this process under the standard library's
`sys.settrace` (no coverage package is needed) and prints every statement of
the package that no test reaches. A statement counts as reached when a line
event fires on one of its lines: every line of a simple statement, or the
header lines of a compound one (its decorators and the lines before its
body). Docstrings compile to no line event and are not counted. Tests that
start the CLI as a subprocess are not traced, so what only they run counts
as unreached. Hypothesis runs with a fixed seed and no example database, so
two runs reach the same statements.

Each statement known to stay unreached is listed in `UNREACHED`, by file,
enclosing definition and first line, with the reason it is kept. Exit
status: 0 when the unreached statements are exactly the listed ones, 1 when
one is not listed or a listed one is now reached, 2 when the tests fail.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparseaccel"

# (file, enclosing definition, first line of the statement) -> why it stays unreached
UNREACHED = {
    ("cli.py", "<module>", "raise SystemExit(main())"):
        "the script guard runs only under python -m, in untraced subprocesses",
}


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[range, str, str]]:
    """(lines that mark it run, enclosing definition, first line) of every
    statement in one file."""
    text = path.read_text()
    source = text.splitlines()
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for field, value in ast.iter_fields(node):
            for i, child in enumerate(value if isinstance(value, list) else ()):
                if not isinstance(child, ast.AST):
                    continue
                inner = scope
                if isinstance(child, ast.stmt) and not (field == "body" and i == 0
                                                        and _is_docstring(child)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  getattr(child, "decorator_list", [])])
                    body = getattr(child, "body", None)
                    last = child.end_lineno
                    if isinstance(body, list) and body[0].lineno > child.lineno:
                        last = body[0].lineno - 1
                    found.append((range(first, last + 1), scope,
                                  source[child.lineno - 1].strip()))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)

    visit(ast.parse(text), "<module>")
    return found


class _FixedHypothesis:
    """Loads a hypothesis profile without the example database or deadlines,
    once pytest has set up its plugins."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("reach", database=None, deadline=None)
        settings.load_profile("reach")


def trace_tests(files: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 in this process; return pytest's exit code and the lines
    that fired in each of ``files``."""
    hits: dict[str, set[int]] = {str(f): set() for f in files}

    def line_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    tracers = {name: line_tracer(lines) for name, lines in hits.items()}

    def tracer(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"],
                           plugins=[_FixedHypothesis()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    start = time.perf_counter()
    code, hits = trace_tests(files)
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"the tests fail (pytest exit {code}); reach cannot be judged")
        return 2
    total, unreached = 0, {}
    for path in files:
        fired = hits[str(path)]
        for lines, scope, first in statements(path):
            total += 1
            if not fired.intersection(lines):
                unreached[(path.name, scope, first)] = lines.start
    print(f"\n{total} statements in src/, {total - len(unreached)} reached by tier-1 "
          f"in {elapsed:.1f} s; unreached:")
    for key, line in unreached.items():
        name, scope, first = key
        why = UNREACHED.get(key, "NOT LISTED")
        print(f"  src/sparseaccel/{name}:{line} {scope}: {first}\n      {why}")
    unlisted = [key for key in unreached if key not in UNREACHED]
    stale = [key for key in UNREACHED if key not in unreached]
    for name, scope, first in stale:
        print(f"  listed but reached: {name} {scope}: {first}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
