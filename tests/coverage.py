"""Statement coverage of ``src/rankone`` under the test suite.

    python3 tests/coverage.py [pytest arguments]

It runs pytest in this process under a ``sys.settrace`` line tracer (and
``threading.settrace``, so the suite's threads are traced too), then
prints, for each module of ``src/rankone``, how many of its statements ran
and the first line of each one that did not.  Docstrings are not counted,
nor are statements that compile to no code.  Code that the tests run in a
subprocess (the start-up tests, and the CLI runs of the README check) is
not traced, so a statement only those reach reads as missed.  The whole
suite takes 75 to 80 s this way (Python 3.11 on a two-vCPU virtual
machine), against about 26 s untraced, and a test with a wall-clock budget
may fail under the tracer.  Exits with pytest's exit code.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankone"


def _code_lines(code) -> set[int]:
    """The lines that have bytecode in ``code`` and the code nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(body, i) -> bool:
    node = body[i]
    return (i == 0 and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(parent) -> dict[int, range]:
    """Each statement's first line and its own lines: all of a simple
    statement's, and a compound one's up to its first nested statement."""
    out = {}
    for field, body in ast.iter_fields(parent):
        if not (isinstance(body, list) and body and isinstance(
                body[0], (ast.stmt, ast.excepthandler, ast.match_case))):
            continue
        for i, node in enumerate(body):
            if field == "body" and _is_docstring(body, i):
                continue
            nested = _statements(node)
            if isinstance(node, ast.match_case):  # a pattern, not a statement
                out |= nested
                continue
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            end = min(nested) - 1 if nested else node.end_lineno
            out[start] = range(start, end + 1)
            out |= nested
    return out


def _report(hits) -> list[str]:
    lines, total_run, total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        executable = _code_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        statements = {start: own for start, own in
                      _statements(ast.parse(source)).items()
                      if executable.intersection(own)}
        missed = sorted(s for s, own in statements.items() if not ran.intersection(own))
        total += len(statements)
        total_run += len(statements) - len(missed)
        lines.append(f"{path.relative_to(ROOT)}: {len(statements) - len(missed)} "
                     f"of {len(statements)} statements run"
                     + (f"; missed at lines {', '.join(map(str, missed))}"
                        if missed else ""))
    lines.append(f"total: {total_run} of {total} statements run")
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    targets = {str(path) for path in PACKAGE.glob("*.py")}
    hits = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename in targets:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return line
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *argv], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(_report(hits)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
