"""List the statements of ``src/exactga`` that no test runs.

Usage::

    python tools/reach.py [pytest arguments]

With no arguments pytest runs the whole ``tests`` directory.  The suite runs
in this process under a line tracer (``sys.settrace`` and
``threading.settrace``, standard library only) that records the lines run
in frames of ``src/exactga`` files; each module's statements are then read
off its ``ast``.  Definitions (``def``, ``class``), imports and docstrings
are left out: they run at import, whatever the tests do.  A statement counts
as run when any line of its span was traced, so a compound statement runs
with its header or its body, and a statement that shares a line with one
that ran counts as run.  Tests that start a subprocess (the CLI and demo
runs) are not traced: a statement that only they reach is listed.

Each unreached statement prints as ``path:line: owner: source``.  The script
exits 1 if any of them is not in ``ALLOWED``, if pytest failed, or if a
module was edited during the run (its traced line numbers no longer match
the source), 0 otherwise.  A full run takes a few minutes.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exactga"

# "module.owner: source" of a statement that stays unreached, with its reason
ALLOWED: dict[str, str] = {}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = _DEFINITIONS + (ast.Import, ast.ImportFrom)


def trace(run, files) -> dict[str, set[int]]:
    """Call ``run()`` with the lines of ``files`` traced: {real path: line numbers run}.

    The tracer in place before the call is put back after it.
    """
    hits = {os.path.realpath(f): set() for f in files}
    tracers = {}  # co_filename -> the line tracer of a wanted file, or None

    def tracer_for(filename):
        lines = hits.get(os.path.realpath(filename))
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    previous = sys.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return hits


def _docstring(node: ast.AST) -> ast.AST | None:
    body = getattr(node, "body", None)
    if isinstance(node, (ast.Module,) + _DEFINITIONS) and body:
        first = body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            return first
    return None


def statements(path) -> list[tuple[int, int, str, str]]:
    """(first line, last line, owner, source line) of each statement that is counted.

    The owner is the dotted name of the innermost enclosing definitions, ""
    at module level.
    """
    source = Path(path).read_text()
    lines = source.splitlines()
    found = []

    def visit(node, owner):
        docstring = _docstring(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.stmt) and not isinstance(child, _SKIPPED) \
                    and child is not docstring:
                found.append((child.lineno, child.end_lineno, owner,
                              lines[child.lineno - 1].strip()))
            visit(child, owner)

    visit(ast.parse(source, filename=str(path)), "")
    return sorted(found)


def unreached(files, hits) -> list[tuple[str, int, str, str]]:
    """(path, line, owner, source) of each counted statement with no traced line."""
    out = []
    for path in files:
        ran = hits.get(os.path.realpath(path), set())
        for first, last, owner, text in statements(path):
            if not any(line in ran for line in range(first, last + 1)):
                out.append((str(path), first, owner, text))
    return out


def _key(path: str, owner: str, text: str) -> str:
    return f"{Path(path).stem}.{owner}: {text}" if owner else f"{Path(path).stem}: {text}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files = sorted(PACKAGE.glob("*.py"))
    sources = {path: path.read_text() for path in files}
    status = []
    hits = trace(lambda: status.append(pytest.main(
        ["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])), files)
    edited = [path.name for path in files if path.read_text() != sources[path]]
    if edited:
        print(f"edited during the run, so no reach is reported: {', '.join(edited)}")
        return 1
    missed = unreached(files, hits)
    outside = 0
    for path, line, owner, text in missed:
        key = _key(path, owner, text)
        reason = ALLOWED.get(key)
        if reason is None:
            outside += 1
        note = f"  (allowed: {reason})" if reason else ""
        print(f"{os.path.relpath(path, ROOT)}:{line}: {owner or '<module>'}: {text}{note}")
    print(f"{len(missed)} unreached statements in src/exactga, "
          f"{outside} outside the allowlist; pytest exited {int(status[0])}")
    return 1 if outside or status[0] else 0


if __name__ == "__main__":
    sys.exit(main())
