"""Import structure of the exactga package, read from its source with ``ast``.

Every import sits at module level, and the imports between the package's
own modules form no cycle, so each module can be read below the ones it uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exactga"


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _function_imports(tree: ast.Module) -> list[int]:
    lines = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [node.lineno for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def _package_imports(tree: ast.Module, names: set[str]) -> set[str]:
    """Sibling modules imported anywhere in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or (node.level == 0 and node.module
                                   and node.module.split(".")[0] == "exactga"):
                base = (node.module or "").removeprefix("exactga").lstrip(".")
                if base:
                    out.add(base.split(".")[0])
                else:
                    out.update(a.name for a in node.names if a.name in names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "exactga":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path of module names, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def test_no_imports_inside_functions():
    offenders = {name: lines for name, tree in _modules().items()
                 if (lines := _function_imports(tree))}
    assert offenders == {}


def test_package_imports_form_no_cycle():
    modules = _modules()
    graph = {name: _package_imports(tree, set(modules)) - {name}
             for name, tree in modules.items()}
    assert graph["klein"] >= {"blades"}  # the graph is really read
    assert _cycle(graph) is None


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None
