"""Structure of the exactga package, read from its source with ``ast``.

Every import sits at module level, and the imports between the package's
own modules form no cycle, so each module can be read below the ones it uses.
Only the blade-table builders of ``algebra`` compute a reordering sign, only
``algebra`` names the rows of its blade tables, and popcounts use
``int.bit_count``.
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


def _users(tree: ast.Module, name: str) -> set[str]:
    """The innermost function around each use of ``name``; "" at module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return found


def _bin_counts(tree: ast.Module) -> list[int]:
    """Lines of every ``bin(...).count(...)`` call."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count" and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name) and node.func.value.func.id == "bin"]


def test_reordering_signs_come_from_the_blade_tables():
    modules = _modules()
    users = {name: found for name, tree in modules.items()
             if (found := _users(tree, "_merge_sign"))}
    # the geometric-product recursion and the wedge table; every product reads the tables
    assert users == {"algebra": {"_vec_gp", "blade_wedge"}}
    popcounts = {name: lines for name, tree in modules.items() if (lines := _bin_counts(tree))}
    assert popcounts == {}


def test_only_algebra_names_the_blade_rows():
    # the descent reaches the product kernel through Algebra._gp, so the
    # table format stays inside one module
    modules = _modules()
    users = {name for name, tree in modules.items()
             for rows in ("_gp_rows", "_wedge_rows", "_inner_rows") if _users(tree, rows)}
    assert users == {"algebra"}
    assert _users(modules["blades"], "_gp") == {"factorize_versor"}


def test_each_input_rule_is_stated_once():
    # scalars holds the one type ladder, algebra the one coordinate-list rule,
    # and a Lie element's JSON keys are its dataclass fields
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if "refusing float" in text] == ["scalars"]
    modules = _modules()
    users = {name: found for name, tree in modules.items()
             if (found := _users(tree, "coordinate_list"))}
    assert users == {"algebra": {"vector"}, "klein": {"", "_join", "__post_init__"},
                     "lie": {"", "_triple", "__post_init__"}}
    writers = [node for node in ast.walk(modules["lie"])
               if isinstance(node, ast.FunctionDef) and node.name == "to_json"]
    assert len(writers) == 1


def test_rule_finders_see_their_targets():
    tree = ast.parse("from m import f\n"
                     "def g(x):\n    return f(x) + bin(x).count('1')\n"
                     "class C:\n    def h(self):\n        return m.f\n")
    assert _users(tree, "f") == {"", "g", "h"}
    assert _bin_counts(tree) == [3]


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
