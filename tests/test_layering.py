"""Structure of the exactga package, read from its source with ``ast``.

Every import sits at module level, and the imports between the package's
own modules form no cycle, so each module can be read below the ones it uses.
Only the blade-table builders of ``algebra`` compute a reordering sign, only
``algebra`` names the rows of its blade tables, only ``scalars`` reads the
parts of a Gaussian value, only the kernel modules name the split form,
popcounts use ``int.bit_count``, one builder makes the values whose
fields their caller proved, each rule of the scalar, matrix, blade and
model layers is stated once, the polarity chain has one kernel and a
polarity's coordinates one reader, a transform's determinant takes no
elimination, and no source line is wider than 100 columns.
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


def _owners(tree: ast.Module, matches) -> set[str]:
    """The innermost function around each node that ``matches``; "" at module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if matches(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return found


def _users(tree: ast.Module, name: str) -> set[str]:
    """The innermost function around each use of ``name``; "" at module level."""
    return _owners(tree, lambda node: (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and name in (node.name, node.asname)))


def _object_new_users(tree: ast.Module) -> set[str]:
    """The innermost function around each ``object.__new__``."""
    return _owners(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"))


def _methods(tree: ast.Module, name: str) -> list[str]:
    """The classes that define a method called ``name``."""
    return [cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]


def _hidden_fields(tree: ast.Module, class_name: str) -> list[str]:
    """The dataclass fields of ``class_name`` declared ``field(..., init=False)``."""
    return [node.target.id for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == class_name
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in node.value.keywords)]


def _raisers(tree: ast.Module) -> set[str]:
    """The innermost function around each ``raise``."""
    return _owners(tree, lambda node: isinstance(node, ast.Raise))


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
    assert users == {"algebra": {"vector"},
                     "klein": {"", "_line_through", "__post_init__", "contains_point"},
                     "lie": {"", "_triple", "__post_init__"}}
    writers = [node for node in ast.walk(modules["lie"])
               if isinstance(node, ast.FunctionDef) and node.name == "to_json"]
    assert len(writers) == 1


def _part_reads(tree: ast.Module) -> list[int]:
    """Lines that read a ``.re`` or ``.im`` attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("re", "im"))


def _definitions(tree: ast.Module) -> set[str]:
    """The names of every function and class the module defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


SPLIT_FORM = ("ComplexRational", "_split", "_join", "_parts", "_make")
PART_LISTS = ("_part_lists", "_normalized_parts", "_joined")


def test_gaussian_part_split_is_stated_once():
    # scalars._parts splits a Gaussian value into the parts that the product
    # kernels of algebra and linalg multiply, and _make recombines them; the
    # geometric layers name no scalar type and no split helper, and reach
    # the parts only through those kernels: the descent through
    # algebra._working, Algebra._gp, _read_off, _read_vector, _bilinear,
    # _pick and _multivector, the lift through
    # linalg._normalized_table_product; a part list is recombined once, by
    # linalg._joined, and never in the read-off
    modules = _modules()
    for name in ("klein", "blades", "factorize", "lie", "cli"):
        assert _part_reads(modules[name]) == [], name
        assert {n for n in SPLIT_FORM + PART_LISTS if _users(modules[name], n)} == set(), name
    assert "_read_off" not in _users(modules["algebra"], "_make")
    assert {name for name, tree in modules.items()
            if {"_pick", "_read_vector", *PART_LISTS} & _definitions(tree)} == {"algebra",
                                                                              "linalg"}
    for name, tree in modules.items():
        named = {n for n in ("_gp_split", "_times_conjugate")
                 if n in _definitions(tree) or _users(tree, n)}
        assert named == set(), name
    # one product method and one read-off serve the descent in both forms
    assert _users(modules["blades"], "_read_off") == {"__post_init__", "_unit_pick",
                                                      "factorize_versor"}
    assert _users(modules["blades"], "_working") == {"", "__post_init__", "factorize_versor"}
    assert {"_gp", "_read_off", "_multivector"} <= _definitions(modules["algebra"])


def test_only_scalars_reads_the_parts_of_a_gaussian_value():
    # the kernels too split through scalars._parts, and the lift's
    # coefficient build is linalg._normalized_table_product, which picks
    # the real or the part path itself
    modules = _modules()
    readers = {name for name, tree in modules.items() if _part_reads(tree)}
    assert readers == {"scalars"}
    users = {name: found for name, tree in modules.items()
             if (found := _users(tree, "_parts")) and name != "scalars"}
    assert users == {"algebra": {"", "_split"},
                     "linalg": {"", "_part_lists", "_lcm_of_denominators",
                                "_normalized_table_product"}}
    assert _users(modules["klein"], "_table_product") == set()
    assert _users(modules["klein"], "_normalized_table_product") == {"", "_lift"}


def test_a_proof_is_recorded_one_way():
    # algebra._proved builds every value whose fields its caller proved;
    # Multivector._stored (a slots class on the product path) and the
    # scalar constructors are the other allocators that skip a check
    modules = _modules()
    assert {name: found for name, tree in modules.items()
            if (found := _methods(tree, "_proved"))} == {}
    assert [name for name, tree in modules.items()
            if "_proved" in {node.name for node in tree.body
                             if isinstance(node, ast.FunctionDef)}] == ["algebra"]
    users = {name: found for name, tree in modules.items()
             if (found := _object_new_users(tree))}
    assert set(users) == {"algebra", "scalars"}
    assert users["algebra"] == {"_proved", "_stored"}
    # a factorization records the matrix its certificate was proved
    # against in one hidden field, set by _proved and never afterwards
    assert _hidden_fields(modules["factorize"], "FactorizationResult") == ["_against"]
    assert _users(modules["factorize"], "__setattr__") == set()


def test_each_rule_has_one_statement():
    modules = _modules()
    # each model's form is its algebra's: Lie's is not restated, Klein's is the swap
    assert [name for name in _definitions(modules["lie"]) if "bilinear" in name] == []
    assert "klein_algebra" in _users(modules["klein"], "_swap_halves")
    # every quotient of the elimination is scalars.exact_div
    assert _users(modules["linalg"], "floordiv") == set()
    # one listing order of blades and one product of vectors
    assert _users(modules["algebra"], "_listing_key") == {"basis_masks", "to_json"}
    assert {name: found for name, tree in modules.items()
            if (found := _users(tree, "_product_of"))} == {
        "algebra": {"__post_init__", "from_vectors"}}
    # one membership gate: Algebra._check_member raises every AlgebraMismatchError
    assert {name: found for name, tree in modules.items()
            if (found := _users(tree, "AlgebraMismatchError"))} == {
        "__init__": {""}, "algebra": {"_check_member"}}
    # one Gaussian quotient, on parts: scalars._quotient holds its zero check,
    # and the division operators and linalg.ratio call it
    assert "__rtruediv__" not in _raisers(modules["scalars"])
    assert "__truediv__" not in _raisers(modules["scalars"])
    assert "_quotient" in _raisers(modules["scalars"])
    assert {name: found for name, tree in modules.items()
            if (found := _users(tree, "_quotient") - {""})} == {
        "scalars": {"__truediv__"}, "linalg": {"ratio"}}


def test_the_polarity_chain_has_one_kernel_and_one_reader():
    # linalg._skew_chain_product multiplies the polarity chain, and
    # klein._polarity_product is its one caller; mat_mul is the one general
    # product, and a checked Sandwich6 forms M^T Q M as the Gram matrix of
    # M's columns under the form, with no matrix product
    modules = _modules()
    assert [name for name, tree in modules.items()
            if "_skew_chain_product" in _definitions(tree)] == ["linalg"]
    assert {name: found for name, tree in modules.items()
            if (found := _users(tree, "_skew_chain_product") - {""})} == {
        "klein": {"_polarity_product"}}
    assert [name for name, tree in modules.items()
            if "_chain_product" in _definitions(tree) or _users(tree, "_chain_product")] == []
    sandwich = next(node for node in ast.walk(modules["klein"])
                    if isinstance(node, ast.ClassDef) and node.name == "Sandwich6")
    assert _users(sandwich, "_bilinear") == {"__post_init__"}
    assert _users(sandwich, "mat_mul") == set()
    assert _owners(sandwich, lambda node: isinstance(node, ast.MatMult)) == set()
    # one reader of a polarity's coordinates serves the public inverse and
    # verify's factor check, which builds no vector
    assert [name for name, tree in modules.items()
            if "_polarity_coordinates" in _definitions(tree)] == ["klein"]
    assert {name: found for name, tree in modules.items()
            if (found := _users(tree, "_polarity_coordinates") - {""})} == {
        "klein": {"null_polarity_to_vector"}, "factorize": {"_failed_check"}}
    assert _users(modules["factorize"], "null_polarity_to_vector") == set()


def _calls_of_linalg_determinant(tree: ast.Module) -> set[str]:
    """The innermost function around each call of ``determinant`` or ``linalg.determinant``."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "determinant"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "determinant"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "linalg"))


def test_a_transform_determinant_takes_no_elimination():
    # ProjTransform4 reads det A as Klein's form of the lines through two
    # pairs of its columns, so klein reaches no general determinant; Bareiss
    # elimination serves determinant, rank and nullspace, and determinant's
    # one library caller is Matrix.det, which Algebra's degeneracy check calls
    modules = _modules()
    klein = modules["klein"]
    assert _users(klein, "_gauss_jordan") == set()
    assert _owners(klein, lambda node: (
        isinstance(node, ast.Name) and node.id == "determinant"
        or isinstance(node, ast.alias) and "determinant" in (node.name, node.asname))) == set()
    assert {name: found for name, tree in modules.items()
            if (found := _calls_of_linalg_determinant(tree))} == {"linalg": {"det"}}
    assert {name: found for name, tree in modules.items()
            if (found := _owners(tree, lambda node: (
                isinstance(node, ast.Attribute) and node.attr == "det")))} == {
        "algebra": {"__init__"}}
    assert {name: found for name, tree in modules.items()
            if (found := _users(tree, "_gauss_jordan"))} == {
        "linalg": {"determinant", "rank", "nullspace"}}


def test_source_lines_fit_in_100_columns():
    wide = [f"{p.name}:{n}" for p in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(p.read_text().splitlines(), 1) if len(line) > 100]
    assert wide == []


def test_rule_finders_see_their_targets():
    tree = ast.parse("from m import f\n"
                     "def g(x):\n    return f(x) + bin(x).count('1')\n"
                     "class C:\n    def h(self):\n        return m.f\n")
    assert _users(tree, "f") == {"", "g", "h"}
    assert _definitions(tree) == {"g", "C", "h"}
    assert _bin_counts(tree) == [3]
    assert _part_reads(ast.parse("import re\nx = re.compile(z.im)\ny = w.re\n")) == [2, 3]
    tree = ast.parse("a = object.__new__\nclass K:\n    x: int = field(init=False)\n"
                     "    y: int = field(default=0)\n"
                     "    def _proved(self):\n        return object.__new__(K)\n")
    assert _object_new_users(tree) == {"", "_proved"}
    assert _methods(tree, "_proved") == ["K"]
    assert _hidden_fields(tree, "K") == ["x"]
    assert _raisers(ast.parse("def f():\n    raise E\ndef g():\n    return 1\n")) == {"f"}


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
