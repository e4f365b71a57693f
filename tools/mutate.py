"""Mutation testing of one function of ``src/exactga``, standard library only.

Usage::

    python tools/mutate.py FILE FUNCTION [pytest arguments]

for example ``python tools/mutate.py src/exactga/algebra.py Algebra.signature
tests/test_algebra.py``.  FUNCTION is dotted for a method.  With no pytest
arguments the whole ``tests`` directory runs.

Each mutant changes one node of the function's ``ast``: a comparison
operator, an arithmetic operator (augmented assignments too), a boolean
operator (``and``/``or``, and ``not x`` to ``x``), or an int constant from
-9 to 9 (to one more and to one less).  The mutant function is unparsed into
a temporary copy of ``src``, never into the file itself, and pytest runs the
given selection against the copy with ``-x`` in a subprocess; a mutant that
passes survives, and one that runs past ``TIMEOUT`` seconds counts as
killed.  The unmutated copy runs first and must pass.

Each mutant prints as ``killed`` or ``SURVIVED`` with its key,
``FUNCTION: source line [change]``.  The script exits 1 if a survivor's key
is not in ``ALLOWED`` or the unmutated run fails, 0 otherwise.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300

_NONZERO_PIVOT = "equivalent: a pivot is never 0 (a nonzero square, or 2 b(e_k, e_j) != 0)"
_SIGNATURE_RETURN = ("Algebra.signature: return sum(d > 0 for d in pivots), "
                     "sum(d < 0 for d in pivots), len(active)")
_WEDGE_ROW = ("Algebra._read_off: tuple((j, rest | 1 << j, "
              "self.blade_wedge(1 << j, rest)[0][1])")
_UNUSED_PART = "equivalent: li is read only when split, and then it is lead's imaginary part"
# the key of a mutant that survives because it computes the same function, with the reason
ALLOWED: dict[str, str] = {
    f"{_SIGNATURE_RETURN} [Gt -> GtE]": _NONZERO_PIVOT,
    f"{_SIGNATURE_RETURN} [Lt -> LtE]": _NONZERO_PIVOT,
    f"{_WEDGE_ROW} [0 -> -1]":
        "equivalent: e_j ^ e_rest is one term for j outside rest, so [-1] is [0]",
    "Algebra._read_off: lr, li = lead if split else (lead, 0) [0 -> 1]": _UNUSED_PART,
    "Algebra._read_off: lr, li = lead if split else (lead, 0) [0 -> -1]": _UNUSED_PART,
    "Algebra._vec_gp: out.append((mask | (1 << i), _merge_sign(1 << i, mask))) [1 -> 2] #2":
        "equivalent: bit i is not in mask here, so mask has the same bits below i + 1 as below i",
}

_COMPARE = {ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,), ast.Lt: (ast.LtE, ast.GtE),
            ast.LtE: (ast.Lt, ast.Gt), ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
            ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,), ast.In: (ast.NotIn,),
            ast.NotIn: (ast.In,)}
_ARITHMETIC = {ast.Add: (ast.Sub,), ast.Sub: (ast.Add,), ast.Mult: (ast.Add,),
               ast.Div: (ast.Mult,), ast.FloorDiv: (ast.Mult,), ast.Mod: (ast.FloorDiv,),
               ast.Pow: (ast.Mult,), ast.BitAnd: (ast.BitOr,), ast.BitOr: (ast.BitAnd,),
               ast.BitXor: (ast.BitOr,), ast.LShift: (ast.RShift,), ast.RShift: (ast.LShift,)}
_BOOLEAN = {ast.And: (ast.Or,), ast.Or: (ast.And,)}


def _changes(node: ast.AST):
    """(description, apply) of each mutation of ``node`` itself; ``apply`` edits it in place.

    ``apply`` is None for the removal of a ``not``, which edits the parent."""
    def swap(attr, index, new):
        def apply(n):
            if index is None:
                setattr(n, attr, new())
            else:
                getattr(n, attr)[index] = new()
        return apply

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for new in _COMPARE.get(type(op), ()):
                yield f"{type(op).__name__} -> {new.__name__}", swap("ops", i, new)
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        for new in _ARITHMETIC.get(type(node.op), ()):
            yield f"{type(node.op).__name__} -> {new.__name__}", swap("op", None, new)
    elif isinstance(node, ast.BoolOp):
        for new in _BOOLEAN[type(node.op)]:
            yield f"{type(node.op).__name__} -> {new.__name__}", swap("op", None, new)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "Not -> (removed)", None  # ``mutants`` puts the operand in its place
    elif isinstance(node, ast.Constant) and type(node.value) is int and -9 <= node.value <= 9:
        for new in (node.value + 1, node.value - 1):
            yield f"{node.value} -> {new}", lambda n, new=new: setattr(n, "value", new)


def _find(tree: ast.AST, dotted: str) -> ast.AST:
    node = tree
    for name in dotted.split("."):
        node = next((child for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and child.name == name), None)
        if node is None:
            raise SystemExit(f"no function {dotted!r}")
    return node


def _nodes(function: ast.AST) -> list[ast.AST]:
    """The nodes of a function's body, in the fixed order of ``ast.walk`` per statement."""
    return [node for statement in function.body for node in ast.walk(statement)]


def mutants(source: str, function: str) -> list[tuple[str, str]]:
    """(key, mutated source) of every mutant of ``function`` in the module ``source``.

    Only the function's lines are replaced, by the unparsed mutant, indented as
    the original; the rest of the module keeps its text.
    """
    lines = source.splitlines(keepends=True)
    target = _find(ast.parse(source), function)
    first = min([target.lineno] + [d.lineno for d in target.decorator_list]) - 1
    indent = " " * target.col_offset
    out, seen = [], {}
    for index, node in enumerate(_nodes(target)):
        for description, apply in _changes(node):
            mutated = copy.deepcopy(target)
            victim = _nodes(mutated)[index]
            if apply is None:  # replace ``not x`` by ``x`` in its parent
                for parent in ast.walk(mutated):
                    for field, value in ast.iter_fields(parent):
                        if value is victim:
                            setattr(parent, field, victim.operand)
                        elif isinstance(value, list) and victim in value:
                            value[value.index(victim)] = victim.operand
            else:
                apply(victim)
            body = "".join(indent + line + "\n" for line in ast.unparse(mutated).splitlines())
            key = f"{function}: {lines[node.lineno - 1].strip()} [{description}]"
            seen[key] = seen.get(key, 0) + 1  # a repeat on one line gets its ordinal
            out.append((key if seen[key] == 1 else f"{key} #{seen[key]}",
                        "".join(lines[:first]) + body + "".join(lines[target.end_lineno:])))
    return out


def run(src: Path, path: Path, function: str, command, cwd: Path) -> tuple[bool, list]:
    """Run ``command(copy)`` on an unmutated copy of ``src``, then on each mutant.

    ``path`` is the mutated file inside ``src``; ``command`` maps the copy's
    directory to the argument list of a subprocess that exits 0 when the
    tests pass, and ``PYTHONPATH`` names the copy.  Returns whether the
    unmutated copy passed, and (key, survived) per mutant.
    """
    source = Path(path).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        copied = Path(tmp) / "src"
        shutil.copytree(src, copied, ignore=shutil.ignore_patterns("__pycache__"))
        target = copied / Path(path).resolve().relative_to(Path(src).resolve())
        env = dict(os.environ, PYTHONPATH=str(copied), PYTHONDONTWRITEBYTECODE="1")

        def passes() -> bool:
            try:
                return subprocess.run(command(copied), cwd=cwd, env=env, timeout=TIMEOUT,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        if not passes():
            return False, []
        results = []
        for key, text in mutants(source, function):
            target.write_text(text)
            results.append((key, passes()))
        return True, results


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print(__doc__)
        return 2
    path, function, selection = Path(args[0]).resolve(), args[1], args[2:] or ["tests"]

    def pytest(copied: Path) -> list[str]:
        return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "-o", f"pythonpath={copied}", *selection]

    clean, results = run(ROOT / "src", path, function, pytest, ROOT)
    if not clean:
        print("the unmutated copy fails the selection, so no mutant is reported")
        return 1
    return report(results)


def report(results: list, allowed: dict[str, str] = ALLOWED) -> int:
    """Print each (key, survived) of ``run``: 1 if a survivor is not in ``allowed``, else 0."""
    outside = 0
    for key, survived in results:
        reason = allowed.get(key)
        outside += survived and reason is None
        note = f"  (allowed: {reason})" if survived and reason else ""
        print(f"{'SURVIVED' if survived else 'killed'}  {key}{note}")
    print(f"{len(results)} mutants, {sum(s for _, s in results)} survived, "
          f"{outside} outside the allowlist")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
