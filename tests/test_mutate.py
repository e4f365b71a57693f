"""``tools/mutate.py``, the mutation runner, on a module and check written for the test."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"

TOY = '''"""A module whose one function has two mutants."""


def gate(a, b, c):
    """Docstrings are not mutated."""
    return a == b and c
'''

# checks gate only with c true, so ``or`` for ``and`` goes unnoticed
CHECK = '''import sys
import toy

sys.exit(0 if toy.gate(1, 1, True) else 1)
'''


def test_mutate_kills_one_mutant_and_reports_the_survivor(tmp_path):
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    src = tmp_path / "src"
    src.mkdir()
    toy = src / "toy.py"
    toy.write_text(TOY)
    check = tmp_path / "check.py"
    check.write_text(CHECK)

    keys = [key for key, _ in mutate.mutants(TOY, "gate")]
    assert keys == ["gate: return a == b and c [And -> Or]",
                    "gate: return a == b and c [Eq -> NotEq]"]
    clean, results = mutate.run(src, toy, "gate", lambda copied: [sys.executable, str(check)],
                                tmp_path)
    assert clean
    assert results == [(keys[0], True), (keys[1], False)]
    assert toy.read_text() == TOY  # the mutants went into the copy
    assert mutate.report(results, {}) == 1
    assert mutate.report(results, {keys[0]: "the check never sets c false"}) == 0
