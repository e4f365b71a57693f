"""``tools/reach.py``, the statement tracer, run on a module written for the test."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

TOY = '''"""A module with one statement that its caller never runs."""
import os


class Box:
    """Docstrings, imports and definitions are not counted."""

    size = 2

    def grow(self, by):
        """Grow the box."""
        if by < 0:
            raise ValueError("negative")
        return self.size + (
            by)


def pick(x):
    if x:
        return Box().grow(x)
    return os.sep
'''


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_reports_exactly_the_statement_that_never_ran(tmp_path):
    reach = _load(TOOL, "reach")
    toy = tmp_path / "toy.py"
    toy.write_text(TOY)

    def run():
        module = _load(toy, "toy")
        assert (module.pick(1), module.pick(0)) == (3, module.os.sep)

    before = sys.gettrace()
    hits = reach.trace(run, [toy])
    assert sys.gettrace() is before
    assert reach.unreached([toy], hits) == [(str(toy), 13, "Box.grow",
                                             'raise ValueError("negative")')]
    # untraced, every counted statement is listed, and only those
    missed = reach.unreached([toy], {})
    assert [line for _, line, _, _ in missed] == [8, 12, 13, 14, 19, 20, 21]
