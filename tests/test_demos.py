"""Each demo prints exactly the output recorded in ``demos/expected``.

The demos run in subprocesses against the source tree, so a change that
alters any printed versor, polarity, certificate or classification fails
here byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert expected == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, check=True)
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert result.stdout == expected
