"""The polarity certificate is the lift's one runtime proof.

A lift whose witness does not induce the input must be refused by the
certificate alone, in the library and in the CLI, and a successful lift
never formats its similitude ratio, so a ratio longer than the
interpreter's int-to-string limit still factorizes.  A refused ratio that
long is reported by its bit length.
"""

from __future__ import annotations

import pytest

import exactga.klein as klein
from exactga.cli import run_job
from exactga.factorize import factorize_matrix, verify_factorization
from exactga.linalg import Matrix
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION

CASES = [(REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")]


@pytest.fixture
def parity_dropping_descent(monkeypatch):
    """The descent, less its first factor: a witness of the wrong parity."""
    descent = klein.factorize_versor
    monkeypatch.setattr(klein, "factorize_versor", lambda value: descent(value)[1:])


@pytest.mark.parametrize("rows, mode", CASES)
def test_wrong_witness_fails_the_certificate(parity_dropping_descent, rows, mode):
    t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
    for lift in (klein.proj_to_versor, factorize_matrix):
        with pytest.raises(klein.NotLiftableError) as refused:
            lift(t, mode)
        assert refused.value.diagnosis == {"reason": "empty-kernel"}


@pytest.mark.parametrize("rows, mode", CASES)
@pytest.mark.parametrize("command", ["factorize", "lift"])
def test_wrong_witness_exits_1_in_the_cli(parity_dropping_descent, rows, mode, command):
    payload = {"matrix": [[str(x) for x in row] for row in rows],
               "kind": "collineation", "action": "points"}
    code, report = run_job(command, payload, {"scalar_mode": mode})
    assert code == 1
    assert report == {"error": "no versor of the requested parity induces this map",
                      "detail": {"reason": "empty-kernel"}}


@pytest.mark.parametrize("action", ["points", "planes"])
def test_ratio_past_the_string_limit_factorizes(action):
    # det = 10**4400 has more digits than int-to-string conversion allows;
    # only a refusal formats the ratio (10**4400 or 10**13200)
    rows = [[10 ** 4400 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", action)
    result = factorize_matrix(t)
    assert result.verified()
    assert verify_factorization(result, t)


def test_refused_ratio_past_the_string_limit_reports_its_size():
    # det = 2 * 10**4400 is no square, and its digits pass the string limit
    rows = [[2 * 10 ** 4400 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
    with pytest.raises(klein.NotLiftableError) as refused:
        factorize_matrix(t)
    assert refused.value.diagnosis == {
        "reason": "irrational-scale", "similitude_ratio_bits": (2 * 10 ** 4400).bit_length()}


@pytest.mark.parametrize("command", ["factorize", "lift"])
def test_cli_refuses_a_ratio_too_long_to_print(command):
    # a 1,451-digit entry parses; on planes the refused ratio det^3 has 4,351 digits
    entry = 2 * 10 ** 1450
    payload = {"matrix": [[str(entry) if i == j == 0 else str(int(i == j)) for j in range(4)]
                          for i in range(4)],
               "kind": "collineation", "action": "planes"}
    code, report = run_job(command, payload, {"scalar_mode": "rational"})
    assert code == 1
    assert report["detail"] == {"reason": "irrational-scale",
                                "similitude_ratio_bits": (entry ** 3).bit_length()}
