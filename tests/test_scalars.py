from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactga.scalars import (
    ComplexRational,
    ScalarError,
    as_scalar,
    canonical,
    exact_div,
    format_scalar,
    parse_scalar,
    rational_sqrt,
    scalar_sqrt,
)

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def test_complex_arithmetic_basics():
    i = ComplexRational(0, 1)
    assert i * i == Fraction(-1)
    assert (i * i).__class__ is Fraction  # demoted once the imaginary part cancels
    z = ComplexRational("1/2", "3/4")
    assert z + z == ComplexRational(1, "3/2")
    assert z - z == 0
    assert z * 2 == ComplexRational(1, "3/2")
    assert 1 / ComplexRational(0, 1) == ComplexRational(0, -1)


def test_complex_division_roundtrip():
    z = ComplexRational("2/3", "-5/7")
    w = ComplexRational("1/2", "4")
    assert (z / w) * w == z


def test_mixed_fraction_interop():
    z = ComplexRational(1, 2)
    assert Fraction(1, 2) + z == ComplexRational("3/2", 2)
    assert Fraction(3) * z == ComplexRational(3, 6)
    assert z - Fraction(1) == ComplexRational(0, 2)


def test_equality_with_reals():
    assert ComplexRational(5, 0) == Fraction(5)
    assert ComplexRational(5, 0) == 5
    assert ComplexRational(5, 1) != 5


@given(fractions, fractions, fractions, fractions)
def test_complex_field_axioms(a, b, c, d):
    z = ComplexRational(a, b)
    w = ComplexRational(c, d)
    assert z + w == w + z
    assert z * w == w * z
    assert z * (w + 1) == z * w + z
    if w:
        assert (z * w) / w == z


def test_parse_format_roundtrip():
    cases = ["3", "-7/2", "0", "1/2+3/4i", "1/2-3/4i", "-2+1i"]
    for text in cases:
        value = parse_scalar(text)
        assert parse_scalar(format_scalar(value)) == value


def test_parse_plain_imaginary():
    assert parse_scalar("3i") == ComplexRational(0, 3)
    assert parse_scalar("-1/2i") == ComplexRational(0, "-1/2")


def test_parse_rejects_junk():
    for bad in ("", "one", "1.5", "2+2", "i+i"):
        with pytest.raises(ScalarError):
            parse_scalar(bad)


def test_as_scalar_rejects_floats():
    with pytest.raises(ScalarError):
        as_scalar(0.5)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4)) == 2
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None
    assert scalar_sqrt(Fraction(-4)) == ComplexRational(0, 2)
    assert scalar_sqrt(Fraction(-3)) is None


@given(fractions)
def test_format_is_exact(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_imaginary_digits_stay_together():
    # the real part needs a sign after it, so the digits of 'bi' never split
    assert parse_scalar("12i") == ComplexRational(0, 12)
    assert parse_scalar("1/23i") == ComplexRational(0, Fraction(1, 23))
    assert parse_scalar("-12i") == ComplexRational(0, -12)
    assert parse_scalar("12+3i") == ComplexRational(12, 3)


def test_parse_zero_denominator_is_a_scalar_error():
    for bad in ("1/0", "0/0", "-3/0", "1/0+1i", "1+2/0i", "5/0i"):
        with pytest.raises(ScalarError):
            parse_scalar(bad)


def test_parse_needs_imaginary_digits():
    for bad in ("i", "-i", "1+i", "1-i", "1/2+i"):
        with pytest.raises(ScalarError):
            parse_scalar(bad)


def test_parse_rejects_non_strings():
    for bad in (None, 3, ["1"]):
        with pytest.raises(ScalarError):
            parse_scalar(bad)


@given(fractions, fractions)
def test_complex_format_is_exact(a, b):
    z = ComplexRational(a, b)
    assert parse_scalar(format_scalar(z)) == z


gaussian_ints = st.builds(lambda a, b: canonical(ComplexRational(a, b)),
                          st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))


@given(gaussian_ints, gaussian_ints)
def test_exact_div_undoes_a_product(a, b):
    if b:
        q = exact_div(a * b, b)
        assert q == a and q == canonical(q)
        assert type(q) is int or type(q.re) is type(q.im) is int


def test_conjugate():
    z = canonical(ComplexRational(3, -4))
    assert z.conjugate() == canonical(ComplexRational(3, 4))
    assert z * z.conjugate() == 25
