import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from helpers import fraction_parse_scalar

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


def test_complex_text_always_writes_the_real_part():
    # format_scalar writes '0+1i', never '1i'; the parser reads both spellings alike
    assert format_scalar(ComplexRational(0, 1)) == "0+1i"
    assert format_scalar(ComplexRational(0, "-1/2")) == "0-1/2i"
    for short, written in (("1i", "0+1i"), ("-1/2i", "0-1/2i"), ("3/4i", "0+3/4i")):
        assert parse_scalar(short) == parse_scalar(written)
        assert format_scalar(parse_scalar(short)) == written


def test_parse_rejects_junk():
    # no trailing newline, no non-ASCII digits, and spaces are the only whitespace ignored
    for bad in ("", "one", "1.5", "2+2", "i+i", "1\n", "1+2i\n", "\u0661\u0662", "1\t", "\t1"):
        with pytest.raises(ScalarError):
            parse_scalar(bad)


def test_as_scalar_rejects_floats():
    with pytest.raises(ScalarError):
        as_scalar(0.5)


COERCIONS = {"canonical": canonical, "as_scalar": as_scalar,
             "real part": lambda x: ComplexRational(x, 1),
             "imaginary part": lambda x: ComplexRational(0, x)}


@pytest.mark.parametrize("coerce", COERCIONS.values(), ids=COERCIONS)
@pytest.mark.parametrize("bad", [True, False, 0.5, 1j, None, [1], "1.5", "1e3", "\u0661", "1\n"],
                         ids=repr)
def test_every_coercion_refuses_what_the_rule_refuses(coerce, bad):
    with pytest.raises(ScalarError):
        coerce(bad)


def test_complex_parts_must_be_real():
    for part in ("1+2i", "3i", ComplexRational(1, 2), ComplexRational(0, 1)):
        for args in ((part, 1), (1, part)):
            with pytest.raises(ScalarError, match="must be real"):
                ComplexRational(*args)
    assert ComplexRational(ComplexRational(5, 0), "1/2") == ComplexRational(5, Fraction(1, 2))


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


# strings drawn from the scalar grammar and around it: signs, leading zeros,
# zero denominators, atoms just under and over the 4,300-digit limit of int(),
# interior spaces, and malformed text
_signs = st.sampled_from(["", "+", "-"])
_digits = st.one_of(
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 3), st.integers(0, 10**15)),
    st.builds(lambda n, d: "7" + d * (n - 1), st.sampled_from([4299, 4300, 4301, 4302]),
              st.sampled_from("0123456789")),
)
_unsigned_atoms = st.one_of(
    _digits,
    st.builds(lambda p, q: f"{p}/{q}", _digits, st.one_of(st.sampled_from(["0", "00"]), _digits)),
)
_atoms = st.builds(str.__add__, _signs, _unsigned_atoms)
_forms = st.one_of(
    _atoms,
    st.builds(lambda a: a + "i", _atoms),
    st.builds(lambda a, sign, b: f"{a}{sign}{b}i", _atoms, st.sampled_from("+-"), _unsigned_atoms),
    st.text(alphabet="0123456789+-/i .\n\t\u0661", max_size=12),
    st.sampled_from(["", " ", "i", "1/", "/2", "1//2", "1+2", "1+i", "++1", "1.5", "1e3", "1_000"]),
)


def _with_spaces(text: str, positions: list) -> str:
    for p in positions:
        p %= len(text) + 1
        text = text[:p] + " " + text[p:]
    return text


scalar_texts = st.builds(_with_spaces, _forms, st.lists(st.integers(0, 10**4), max_size=3))


def _outcome(parse, text):
    """The value and its exact types, or the exception's class and message."""
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    if type(value) is ComplexRational:
        return value, (ComplexRational, type(value.re), type(value.im))
    return value, type(value)


@settings(max_examples=400)
@example("1" * 4301 + "/" + "2" * 4302)  # the numerator's digit count is the one reported
@example("1" * 4301 + "/0")
# around the plain-integer fast path: text int() or str.isdigit() takes that the grammar does not
@example("+0")
@example("-007")
@example("\u0663")
@example("\u00b2")
@example("1_000")
@example("--1")
@example("+")
@example("-" + "9" * 4300)
@example("+" + "9" * 4301)
@example("-" + "9" * 4301)
@given(st.one_of(scalar_texts, st.sampled_from([None, 3, 1.5, ["1"], b"1"])))
def test_parse_matches_the_fraction_oracle(text):
    expected = _outcome(fraction_parse_scalar, text)
    assert _outcome(parse_scalar, text) == expected
    if isinstance(text, str):
        assert _outcome(canonical, text) == _outcome(
            lambda t: canonical(fraction_parse_scalar(t)), text)


def test_format_scalar_prints_past_the_string_limit():
    rng = random.Random("scalars/long-format")
    saved = sys.get_int_max_str_digits()
    values = []
    for bits in (12_999, 13_000, 13_001, 40_000, 150_000):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        values += [n, -n, 10 ** (bits // 4), 10 ** (bits // 4) - 1]
    sys.set_int_max_str_digits(0)  # str() itself, as the oracle
    try:
        expected = [str(n) for n in values]
        fractions = [str(Fraction(n, 3)) for n in values]
        gaussian = [f"{n}-{Fraction(n, 7)}i" for n in values if n > 0]
    finally:
        sys.set_int_max_str_digits(saved)
    assert [format_scalar(n) for n in values] == expected
    assert [format_scalar(Fraction(n, 3)) for n in values] == fractions
    assert [format_scalar(ComplexRational(n, -Fraction(n, 7))) for n in values if n > 0] == gaussian


def test_complex_hash_agrees_with_equality():
    # a value with a zero imaginary part hashes as the rational it equals
    assert hash(ComplexRational(3, 0)) == hash(Fraction(3)) == hash(3)
    assert hash(ComplexRational("1/2", 0)) == hash(Fraction(1, 2))
    assert hash(ComplexRational(1, 2)) == hash(ComplexRational("2/2", "4/2"))
    assert hash(ComplexRational(1, 2)) == hash((Fraction(1), Fraction(2)))
    assert len({ComplexRational(3, 0), Fraction(3), ComplexRational(1, 2),
                ComplexRational("1", "2")}) == 2


def test_complex_unary_plus_text_and_immutability():
    z = ComplexRational("1/2", -3)
    assert +z is z
    assert str(z) == format_scalar(z) == "1/2-3i"
    assert str(ComplexRational(0, 1)) == "0+1i"
    for name in ("re", "im"):
        with pytest.raises(AttributeError, match="^ComplexRational is immutable$"):
            setattr(z, name, 1)
    assert (z.re, z.im) == (Fraction(1, 2), Fraction(-3))


_FOREIGN = object()


@pytest.mark.parametrize("operation", [
    lambda z: z + _FOREIGN,
    lambda z: _FOREIGN + z,
    lambda z: z - _FOREIGN,
    lambda z: _FOREIGN - z,
    lambda z: z * _FOREIGN,
    lambda z: _FOREIGN * z,
    lambda z: z / _FOREIGN,
    lambda z: _FOREIGN / z,
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"])
def test_complex_arithmetic_with_a_foreign_operand_is_a_type_error(operation):
    # each operator returns NotImplemented, so Python raises the TypeError
    with pytest.raises(TypeError, match="unsupported operand"):
        operation(ComplexRational(1, 2))


def test_complex_equality_with_a_foreign_value_is_false():
    z = ComplexRational(1, 2)
    assert z.__eq__(_FOREIGN) is NotImplemented
    assert not z == _FOREIGN and z != _FOREIGN
    assert ComplexRational(1, 0) != "1"
