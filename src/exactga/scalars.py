"""Exact scalar arithmetic.

Rational values are plain :class:`fractions.Fraction`.  When a computation
genuinely leaves the rationals (square roots of negative similitude ratios)
we switch to :class:`ComplexRational`, an exact Gaussian-rational number.
Arithmetic on ``ComplexRational`` demotes back to the real type as soon as
the imaginary part cancels, so purely real scalars always report a zero
imaginary part simply by not being ``ComplexRational`` instances.

Two forms of the same values are in use.  The public form, returned by every
accessor, is a ``Fraction`` or a ``ComplexRational`` with ``Fraction`` parts.
The internal form that ``algebra`` and ``linalg`` store (``canonical``) keeps
an integral rational as a plain ``int`` and a Gaussian integer as a
``ComplexRational`` with ``int`` parts, so products of the integral versors,
blade tables and matrices of this library run on Python integers; ``public``
converts back.  Strings parse straight into the internal form: each atom
of the grammar goes through ``int()``, so ``canonical`` of a string builds
no ``Fraction`` unless the value is one.  An atom (a numerator, a
denominator, a real or an imaginary part) may have at most ``ATOM_DIGITS``
digits, the most that ``int()`` converts by default; ``format_scalar``
prints a scalar of any length.  Since ``int / int`` is a
``float`` in Python, every quotient that can see two ``int``s goes through
``div``, the one exact division rule, or through ``exact_div`` where the
quotient is known to be a (Gaussian) integer.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union


class ScalarError(ValueError):
    pass


def div(a, b):
    """The exact quotient a / b: two ints give a Fraction, never a float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


class ComplexRational:
    """Exact complex scalar with rational real and imaginary parts.

    Each part is coerced by ``as_scalar`` and must be real.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for name, part in (("re", re), ("im", im)):
            value = as_scalar(part)
            if isinstance(value, ComplexRational):
                raise ScalarError(f"a part of a complex scalar must be real, not {part!r}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------
    # Results come from the unchecked constructor, so int parts stay ints;
    # explicit type tests, not a coerced operand, keep the hot path short.

    def __add__(self, other):
        if isinstance(other, ComplexRational):
            return _make(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ComplexRational):
            return _make(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _make(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _make(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _make(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexRational):
            return _quotient(self.re, self.im, other.re, other.im)
        if isinstance(other, (int, Fraction)):
            return _quotient(self.re, self.im, other, 0)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _new(other, 0) / self

    def __neg__(self):
        return _new(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return _new(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_alloc = object.__new__
_set_re = ComplexRational.re.__set__
_set_im = ComplexRational.im.__set__


def _new(re_part, im_part) -> "ComplexRational":
    """Unchecked constructor: the parts are already exact ints or Fractions."""
    z = _alloc(ComplexRational)
    _set_re(z, re_part)
    _set_im(z, im_part)
    return z


def _make(re_part, im_part):
    return _new(re_part, im_part) if im_part else re_part


def _quotient(a, b, c, d):
    """(a + ib) / (c + id) for real parts: the one Gaussian quotient, run on the parts."""
    n = c * c + d * d
    if n == 0:
        raise ZeroDivisionError("division by zero scalar")
    return _make(div(a * c + b * d, n), div(b * c - a * d, n))


def _parts(x) -> tuple:
    """The real and the imaginary part of an internal scalar, ints or Fractions.

    The one split rule of the kernels that multiply Gaussian values on their
    parts (``algebra._split``, the chain and table products of ``linalg``);
    each of them recombines a result once through ``_make``.
    """
    return (x.re, x.im) if type(x) is ComplexRational else (x, 0)


Scalar = Union[Fraction, ComplexRational]


def exact_div(a, b):
    """a / b in the internal form, for Gaussian integers where b divides a.

    The parts are divided with ``//``, so the caller must know the quotient
    is integral; fraction-free elimination does.
    """
    if type(b) is int:
        if type(a) is int:
            return a // b
        return _make(a.re // b, a.im // b)
    n = b.re * b.re + b.im * b.im
    if type(a) is int:
        return _make(a * b.re // n, -a * b.im // n)
    return _make((a.re * b.re + a.im * b.im) // n, (a.im * b.re - a.re * b.im) // n)


def canonical(value):
    """The internal form of an exact scalar (see the module docstring).

    The one coercion rule of the library: ints, Fractions, ComplexRationals
    and scalar strings (parsed straight into this form) are accepted;
    booleans, floats and every other type are refused.
    An internal Gaussian integer (``int`` parts, the imaginary one nonzero,
    the only kind of ``ComplexRational`` with ``int`` parts that ``_make``
    builds) is returned as it is.
    """
    if type(value) is int:
        return value
    if type(value) is ComplexRational and type(value.re) is int and type(value.im) is int:
        return value
    if isinstance(value, str):  # before Fraction, whose isinstance check is an ABC's
        return _parse(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, ComplexRational):  # its parts are ints or Fractions
        return _make(canonical(value.re), canonical(value.im))
    if isinstance(value, bool):
        raise ScalarError(f"refusing boolean {value!r} as a scalar")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        raise ScalarError(f"refusing float {value!r}; use a string like '1/3' instead")
    raise ScalarError(f"cannot interpret {value!r} as an exact scalar")


def public(value) -> Scalar:
    """The public form of an internal scalar: a Fraction, or Fraction parts."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, ComplexRational) and (type(value.re) is int or type(value.im) is int):
        return _new(Fraction(value.re), Fraction(value.im))
    return value


def as_scalar(value) -> Scalar:
    """An exact scalar in the public form, by the rule of ``canonical``."""
    if isinstance(value, Fraction):
        return value
    return public(canonical(value))


def real_part(x: Scalar) -> Fraction:
    return x.re if isinstance(x, ComplexRational) else Fraction(x)


def imag_part(x: Scalar) -> Fraction:
    return x.im if isinstance(x, ComplexRational) else Fraction(0)


ATOM_DIGITS = 4300  # the default limit of Python's int() on decimal text

_ATOM = r"[+-]?\d+(?:/\d+)?"
_RATIONAL_RE = re.compile(_ATOM, re.ASCII)
# an optional real atom, then a signed imaginary atom; the real atom must be
# followed by the sign, so '12i' cannot split into 1 + 2i
_COMPLEX_RE = re.compile(rf"(?:(?P<re>{_ATOM})(?=[+-]))?(?P<im>{_ATOM})i", re.ASCII)


def _parse_atom(atom: str, whole: str):
    """'p' or 'p/q' (grammar-checked) in the internal form."""
    num, _, den = atom.partition("/")
    if len(atom) > ATOM_DIGITS:
        for digits in (num.lstrip("+-"), den):  # the numerator first, as Fraction(text) reads it
            if len(digits) > ATOM_DIGITS:
                raise ScalarError(f"scalar atom of {len(digits):,} digits is past the limit "
                                  f"of {ATOM_DIGITS:,} digits")
    p = int(num)
    if not den:
        return p
    q = int(den)
    if not q:
        raise ScalarError(f"zero denominator in scalar {whole!r}")
    return p // q if p % q == 0 else Fraction(p, q)


def _parse(text: str):
    """``parse_scalar`` in the internal form of ``canonical``."""
    if not isinstance(text, str):
        raise ScalarError(f"scalar text must be a string, not {type(text).__name__}")
    # a plain integer atom, the commonest text, skips the grammar: isascii()
    # keeps out digits like '\u0663' and '\u00b2', and isdigit() the '_' and
    # spaces that int() takes
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isdigit() and digits.isascii() and len(digits) <= ATOM_DIGITS:
        return int(text)
    s = text.replace(" ", "")
    if not s:
        raise ScalarError("empty scalar string")
    if _RATIONAL_RE.fullmatch(s):
        return _parse_atom(s, text)
    m = _COMPLEX_RE.fullmatch(s)
    if m:
        re_txt = m.group("re")
        re_part = _parse_atom(re_txt, text) if re_txt else 0
        return _make(re_part, _parse_atom(m.group("im"), text))
    raise ScalarError(f"cannot parse scalar {text!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse 'p', 'p/q', 'r/si', 'p/q+r/si' or 'p/q-r/si' (spaces ignored).

    Digits are ASCII, every atom needs its digits ('1i', not 'i'), and a
    real part is joined to the imaginary one by an explicit sign, as
    format_scalar writes it.  A missing real part is zero: 'r/si' and
    '0+r/si' are the same scalar.
    """
    return public(_parse(text))


def format_scalar(x: Scalar) -> str:
    """Canonical text form, at any length: 'p/q' for rationals, 'p/q+r/si' or
    'p/q-r/si' for complex, the real part always written ('0+1i', '0-1/2i')."""
    if type(x) is int:
        return _decimal(x)
    if isinstance(x, ComplexRational):
        if x.im == 0:
            return _rational_text(x.re)
        sign = "+" if x.im > 0 else "-"
        return f"{_rational_text(x.re)}{sign}{_rational_text(abs(x.im))}i"
    return _rational_text(x)


def _rational_text(q) -> str:
    """str(Fraction(q)) of an int or a Fraction, at any length."""
    if type(q) is int or q.denominator == 1:
        return _decimal(int(q))
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _decimal(n: int) -> str:
    """str(n) at any length.

    str() refuses more than 4,300 digits by default, so past 13,000 bits
    (3,914 digits) n is split at a power of ten near half its digits.
    """
    if n.bit_length() <= 13_000:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # log10(2) / 2 is about 0.15
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(x: Fraction) -> Scalar | None:
    """Exact square root of a rational in Q or Q(i); None when irrational."""
    r = rational_sqrt(x if x >= 0 else -x)
    if r is None:
        return None
    return r if x >= 0 else ComplexRational(0, r)
