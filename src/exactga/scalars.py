"""Exact scalar arithmetic.

Rational values are plain :class:`fractions.Fraction`.  When a computation
genuinely leaves the rationals (square roots of negative similitude ratios)
we switch to :class:`ComplexRational`, an exact Gaussian-rational number.
Arithmetic on ``ComplexRational`` demotes back to ``Fraction`` as soon as the
imaginary part cancels, so purely real scalars always report a zero imaginary
part simply by being ``Fraction`` instances.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union


class ScalarError(ValueError):
    pass


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise ScalarError("floating point values are not exact; pass a string or Fraction")
    return Fraction(value)


def _make(re_part: Fraction, im_part: Fraction):
    if im_part == 0:
        return re_part
    return ComplexRational(re_part, im_part)


class ComplexRational:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ComplexRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _make((self.re * o.re + self.im * o.im) / d,
                     (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

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


Scalar = Union[Fraction, ComplexRational]


def as_scalar(value) -> Scalar:
    """Coerce ints, strings, Fractions and ComplexRationals to an exact scalar."""
    if isinstance(value, (Fraction, ComplexRational)):
        return value
    if isinstance(value, bool):
        raise ScalarError(f"refusing boolean {value!r} as a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise ScalarError(f"refusing float {value!r}; use a string like '1/3' instead")
    raise ScalarError(f"cannot interpret {value!r} as an exact scalar")


def real_part(x: Scalar) -> Fraction:
    return x.re if isinstance(x, ComplexRational) else Fraction(x)


def imag_part(x: Scalar) -> Fraction:
    return x.im if isinstance(x, ComplexRational) else Fraction(0)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
# an optional real atom, then a signed imaginary atom; the real atom must be
# followed by the sign, so '12i' cannot split into 1 + 2i
_COMPLEX_RE = re.compile(
    r"^(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<im>[+-]?\d+(?:/\d+)?)i$"
)


def _parse_rational(text: str, whole: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarError(f"zero denominator in scalar {whole!r}") from None
    except ValueError as exc:  # e.g. more digits than int() accepts
        raise ScalarError(f"cannot parse scalar {whole!r}: {exc}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse 'p', 'p/q', 'r/si', 'p/q+r/si' or 'p/q-r/si' (whitespace ignored).

    Every atom needs its digits ('1i', not 'i'), and a real part is joined
    to the imaginary one by an explicit sign, as format_scalar writes it.
    """
    if not isinstance(text, str):
        raise ScalarError(f"scalar text must be a string, not {type(text).__name__}")
    s = text.replace(" ", "")
    if not s:
        raise ScalarError("empty scalar string")
    if _RATIONAL_RE.match(s):
        return _parse_rational(s, text)
    m = _COMPLEX_RE.match(s)
    if m:
        re_txt = m.group("re")
        re_part = _parse_rational(re_txt, text) if re_txt else Fraction(0)
        return _make(re_part, _parse_rational(m.group("im"), text))
    raise ScalarError(f"cannot parse scalar {text!r}")


def format_scalar(x: Scalar) -> str:
    """Canonical text form: 'p/q' for rationals, 'p/q+r/si' for complex."""
    if isinstance(x, ComplexRational):
        if x.im == 0:
            return str(x.re)
        sign = "+" if x.im > 0 else "-"
        return f"{x.re}{sign}{abs(x.im)}i"
    return str(Fraction(x))


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
