"""Independent check of a factorization certificate.

Nothing here imports exactga.  Scalars are parsed from their JSON text into
Gaussian rationals, held as ``(re, im)`` pairs of Fractions, and the polarity
chain is multiplied with the 4x4 product written below.  The check reads the
JSON report of a factorization (``FactorizationResult.to_json`` or the CLI's
``factorize`` output) next to the transform it claims to factor.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_GAUSSIAN = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i$")

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def parse(text: str) -> tuple[Fraction, Fraction]:
    """'p', 'p/q' or 'p/q+r/si' as a Gaussian rational; ValueError otherwise."""
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {text!r}")
    if _RATIONAL.match(text):
        return Fraction(text), Fraction(0)
    m = _GAUSSIAN.match(text)
    if m is None:
        raise ValueError(f"unreadable scalar {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2))


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def neg(x):
    return -x[0], -x[1]


def product4(a, b):
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            acc = ZERO
            for k in range(4):
                acc = add(acc, mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def parse_matrix(rows) -> list[list]:
    if not isinstance(rows, list) or len(rows) != 4 or any(
            not isinstance(r, list) or len(r) != 4 for r in rows):
        raise ValueError("matrix is not 4x4")
    return [[parse(v) for v in r] for r in rows]


def polarity_table(x, action: str):
    """Skew 4x4 matrix of the null polarity of line coordinates
    x = (l01, l02, l03, l23, l31, l12), point or plane action."""
    x1, x2, x3, x4, x5, x6 = x
    if action == "points":
        return [[ZERO, neg(x4), neg(x5), neg(x6)],
                [x4, ZERO, neg(x3), x2],
                [x5, x3, ZERO, neg(x1)],
                [x6, neg(x2), x1, ZERO]]
    return [[ZERO, x1, x2, x3],
            [neg(x1), ZERO, x6, neg(x5)],
            [neg(x2), neg(x6), ZERO, x4],
            [neg(x3), x5, neg(x4), ZERO]]


def factor_coordinates(terms) -> list:
    """Grade-1 coordinates of a factor from its JSON terms."""
    coords = [ZERO] * 6
    for term in terms:
        mask = term["mask"]
        if not isinstance(mask, int) or mask <= 0 or mask & (mask - 1) or mask >= 1 << 6:
            raise ValueError(f"factor term {mask!r} is not a grade-1 basis vector")
        coords[mask.bit_length() - 1] = parse(term["coeff"])
    return coords


def check_certificate(report: dict, matrix_rows, kind: str, action: str) -> list[str]:
    """Problems found in a factorization report; empty when it is exact.

    Checks that the report claims verification, holds at most six factors of
    the parity the kind needs, with skew polarity matrices whose actions
    alternate from the innermost (rightmost) factor, which acts like the
    input; that each polarity is the table image of its non-null factor;
    and that the chain's product equals scale * input entry by entry.
    """
    problems = []
    try:
        if report.get("verified") is not True:
            problems.append("report does not claim verification")
        factors, polarities = report["factors"], report["polarities"]
        n = len(polarities)
        if len(factors) != n:
            problems.append(f"{len(factors)} factors for {n} polarities")
        if n > 6:
            problems.append(f"{n} factors, more than six")
        if n % 2 != (0 if kind == "collineation" else 1):
            problems.append(f"{n} factors have the wrong parity for a {kind}")
        other = "planes" if action == "points" else "points"
        expected = [action if (n - 1 - i) % 2 == 0 else other for i in range(n)]
        actions = [p["action"] for p in polarities]
        if actions != expected:
            problems.append(f"actions {actions} do not alternate from {action}")
        chain = []
        for i, p in enumerate(polarities):
            m = parse_matrix(p["matrix"])
            chain.append(m)
            if p.get("skew") is not True or any(
                    m[r][c] != neg(m[c][r]) for r in range(4) for c in range(r, 4)):
                problems.append(f"polarity {i} is not skew-symmetric")
            if i < len(factors):
                x = factor_coordinates(factors[i])
                half_square = add(add(mul(x[0], x[3]), mul(x[1], x[4])), mul(x[2], x[5]))
                if half_square == ZERO:
                    problems.append(f"factor {i} is a null vector")
                if polarity_table(x, p["action"]) != m:
                    problems.append(f"polarity {i} is not the image of factor {i}")
        scale = parse(report["scale"])
        if scale == ZERO:
            problems.append("scale is zero")
        target = [[mul(scale, v) for v in row] for row in parse_matrix(matrix_rows)]
        product = [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
        for m in chain:
            product = product4(product, m)
        if product != target:
            problems.append("polarity product differs from scale * input")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed certificate: {exc!r}")
    return problems
