"""Dense exact linear algebra over rational and Gaussian-rational scalars.

Entries are stored in the internal form of ``scalars.canonical``: an ``int``
where the value is integral, a ``ComplexRational`` with ``int`` parts for a
Gaussian integer.  The matrices of this library (the line map, the IPNS
systems of blades, the polarities) are integral, so their products and
eliminations run on Python integers.  Every single scalar returned
(``determinant``, ``ratio``, ``proportionality``) is in the public form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, mul
from typing import Iterable, Sequence

from .scalars import (
    ComplexRational,
    Scalar,
    canonical,
    div,
    exact_div,
    format_scalar,
)


class LinAlgError(ValueError):
    pass


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix with exact entries, stored row-major.

    The constructor stores every entry through ``canonical``, which parses
    strings and refuses floats and booleans.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise LinAlgError("entry count does not match shape")
        object.__setattr__(self, "entries", tuple(map(canonical, self.entries)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        if nrows == 0:
            raise LinAlgError("matrix needs at least one row")
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(x for j in range(self.cols) for x in self.col(j)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in subtraction")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = canonical(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise LinAlgError("vector length does not match column count")
        return tuple(sum(map(mul, self.row(i), vec)) for i in range(self.rows))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self[i, j] == -self[j, i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def det(self) -> Scalar:
        return determinant(self)

    def to_json(self) -> list[list[str]]:
        return [[format_scalar(v) for v in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data) -> "Matrix":
        if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
            raise LinAlgError("matrix JSON must be a non-empty list of lists")
        return cls.from_rows(data)

    def __str__(self):
        return aligned(self.to_json())


def aligned(cells: list[list[str]]) -> str:
    """Rows of text cells, each column right-aligned, two spaces apart."""
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise LinAlgError(f"inner dimensions disagree: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    cols = [b.col(j) for j in range(b.cols)]
    rows = [a.row(i) for i in range(a.rows)]
    return Matrix(a.rows, b.cols, tuple(sum(map(mul, ra, cb)) for ra in rows for cb in cols))


def _denominators(x) -> Iterable[int]:
    if isinstance(x, ComplexRational):
        return (x.re.denominator, x.im.denominator)
    return (x.denominator,)


def _int_parts(x) -> Iterable[int]:
    if isinstance(x, ComplexRational):
        return (x.re, x.im)
    return (x,)


def _lcm_of_denominators(values) -> int:
    return math.lcm(*(d for v in values for d in _denominators(v)))


def _gauss_jordan(m: Matrix) -> tuple[list[list], list[int], Scalar, Scalar]:
    """Fraction-free Gauss-Jordan elimination (E. H. Bareiss, Math. Comp. 22, 1968).

    Returns (rows, pivot columns, d, determinant).  Each row is first scaled
    by the lcm of its denominators, so every entry is a (Gaussian) integer.
    Each pivot step then replaces every other row by (p * row - f * pivot
    row) / d, with p the new pivot, f the row's entry in the pivot column and
    d the previous pivot (1 before the first); every entry stays a minor of
    the scaled matrix, so the division is exact.  At the end every pivot row
    holds the last pivot d at its pivot column and zero at the other pivot
    columns: the reduced row echelon form is rows / d.  Pivot order is fixed:
    first nonzero column, smallest row index.  The determinant is zero unless
    the matrix is square with full rank; then it is the signed last pivot over
    the row scales.
    """
    rows = m.row_lists()
    scales = 1
    if all(type(x) is int for x in m.entries):
        quot = floordiv
    else:
        quot = exact_div
        for row in rows:
            s = _lcm_of_denominators(row)
            if s > 1:
                row[:] = [canonical(v * s) for v in row]
                scales *= s
    pivots = []
    d, sign = 1, 1
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                row[:] = [quot(p * x - f * y, d) for x, y in zip(row, prow)]
            elif p != d:
                row[:] = [quot(p * x, d) for x in row]
        d = p
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    if m.rows != m.cols or r < m.rows:
        return rows, pivots, d, Fraction(0)
    return rows, pivots, d, div(sign * d, scales)


def determinant(m: Matrix) -> Scalar:
    if m.rows != m.cols:
        raise LinAlgError("determinant needs a square matrix")
    return _gauss_jordan(m)[3]


def rank(m: Matrix) -> int:
    return len(_gauss_jordan(m)[1])


def normalize_vector(vec: Sequence) -> tuple:
    """Scale to integer entries with content 1 and positive leading entry.

    The entries come back in the internal form (``int``s, or Gaussian
    integers).  For complex entries the leading sign is taken from the real
    part, or the imaginary part when the real part vanishes.
    """
    if all(type(v) is int for v in vec):  # no denominator and no Gaussian part to clear
        g = math.gcd(*vec)
        if next((v for v in vec if v), 0) < 0:
            g = -g
        return tuple(v // g for v in vec) if g else tuple(vec)
    vec = [canonical(v) for v in vec]
    lcm = _lcm_of_denominators(vec)
    if lcm > 1:
        vec = [canonical(v * lcm) for v in vec]
    g = math.gcd(*(p for v in vec for p in _int_parts(v)))
    if g > 1:
        vec = [exact_div(v, g) for v in vec]
    lead = next((v for v in vec if v), 0)
    if isinstance(lead, ComplexRational):
        lead = lead.re or lead.im
    if lead < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def nullspace(m: Matrix) -> list[tuple]:
    """Exact basis of the kernel, one vector per free column.

    The vector for free column f is 1 there and -row[f] / d at each pivot
    column of the echelon form, normalized to integer entries with content 1
    and positive leading entry, which makes fixtures reproducible.  It is
    built as an integral rational multiple: d times it for a real d, and
    d * conj(d) times it for a Gaussian d, which ``normalize_vector`` could
    not remove since it removes only rational content.
    """
    rows, pivots, d, _ = _gauss_jordan(m)
    free = [c for c in range(m.cols) if c not in pivots]
    conj = 1 if type(d) is int else d.conjugate()
    norm = d * conj
    basis = []
    for f in free:
        vec = [0] * m.cols
        vec[f] = norm
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f] * conj
        basis.append(normalize_vector(vec))
    return basis


def ratio(xs: Sequence, ys: Sequence) -> Scalar | None:
    """Exact nonzero c with xs == c * ys entrywise, or None. Zero against zero gives 1.

    c is x_k / y_k at the first nonzero y_k; every pair is checked by
    x_i y_k == x_k y_i, so that quotient is the only division.
    """
    pairs = list(zip(xs, ys))
    xk, yk = next(((x, y) for x, y in pairs if y), (0, 0))
    if not yk:
        return None if any(x for x, _ in pairs) else Fraction(1)
    if not xk or any(x * yk != xk * y for x, y in pairs):
        return None
    return div(xk, yk)


def proportionality(a: Matrix, b: Matrix) -> Scalar | None:
    """Exact nonzero c with a == c * b, or None. Zero against zero gives 1."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    return ratio(a.entries, b.entries)
