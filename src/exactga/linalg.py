"""Dense exact linear algebra over rational and Gaussian-rational scalars.

Entries are stored in the internal form of ``scalars.canonical``: an ``int``
where the value is integral, a ``ComplexRational`` with ``int`` parts for a
Gaussian integer.  The matrices of this library (the line map, the IPNS
systems of blades, the polarities) are integral, so their products and
eliminations run on Python integers.  Every single scalar returned
(``determinant``, ``ratio``, ``proportionality``) is in the public form.

Bareiss elimination (``_gauss_jordan``) serves ``determinant`` and
``Matrix.det``, ``rank``, ``nullspace`` and the degeneracy check of
``Algebra``.  The 4x4 determinant of a projective map does not take it:
det A is Klein's form of the lines through columns c0, c1 and c2, c3,
<p(c0, c1), J p(c2, c3)>, one sum of six products of pair minors with no
quotient (``klein.ProjTransform4``).

``mat_mul`` is the one general matrix product: one ``sum(map(mul, row,
column))`` per entry, a Gaussian entry multiplied by its own operators.

The polarity chain of a factorization has its own kernel,
``_skew_chain_product``: every factor is a skew 4x4 matrix S, read off its
six entries s01, s02, s03, s12, s13, s23 above the diagonal, and a row
(a, b, c, d) of the running product becomes

    (-b s01 - c s02 - d s03, a s01 - c s12 - d s13,
     a s02 + b s12 - d s23, a s03 + b s13 + c s23),

one tuple of 12 products.  A Gaussian chain splits only those six entries
of each factor and carries each row as its four real parts and its four
imaginary parts, so a row's step is one tuple of 48 products on ints, and
each entry of the result is recombined once.  The lift's
coefficient build, ``_normalized_table_product``, runs real values through
``_table_product``, the sparse integer table that reads a versor's
coefficients off a projective map, and ``normalize_vector``; a Gaussian map
or scale runs it on part lists, normalization included (``_normalized_parts``,
which ``normalize_vector`` and the descent's picks use too), recombining
each coefficient once (``_joined``).  ``ratio`` checks a Gaussian pair on
part lists too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul, sub
from typing import Sequence

from .scalars import (
    ComplexRational,
    Scalar,
    _make,
    _parts,
    _quotient,
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

    def _entrywise(self, op, other: "Matrix", name: str) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError(f"shape mismatch in {name}")
        return Matrix(self.rows, self.cols, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other, "subtraction")

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
        """-A == A^T: a zero diagonal, and each entry above it the negated mirror entry."""
        n, e = self.rows, self.entries
        return n == self.cols and not any(e[::n + 1]) and all(
            e[i * n + j] == -e[j * n + i] for i in range(n) for j in range(i + 1, n))

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
    columns = [b.col(j) for j in range(b.cols)]
    return Matrix(a.rows, b.cols, tuple(sum(map(mul, a.row(i), col))
                                        for i in range(a.rows) for col in columns))


# the entries (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3) of a row-major 4x4 matrix
_UPPER = itemgetter(1, 2, 3, 6, 7, 11)


def _skew_chain_product(factors: Sequence[Matrix]) -> Matrix:
    """The product of the 4x4 identity and the skew 4x4 ``factors``, left to right.

    The polarity chain kernel (module docstring); each factor must be skew,
    since only its entries above the diagonal are read.
    """
    uppers = [_UPPER(f.entries) for f in factors]
    if all(ComplexRational not in map(type, s) for s in uppers):
        rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        for s01, s02, s03, s12, s13, s23 in uppers:
            rows = [(-b * s01 - c * s02 - d * s03, a * s01 - c * s12 - d * s13,
                     a * s02 + b * s12 - d * s23, a * s03 + b * s13 + c * s23)
                    for a, b, c, d in rows]
        return Matrix(4, 4, tuple(x for row in rows for x in row))
    # a row is (Re a, Re b, Re c, Re d, Im a, Im b, Im c, Im d) = (a, b, c, d, e, f, g, h)
    rows = [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)]
    for s in uppers:
        (r01, r02, r03, r12, r13, r23), (i01, i02, i03, i12, i13, i23) = _part_lists(s)
        rows = [(-b * r01 - c * r02 - d * r03 + f * i01 + g * i02 + h * i03,
                 a * r01 - c * r12 - d * r13 - e * i01 + g * i12 + h * i13,
                 a * r02 + b * r12 - d * r23 - e * i02 - f * i12 + h * i23,
                 a * r03 + b * r13 + c * r23 - e * i03 - f * i13 - g * i23,
                 -b * i01 - c * i02 - d * i03 - f * r01 - g * r02 - h * r03,
                 a * i01 - c * i12 - d * i13 + e * r01 - g * r12 - h * r13,
                 a * i02 + b * i12 - d * i23 + e * r02 + f * r12 - h * r23,
                 a * i03 + b * i13 + c * i23 + e * r03 + f * r13 + g * r23)
                for a, b, c, d, e, f, g, h in rows]
    return Matrix(4, 4, tuple(_make(row[j], row[4 + j]) for row in rows for j in range(4)))


def _part_lists(entries) -> tuple[list, list]:
    """The real and the imaginary parts of ``entries``, by ``scalars._parts``."""
    parts = [_parts(x) for x in entries]
    return [x for x, _ in parts], [y for _, y in parts]


def _table_product(table, values: Sequence) -> list:
    """Entry i is the sum of c * values[r] over the pairs (r, c) of ``table[i]``.

    ``table`` is a sparse matrix of ints and ``values`` are real; the
    entries are not brought to the internal form.
    """
    return [sum(c * values[r] for r, c in row) for row in table]


def _normalized_table_product(table, blocks) -> tuple:
    """``normalize_vector`` of c conj(c_last) for the entries c of a ``_table_product``.

    The values are each (entries, factor) block's entries times its factor,
    and c_last is the last nonzero c.  On real values conj(c_last) is a
    rational scale, which normalizing removes, so the entries are normalized
    as they are; with a Gaussian value every step runs on part lists.
    """
    blocks = [(entries, canonical(factor)) for entries, factor in blocks]
    if all(ComplexRational not in map(type, (f, *entries)) for entries, f in blocks):
        return normalize_vector(_table_product(table, [c * f for entries, f in blocks
                                                       for c in entries]))
    real, imag = [], []
    for entries, factor in blocks:
        fr, fi = _parts(factor)
        for a, b in map(_parts, entries):
            real.append(a * fr - b * fi)
            imag.append(a * fi + b * fr)
    real, imag = _table_product(table, real), _table_product(table, imag)
    lr, li = next(p for p in zip(reversed(real), reversed(imag)) if any(p))
    return _joined(_normalized_parts([a * lr + b * li for a, b in zip(real, imag)]
                                     + [b * lr - a * li for a, b in zip(real, imag)]))


def _lcm_of_denominators(values) -> int:
    return math.lcm(*(p.denominator for v in values for p in _parts(v)))


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
    if not all(type(x) is int for x in m.entries):  # an int row needs no scaling
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
                row[:] = [exact_div(p * x - f * y, d) for x, y in zip(row, prow)]
            elif p != d:
                row[:] = [exact_div(p * x, d) for x in row]
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
    part, or the imaginary part when the real part vanishes.  A real vector
    is cleared by one lcm of its denominators, a Gaussian one on part lists.
    """
    if not all(type(v) is int for v in vec):  # a denominator or a Gaussian part to clear
        vec = list(map(canonical, vec))
        if ComplexRational in map(type, vec):
            real, imag = _part_lists(vec)
            return _joined(_normalized_parts(real + imag))
        lcm = math.lcm(*(v.denominator for v in vec))
        vec = [v.numerator * (lcm // v.denominator) for v in vec]
    g = math.gcd(*vec)
    if next((v for v in vec if v), 0) < 0:
        g = -g
    return tuple(v // g for v in vec) if g else tuple(vec)


def _normalized_parts(parts: list) -> list:
    """``normalize_vector`` on a part list: a vector's real parts, then its imaginary parts.

    The parts are cleared of denominators and divided by their gcd, negated
    for a negative lead, and stay split: ``_joined`` recombines them.
    """
    if not all(type(p) is int for p in parts):
        lcm = math.lcm(*(p.denominator for p in parts))
        parts = [p.numerator * (lcm // p.denominator) for p in parts]
    n = len(parts) // 2
    g = math.gcd(*parts) or 1
    if next((x or y for x, y in zip(parts, parts[n:]) if x or y), 0) < 0:
        g = -g
    return [x // g for x in parts]


def _joined(parts: list) -> tuple:
    """The internal entries of a part list: each recombined once by ``scalars._make``."""
    n = len(parts) // 2
    return tuple(map(_make, parts[:n], parts[n:]))


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
    x_i y_k == x_k y_i, so that quotient is the only division.  A Gaussian
    x_k or y_k (no other entry is typed) runs both on ``_part_lists``.
    """
    k = next((i for i, y in enumerate(ys) if y), None)
    if k is None:
        return None if any(xs) else Fraction(1)
    xk, yk = xs[k], ys[k]
    if not xk:
        return None
    if ComplexRational not in (type(xk), type(yk)):
        return None if any(x * yk != xk * y for x, y in zip(xs, ys)) else div(xk, yk)
    (xr, xi), (yr, yi) = _part_lists(xs), _part_lists(ys)
    a, b, c, d = xr[k], xi[k], yr[k], yi[k]
    if any(p * c - q * d != a * r - b * s or p * d + q * c != a * s + b * r
           for p, q, r, s in zip(xr, xi, yr, yi)):
        return None
    return _quotient(a, b, c, d)


def proportionality(a: Matrix, b: Matrix) -> Scalar | None:
    """Exact nonzero c with a == c * b, or None. Zero against zero gives 1."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    return ratio(a.entries, b.entries)
