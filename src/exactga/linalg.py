"""Dense exact linear algebra over rational and Gaussian-rational scalars."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    ComplexRational,
    Scalar,
    as_scalar,
    div,
    format_scalar,
    imag_part,
    real_part,
)


class LinAlgError(ValueError):
    pass


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix with exact entries, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise LinAlgError("entry count does not match shape")

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
            flat.extend(as_scalar(v) for v in r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0)
                               for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

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
        c = as_scalar(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise LinAlgError("vector length does not match column count")
        return tuple(sum((self[i, j] * vec[j] for j in range(self.cols)),
                         start=Fraction(0)) for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self[i, j] == -self[j, i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def det(self):
        return determinant(self)

    def adjugate(self) -> "Matrix":
        """Transposed cofactor matrix; satisfies m @ adj = det * I exactly."""
        if self.rows != self.cols:
            raise LinAlgError("adjugate needs a square matrix")
        n = self.rows
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = Matrix(n - 1, n - 1, tuple(self[r, c] for r in range(n) if r != i
                                                   for c in range(n) if c != j))
                sign = -1 if (i + j) % 2 else 1
                cof[i][j] = sign * determinant(minor)
        return Matrix.from_rows(cof).transpose()

    def to_json(self) -> list[list[str]]:
        return [[format_scalar(v) for v in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data) -> "Matrix":
        if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
            raise LinAlgError("matrix JSON must be a non-empty list of lists")
        return cls.from_rows([[as_scalar(v) for v in row] for row in data])

    def __str__(self):
        cells = [[format_scalar(v) for v in self.row(i)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise LinAlgError(f"inner dimensions disagree: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bt = b.transpose()
    flat = []
    for i in range(a.rows):
        ra = a.row(i)
        for j in range(b.cols):
            cb = bt.row(j)
            flat.append(sum((x * y for x, y in zip(ra, cb)), start=Fraction(0)))
    return Matrix(a.rows, b.cols, tuple(flat))


def _gauss_jordan(m: Matrix) -> tuple[list[list], list[int], Scalar]:
    """Exact Gauss-Jordan elimination: (reduced rows, pivot columns, determinant).

    Pivot order is fixed: first nonzero column, smallest row index.  The
    determinant is the signed product of the pivots; it is zero unless the
    matrix is square with full rank.  Entries left of a pivot are zero in its
    row, so each row update starts at the pivot column.
    """
    rows = m.row_lists()
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        det = det * rows[r][c]
        inv = div(1, rows[r][c])
        tail = [v * inv for v in rows[r][c:]]
        rows[r][c:] = tail
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i][c:] = [a - f * b for a, b in zip(rows[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    if m.rows != m.cols or r < m.rows:
        det = Fraction(0)
    return rows, pivots, det


def determinant(m: Matrix) -> Scalar:
    if m.rows != m.cols:
        raise LinAlgError("determinant needs a square matrix")
    return _gauss_jordan(m)[2]


def rref(m: Matrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns (see ``_gauss_jordan``)."""
    rows, pivots, _ = _gauss_jordan(m)
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _denominators(x: Scalar) -> Iterable[int]:
    if isinstance(x, ComplexRational):
        yield x.re.denominator
        yield x.im.denominator
    else:
        yield Fraction(x).denominator


def _int_parts(x: Scalar) -> Iterable[int]:
    if isinstance(x, ComplexRational):
        yield x.re.numerator
        yield x.im.numerator
    else:
        yield Fraction(x).numerator


def normalize_vector(vec: Sequence) -> tuple:
    """Scale to integer entries with content 1 and positive leading entry.

    For complex entries the leading sign is taken from the real part, or the
    imaginary part when the real part vanishes.
    """
    vec = [as_scalar(v) for v in vec]
    lcm = 1
    for v in vec:
        for d in _denominators(v):
            lcm = lcm * d // math.gcd(lcm, d)
    scaled = [v * lcm for v in vec]
    g = 0
    for v in scaled:
        for p in _int_parts(v):
            g = math.gcd(g, abs(p))
    if g > 1:
        scaled = [v / g for v in scaled]
    for v in scaled:
        if v:
            lead = real_part(v) if real_part(v) != 0 else imag_part(v)
            if lead < 0:
                scaled = [-x for x in scaled]
            break
    return tuple(scaled)


def nullspace(m: Matrix) -> list[tuple]:
    """Exact basis of the kernel, one vector per free column.

    Basis vectors are normalized to integer entries with content 1 and
    positive leading entry, which makes fixtures reproducible.
    """
    rows, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        basis.append(normalize_vector(vec))
    return basis


def solve_linear(m: Matrix, rhs: Sequence) -> tuple | None:
    """One exact solution of m x = rhs, or None when inconsistent."""
    aug = Matrix.from_rows([list(m.row(i)) + [as_scalar(rhs[i])] for i in range(m.rows)])
    rows, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x)


def ratio(xs: Sequence, ys: Sequence) -> Scalar | None:
    """Exact nonzero c with xs == c * ys entrywise, or None. Zero against zero gives 1."""
    c = None
    for x, y in zip(xs, ys):
        if not y:
            if x:
                return None
            continue
        q = div(x, y)
        if c is None:
            c = q
        elif c != q:
            return None
    if c is None:
        return Fraction(1)
    return c if c else None


def proportionality(a: Matrix, b: Matrix) -> Scalar | None:
    """Exact nonzero c with a == c * b, or None. Zero against zero gives 1."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    return ratio(a.entries, b.entries)
