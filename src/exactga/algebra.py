"""Clifford algebras over arbitrary symmetric bilinear forms, exactly.

Basis blades are wedge monomials ``e_{i1} ^ ... ^ e_{ik}`` indexed by bitmasks
(bit ``i`` set means the generator ``e_{i+1}`` is present), so every stored
term is of pure grade even when the form is not diagonal.  The geometric
product is computed by metric contraction on wedge monomials:

    e_m ^ E  =  e_m E - (e_m . E)        for m below every index of E,

which peels one generator at a time: e_a e_b = e_m (E e_b) - (e_m . E) e_b
for a = e_m ^ E.  Only the generator rows, e_m E and 1 E, are computed from
the form; every other blade product is one pass over cached entries of
lower left grade (``Algebra.blade_gp``).

Every product of multivectors is one kernel, ``_product``, over a table of
blade products: the sum over coefficient pairs of c_a c_b times the table
entry of (a, b), a tuple of (mask, coefficient) terms.  Each algebra caches
three tables as rows, ``rows[a][b]`` (the per-left-blade layout of Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science*, ch. 19):
``blade_gp``, the geometric product; ``blade_wedge``, ``()`` for blades that
share a generator and else the one term ``a | b`` with its reordering sign;
and ``blade_inner``, the grade |ka - kb| part of ``blade_gp``.  Each left
blade reads its row once and each pair indexes it, so a product by a vector
costs one row per left blade and one index per generator.  An entry is
built on first use.  The kernel skips a pair whose entry is empty before
multiplying its coefficients, and no product computes a sign per pair.  It
works on term dicts: ``Multivector.gp``, ``wedge`` and ``inner`` wrap its
result, and each step of the grade descent calls it through ``Algebra._gp``
without building a ``Multivector``.

Coefficients and blade-table entries are stored in the internal form of
``scalars.canonical``: plain ``int``s (Gaussian integers in complex mode)
wherever the value is integral, which is every versor and table of the two
rank-6 models, so products run on Python integers.  The accessors
(``coeff``, ``terms``, ``coordinates``, ``scalar_part``, ``norm``) return the
public ``Fraction`` / ``ComplexRational`` form.

A product of Gaussian coefficients runs on their parts.  ``_split`` gives
each coefficient as a (real, imaginary) pair by the one split rule,
``scalars._parts``, that ``linalg`` shares, and ``_join`` recombines each
pair once by ``scalars._make``.  ``_gaussian_product`` takes and returns
split terms: each pair of blades multiplies its coefficients once,
(a + ib)(c + id) = (ac - bd) + i(ad + bc), and the real table entries scale
a real and an imaginary sum apart.  ``_product`` splits, multiplies and
joins in its one call unless both term dicts are real, as in rational mode.
The grade descent runs on the working form of ``_working``, which
``Algebra._gp``, ``_read_off``, ``_read_vector`` and ``_multivector`` take,
so only this module and ``linalg`` know a scalar's type.  From split terms
the read-off gives part lists, which ``_bilinear`` probes and ``_pick``
normalizes on their parts, recombining the pick once.  Every top part is
read off one way, a one-term part included.

Each operation has one path and one input form: ``sandwich`` and ``norm``
take a ``Multivector`` (a ``Versor`` passes its ``value``), and
``Algebra.signature`` diagonalizes the form by congruence over the
generators still active.

All values are immutable and operations are pure; the one piece of mutable
state, the per-algebra table caches, is filled idempotently, so concurrent
use needs no coordination.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable, Sequence

from .linalg import Matrix, _joined, _normalized_parts, normalize_vector, ratio
from .scalars import (
    ComplexRational,
    Scalar,
    _make,
    _parts,
    canonical,
    div,
    format_scalar,
    public,
)


class AlgebraError(ValueError):
    """A refusal of the algebra layers; ``diagnosis`` says where it gave out (empty if unknown)."""

    def __init__(self, message: str = "", diagnosis: dict | None = None):
        super().__init__(message)
        self.diagnosis = diagnosis or {}


class AlgebraMismatchError(AlgebraError):
    pass


class DegenerateFormError(AlgebraError):
    pass


class NullVersorError(AlgebraError):
    pass


class NotAVersorError(AlgebraError):
    pass


_set = object.__setattr__


def _proved(cls, **fields):
    """A frozen dataclass instance from fields its caller proved: ``__post_init__`` is not run.

    Set one by one in declaration order, as ``__init__`` sets them, the fields
    keep a constructed instance's layout: a materialized ``__dict__`` slows
    every attribute load that sees both kinds.
    """
    proved = object.__new__(cls)
    for name, value in fields.items():
        _set(proved, name, value)
    return proved


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def coordinate_list(values, count: int, message: str) -> tuple:
    """``values`` as a tuple of ``count`` coordinates, else ``AlgebraError(message)``.

    Text and mappings are refused whatever their length: their characters
    or keys are not coordinates.
    """
    if isinstance(values, (str, bytes, Mapping)) or len(values := tuple(values)) != count:
        raise AlgebraError(message)
    return values


def _merge_sign(a: int, b: int) -> int:
    """Reordering sign of E_a ^ E_b into ascending index order (a, b disjoint)."""
    total = 0
    for i in _bits(a):
        total += (b & ((1 << i) - 1)).bit_count()
    return -1 if total & 1 else 1


class Algebra:
    """A Clifford algebra Cl(V, b) given by the symmetric form matrix of b."""

    def __init__(self, form: Matrix):
        if form.rows != form.cols:
            raise AlgebraError("form matrix must be square")
        if form.rows > 16:
            raise AlgebraError("generator count above the 16-bit mask budget")
        if form.transpose() != form:
            raise AlgebraError("form matrix must be symmetric")
        self.form = form
        self.dim = form.rows
        if ComplexRational in map(type, form.entries):
            # the product splits Gaussian coefficients against real blade tables
            raise AlgebraError("form matrix must be real")
        self._metric = tuple(map(form.row, range(self.dim)))  # stored entries: internal form
        # the nonzero entries (i, j, b_ij) of the form, for b on coordinate lists
        self._form_terms = tuple((i, j, m) for i, row in enumerate(self._metric)
                                 for j, m in enumerate(row) if m)
        self._degenerate = not form.det()
        # blade tables by rows: rows[a][b] is the table of the blade pair (a, b)
        self._gp_rows: defaultdict[int, dict[int, tuple]] = defaultdict(dict)
        self._wedge_rows: defaultdict[int, dict[int, tuple]] = defaultdict(dict)
        self._inner_rows: defaultdict[int, dict[int, tuple]] = defaultdict(dict)
        # per top mask F, for each f in F: the (j, mask, sign) of e_j ^ e_(F-f) (``_read_off``)
        self._read_rows: dict[int, tuple] = {}
        # the descent's pick of a one-term top part, per mask (``blades._unit_pick``)
        self._unit_picks: dict[int, tuple] = {}

    # -- basic data ---------------------------------------------------------

    def same_as(self, other: "Algebra") -> bool:
        return self is other or self.form == other.form

    def _check_member(self, x: "Multivector", message: str) -> None:
        """Refuse an element of another algebra with ``AlgebraMismatchError(message)``."""
        if not self.same_as(x.algebra):
            raise AlgebraMismatchError(message)

    def metric(self, i: int, j: int) -> Scalar:
        return public(self.form[i, j])

    def _bilinear(self, x: Sequence, y: Sequence) -> Scalar:
        """b(x, y) of two coordinate lists, or of two part lists (``_read_off``) on their parts.

        Internal lists give the internal form.  A unit form entry is not
        multiplied in: one Fraction or Gaussian operation less."""
        if len(x) > (n := self.dim):  # part lists: x_i y_j m summed on real and imaginary parts
            re = im = 0
            for i, j, m in self._form_terms:
                a, b, c, d = x[i], x[n + i], y[j], y[n + j]
                re += (a * c - b * d) * m
                im += (a * d + b * c) * m
            return _make(re, im)
        return sum(x[i] * y[j] if m == 1 else x[i] * y[j] * m for i, j, m in self._form_terms)

    def is_degenerate(self) -> bool:
        return self._degenerate

    def signature(self) -> tuple[int, int, int]:
        """Counts (p, q, r) of +1, -1, 0 squares in a diagonalizing basis.

        By congruence: each step pivots on an active generator with a nonzero
        square, else on e_k + e_j with b(e_k, e_j) != 0 (it squares to
        2 b(e_k, e_j)), clears its row and column and drops it; r counts the rest.
        """
        s, active, pivots = self.form.row_lists(), list(range(self.dim)), []
        while pick := next(chain(((k, k) for k in active if s[k][k]),
                                 ((k, j) for k in active for j in active if s[k][j])), None):
            k, j = pick
            if j != k:
                s[k] = list(map(add, s[k], s[j]))
                for row in s:
                    row[k] += row[j]
            active.remove(k)
            pivots.append(piv := s[k][k])
            for i in active:  # the Schur complement of the pivot on the active generators
                f = div(s[i][k], piv)
                for m in active:
                    s[i][m] -= f * s[k][m]
        return sum(d > 0 for d in pivots), sum(d < 0 for d in pivots), len(active)

    # -- element constructors -----------------------------------------------

    def mv(self, terms: dict[int, object]) -> "Multivector":
        return Multivector(self, terms)

    def scalar(self, value) -> "Multivector":
        return Multivector(self, {0: value})

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def e(self, *indices: int) -> "Multivector":
        """Basis blade by 1-based generator indices, strictly increasing."""
        if list(indices) != sorted(set(indices)):
            raise AlgebraError("indices must be strictly increasing")
        mask = 0
        for i in indices:
            if not 1 <= i <= self.dim:
                raise AlgebraError(f"generator index {i} out of range")
            mask |= 1 << (i - 1)
        return Multivector(self, {mask: 1})

    def vector(self, coords: Sequence) -> "Multivector":
        coords = coordinate_list(coords, self.dim,
                                 "coordinate count must equal the generator count")
        return Multivector(self, {1 << i: c for i, c in enumerate(coords)})

    def _check_grade(self, k: int) -> None:
        if not 0 <= k <= self.dim:
            raise AlgebraError(f"grade {k} out of range 0..{self.dim}")

    def basis_masks(self, grade: int | None = None, parity: str | None = None) -> list[int]:
        """The masks of one grade, of one parity or all, in the listing order (``_listing_key``)."""
        if grade is not None:
            self._check_grade(grade)
        if parity not in ("even", "odd", None):
            raise AlgebraError("parity must be 'even', 'odd' or None")
        kept = {"even": (0,), "odd": (1,)}.get(parity, (0, 1))
        return sorted((m for m in range(1 << self.dim) if m.bit_count() % 2 in kept
                       and (grade is None or m.bit_count() == grade)), key=_listing_key)

    def pseudoscalar(self) -> "Multivector":
        if self.is_degenerate():
            raise DegenerateFormError("pseudoscalar duality needs a non-degenerate form")
        return Multivector(self, {(1 << self.dim) - 1: 1})

    def center_basis(self, even_only: bool = False) -> list["Multivector"]:
        """Basis of the center of the algebra, or of its even part: {1} or {1, e_1..n}.

        The pseudoscalar is central in odd dimension, and central in the even
        part in even dimension n > 0.  A degenerate form is refused, as by
        ``pseudoscalar``: its algebra has a larger center.
        """
        top = self.pseudoscalar()
        central = self.dim and self.dim % 2 != even_only
        return [self.scalar(1), top] if central else [self.scalar(1)]

    # -- cached blade products ----------------------------------------------

    def _outside(self, rows: defaultdict, a: int, b: int) -> AlgebraError:
        """The refusal of a table miss on a mask outside the algebra, dropping the row it made."""
        if not rows[a]:
            del rows[a]
        return AlgebraError(f"mask {a if a >> self.dim else b} outside the algebra")

    def _vec_gp(self, i: int, mask: int) -> tuple:
        """Generator row entry e_i E_mask = e_i . E + e_i ^ E, contraction terms first."""
        out = [(mask ^ (1 << j), c if pos % 2 == 0 else -c)
               for pos, j in enumerate(_bits(mask)) if (c := self._metric[i][j])]
        if not (mask >> i) & 1:
            out.append((mask | (1 << i), _merge_sign(1 << i, mask)))
        return tuple(out)

    def blade_gp(self, a: int, b: int) -> tuple:
        """Geometric product of two wedge basis monomials as cached (mask, coefficient) terms.

        Only the generator rows (a = 0 or a single e_i) are computed from the
        form.  Any other entry is read off cached ones: for a = e_i ^ e_rest,
        i the lowest generator of a, e_a e_b = e_i (e_rest e_b) - (e_i . e_rest) e_b,
        the contraction being blade_gp(e_i, rest) without its wedge term a.
        """
        row = self._gp_rows[a]
        cached = row.get(b)
        if cached is not None:
            return cached
        if (a | b) >> self.dim:  # a negative mask shifts to -1
            raise self._outside(self._gp_rows, a, b)
        low = a & -a
        if low == a:
            result = self._vec_gp(low.bit_length() - 1, b) if a else ((b, 1),)
        else:
            gp, rest = self.blade_gp, a ^ low
            acc: dict[int, Scalar] = {}
            for m, c in gp(rest, b):
                for m2, c2 in gp(low, m):
                    acc[m2] = acc.get(m2, 0) + c * c2
            for mc, cc in gp(low, rest):
                if mc != a:
                    for m2, c2 in gp(mc, b):
                        acc[m2] = acc.get(m2, 0) - cc * c2
            result = tuple((m, canonical(c)) for m, c in acc.items() if c)
        row[b] = result
        return result

    def blade_wedge(self, a: int, b: int) -> tuple:
        """Outer product of two wedge basis monomials, cached: empty when they overlap."""
        row = self._wedge_rows[a]
        table = row.get(b)
        if table is None:
            if (a | b) >> self.dim:
                raise self._outside(self._wedge_rows, a, b)
            table = row[b] = () if a & b else ((a | b, _merge_sign(a, b)),)
        return table

    def blade_inner(self, a: int, b: int) -> tuple:
        """Generalized inner product of two monomials: the grade-|ka-kb| part of blade_gp."""
        row = self._inner_rows[a]
        table = row.get(b)
        if table is None:
            if (a | b) >> self.dim:
                raise self._outside(self._inner_rows, a, b)
            target = abs(a.bit_count() - b.bit_count())
            table = row[b] = tuple((m, c) for m, c in self.blade_gp(a, b)
                                   if m.bit_count() == target)
        return table

    def _gp(self, x: dict, y: dict) -> dict:
        """The working terms of x y, for working terms x (``_working``) and stored terms y."""
        if type(next(iter(x.values()))) is tuple:
            return _gaussian_product(x, _split(y), self._gp_rows, self.blade_gp)
        return _product(x, y, self._gp_rows, self.blade_gp)

    def _read_off(self, terms: dict):
        """Yield k vectors read off the working terms of a nonzero k-vector b.

        For f in F, the largest mask where b is nonzero, the e_j coordinate is
        the signed coefficient of e_j ^ e_(F-f), turned by conj(b_F) if split
        (on real terms a rational scale).  Normalized, they are the basis that
        ``nullspace`` gives for a blade's OPNS; c e_F yields +-c e_f (+-|c|^2
        e_f if split), whose picks are the unit vectors.  Split terms yield
        part lists (real parts, then imaginary parts); ``_bilinear`` and
        ``_pick`` tell them by length.
        """
        top = max(terms)
        rows = self._read_rows.get(top)
        if rows is None:
            rows = self._read_rows[top] = tuple(
                tuple((j, rest | 1 << j, self.blade_wedge(1 << j, rest)[0][1])
                      for j in range(self.dim) if not rest >> j & 1)  # else e_j ^ e_rest = 0
                for rest in (top ^ 1 << f for f in _bits(top)))
        n, lead = self.dim, terms[top]
        split = type(lead) is tuple
        lr, li = lead if split else (lead, 0)
        for row in rows:
            coords = [0] * (2 * n if split else n)
            for j, mask, sign in row:
                if c := terms.get(mask):  # None off the support: b is homogeneous of grade k
                    if split:
                        a, b = c
                        coords[j] = sign * (a * lr + b * li)
                        coords[n + j] = sign * (b * lr - a * li)
                    else:
                        coords[j] = sign * c
            yield coords

    def _read_vector(self, terms: dict) -> list:
        """The vector of working terms of grade 1, in the form of ``_read_off``; else refuse."""
        if any(m.bit_count() != 1 for m in terms):
            raise AlgebraError("not a pure vector")
        if type(next(iter(terms.values()))) is tuple:
            return [terms.get(1 << j, (0, 0))[p] for p in (0, 1) for j in range(self.dim)]
        return [terms.get(1 << j, 0) for j in range(self.dim)]

    def _pick(self, *vectors) -> tuple:
        """The stored coordinates of one vector, or of the sum of two, normalized.

        The vectors have one form of ``_read_off``; each of two is normalized
        first.  Part lists are recombined once, at the end (``linalg._joined``).
        """
        real = len(vectors[0]) == self.dim
        normalize = normalize_vector if real else _normalized_parts
        v = list(map(add, *map(normalize, vectors))) if len(vectors) > 1 else vectors[0]
        return normalize_vector(v) if real else _joined(_normalized_parts(v))

    def _multivector(self, terms: dict) -> "Multivector":
        """The multivector of working terms (``_working``), joined when they are split."""
        split = type(next(iter(terms.values()), None)) is tuple
        return Multivector._stored(self, _join(terms) if split else terms)

    def __repr__(self):
        p, q, r = self.signature()
        return f"Algebra(dim={self.dim}, signature=({p},{q},{r}))"


def _split(terms: dict) -> dict:
    """Each coefficient as its real and imaginary part (``scalars._parts``)."""
    return {m: _parts(c) for m, c in terms.items()}


def _join(split: dict) -> dict:
    """The stored terms of split terms: each coefficient recombined once by ``scalars._make``."""
    return {m: canonical(_make(r, i)) for m, (r, i) in split.items()}


def _working(terms: dict) -> dict:
    """The terms a descent multiplies: g's stored terms, split (``_split``) if one is Gaussian."""
    return _split(terms) if ComplexRational in map(type, terms.values()) else terms


def _product(x: dict, y: dict, rows, build) -> dict:
    """The stored terms of the product of x and y whose blade table is ``rows``.

    ``build(a, b)`` fills a missing entry of ``rows[a]`` (module docstring).
    """
    if ComplexRational in map(type, x.values()) or ComplexRational in map(type, y.values()):
        return _join(_gaussian_product(_split(x), _split(y), rows, build))
    acc: dict[int, Scalar] = {}
    get = acc.get
    y_items = list(y.items())
    for a, ca in x.items():
        row = rows[a]
        for b, cb in y_items:
            try:
                table = row[b]
            except KeyError:
                table = build(a, b)
            if table:
                cab = ca * cb
                for m, c in table:
                    acc[m] = get(m, 0) + cab * c
    return {m: c if type(c) is int else canonical(c) for m, c in acc.items() if c}


def _gaussian_product(x: dict, y: dict, rows, build) -> dict:
    """``_product`` of split terms (``_split``), as split terms (module docstring)."""
    real: dict[int, Scalar] = {}
    imag: dict[int, Scalar] = {}
    real_get, imag_get = real.get, imag.get
    y_parts = list(y.items())
    for a, (ar, ai) in x.items():
        row = rows[a]
        for b, (br, bi) in y_parts:
            try:
                table = row[b]
            except KeyError:
                table = build(a, b)
            if table:
                pr, pi = ar * br - ai * bi, ar * bi + ai * br
                for m, c in table:
                    real[m] = real_get(m, 0) + pr * c
                    imag[m] = imag_get(m, 0) + pi * c
    return {m: (r, i) for m, r in real.items() if (i := imag[m]) or r}


def _listing_key(mask: int) -> tuple:
    """The listing order of blades: grade-major, then lexicographic on index tuples."""
    return mask.bit_count(), tuple(_bits(mask))


def _blade_name(mask: int) -> str:
    if mask == 0:
        return ""
    return "e" + "".join(str(i + 1) for i in _bits(mask))


class Multivector:
    """Sparse multivector: mapping from blade masks to exact coefficients.

    The coefficients are stored in the internal form of ``scalars.canonical``.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: Algebra, terms: dict[int, object]):
        clean = {}
        dim = algebra.dim
        for mask, coeff in terms.items():
            c = coeff if type(coeff) is int else canonical(coeff)
            if c:
                if mask < 0 or mask >> dim:
                    raise AlgebraError(f"mask {mask} outside the algebra")
                clean[mask] = c
        _set(self, "algebra", algebra)
        _set(self, "_terms", clean)

    @classmethod
    def _stored(cls, algebra: Algebra, terms: dict) -> "Multivector":
        """A multivector of terms already in the stored form: nonzero, canonical, in range."""
        mv = object.__new__(cls)
        _set(mv, "algebra", algebra)
        _set(mv, "_terms", terms)
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict[int, Scalar]:
        return {m: public(c) for m, c in self._terms.items()}

    def coeff(self, mask: int) -> Scalar:
        return public(self._terms.get(mask, 0))

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self._terms)

    def scalar_part(self) -> Scalar:
        return public(self._terms.get(0, 0))

    def max_grade(self) -> int:
        if not self._terms:
            raise AlgebraError("zero multivector has no grade")
        return max(m.bit_count() for m in self._terms)

    def parity(self) -> str | None:
        gs = {g % 2 for g in self.grades()}
        if gs == {0}:
            return "even"
        if gs == {1}:
            return "odd"
        return None

    def coordinates(self) -> tuple:
        """Grade-1 coordinates; valid only for pure vectors."""
        return tuple(public(c) for c in self._coordinates())

    def _coordinates(self) -> tuple:
        """``coordinates`` in the internal form."""
        if self._terms and self.grades() != {1}:
            raise AlgebraError("not a pure vector")
        return tuple(self._terms.get(1 << i, 0) for i in range(self.algebra.dim))

    # -- ring structure -------------------------------------------------------

    def _check(self, other: "Multivector"):
        self.algebra._check_member(other, "operands live in different algebras")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            other = self.algebra.scalar(other)
        self._check(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return Multivector(self.algebra, acc)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.algebra, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.gp(other)
        k = canonical(other)
        return Multivector(self.algebra, {m: c * k for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * div(1, canonical(other))

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return self.algebra.same_as(other.algebra) and self._terms == other._terms
        if isinstance(other, (int, Fraction, ComplexRational)) and type(other) is not bool:
            s = canonical(other)
            if not s:
                return self.is_zero()
            return self._terms == {0: s}
        return NotImplemented

    __hash__ = None

    # -- products -------------------------------------------------------------

    def _times(self, other: "Multivector", rows, build) -> "Multivector":
        """The product whose blade table is ``rows``, through ``_product``."""
        alg = self.algebra
        if other.algebra is not alg:
            self._check(other)
        return Multivector._stored(alg, _product(self._terms, other._terms, rows, build))

    def gp(self, other: "Multivector") -> "Multivector":
        """Geometric product; Gaussian coefficients are multiplied as pairs of parts."""
        alg = self.algebra
        return self._times(other, alg._gp_rows, alg.blade_gp)

    def wedge(self, other: "Multivector") -> "Multivector":
        """Outer product, metric-free on the wedge basis."""
        alg = self.algebra
        return self._times(other, alg._wedge_rows, alg.blade_wedge)

    def inner(self, other: "Multivector") -> "Multivector":
        """Generalized inner product: |k-l| grade part, taken grade by grade."""
        alg = self.algebra
        return self._times(other, alg._inner_rows, alg.blade_inner)

    def grade(self, k: int) -> "Multivector":
        self.algebra._check_grade(k)
        return Multivector(self.algebra,
                           {m: c for m, c in self._terms.items() if m.bit_count() == k})

    # -- involutions ------------------------------------------------------------

    def involute(self) -> "Multivector":
        """Main involution: sign (-1)^k on grade k."""
        return self._negate_grades((False, True, False, True))

    def reverse(self) -> "Multivector":
        """Reversion: sign (-1)^(k(k-1)/2) on grade k."""
        return self._negate_grades((False, False, True, True))

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: main involution composed with reversal."""
        return self._negate_grades((False, True, True, False))

    def _negate_grades(self, negated: tuple) -> "Multivector":
        """Negate the terms of every grade k with negated[k % 4] (each sign has period 4)."""
        return Multivector(self.algebra, {m: -c if negated[m.bit_count() & 3] else c
                                          for m, c in self._terms.items()})

    # -- norms, inverses, duality -------------------------------------------------

    def norm(self) -> Scalar:
        """The scalar v v*; raises when the product is not scalar."""
        n = self.gp(self.conjugate())
        if not n.is_scalar():
            raise NotAVersorError("v v* is not scalar, so v is not a versor")
        return n.scalar_part()

    def inverse(self) -> "Multivector":
        n = self.norm()
        if not n:
            raise NullVersorError("null versor has no inverse")
        return self.conjugate() * (1 / n)

    def dual(self) -> "Multivector":
        return self.gp(self.algebra.pseudoscalar())

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        return terms_text(self.to_json())

    def to_json(self) -> list[dict]:
        return [{"mask": m, "coeff": format_scalar(self._terms[m])}
                for m in sorted(self._terms, key=_listing_key)]

    @classmethod
    def from_json(cls, algebra: Algebra, data) -> "Multivector":
        if not isinstance(data, list):
            raise AlgebraError("multivector JSON must be a list of terms")
        terms = {}
        for item in data:
            if not isinstance(item, dict):
                raise AlgebraError("a multivector term is a JSON object "
                                   "with 'mask' and 'coeff' keys")
            mask = item["mask"]
            if not isinstance(mask, int) or isinstance(mask, bool):
                raise AlgebraError("blade mask must be an integer")
            coeff = canonical(item["coeff"])
            terms[mask] = terms[mask] + coeff if mask in terms else coeff
        return cls(algebra, terms)

    def __repr__(self):
        return f"<{self.to_text()}>"


def terms_text(terms: list[dict]) -> str:
    """Blade notation of terms in the form of ``Multivector.to_json``, in their order."""
    if not terms:
        return "0"
    parts = []
    for term in terms:
        m, txt = term["mask"], term["coeff"]
        if txt.endswith("i"):  # a complex coefficient
            txt = f"({txt})"
        neg = txt.startswith("-")
        if neg:
            txt = txt[1:]
        name = _blade_name(m)
        if name:
            body = name if txt == "1" else f"{txt}*{name}"
        else:
            body = txt
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def sandwich(g: Multivector, x: Multivector) -> Multivector:
    """Twisted sandwich alpha(g) x g*; defined even for non-invertible g."""
    return g.involute().gp(x).gp(g.conjugate())


def bilinear(v: Multivector, w: Multivector) -> Scalar:
    """The symmetric form b(v, w) of two grade-1 elements; b(v, v) = v*v."""
    v._check(w)
    return public(v.algebra._bilinear(v._coordinates(), w._coordinates()))


def proportional(a: Multivector, b: Multivector) -> Scalar | None:
    """Exact nonzero c with a == c * b, or None. Both zero gives 1."""
    if not a.algebra.same_as(b.algebra):
        return None
    ta, tb = a._terms, b._terms
    masks = ta.keys() | tb.keys()
    return ratio([ta.get(m, 0) for m in masks], [tb.get(m, 0) for m in masks])


@dataclass(frozen=True)
class Versor:
    """A product of invertible vectors, with an optional factor witness."""

    value: Multivector
    parity: str
    witness: tuple[Multivector, ...] | None = None

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise AlgebraError("parity must be 'even' or 'odd'")
        vp = self.value.parity()
        if self.value.is_zero() or vp != self.parity:
            raise AlgebraError(f"value is not a pure {self.parity} element")
        if self.witness is not None:
            if any(v.grades() != {1} for v in self.witness):
                raise AlgebraError("witness factors must be grade-1 elements")
            if proportional(_product_of(self.algebra, self.witness), self.value) is None:
                raise AlgebraError("witness product does not match the versor value")

    @classmethod
    def from_vectors(cls, algebra: Algebra, vectors: Sequence[Multivector]) -> "Versor":
        parity = "even" if len(vectors) % 2 == 0 else "odd"
        return cls(_product_of(algebra, vectors), parity, tuple(vectors))

    @property
    def algebra(self) -> Algebra:
        return self.value.algebra

    def inverse(self) -> "Versor":
        # conj(v1 ... vk) = (-1)^k vk ... v1: the reversed witness is proportional to the inverse
        wit = tuple(reversed(self.witness)) if self.witness else None
        return _proved(Versor, value=self.value.inverse(), parity=self.parity, witness=wit)


def _product_of(algebra: Algebra, vectors: Sequence[Multivector]) -> Multivector:
    """The geometric product of ``vectors`` in ``algebra``, left to right (1 for none)."""
    prod = algebra.scalar(1)
    for v in vectors:
        prod = prod.gp(v)
    return prod
