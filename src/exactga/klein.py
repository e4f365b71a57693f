"""The Cl(3,3) line-geometry model.

Lines of P^3 are embedded as null vectors of a rank-6 quadratic space whose
form matrix is [[0,I],[I,0]]: coordinates are ordered

    (x1, ..., x6) = (l01, l02, l03, l23, l31, l12),

so a vector squares to 2*(x1*x4 + x2*x5 + x3*x6), every value of the form
is ``klein_algebra()._bilinear``, and a vector lies on the quadric of lines
exactly when the classical relation l01*l23 + l02*l31 + l03*l12 = 0 holds.
``_PAIRS`` is the one statement of the coordinate order: the pair minors of
two points, the entries of every skew 4x4 matrix, and the columns of the
induced line map and of the cofactor matrix are read off it.  Exchanging
points and planes swaps the two coordinate halves (``_swap_halves``); that
swap is the point-plane duality, so the line of two planes, the common
plane of two lines and the plane matrix of a line are the swapped point
constructions.

Grade-1 versors correspond to null polarities (skew-symmetric 4x4
matrices), and a versor acts on P^3 through the product of its factors'
polarities; even versors give collineations, odd ones correlations
(``_PARITY``).  A polarity's vector is read straight off its matrix
(``_polarity_coordinates``): the plane action holds the coordinates at
``_PAIRS``, the point action holds them with their halves swapped at the
transposed pairs, so no entry is negated; the product of a polarity chain is
``linalg._skew_chain_product``, which reads each factor's six entries
above the diagonal.  The coefficient tables that transfer between the two
representations are the spin representation Cl+(3,3) = M4 + M4, derived
once from the six polarities of the basis vectors.  The published point
table has a second variant whose entry (2, 3) counts the e2^e6 coefficient
twice more; ``versor_to_proj(..., m23_doubled=True)`` selects it, and the
reference versor shows it inconsistent with the rest of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    Multivector,
    NotAVersorError,
    Versor,
    _proved,
    bilinear,
    coordinate_list,
)
from .blades import Blade, factorize_versor, ipns, opns
from .linalg import (
    Matrix,
    _normalized_table_product,
    _skew_chain_product,
    normalize_vector,
    nullspace,
    proportionality,
    rank,
)
from .scalars import (
    ATOM_DIGITS,
    Scalar,
    as_scalar,
    canonical,
    format_scalar,
    imag_part,
    public,
    rational_sqrt,
    real_part,
    scalar_sqrt,
)


class SingularTransformError(AlgebraError):
    pass


class ComplexRequiredError(AlgebraError):
    """Raised in rational mode when only a complex versor can induce the map."""


class NotLiftableError(AlgebraError):
    """No exact versor exists over the requested scalar field."""


# the versors' parity of each kind; the vocabularies, in the order messages list them
_PARITY = {"collineation": "even", "correlation": "odd"}
KINDS = tuple(_PARITY)
ACTIONS = ("points", "planes")
SCALAR_MODES = ("rational", "complex")


def _check_action(action: str) -> None:
    if action not in ACTIONS:
        raise AlgebraError("action must be 'points' or 'planes'")


@lru_cache(maxsize=1)
def klein_algebra() -> Algebra:
    """The algebra of the form [[0,I],[I,0]]: the identity with its halves swapped."""
    return Algebra(Matrix.from_rows(_swap_halves(Matrix.identity(6).row_lists())))


# -- Pluecker coordinates -----------------------------------------------------


_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


def _pair_minors(p: Sequence, q: Sequence) -> tuple:
    return tuple(p[i] * q[j] - p[j] * q[i] for i, j in _PAIRS)


def _swap_halves(x: Sequence) -> tuple:
    """Exchange points and planes: (l01, l02, l03, l23, l31, l12) -> (l23, l31, l12, ...)."""
    return (x[3], x[4], x[5], x[0], x[1], x[2])


def _skew(x: Sequence, transposed: bool = False) -> tuple:
    """The entries of the skew 4x4 matrix of six line coordinates (transposed: of -x)."""
    m = [0] * 16
    for (i, j), c in zip(_PAIRS, x):
        if transposed:
            i, j = j, i
        m[4 * i + j], m[4 * j + i] = c, -c
    return tuple(m)


def _line_through(p: Sequence, q: Sequence, what: str) -> tuple:
    """The pair minors of two points (or two planes), refusing dependent ones."""
    message = f"{what} need four homogeneous coordinates"
    p, q = (tuple(map(as_scalar, coordinate_list(x, 4, message))) for x in (p, q))
    coords = _pair_minors(p, q)
    if not any(coords):
        raise AlgebraError(f"{what} are linearly dependent")
    return coords


@dataclass(frozen=True)
class PluckerLine:
    """Homogeneous line coordinates, kept exactly on the quadric of lines."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(map(as_scalar, coordinate_list(self.coords, 6,
                                                       "a line needs six coordinates")))
        object.__setattr__(self, "coords", coords)
        if not any(coords):
            raise AlgebraError("line coordinates must not all vanish")
        if klein_algebra()._bilinear(coords, coords) != 0:
            raise AlgebraError("coordinates violate the quadric relation")

    @classmethod
    def from_points(cls, p: Sequence, q: Sequence) -> "PluckerLine":
        return cls(_line_through(p, q, "points"))

    @classmethod
    def from_planes(cls, u: Sequence, v: Sequence) -> "PluckerLine":
        return cls(_swap_halves(_line_through(u, v, "planes")))

    def to_multivector(self) -> Multivector:
        return klein_algebra().vector(self.coords)

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "PluckerLine":
        klein_algebra()._check_member(mv, "Pluecker lines come from line-geometry elements")
        return cls(mv.coordinates())

    def point_matrix(self) -> Matrix:
        """Skew matrix sending a plane to the point where the line meets it."""
        return Matrix(4, 4, _skew(self.coords))

    def plane_matrix(self) -> Matrix:
        """Skew matrix sending a point to the plane joining it with the line."""
        return Matrix(4, 4, _skew(_swap_halves(self.coords)))

    def contains_point(self, p: Sequence) -> bool:
        point = coordinate_list(p, 4, "a point needs four homogeneous coordinates")
        return not any(self.plane_matrix().apply([as_scalar(x) for x in point]))

    def meets(self, other: "PluckerLine") -> bool:
        """Coplanarity of two lines (vanishing of the polarized quadric form)."""
        return klein_algebra()._bilinear(self.coords, other.coords) == 0

    def intersection_point(self, other: "PluckerLine") -> tuple:
        """Common point of two distinct coplanar lines."""
        return self._meet(other, self.point_matrix(), other.plane_matrix(), "intersection point")

    def common_plane(self, other: "PluckerLine") -> tuple:
        """Plane spanned by two distinct coplanar lines."""
        return self._meet(other, self.plane_matrix(), other.point_matrix(), "common plane")

    def _meet(self, other: "PluckerLine", first: Matrix, second: Matrix, what: str) -> tuple:
        """The first nonzero image of a basis probe under first * second.

        The probes are Fractions, so the coordinates returned are too.
        """
        if not self.meets(other):
            raise AlgebraError("lines are skew")
        for k in range(4):
            probe = [Fraction(1 if i == k else 0) for i in range(4)]
            x = first.apply(second.apply(probe))
            if any(x):
                return x
        raise AlgebraError(f"lines coincide; the {what} is not unique")


# -- transforms and polarities ------------------------------------------------


@dataclass(frozen=True)
class ProjTransform4:
    """Regular projective transformation of P^3, tagged with its action type.

    The determinant that the regularity check computes is kept.  It is
    Klein's form of the lines through columns c0, c1 and c2, c3 (the Laplace
    expansion by the first two columns): det A = b(p(c0, c1), p(c2, c3)),
    with p the pair minors, so it vanishes exactly when the two lines meet,
    and it takes no quotient and no elimination.
    """

    matrix: Matrix
    kind: str  # collineation | correlation
    action: str  # points | planes
    _det: Scalar = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise AlgebraError("kind must be 'collineation' or 'correlation'")
        _check_action(self.action)
        if (self.matrix.rows, self.matrix.cols) != (4, 4):
            raise AlgebraError("transform matrix must be 4x4")
        c0, c1, c2, c3 = map(self.matrix.col, range(4))
        det = public(klein_algebra()._bilinear(_pair_minors(c0, c1), _pair_minors(c2, c3)))
        if not det:
            raise SingularTransformError("transform matrix is singular")
        object.__setattr__(self, "_det", det)

    def determinant(self) -> Scalar:
        """The exact determinant of the matrix, never zero."""
        return self._det

    def to_json(self) -> dict:
        return {"matrix": self.matrix.to_json(), "kind": self.kind, "action": self.action}

    @classmethod
    def from_json(cls, data: dict) -> "ProjTransform4":
        return cls(Matrix.from_json(data["matrix"]), data["kind"], data["action"])


@dataclass(frozen=True)
class NullPolarity:
    """Involutoric correlation given by a skew-symmetric 4x4 matrix."""

    matrix: Matrix
    action: str

    def __post_init__(self):
        _check_action(self.action)
        if (self.matrix.rows, self.matrix.cols) != (4, 4):
            raise AlgebraError("polarity matrix must be 4x4")
        if not self.matrix.is_skew():
            raise AlgebraError("polarity matrix must be skew-symmetric")

    def to_json(self) -> dict:
        return {"matrix": self.matrix.to_json(), "action": self.action, "skew": True}

    @classmethod
    def from_json(cls, data: dict) -> "NullPolarity":
        if not isinstance(data, dict):
            raise AlgebraError("a null polarity is a JSON object with 'matrix' and 'action' keys")
        return cls(Matrix.from_json(data["matrix"]), data["action"])


@dataclass(frozen=True)
class Sandwich6:
    """6x6 matrix acting on line coordinates; a similitude of the quadric form."""

    matrix: Matrix
    _ratio: Scalar = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (6, 6):
            raise AlgebraError("line map must be 6x6")
        alg = klein_algebra()
        columns = [self.matrix.col(j) for j in range(6)]
        # M^T Q M is the Gram matrix of M's columns under the form
        pulled = Matrix(6, 6, tuple(alg._bilinear(x, y) for x in columns for y in columns))
        ratio = Fraction(0) if pulled.is_zero() else proportionality(pulled, alg.form)
        if ratio is None:
            raise AlgebraError("matrix does not preserve the quadric form")
        object.__setattr__(self, "_ratio", ratio)

    def similitude_ratio(self) -> Scalar:
        """The exact ratio in M^T Q M = ratio * Q; zero for degenerate maps."""
        return self._ratio


# -- the vector sandwich ------------------------------------------------------


def vector_sandwich_matrix(a: Multivector) -> Sandwich6:
    """6x6 matrix of the sandwich action of a grade-1 element on vectors.

    Column j is the image a e_j a = 2*b(a,e_j)a - b(a,a)*e_j, so the matrix
    is 2*b(a,.)a - b(a,a)*Id, read off the coordinates with no product.
    """
    klein_algebra()._check_member(a, "sandwich matrix needs a line-geometry element")
    if not a.is_zero() and a.grades() != {1}:
        raise AlgebraError("sandwich matrix needs a grade-1 element")
    x = a.coordinates()
    pairing = _swap_halves(x)  # b(a, e_j) under the form [[0,I],[I,0]]
    square = bilinear(a, a)
    matrix = Matrix.from_rows([[2 * x[i] * pairing[j] - (square if i == j else 0)
                                for j in range(6)] for i in range(6)])
    return _proved(Sandwich6, matrix=matrix, _ratio=as_scalar(square * square))


def vector_to_null_polarity(a: Multivector, action: str) -> NullPolarity:
    """The skew 4x4 matrix of the null polarity induced by a grade-1 element.

    The plane action is the point matrix of the line with the vector's
    coordinates, the point action minus its plane matrix; the matrix is
    singular exactly when the vector is null.
    """
    klein_algebra()._check_member(a, "null polarities come from line-geometry elements")
    if not a.is_zero() and a.grades() != {1}:
        raise AlgebraError("null polarities come from grade-1 elements")
    _check_action(action)
    return _polarity(a._coordinates(), action)


def _polarity(x: Sequence, action: str) -> NullPolarity:
    """``vector_to_null_polarity`` of internal coordinates: ``_skew`` keeps them, builds it skew."""
    m = _skew(_swap_halves(x), transposed=True) if action == "points" else _skew(x)
    return _proved(NullPolarity, matrix=_proved(Matrix, rows=4, cols=4, entries=m), action=action)


def null_polarity_to_vector(np: NullPolarity) -> Multivector:
    """The grade-1 element whose polarity matrix is the given skew matrix."""
    if np.matrix.is_zero():
        raise AlgebraError("zero matrix is not a polarity")
    return klein_algebra().vector(_polarity_coordinates(np))


# ``_polarity`` inverted on the stored entries: the plane action holds x at
# ``_PAIRS``, the point action -x swapped there, that is x swapped at the transposed pairs
_PLANE_COORDINATES = itemgetter(*(4 * i + j for i, j in _PAIRS))
_POINT_COORDINATES = itemgetter(*(4 * j + i for i, j in _swap_halves(_PAIRS)))


def _polarity_coordinates(np: NullPolarity) -> tuple:
    """The internal coordinates of the vector of a polarity, read off its skew matrix."""
    read = _POINT_COORDINATES if np.action == "points" else _PLANE_COORDINATES
    return read(np.matrix.entries)


# -- coefficient tables ---------------------------------------------------------


@lru_cache(maxsize=2)
def _masks(parity: str) -> tuple:
    return tuple(klein_algebra().basis_masks(parity=parity))


def coefficient_vector(mv: Multivector, parity: str) -> list:
    """Coefficients of a line-geometry element in the canonical listing order."""
    klein_algebra()._check_member(mv, "coefficient tables need a line-geometry element")
    return [mv.coeff(m) for m in _masks(parity)]


def multivector_from_coefficients(values: Sequence, parity: str) -> Multivector:
    masks = _masks(parity)
    if len(values) != len(masks):
        raise AlgebraError(f"expected {len(masks)} coefficients")
    return klein_algebra().mv({m: v for m, v in zip(masks, values)})


@lru_cache(maxsize=1)
def _spin_tables() -> dict:
    """The 8x8 table tau(E) of every wedge basis blade E, on (point || plane) rows.

    Gamma_i = [[0, Q_i], [P_i, 0]], with P_i and Q_i the point and plane
    polarity matrices of e_i, satisfies Gamma_i Gamma_j + Gamma_j Gamma_i =
    b(e_i, e_j) Id, so sqrt(2) Gamma_i generates the spin representation
    Cl(3,3) = M8 that restricts to Cl+(3,3) = M4 + M4.  Peeling the lowest
    generator, e_i ^ E = e_i E - e_i . E, gives

        tau(1) = Id,  tau(e_i ^ E) = w Gamma_i tau(E) - sum c tau(m),

    over the terms c e_m of the contraction e_i . E.  With w = 2 for an even
    blade and 1 for an odd one, tau is the representation on even blades and
    1/sqrt(2) of it on odd ones, so every entry is an integer.
    """
    alg = klein_algebra()
    gammas = []
    for i in range(6):
        p = vector_to_null_polarity(alg.e(i + 1), "points").matrix
        q = vector_to_null_polarity(alg.e(i + 1), "planes").matrix
        gammas.append([(r, c + 4, q[r, c]) for r in range(4) for c in range(4) if q[r, c]]
                      + [(r + 4, c, p[r, c]) for r in range(4) for c in range(4) if p[r, c]])
    tables = {0: [[int(r == c) for c in range(8)] for r in range(8)]}
    for mask in alg.basis_masks()[1:]:  # grade-major: E and e_i . E come first
        low = mask & -mask
        rest = mask ^ low
        w = 1 if mask.bit_count() % 2 else 2
        table = [[0] * 8 for _ in range(8)]
        for r, k, v in gammas[low.bit_length() - 1]:
            table[r] = [x + w * v * y for x, y in zip(table[r], tables[rest][k])]
        for m, c in alg.blade_gp(low, rest):
            if m != mask:
                table = [[x - c * y for x, y in zip(row, other)]
                         for row, other in zip(table, tables[m])]
        tables[mask] = table
    return tables


@lru_cache(maxsize=2)
def _table_transpose(parity: str) -> tuple:
    """Sparse rows of M^T: row k lists the pairs (r, M[r, k]) with M[r, k] != 0.

    Column k of M stacks the point and the plane table (row-major) of the
    k-th basis blade of the parity: the blocks of its spin table that take
    points and planes to their images.  M^T M = 8 Id (even) and 4 Id (odd).
    """
    points = 0 if parity == "even" else 4  # odd blades swap points and planes
    planes = 4 - points
    rows = []
    for mask in _masks(parity):
        t = _spin_tables()[mask]
        column = ([t[points + r][c] for r in range(4) for c in range(4)]
                  + [t[planes + r][4 + c] for r in range(4) for c in range(4)])
        rows.append(tuple((r, c) for r, c in enumerate(column) if c))
    return tuple(rows)


def versor_to_proj(g: Multivector | Versor, action: str,
                   m23_doubled: bool = False) -> ProjTransform4:
    """Transfer a versor to its 4x4 projective representation.

    Even elements give collineations, odd elements correlations; the action
    tag selects the point or the plane table, read off the spin
    representation as M g (see ``_table_transpose``).  ``m23_doubled``
    selects the other published variant of the even point table, which adds
    2 * coeff(e2 ^ e6) at entry (2, 3); that variant is inconsistent with
    the rest of the table (the reference versor then maps to no multiple of
    the reference collineation), so it is off by default.
    """
    if isinstance(g, Versor):
        g = g.value
    klein_algebra()._check_member(g, "coefficient tables need a line-geometry element")
    _check_action(action)
    parity = g.parity()
    if parity is None:
        raise NotAVersorError("mixed-parity element cannot be a versor")
    stacked = [0] * 32
    for mask, row in zip(_masks(parity), _table_transpose(parity)):
        c = g._terms.get(mask)
        if c:
            for r, t in row:
                stacked[r] += t * c
    entries = stacked[:16] if action == "points" else stacked[16:]
    if m23_doubled and parity == "even" and action == "points":
        entries[2 * 4 + 3] += 2 * g._terms.get(0b100010, 0)  # the e2 ^ e6 coefficient
    if not any(entries):
        raise NotAVersorError("coefficient table yields the zero matrix")
    kind = next(k for k, p in _PARITY.items() if p == parity)
    return ProjTransform4(Matrix(4, 4, tuple(entries)), kind, action)


# -- induced line maps -----------------------------------------------------------


def induced_line_map(t: ProjTransform4) -> Sandwich6:
    """The 6x6 line-coordinate map induced by a projective transformation.

    Column (i, j) holds the pair minors of columns i and j of the matrix A:
    the second compound C2(A), which sends the line through basis points i
    and j to the line through their images.  Since C2(A)^T Q C2(A) =
    det(A) Q, the plane action (that of adj(A)^T = det(A) A^-T) is
    det(A) J C2(A) J, where J = Q swaps the two coordinate halves.  A
    correlation lands in the dual coordinates, one more swap of the row
    halves.  The similitude ratio is ``_similitude_ratio``.
    """
    a = t.matrix
    cols = [_pair_minors(a.col(i), a.col(j)) for i, j in _PAIRS]
    planes = t.action == "planes"
    if planes:
        det = canonical(t.determinant())
        cols = [[det * x for x in c] for c in _swap_halves(cols)]
    if planes != (t.kind == "correlation"):
        cols = [_swap_halves(c) for c in cols]
    matrix = Matrix.from_rows([[c[r] for c in cols] for r in range(6)])
    return _proved(Sandwich6, matrix=matrix, _ratio=_similitude_ratio(t))


def _similitude_ratio(t: ProjTransform4) -> Scalar:
    """The ratio of the line map induced by A: det(A) for points, det(A)^3 for planes."""
    det = t.determinant()
    return det if t.action == "points" else det * det * det


# -- lifting matrices to versors ---------------------------------------------------


def _normalization_scale(lam: Scalar, scalar_mode: str) -> Scalar:
    root = None if imag_part(lam) else scalar_sqrt(real_part(lam))
    if root is not None and not (imag_part(root) and scalar_mode == "rational"):
        return root
    parts = [n for p in (real_part(lam), imag_part(lam)) for n in (p.numerator, p.denominator)]
    if max(map(abs, parts)) < 10 ** ATOM_DIGITS:  # only a refusal formats the ratio
        diagnosis = {"similitude_ratio": format_scalar(lam)}
    else:  # longer than a scalar atom may be: report the size instead
        diagnosis = {"similitude_ratio_bits": max(n.bit_length() for n in parts)}
    if imag_part(lam):
        raise NotLiftableError("no exact versor: the similitude ratio is not real",
                               diagnosis | {"reason": "non-real-ratio"})
    if root is None:
        raise NotLiftableError(
            "no exact versor: |similitude ratio| is not a rational square",
            diagnosis | {"reason": "irrational-scale"})
    raise ComplexRequiredError(
        "negative similitude ratio needs the complex scalar mode",
        diagnosis | {"reason": "negative-ratio", "suggested_mode": "complex"})


def _cofactor_matrix(a: Matrix) -> Matrix:
    """adj(A)^T by Laplace expansion over the pair minors of A's columns.

    Column j is the w with w . x = det[p q r x] for an even arrangement
    (p, q, r, j) of the columns of A: the plane through the line qp and the
    point r, the plane matrix of that line applied to r.
    """
    c = [a.col(j) for j in range(4)]
    cols = []
    for p, q, k in ((3, 2, 1), (2, 3, 0), (1, 0, 3), (0, 1, 2)):
        r, w = c[k], [0] * 4
        for (i, j), y in zip(_PAIRS, _swap_halves(_pair_minors(c[q], c[p]))):
            w[i] += y * r[j]
            w[j] -= y * r[i]
        cols.append(w)
    return Matrix.from_rows(list(zip(*cols)))


def _alternating_actions(count: int, innermost: str) -> list[str]:
    other = "planes" if innermost == "points" else "points"
    # leftmost-first list; the rightmost factor carries the innermost action
    return [innermost if (count - 1 - i) % 2 == 0 else other for i in range(count)]


def _polarity_product(polarities) -> Matrix:
    """The product of the polarity matrices, in one call of the skew chain kernel.

    A ``NullPolarity``'s constructors prove its matrix skew, as the kernel needs.
    """
    return _skew_chain_product([p.matrix for p in polarities])


def _lift(t: ProjTransform4, scalar_mode: str) -> tuple:
    """(versor, polarities, scale), the polarity product proved scale * A (``proj_to_versor``)."""
    if scalar_mode not in SCALAR_MODES:
        raise AlgebraError("scalar_mode must be 'rational' or 'complex'")
    det, points = t.determinant(), t.action == "points"
    s = _normalization_scale(_similitude_ratio(t), scalar_mode)
    parity = _PARITY[t.kind]
    a, cofactors, table = t.matrix, _cofactor_matrix(t.matrix), _table_transpose(parity)
    scaled = (a.entries, s if points else s / det)  # A and its factor in (P, Q)
    other = (cofactors.entries, 1)
    coefficients = _normalized_table_product(table, (scaled, other) if points else (other, scaled))
    g = multivector_from_coefficients(coefficients, parity)
    # multiplying by the pseudoscalar switches to the opposite normalization
    # branch without changing the induced map; prefer the shorter factor chain.
    # It maps each grade k to grade 6 - k, so g I is formed only when chosen
    grades = g.grades()
    value = g.gp(klein_algebra().pseudoscalar()) if 6 - min(grades) < max(grades) else g
    witness = tuple(factorize_versor(value))
    actions = _alternating_actions(len(witness), t.action)
    # a descent factor is a grade-1 element of the line-geometry algebra
    polarities = tuple(_polarity(v._coordinates(), act) for v, act in zip(witness, actions))
    scale = proportionality(_polarity_product(polarities), t.matrix)
    if scale is None:
        raise NotLiftableError("no versor of the requested parity induces this map",
                               {"reason": "empty-kernel"})
    return _proved(Versor, value=value, parity=parity, witness=witness), polarities, scale


def proj_to_versor(t: ProjTransform4, scalar_mode: str = "rational") -> Versor:
    """Lift a regular projective transformation to a versor with witness.

    The induced line map G has similitude ratio det(A) (points action) or
    det(A)^3 (planes), so with s its exact root T = G/s is an isometry and G
    is never built.  A versor's point table P and plane table Q satisfy
    Q = +-adj(P)^T / sqrt(det P), so g is M^T (P, Q), normalized (a Gaussian
    g turned by conj of its last coefficient first), with no linear solve:
    (P, Q) = (s A, adj(A)^T) for points, (adj(A)^T, (s / det A) A) for planes.
    An exact lift exists precisely when the ratio is real and |ratio| is a
    rational square; a negative ratio forces the complex scalar mode.

    One check proves the result.  The descent ends with g v1 ... vk a
    nonzero scalar or a non-null vector, so the witness is proportional to
    g and is not multiplied out again.  The certificate (the witness's
    polarity product is a multiple of A) proves that it induces A; the
    versors inducing A are the multiples of g and g I, which induce T and
    -T, so alpha(g) x = +-T(x) g holds unchecked.  A failed certificate
    raises ``NotLiftableError`` with reason ``empty-kernel``.
    """
    return _lift(t, scalar_mode)[0]


# -- line manifold classification -----------------------------------------------


class ManifoldKind(Enum):
    SINGLE_LINE = "single-line"
    LINE_PAIR = "line-pair"
    PENCIL = "pencil-of-lines"
    LINEAR_CONGRUENCE = "linear-congruence"
    BUNDLE = "bundle"
    FIELD = "field"
    REGULUS = "regulus"
    LINEAR_COMPLEX = "linear-complex"
    EMPTY_DEGENERATE = "empty/degenerate"


@dataclass(frozen=True)
class ManifoldClass:
    tag: ManifoldKind
    witness: dict = field(default_factory=dict)


def _gram(vectors: list[Multivector]) -> Matrix:
    return Matrix.from_rows([[bilinear(a, b) for b in vectors] for a in vectors])


def _span_radical(span: list[Multivector]) -> list[Multivector]:
    """Vectors of the span orthogonal to all of it (kernel of the Gram matrix)."""
    alg = span[0].algebra
    out = []
    for coeffs in nullspace(_gram(span)):
        vec = alg.zero()
        for c, v in zip(coeffs, span):
            vec = vec + v * c
        out.append(vec)
    return out


def _null_lines_in_plane(u: Multivector, v: Multivector):
    """Null elements of span{u, v}: exact roots of the restricted quadric."""
    qu, qv, buv = bilinear(u, u), bilinear(v, v), bilinear(u, v)
    lines = []
    # v itself (the root at infinity of the parameterization u + t v)
    if qv == 0:
        lines.append(v)
        if buv != 0:
            lines.append(u * (2 * buv) - v * qu)
    else:
        disc = buv * buv - qu * qv
        root = rational_sqrt(disc) if disc >= 0 else None
        if root is not None:
            for r in ({-buv} if disc == 0 else {-buv + root, -buv - root}):
                lines.append(u * qv + v * r)
    alg = u.algebra
    lines = [alg.vector(normalize_vector(l.coordinates())) for l in lines if not l.is_zero()]
    return lines, buv * buv - qu * qv


def _pencil(u: Multivector, v: Multivector) -> ManifoldClass:
    """The pencil of two meeting lines, witnessed by its vertex and its plane."""
    l1, l2 = PluckerLine(u.coordinates()), PluckerLine(v.coordinates())
    return ManifoldClass(ManifoldKind.PENCIL, {
        "vertex": l1.intersection_point(l2), "plane": l1.common_plane(l2)})


def classify_blade(b: Blade | Multivector) -> ManifoldClass:
    """Classify the set of lines cut out by a blade of grade 2..5.

    The outer null space of the blade spans a projective subspace; its
    intersection with the quadric of lines is keyed on the exact rank of the
    restricted form (the Gram matrix of a spanning set).
    """
    if isinstance(b, Multivector):
        b = Blade.from_multivector(b)
    klein_algebra()._check_member(b, "line manifolds live in the rank-6 line-geometry algebra")
    if not 2 <= b.grade <= 5:
        raise AlgebraError("classification covers blades of grade 2 to 5")
    span = opns(b)
    gram_rank = rank(_gram(span))

    if b.grade == 2:
        if gram_rank == 0:
            return _pencil(*span)
        lines, disc = _null_lines_in_plane(*span)
        if gram_rank == 1:
            witness = {"line": lines[0].coordinates()} if lines else {}
            return ManifoldClass(ManifoldKind.SINGLE_LINE, witness)
        witness = {"discriminant": format_scalar(disc), "real": disc > 0}
        if len(lines) == 2:
            witness["lines"] = [tuple(l.coordinates()) for l in lines]
        return ManifoldClass(ManifoldKind.LINE_PAIR, witness)

    if b.grade == 3:
        if gram_rank == 0:
            l1, l2, l3 = (PluckerLine(v.coordinates()) for v in span)
            vertex = l1.intersection_point(l2)
            if l3.contains_point(vertex):
                return ManifoldClass(ManifoldKind.BUNDLE, {"vertex": vertex})
            return ManifoldClass(ManifoldKind.FIELD, {"plane": l1.common_plane(l2)})
        if gram_rank == 3:
            return ManifoldClass(ManifoldKind.REGULUS, {})
        radical = _span_radical(span)
        if gram_rank == 1:
            # the section equals the two-dimensional radical: a pencil
            return _pencil(*radical)
        return ManifoldClass(ManifoldKind.EMPTY_DEGENERATE, {
            "gram_rank": gram_rank,
            "common_line": tuple(radical[0].coordinates())})

    if b.grade == 4:
        axes = ipns(b)
        return ManifoldClass(ManifoldKind.LINEAR_CONGRUENCE, {
            "gram_rank": gram_rank,
            "axes": [tuple(a.coordinates()) for a in axes]})

    axis = ipns(b)[0]
    return ManifoldClass(ManifoldKind.LINEAR_COMPLEX, {
        "axis": tuple(axis.coordinates()),
        "special": bilinear(axis, axis) == 0})

