"""Blades, their outer / inner product null spaces, and the grade descent.

A blade's coefficients are the Grassmann coordinates of its outer null
space (OPNS), so ``Blade`` reads that space off them and checks with k
wedges that the k-vector is a blade, solving no linear system; this is the
one decomposability rule.  The inner null space (IPNS) is the orthogonal
complement of the OPNS under the form, a k-by-n system.

The grade descent factorizes a versor into vectors: it repeatedly multiplies
by a non-null vector from the outer null space of the maximal-grade blade,
which lowers that grade by exactly one.  A versor of maximal grade k
therefore splits into at most k vectors, and in the rank-6 models at most
six.  It lives here, below both models, because it needs only blades and
the algebra; ``klein`` calls it to attach the lift's witness and
``factorize`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra, AlgebraError, Multivector, NullVersorError, Versor, bilinear
from .algebra import _bits, _merge_sign
from .linalg import Matrix, normalize_vector, nullspace


class BladeError(AlgebraError):
    pass


@dataclass(frozen=True)
class Blade:
    """A homogeneous multivector that is an outer product of vectors.

    Decomposability is verified on construction at every grade: a nonzero
    k-vector is a blade exactly when the k vectors read off its coefficients
    (``_opns_from_coefficients``) each wedge it to zero.  They then span its
    outer null space, which is kept, so ``opns`` of a blade costs nothing more.
    """

    value: Multivector
    grade: int
    _opns: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.value.is_zero():
            if self.grade != 0:
                raise BladeError("zero blade must have grade 0")
            return
        if self.value.grades() != {self.grade}:
            raise BladeError(f"value is not homogeneous of grade {self.grade}")
        space = _opns_from_coefficients(self.value)
        if any(not v.wedge(self.value).is_zero() for v in space):
            raise BladeError(f"grade-{self.grade} element is not decomposable")
        object.__setattr__(self, "_opns", space)

    @classmethod
    def from_multivector(cls, value: Multivector) -> "Blade":
        if value.is_zero():
            return cls(value, 0)
        return cls(value, value.max_grade())

    @property
    def algebra(self) -> Algebra:
        return self.value.algebra


def _as_multivector(b) -> Multivector:
    return b.value if isinstance(b, (Blade, Versor)) else b


def _opns_from_coefficients(b: Multivector) -> tuple[Multivector, ...]:
    """k independent vectors read off a nonzero homogeneous k-vector b.

    For f in F, the largest mask where b is nonzero, the e_j coordinate is
    conj(b_F) times the coefficient of e_j ^ e_(F-f) in b: real at f, zero
    on the rest of F.  When b is a blade they span its outer null space and,
    normalized, are the basis ``nullspace`` gives for any matrix with that
    kernel, since the free columns of such a matrix are the largest mask
    where the kernel has a nonzero Grassmann coordinate.
    """
    terms = b._terms
    top = max(terms)
    conj = terms[top].conjugate()
    space = []
    for f in _bits(top):
        rest = top ^ (1 << f)
        coords = [0] * b.algebra.dim
        for j in range(len(coords)):
            if c := terms.get(rest | 1 << j):  # None for j in F - f: b is homogeneous
                coords[j] = _merge_sign(1 << j, rest) * c * conj
        space.append(b.algebra.vector(normalize_vector(coords)))
    return tuple(space)


def _nonzero_blade(b, space: str) -> Blade:
    b = b if isinstance(b, Blade) else Blade.from_multivector(_as_multivector(b))
    if b.value.is_zero():
        raise BladeError(f"{space} null space of the zero blade is undefined")
    return b


def opns(b) -> list[Multivector]:
    """Basis of the outer product null space {v : v ^ b = 0} of a blade."""
    return list(_nonzero_blade(b, "outer")._opns)


def ipns(b) -> list[Multivector]:
    """Basis of the inner product null space {v : v . b = 0} of a blade."""
    b = _nonzero_blade(b, "inner")
    if not b._opns:  # a nonzero scalar s, and v . s = s v
        return []
    # for grade k >= 1, v . b = 0 exactly when v is orthogonal to the outer null space
    rows = [b.algebra.form.apply(w._coordinates()) for w in b._opns]
    return [b.algebra.vector(vec) for vec in nullspace(Matrix.from_rows(rows))]


def is_null_blade(b) -> bool:
    """True when the blade squares to zero under the geometric product."""
    mv = _as_multivector(b)
    return mv.gp(mv).is_zero()


def max_grade_part(g) -> Blade:
    """The highest-grade component, as a blade."""
    mv = _as_multivector(g)
    if mv.is_zero():
        raise BladeError("zero element has no maximal grade part")
    k = mv.max_grade()
    return Blade(mv.grade(k), k)


# -- grade descent ----------------------------------------------------------------


class NoNonNullVectorError(AlgebraError):
    pass


def choose_nonnull_vector(space: list[Multivector]) -> Multivector:
    """Deterministic non-null pick from the span of the given grade-1 basis.

    Probes basis vectors in order, then pairwise sums.  If all of those are
    null, then 2 b(v_i, v_j) = b(v_i + v_j, v_i + v_j) = 0 for every pair,
    so the span is totally isotropic.
    """
    if not space:
        raise NoNonNullVectorError("empty span")
    for v in space:
        if bilinear(v, v):
            return v
    n = len(space)
    for i in range(n):
        for j in range(i + 1, n):
            v = space[i] + space[j]
            if bilinear(v, v):
                return v
    raise NoNonNullVectorError("span is totally isotropic")


def factorize_versor(g: Multivector | Versor) -> list[Multivector]:
    """Split a non-null versor into vectors whose product is proportional to it.

    Returns the factors in product order (leftmost first); the rightmost
    factor is the first one extracted by the descent.  Raises BladeError
    when a maximal-grade part is not a blade.

    The descent runs first and needs no norm when it succeeds: it ends with
    g v_1 ... v_k equal to a nonzero scalar or a non-null vector w, and every
    v_i is non-null, so g = w v_k^-1 ... v_1^-1 is a product of invertible
    vectors and its norm is nonzero.  Only a failed descent, or one that
    ends in a null vector or a mixed-grade remainder, computes ``g.norm()``:
    a null or non-versor input is then refused with ``NullVersorError`` or
    ``NotAVersorError``, as by a check before the descent, and any other
    input with the descent's own error.
    """
    g = _as_multivector(g)
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    extracted: list[Multivector] = []
    current = g
    try:
        while (k := current.max_grade()) >= 2:
            v = choose_nonnull_vector(opns(Blade(current.grade(k), k)))
            nxt = current.gp(v)
            if nxt.is_zero() or nxt.max_grade() != k - 1:
                raise AlgebraError("grade descent failed to reduce the maximal grade")
            extracted.append(v)
            current = nxt
    except AlgebraError:
        _require_nonzero_norm(g)
        raise
    if current.max_grade() == 1:
        if current.grades() != {1} or not bilinear(current, current):
            _require_nonzero_norm(g)  # a mixed-grade remainder then fails in _coordinates
        extracted.append(current)
    return [g.algebra.vector(normalize_vector(v._coordinates())) for v in reversed(extracted)]


def _require_nonzero_norm(g: Multivector) -> None:
    """Raise NotAVersorError or NullVersorError when g g* is not a nonzero scalar."""
    if not g.norm():
        raise NullVersorError("null versors are outside the factorization domain")
