"""Blades, their outer / inner product null spaces, and the grade descent.

OPNS and IPNS are computed by assembling the linear map ``v -> v ^ b``
(respectively ``v -> v . b``) on grade-1 coordinates as an exact matrix and
taking its nullspace, so one elimination code path serves both.

One decomposability rule serves everywhere: a nonzero homogeneous k-vector
is a blade exactly when its outer null space has dimension k.

The grade descent factorizes a versor into vectors: it repeatedly multiplies
by a non-null vector from the outer null space of the maximal-grade blade,
which lowers that grade by exactly one.  Each step checks the rule on the
outer null space it needs anyway.  A versor of maximal grade k therefore
splits into at most k vectors, and in the rank-6 models at most six.  It
lives here, below both models, because it needs only blades and the
algebra; ``klein`` calls it to attach the lift's witness and ``factorize``
re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra, AlgebraError, Multivector, NullVersorError, Versor, bilinear
from .linalg import Matrix, normalize_vector, nullspace


class BladeError(AlgebraError):
    pass


@dataclass(frozen=True)
class Blade:
    """A homogeneous multivector that is an outer product of vectors.

    Decomposability is verified on construction at every grade: a nonzero
    k-vector is a blade exactly when its outer null space has dimension k.
    That outer null space is kept, so ``opns`` of a blade costs nothing more.
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
        space = tuple(opns_of_multivector(self.value))
        if len(space) != self.grade:
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
    if isinstance(b, Blade):
        return b.value
    if isinstance(b, Versor):
        return b.value
    return b


def _kernel_of_vector_map(alg: Algebra, image_fn) -> list[Multivector]:
    """Kernel of a linear map from grade-1 elements into the algebra."""
    n = alg.dim
    columns = []
    for i in range(n):
        img = image_fn(alg.mv({1 << i: 1}))
        columns.append(img._terms)
    masks = sorted(set().union(*columns)) if any(columns) else []
    if not masks:
        return [alg.mv({1 << i: 1}) for i in range(n)]
    rows = [[columns[j].get(m, 0) for j in range(n)] for m in masks]
    basis = nullspace(Matrix.from_rows(rows))
    return [alg.vector(vec) for vec in basis]


def opns_of_multivector(b: Multivector) -> list[Multivector]:
    return _kernel_of_vector_map(b.algebra, lambda v: v.wedge(b))


def opns(b) -> list[Multivector]:
    """Basis of the outer product null space {v : v ^ b = 0}."""
    mv = _as_multivector(b)
    if mv.is_zero():
        raise BladeError("outer null space of the zero blade is undefined")
    if isinstance(b, Blade):
        return list(b._opns)
    return opns_of_multivector(mv)


def ipns(b) -> list[Multivector]:
    """Basis of the inner product null space {v : v . b = 0}."""
    mv = _as_multivector(b)
    if mv.is_zero():
        raise BladeError("inner null space of the zero blade is undefined")
    return _kernel_of_vector_map(mv.algebra, lambda v: v.inner(mv))


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
    if isinstance(g, Versor):
        g = g.value
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    extracted: list[Multivector] = []
    current = g
    try:
        while (k := current.max_grade()) >= 2:
            space = opns_of_multivector(current.grade(k))
            if len(space) != k:
                raise BladeError(f"grade-{k} element is not decomposable")
            v = choose_nonnull_vector(space)
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
    alg = g.algebra
    return [alg.vector(normalize_vector(v._coordinates())) for v in reversed(extracted)]


def _require_nonzero_norm(g: Multivector) -> None:
    """Raise NotAVersorError or NullVersorError when g g* is not a nonzero scalar."""
    if not g.norm():
        raise NullVersorError("null versors are outside the factorization domain")
