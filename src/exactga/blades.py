"""Blades, their outer / inner product null spaces, and the grade descent.

A blade's coefficients are the Grassmann coordinates of its outer null
space (OPNS), so ``Blade`` reads that space off them and checks with k
wedges that the k-vector is a blade, solving no linear system.  The inner
null space (IPNS) is the orthogonal complement of the OPNS, a k-by-n system.

The grade descent splits a versor of maximal grade k into at most k vectors:
each step multiplies by a non-null vector of the top part's OPNS, which
lowers that grade by one.  A step probes the OPNS as raw coordinate lists
(part lists for a Gaussian g) and normalizes only its pick; a one-term top
part's pick is memoized per mask.  The remainder g v_1 ... v_i stays a term
dict in the algebra's working form (``algebra._working``: as stored,
split into parts for a Gaussian g), which ``Algebra._gp`` multiplies and
``Algebra._read_off`` reads; the algebra probes and normalizes either form,
so this module never looks at a scalar's type.
The descent lives here, below both models; ``klein`` calls it and
``factorize`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import Algebra, AlgebraError, Multivector, NotAVersorError, NullVersorError, Versor
from .algebra import _working
from .linalg import Matrix, nullspace


class BladeError(AlgebraError):
    pass


@dataclass(frozen=True)
class Blade:
    """A homogeneous multivector that is an outer product of vectors.

    Decomposability is verified on construction at every grade: a nonzero
    k-vector is a blade exactly when the k vectors read off its coefficients
    (``Algebra._read_off``), normalized, each wedge it to zero.  They then
    span its outer null space, which is kept, so ``opns`` of a blade costs
    nothing more.
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
        alg = self.algebra
        space = tuple(alg.vector(alg._pick(c)) for c in alg._read_off(_working(self.value._terms)))
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
    return Blade.from_multivector(mv.grade(mv.max_grade()))


# -- grade descent ----------------------------------------------------------------


class NoNonNullVectorError(AlgebraError):
    pass


def choose_nonnull_vector(space: list[Multivector]) -> Multivector:
    """The normalized non-null vector ``_choose`` picks from the span of a grade-1 basis."""
    if not space:
        raise NoNonNullVectorError("empty span")
    for v in space:
        space[0]._check(v)
    alg = space[0].algebra
    return alg.vector(_choose(alg, [v._coordinates() for v in space]))


def _choose(alg: Algebra, space) -> tuple:
    """The first non-null vector of a basis, else of its pair sums, normalized.

    Scaling keeps a vector null or not, so only the pick is normalized; the
    pair sums are of the normalized basis.  For null v_i and v_j the sum
    squares to 2 b(v_i, v_j) at any scale of either, so a pair is probed on
    the raw vectors and only the two it picks are normalized.  When every
    b(v_i, v_j) is 0 too, the span is totally isotropic.  The vectors come
    in a form of ``Algebra._read_off``, which ``_bilinear`` probes and
    ``_pick`` normalizes.
    """
    probed = []
    for v in space:
        if alg._bilinear(v, v):
            return alg._pick(v)
        probed.append(v)
    for a, b in combinations(probed, 2):
        if alg._bilinear(a, b):
            return alg._pick(a, b)
    raise NoNonNullVectorError("span is totally isotropic")


def _unit_pick(alg: Algebra, mask: int) -> tuple:
    """``_choose`` of the unit vectors that any c e_mask reads off, memoized; a refusal is not."""
    pick = alg._unit_picks.get(mask)
    if pick is None:
        pick = alg._unit_picks[mask] = _choose(alg, alg._read_off({mask: 1}))
    return pick


_REASONS = {NullVersorError: "null-versor", NotAVersorError: "not-a-versor",
            BladeError: "not-a-blade", NoNonNullVectorError: "totally-isotropic"}


def factorize_versor(g: Multivector | Versor) -> list[Multivector]:
    """Split a non-null versor into vectors whose product is proportional to it.

    Returns the factors in product order (leftmost first); the rightmost
    factor is the first one extracted by the descent.  A step reads its top
    part and multiplies by the vector it picks (``_choose``, or
    ``_unit_pick`` for a one-term part) on working terms (module
    docstring).  The descent ends with g v_1 ... v_k a nonzero
    scalar or a non-null vector w, and each v_i is non-null, so
    g = w v_k^-1 ... v_1^-1 is a versor and the factors are right.  A failed
    descent raises for the norm first, then for the first top part that is
    no ``Blade`` (built only here), then with its own error.  The error
    carries a ``diagnosis`` of the step where it gave out, with ``opns_dim``
    the number of vectors read off its top part.
    """
    g = _as_multivector(g)
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    alg, current, tops, extracted = g.algebra, _working(g._terms), [], []
    try:
        k = g.max_grade()
        while k >= 2:
            tops.append(top := {m: c for m, c in current.items() if m.bit_count() == k})
            v = _unit_pick(alg, *top) if len(top) == 1 else _choose(alg, alg._read_off(top))
            current = alg._gp(current, {1 << i: c for i, c in enumerate(v) if c})
            if not current or max(map(int.bit_count, current)) != k - 1:
                raise AlgebraError("grade descent failed to reduce the maximal grade")
            extracted.append(v)
            k -= 1
        if k == 1:  # a mixed-grade remainder fails in _read_vector, a null one in _choose
            extracted.append(_choose(alg, [alg._read_vector(current)]))
    except AlgebraError as exc:
        error, step = exc, len(tops) + (k < 2)  # the remainder is one step past the last part
        try:
            if not g.norm():
                raise NullVersorError("null versors are outside the factorization domain")
            for i, top in enumerate(tops, 1):
                Blade.from_multivector(alg._multivector(top))
        except BladeError as refused:
            error, step, k = refused, i, next(iter(top)).bit_count()  # a top part is homogeneous
        except AlgebraError as refused:
            error = refused
        reason = _REASONS.get(type(error), "grade-not-reduced" if k > 1 else "mixed-remainder")
        error.diagnosis = dict(stage="descent", step=step, grade=k, opns_dim=k, reason=reason)
        raise error
    return [Multivector._stored(alg, {1 << i: c for i, c in enumerate(v) if c})
            for v in reversed(extracted)]
