"""Grade-descent factorization of versors into vectors, and the end-to-end
factorization of projective transformations into null polarities.

The descent repeatedly multiplies by a non-null vector from the outer null
space of the maximal-grade blade, which lowers that grade by exactly one.
A versor of maximal grade k therefore splits into at most k vectors, and in
the rank-6 models at most six.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Multivector,
    NullVersorError,
    Versor,
    proportional,
)
from .blades import max_grade_part, opns
from .klein import (
    NullPolarity,
    ProjTransform4,
    bilinear,
    klein_algebra,
    klein_form_value,
    null_polarity_to_vector,
    proj_to_versor,
    vector_to_null_polarity,
)
from .linalg import Matrix, mat_mul, normalize_vector
from .scalars import Scalar, as_scalar, format_scalar


class NoNonNullVectorError(AlgebraError):
    pass


def choose_nonnull_vector(space: list[Multivector]) -> Multivector:
    """Deterministic non-null pick from the span of the given grade-1 basis.

    Probes basis vectors in order, then pairwise sums, then triple sums with
    coefficients from {1, -1, 2}.  A fully null probe ladder certifies that
    the span is totally isotropic.
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
    coeffs = (1, -1, 2)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for ci in coeffs:
                    for cj in coeffs:
                        for ck in coeffs:
                            v = space[i] * ci + space[j] * cj + space[k] * ck
                            if bilinear(v, v):
                                return v
    raise NoNonNullVectorError("span is totally isotropic")


def factorize_versor(g: Multivector | Versor) -> list[Multivector]:
    """Split a non-null versor into vectors whose product is proportional to it.

    Returns the factors in product order (leftmost first); the rightmost
    factor is the first one extracted by the descent.
    """
    if isinstance(g, Versor):
        g = g.value
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    if not g.norm():
        raise NullVersorError("null versors are outside the factorization domain")
    extracted: list[Multivector] = []
    current = g
    while current.max_grade() >= 2:
        blade = max_grade_part(current)
        v = choose_nonnull_vector(opns(blade))
        nxt = current.gp(v)
        if nxt.is_zero() or nxt.max_grade() != current.max_grade() - 1:
            raise AlgebraError("grade descent failed to reduce the maximal grade")
        extracted.append(v)
        current = nxt
    if current.max_grade() == 1:
        extracted.append(current)
    alg = g.algebra
    return [alg.vector(normalize_vector(v.coordinates())) for v in reversed(extracted)]


def _alternating_actions(count: int, innermost: str) -> list[str]:
    other = "planes" if innermost == "points" else "points"
    # leftmost-first list; the rightmost factor carries the innermost action
    return [innermost if (count - 1 - i) % 2 == 0 else other for i in range(count)]


@dataclass(frozen=True)
class FactorizationResult:
    """Vector factors of a transformation and their exact matrix certificate."""

    factors: tuple[Multivector, ...]
    polarities: tuple[NullPolarity, ...]
    scale: Scalar
    residual: Matrix

    def verified(self) -> bool:
        return self.residual.is_zero() and bool(self.scale)

    def to_json(self) -> dict:
        return {
            "factors": [f.to_json() for f in self.factors],
            "polarities": [p.to_json() for p in self.polarities],
            "scale": format_scalar(self.scale),
            "verified": self.verified(),
        }

    @classmethod
    def from_json(cls, data: dict, transform: ProjTransform4) -> "FactorizationResult":
        factors = tuple(Multivector.from_json(klein_algebra(), f) for f in data["factors"])
        polarities = tuple(NullPolarity.from_json(p) for p in data["polarities"])
        scale = as_scalar(data["scale"])
        product = _polarity_product(polarities)
        residual = product - transform.matrix.scale(scale)
        return cls(factors, polarities, scale, residual)


def _polarity_product(polarities) -> Matrix:
    product = Matrix.identity(4)
    for p in polarities:
        product = mat_mul(product, p.matrix)
    return product


def factorize_matrix(t: ProjTransform4, scalar_mode: str = "rational") -> FactorizationResult:
    """Factor a regular projective transformation into null polarities.

    Pipeline: lift to a versor, run the grade descent, convert each vector
    factor to its skew matrix with alternating point/plane action (the
    rightmost factor acts like the input), and certify the exact identity
    product = scale * input.
    """
    versor = proj_to_versor(t, scalar_mode)
    vectors = list(versor.witness or ())
    actions = _alternating_actions(len(vectors), t.action)
    polarities = tuple(vector_to_null_polarity(v, a) for v, a in zip(vectors, actions))
    product = _polarity_product(polarities)
    scale = _first_ratio(product, t.matrix)
    if scale is None:
        raise AlgebraError("polarity product is not proportional to the input")
    residual = product - t.matrix.scale(scale)
    result = FactorizationResult(tuple(vectors), polarities, scale, residual)
    if not result.residual.is_zero():
        raise AlgebraError("factorization certificate failed the exact check")
    return result


def _first_ratio(product: Matrix, target: Matrix) -> Scalar | None:
    """Ratio of the first nonzero product entry to the matching target entry."""
    for a, b in zip(product.entries, target.entries):
        if a:
            if not b:
                return None
            return a / b
        if b:
            return None
    return Fraction(1)


def verify_factorization(result: FactorizationResult, t: ProjTransform4) -> bool:
    """Exact acceptance check of a factorization against its transformation."""
    if len(result.factors) > 6 or len(result.factors) != len(result.polarities):
        return False
    expected_parity = 0 if t.kind == "collineation" else 1
    if len(result.factors) % 2 != expected_parity:
        return False
    if not all(p.matrix.is_skew() for p in result.polarities):
        return False
    for f, p in zip(result.factors, result.polarities):
        # each factor is the non-null vector its polarity was built from
        if (p.matrix.is_zero() or f != null_polarity_to_vector(p)
                or not klein_form_value(f.coordinates())):
            return False
    actions = [p.action for p in result.polarities]
    if actions != _alternating_actions(len(actions), t.action):
        return False
    if not result.scale:
        return False
    product = _polarity_product(result.polarities)
    return product == t.matrix.scale(result.scale)
