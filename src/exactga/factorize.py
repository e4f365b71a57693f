"""End-to-end factorization of projective transformations into null
polarities, and its exact certificate.

A transformation is lifted to a versor, whose grade-descent witness (see
``blades.factorize_versor``) gives at most six vectors.  Each vector becomes
a null polarity, and the lift (``klein.proj_to_versor``) certifies once that
the polarities multiply to a multiple of the input: the zero residual.
A parsed result is checked the same way: its product is formed once and
compared with the input by ``linalg.proportionality``, and ``scale * A`` and
the residual are formed only when the ratio is not the stated scale.  The
input's regularity is checked without elimination: det A is Klein's form of
the lines through its columns c0, c1 and c2, c3, b(p(c0, c1), p(c2, c3))
(``klein.ProjTransform4``).
The descent names are re-exported here, which is their public path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Multivector, _proved
from .blades import NoNonNullVectorError, choose_nonnull_vector, factorize_versor
from .klein import (
    _PARITY,
    NullPolarity,
    ProjTransform4,
    _alternating_actions,
    _lift,
    _polarity_coordinates,
    _polarity_product,
    klein_algebra,
)
from .linalg import Matrix, proportionality
from .scalars import Scalar, as_scalar, format_scalar


@dataclass(frozen=True)
class FactorizationResult:
    """Vector factors of a transformation and their exact matrix certificate.

    ``_against`` is the matrix whose certificate the library checked: by the
    ``proportionality`` of the lift or of ``from_json`` (a zero ``residual``,
    not formed), or by the residual that ``from_json`` forms on a mismatch.
    ``verified`` trusts only those, so a result built by the constructor or
    ``dataclasses.replace`` is not verified, and ``verify_factorization``
    multiplies its polarities out.
    """

    factors: tuple[Multivector, ...]
    polarities: tuple[NullPolarity, ...]
    scale: Scalar
    residual: Matrix
    _against: Matrix | None = field(default=None, init=False, repr=False, compare=False)

    def verified(self) -> bool:
        return self._against is not None and self.residual.is_zero() and bool(self.scale)

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
        a = transform.matrix
        product = _polarity_product(polarities)
        # the lift's exact check: scale * A and the difference are formed only on a mismatch
        residual = (_PROVED if proportionality(product, a) == scale
                    else product - a.scale(scale))
        return _proved(cls, factors=factors, polarities=polarities, scale=scale,
                       residual=residual, _against=a)


# the residual of every lifted factorization: the lift's ``proportionality``
# proved product == scale * A, so the difference is not formed
_PROVED = Matrix.zeros(4, 4)


def factorize_matrix(t: ProjTransform4, scalar_mode: str = "rational") -> FactorizationResult:
    """Factor a regular projective transformation into null polarities.

    Pipeline: lift to a versor, run the grade descent, convert each vector
    factor to its skew matrix with alternating point/plane action (the
    rightmost factor acts like the input), and certify the exact identity
    product = scale * input, all within the lift (``klein._lift``).
    """
    versor, polarities, scale = _lift(t, scalar_mode)
    return _proved(FactorizationResult, factors=versor.witness, polarities=polarities,
                   scale=scale, residual=_PROVED, _against=t.matrix)


def verify_factorization(result: FactorizationResult, t: ProjTransform4) -> bool:
    """Exact acceptance check of a factorization against its transformation.

    Every polarity must be a ``NullPolarity``, whose constructors prove its
    matrix skew (the public one checks it, ``vector_to_null_polarity`` builds
    it skew), so skewness is not checked again here, and each factor is
    compared with the coordinates read off its polarity's entries
    (``klein._polarity_coordinates``), no vector built.  Nor is nullness: a null
    factor's polarity is singular, so no product with it equals scale * A.
    Last, a result proved against ``t.matrix`` is read; any other is
    multiplied out, and the product's ``proportionality`` to the regular A,
    the lift's rule, must be the nonzero scale, so no ``scale * A`` is formed.
    """
    return _failed_check(result, t) is None


def _failed_check(result: FactorizationResult, t: ProjTransform4) -> dict | None:
    """The first failing check of ``verify_factorization``, or None; a factor has its index."""
    n = len(result.factors)
    if n > 6 or n != len(result.polarities):
        return {"check": "count"}
    if _PARITY[t.kind] != ("odd" if n % 2 else "even"):
        return {"check": "parity"}
    if not all(type(p) is NullPolarity for p in result.polarities):
        return {"check": "polarity-type"}
    alg = klein_algebra()
    for index, (f, p) in enumerate(zip(result.factors, result.polarities), 1):
        # each factor is the vector its polarity was built from: its terms
        # are the nonzero coordinates read off the polarity's entries
        if p.matrix.is_zero() or not (
                isinstance(f, Multivector) and alg.same_as(f.algebra)
                and f._terms == {1 << i: c for i, c in enumerate(_polarity_coordinates(p)) if c}):
            return {"check": "factor", "index": index}
    if [p.action for p in result.polarities] != _alternating_actions(n, t.action):
        return {"check": "actions"}
    if not result.scale:
        return {"check": "scale"}
    proved = (result.residual.is_zero() if result._against == t.matrix
              else proportionality(_polarity_product(result.polarities), t.matrix) == result.scale)
    return None if proved else {"check": "product"}
