"""End-to-end factorization of projective transformations into null
polarities, and its exact certificate.

A transformation is lifted to a versor, whose grade-descent witness (see
``blades.factorize_versor``) gives at most six vectors.  Each vector becomes
a null polarity, and the product of the polarities is certified exactly
proportional to the input, once, inside the lift (``klein.proj_to_versor``).
The descent names are re-exported here, which is their public path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Multivector
from .blades import NoNonNullVectorError, choose_nonnull_vector, factorize_versor
from .klein import (
    NullPolarity,
    ProjTransform4,
    _alternating_actions,
    _lift,
    _polarity_product,
    klein_algebra,
    klein_form_value,
    null_polarity_to_vector,
)
from .linalg import Matrix
from .scalars import Scalar, as_scalar, format_scalar


@dataclass(frozen=True)
class FactorizationResult:
    """Vector factors of a transformation and their exact matrix certificate.

    ``verify_factorization`` recomputes the polarity product unless the result
    was built from that product by ``_of_product``, which keeps it; a
    ``residual`` given by the caller is never trusted.
    """

    factors: tuple[Multivector, ...]
    polarities: tuple[NullPolarity, ...]
    scale: Scalar
    residual: Matrix
    _product: Matrix | None = field(default=None, init=False, repr=False, compare=False)

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
        return cls._of_product(factors, polarities, scale, _polarity_product(polarities), transform)

    @classmethod
    def _of_product(cls, factors, polarities, scale, product: Matrix,
                    t: ProjTransform4) -> "FactorizationResult":
        """A result whose polarities multiply to ``product``, which it keeps."""
        result = cls(factors, polarities, scale, product - t.matrix.scale(scale))
        object.__setattr__(result, "_product", product)
        return result


def factorize_matrix(t: ProjTransform4, scalar_mode: str = "rational") -> FactorizationResult:
    """Factor a regular projective transformation into null polarities.

    Pipeline: lift to a versor, run the grade descent, convert each vector
    factor to its skew matrix with alternating point/plane action (the
    rightmost factor acts like the input), and certify the exact identity
    product = scale * input, all within the lift (``klein._lift``).
    """
    versor, polarities, scale, product = _lift(t, scalar_mode)
    return FactorizationResult._of_product(versor.witness, polarities, scale, product, t)


def verify_factorization(result: FactorizationResult, t: ProjTransform4) -> bool:
    """Exact acceptance check of a factorization against its transformation.

    Every polarity must be a ``NullPolarity``, whose constructors prove its
    matrix skew (the public one checks it, ``NullPolarity._proved`` builds it
    skew), so skewness is not checked again here.
    """
    if len(result.factors) > 6 or len(result.factors) != len(result.polarities):
        return False
    expected_parity = 0 if t.kind == "collineation" else 1
    if len(result.factors) % 2 != expected_parity:
        return False
    if not all(type(p) is NullPolarity for p in result.polarities):
        return False
    for f, p in zip(result.factors, result.polarities):
        # each factor is the non-null vector its polarity was built from
        if (p.matrix.is_zero() or f != null_polarity_to_vector(p)
                or not klein_form_value(f._coordinates())):
            return False
    actions = [p.action for p in result.polarities]
    if actions != _alternating_actions(len(actions), t.action):
        return False
    if not result.scale:
        return False
    product = result._product
    if product is None:
        product = _polarity_product(result.polarities)
    return product == t.matrix.scale(result.scale)
