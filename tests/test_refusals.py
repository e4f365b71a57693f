"""Refusals of every layer, each with its exact exception class and message.

One table row per refusal: a call, the class it must raise (not a
subclass) and its message.  The structural checks of
``verify_factorization`` answer False instead of raising; the last test
covers them and the check each one names.
"""

from fractions import Fraction

import pytest

from exactga.algebra import Algebra, AlgebraError, AlgebraMismatchError, Versor, bilinear
from exactga.blades import Blade, BladeError, NoNonNullVectorError, choose_nonnull_vector
from exactga.factorize import _failed_check, factorize_matrix, verify_factorization
from exactga.klein import (
    NullPolarity,
    PluckerLine,
    ProjTransform4,
    Sandwich6,
    classify_blade,
    klein_algebra,
    multivector_from_coefficients,
    null_polarity_to_vector,
    vector_sandwich_matrix,
    vector_to_null_polarity,
)
from exactga.lie import (
    LieCoordinate,
    LiePlane,
    is_laguerre,
    lie_algebra,
    lie_decode,
    lie_element_from_json,
    lie_encode,
    lie_inversion_sandwich,
)
from exactga.linalg import LinAlgError, Matrix
from exactga.scalars import ComplexRational
from conftest import REFERENCE_COLLINEATION

KLEIN = klein_algebra()
LIE = lie_algebra()
E = KLEIN.e


X_AXIS = PluckerLine.from_points((1, 0, 0, 0), (0, 1, 0, 0))
SKEW_TO_X = PluckerLine.from_points((0, 0, 1, 0), (0, 0, 0, 1))
REFERENCE = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")


REFUSALS = {
    # algebra
    "form-not-square": (lambda: Algebra(Matrix.from_rows([[1, 0, 0], [0, 1, 0]])),
                        AlgebraError, "form matrix must be square"),
    "form-17-generators": (lambda: Algebra(Matrix.identity(17)),
                           AlgebraError, "generator count above the 16-bit mask budget"),
    "form-not-symmetric": (lambda: Algebra(Matrix.from_rows([[1, 2], [0, 1]])),
                           AlgebraError, "form matrix must be symmetric"),
    "e-out-of-order": (lambda: KLEIN.e(2, 1), AlgebraError, "indices must be strictly increasing"),
    "e-repeated": (lambda: KLEIN.e(1, 1), AlgebraError, "indices must be strictly increasing"),
    "e-above-range": (lambda: KLEIN.e(7), AlgebraError, "generator index 7 out of range"),
    "e-below-range": (lambda: KLEIN.e(0, 1), AlgebraError, "generator index 0 out of range"),
    "mask-above": (lambda: KLEIN.mv({64: 1}), AlgebraError, "mask 64 outside the algebra"),
    "mask-negative": (lambda: KLEIN.mv({-1: 1}), AlgebraError, "mask -1 outside the algebra"),
    "max-grade-of-zero": (lambda: KLEIN.zero().max_grade(),
                          AlgebraError, "zero multivector has no grade"),
    "basis-masks-parity": (lambda: KLEIN.basis_masks(parity="evn"),
                           AlgebraError, "parity must be 'even', 'odd' or None"),
    "basis-masks-grade-below": (lambda: KLEIN.basis_masks(grade=-1),
                                AlgebraError, "grade -1 out of range 0..6"),
    "basis-masks-grade-above": (lambda: KLEIN.basis_masks(grade=7, parity="odd"),
                                AlgebraError, "grade 7 out of range 0..6"),
    "coefficients-parity": (lambda: multivector_from_coefficients([1] * 32, "evn"),
                            AlgebraError, "parity must be 'even', 'odd' or None"),
    "versor-parity-name": (lambda: Versor(E(1, 2), "both"),
                           AlgebraError, "parity must be 'even' or 'odd'"),
    "versor-wrong-parity": (lambda: Versor(E(1), "even"),
                            AlgebraError, "value is not a pure even element"),
    "versor-zero": (lambda: Versor(KLEIN.zero(), "odd"),
                    AlgebraError, "value is not a pure odd element"),
    "versor-witness-grade": (lambda: Versor(E(1, 2), "even", (E(1, 2),)),
                             AlgebraError, "witness factors must be grade-1 elements"),
    "bilinear-algebras": (lambda: bilinear(E(1) + E(4), LIE.e(1) + LIE.e(4)),
                          AlgebraMismatchError, "operands live in different algebras"),
    # blades
    "zero-blade-grade": (lambda: Blade(KLEIN.zero(), 2), BladeError,
                         "zero blade must have grade 0"),
    "empty-span": (lambda: choose_nonnull_vector([]), NoNonNullVectorError, "empty span"),
    "mixed-span": (lambda: choose_nonnull_vector([E(1), LIE.e(2)]),
                   AlgebraMismatchError, "operands live in different algebras"),
    # klein
    "line-all-zero": (lambda: PluckerLine((0,) * 6),
                      AlgebraError, "line coordinates must not all vanish"),
    "line-off-quadric": (lambda: PluckerLine((1, 0, 0, 1, 0, 0)),
                         AlgebraError, "coordinates violate the quadric relation"),
    "meet-skew": (lambda: X_AXIS.intersection_point(SKEW_TO_X), AlgebraError, "lines are skew"),
    "meet-coincident-point": (lambda: X_AXIS.intersection_point(X_AXIS), AlgebraError,
                              "lines coincide; the intersection point is not unique"),
    "meet-coincident-plane": (lambda: X_AXIS.common_plane(X_AXIS), AlgebraError,
                              "lines coincide; the common plane is not unique"),
    "transform-kind": (lambda: ProjTransform4(Matrix.identity(4), "similarity", "points"),
                       AlgebraError, "kind must be 'collineation' or 'correlation'"),
    "transform-action": (lambda: ProjTransform4(Matrix.identity(4), "collineation", "lines"),
                         AlgebraError, "action must be 'points' or 'planes'"),
    "transform-shape": (lambda: ProjTransform4(Matrix.identity(3), "collineation", "points"),
                        AlgebraError, "transform matrix must be 4x4"),
    "polarity-shape": (lambda: NullPolarity(Matrix.zeros(3, 3), "points"),
                       AlgebraError, "polarity matrix must be 4x4"),
    "line-map-shape": (lambda: Sandwich6(Matrix.identity(4)),
                       AlgebraError, "line map must be 6x6"),
    "line-map-not-similitude": (
        lambda: Sandwich6(Matrix.from_rows([[int(i == j) + (i == j == 5) for j in range(6)]
                                            for i in range(6)])),
        AlgebraError, "matrix does not preserve the quadric form"),
    "sandwich-grade": (lambda: vector_sandwich_matrix(E(1, 2)),
                       AlgebraError, "sandwich matrix needs a grade-1 element"),
    "polarity-grade": (lambda: vector_to_null_polarity(E(1, 2), "points"),
                       AlgebraError, "null polarities come from grade-1 elements"),
    "bare-matrix-action": (lambda: null_polarity_to_vector(Matrix.zeros(4, 4)),
                           AlgebraError, "action required when passing a bare matrix"),
    "coefficient-count": (lambda: multivector_from_coefficients([1] * 31, "even"),
                          AlgebraError, "expected 32 coefficients"),
    "scalar-mode": (lambda: factorize_matrix(REFERENCE, "real"),
                    AlgebraError, "scalar_mode must be 'rational' or 'complex'"),
    "classify-algebra": (lambda: classify_blade(LIE.e(1, 2)), AlgebraMismatchError,
                         "line manifolds live in the rank-6 line-geometry algebra"),
    "line-from-lie": (lambda: PluckerLine.from_multivector(LIE.e(1)), AlgebraMismatchError,
                      "Pluecker lines come from line-geometry elements"),
    # lie
    "plane-normal": (lambda: LiePlane((0, 0, 0), 1), AlgebraError, "plane normal must be nonzero"),
    "element-json": (lambda: lie_element_from_json([]), AlgebraError,
                     "a Lie element is a JSON object with a 'variant' key"),
    "lie-all-zero": (lambda: LieCoordinate((0,) * 6),
                     AlgebraError, "Lie coordinates must not all vanish"),
    "encode-non-element": (lambda: lie_encode("point"),
                           AlgebraError, "not a Lie element: 'point'"),
    # x0 + x1 = 0 with a zero normal and x5 != 0 squares to -x5^2
    "decode-zero-normal": (lambda: lie_decode(LieCoordinate((2, -2, 0, 0, 0, 3))),
                           AlgebraError, "coordinates are off the quadric"),
    # x0 + x1 = 0 and x5 = 0 with the Gaussian normal (1, i, 0), which squares to 0
    "decode-isotropic-normal": (
        lambda: lie_decode(LieCoordinate((0, 0, 1, ComplexRational(0, 1), 0, 0))),
        AlgebraError, "an isotropic normal names no Euclidean entity"),
    "decode-non-coordinates": (lambda: lie_decode((1, -1, 0, 0, 0, 0)),
                               AlgebraError, "not Lie coordinates: (1, -1, 0, 0, 0, 0)"),
    "inversion-grade": (lambda: lie_inversion_sandwich(LIE.e(1, 2), LIE.e(1)),
                        AlgebraError, "inversion sandwich works on grade-1 elements"),
    "inversion-null": (lambda: lie_inversion_sandwich(LIE.e(1) + LIE.e(2), LIE.e(3)),
                       AlgebraError, "inversion needs an invertible vector"),
    "laguerre-grade": (lambda: is_laguerre(LIE.e(1, 2)),
                       AlgebraError, "the test applies to grade-1 elements"),
    "lie-from-klein": (lambda: LieCoordinate.from_multivector(E(1)), AlgebraMismatchError,
                       "Lie coordinates come from sphere-geometry elements"),
    "laguerre-klein": (lambda: is_laguerre(E(3)), AlgebraMismatchError,
                       "the Laguerre test needs a sphere-geometry element"),
    # linalg
    "entry-count": (lambda: Matrix(2, 2, (1, 2, 3)),
                    LinAlgError, "entry count does not match shape"),
    "no-rows": (lambda: Matrix.from_rows([]), LinAlgError, "matrix needs at least one row"),
    "ragged": (lambda: Matrix.from_rows([[1, 2], [3]]), LinAlgError, "ragged rows"),
    "add-shape": (lambda: Matrix.identity(2) + Matrix.identity(3),
                  LinAlgError, "shape mismatch in addition"),
    "sub-shape": (lambda: Matrix.identity(2) - Matrix.identity(3),
                  LinAlgError, "shape mismatch in subtraction"),
    "apply-length": (lambda: Matrix.identity(2).apply([1, 2, 3]),
                     LinAlgError, "vector length does not match column count"),
    # scalars
    "complex-over-zero": (lambda: ComplexRational(1, 1) / 0,
                          ZeroDivisionError, "division by zero scalar"),
    "complex-over-complex-zero": (lambda: ComplexRational(1, 1) / ComplexRational(0, 0),
                                  ZeroDivisionError, "division by zero scalar"),
    "over-complex-zero": (lambda: Fraction(1) / ComplexRational(0, 0),
                          ZeroDivisionError, "division by zero scalar"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_verify_rejects_a_malformed_chain():
    result = factorize_matrix(REFERENCE)
    seven = result.factors + result.factors[:1]
    rejected = {
        # more than six factors, and one polarity per factor
        "seven-factors": (type(result)(seven, result.polarities + result.polarities[:1],
                                       result.scale, result.residual), REFERENCE),
        "count-mismatch": (type(result)(result.factors, result.polarities[1:],
                                        result.scale, result.residual), REFERENCE),
        # a collineation's even chain offered for a correlation
        "parity": (result, ProjTransform4(REFERENCE.matrix, "correlation", "points")),
        # the point chain offered for the plane action of the same matrix
        "alternation": (result, ProjTransform4(REFERENCE.matrix, "collineation", "planes")),
        # bare matrices, which JSON cannot express: a polarity is a NullPolarity
        "bare-matrices": (type(result)(result.factors, tuple(p.matrix for p in result.polarities),
                                       result.scale, result.residual), REFERENCE),
    }
    checks = {"seven-factors": "count", "count-mismatch": "count", "parity": "parity",
              "alternation": "actions", "bare-matrices": "polarity-type"}
    for case, (candidate, t) in rejected.items():
        assert verify_factorization(candidate, t) is False, case
        assert _failed_check(candidate, t) == {"check": checks[case]}, case
    assert _failed_check(result, REFERENCE) is None
