"""Exact rational geometric algebra with the Klein line-geometry and Lie
sphere models, and factorization of projective transformations into null
polarities."""

from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraMismatchError,
    DegenerateFormError,
    Multivector,
    NotAVersorError,
    NullVersorError,
    Versor,
    bilinear,
    proportional,
    sandwich,
)
from .blades import Blade, BladeError, ipns, is_null_blade, max_grade_part, opns
from .factorize import (
    FactorizationResult,
    NoNonNullVectorError,
    choose_nonnull_vector,
    factorize_matrix,
    factorize_versor,
    verify_factorization,
)
from .klein import (
    ComplexRequiredError,
    ManifoldClass,
    ManifoldKind,
    NotLiftableError,
    NullPolarity,
    PluckerLine,
    ProjTransform4,
    Sandwich6,
    SingularTransformError,
    classify_blade,
    induced_line_map,
    klein_algebra,
    null_polarity_to_vector,
    proj_to_versor,
    vector_sandwich_matrix,
    vector_to_null_polarity,
    versor_to_proj,
)
from .lie import (
    LieCoordinate,
    LieInfinity,
    LiePlane,
    LiePoint,
    LieSphere,
    is_laguerre,
    lie_algebra,
    lie_decode,
    lie_encode,
    lie_inversion_sandwich,
    oriented_contact,
)
from .linalg import LinAlgError, Matrix, determinant, mat_mul, nullspace
from .scalars import ComplexRational, ScalarError, as_scalar, format_scalar, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraError", "AlgebraMismatchError", "Blade", "BladeError",
    "ComplexRational", "ComplexRequiredError", "DegenerateFormError",
    "FactorizationResult", "LieCoordinate", "LieInfinity", "LiePlane",
    "LiePoint", "LieSphere", "LinAlgError", "ManifoldClass", "ManifoldKind",
    "Matrix", "Multivector", "NoNonNullVectorError", "NotAVersorError",
    "NotLiftableError", "NullPolarity", "NullVersorError", "PluckerLine",
    "ProjTransform4", "Sandwich6", "ScalarError", "SingularTransformError",
    "Versor", "as_scalar", "bilinear", "choose_nonnull_vector", "classify_blade",
    "determinant", "factorize_matrix", "factorize_versor", "format_scalar",
    "induced_line_map", "ipns", "is_laguerre", "is_null_blade", "klein_algebra",
    "lie_algebra", "lie_decode", "lie_encode", "lie_inversion_sandwich",
    "mat_mul", "max_grade_part", "null_polarity_to_vector", "nullspace", "opns",
    "oriented_contact", "parse_scalar", "proj_to_versor", "proportional",
    "sandwich", "vector_sandwich_matrix", "vector_to_null_polarity",
    "verify_factorization", "versor_to_proj",
]
