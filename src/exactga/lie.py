"""The Cl(4,2) model of oriented sphere geometry.

Oriented spheres, planes, points and the point at infinity of Euclidean
3-space are encoded homogeneously on the quadric

    -x0^2 + x1^2 + x2^2 + x3^2 + x4^2 - x5^2 = 0,

the diagonal form diag(-1, 1, 1, 1, 1, -1).  Oriented contact is the
vanishing of the associated bilinear form; inversions are vector sandwiches;
transformations fixing infinity (the affine distance-preserving subgroup)
are generated by vectors whose first two coordinates cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Sequence, Union

from .algebra import Algebra, AlgebraError, Multivector, coordinate_list, sandwich
from .linalg import Matrix
from .scalars import Scalar, as_scalar, format_scalar


@lru_cache(maxsize=1)
def lie_algebra() -> Algebra:
    diag = (-1, 1, 1, 1, 1, -1)
    rows = [[Fraction(diag[i] if i == j else 0) for j in range(6)] for i in range(6)]
    return Algebra(Matrix.from_rows(rows))


class _Element:
    """The JSON form of a Lie element: its variant, then each field in order."""

    variant: ClassVar[str]

    def to_json(self) -> dict:
        data = {"variant": self.variant}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = ([format_scalar(c) for c in value] if isinstance(value, tuple)
                            else format_scalar(value))
        return data


@dataclass(frozen=True)
class LiePoint(_Element):
    variant = "point"
    position: tuple

    def __post_init__(self):
        object.__setattr__(self, "position", _triple(self.position))


@dataclass(frozen=True)
class LieInfinity(_Element):
    variant = "infinity"


@dataclass(frozen=True)
class LieSphere(_Element):
    variant = "sphere"
    center: tuple
    radius: Scalar  # signed; the sign carries the orientation

    def __post_init__(self):
        object.__setattr__(self, "center", _triple(self.center))
        object.__setattr__(self, "radius", as_scalar(self.radius))


@dataclass(frozen=True)
class LiePlane(_Element):
    variant = "plane"
    normal: tuple
    offset: Scalar  # plane is {u : u . normal = offset}

    def __post_init__(self):
        normal = _triple(self.normal)
        if not any(normal):
            raise AlgebraError("plane normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", as_scalar(self.offset))

    @property
    def has_unit_normal(self) -> bool:
        return _dot(self.normal, self.normal) == 1


LieElement = Union[LiePoint, LieInfinity, LieSphere, LiePlane]
_VARIANTS = {cls.variant: cls for cls in (LiePoint, LieInfinity, LieSphere, LiePlane)}


def lie_element_from_json(data: dict) -> LieElement:
    """The element of a JSON object: its ``variant``, then one key per field."""
    if not isinstance(data, dict):
        raise AlgebraError("a Lie element is a JSON object with a 'variant' key")
    variant = data.get("variant")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise AlgebraError(f"unknown Lie element variant {variant!r}")
    return cls(*(data[f.name] for f in fields(cls)))


def _triple(values: Sequence) -> tuple:
    return tuple(map(as_scalar, coordinate_list(values, 3, "expected three coordinates")))


def _dot(a: Sequence, b: Sequence) -> Scalar:
    return sum((x * y for x, y in zip(a, b)), start=Fraction(0))


@dataclass(frozen=True)
class LieCoordinate:
    """Homogeneous six-tuple on the sphere quadric."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(map(as_scalar, coordinate_list(self.coords, 6,
                                                       "Lie coordinates have six components")))
        if not any(coords):
            raise AlgebraError("Lie coordinates must not all vanish")
        object.__setattr__(self, "coords", coords)

    def on_quadric(self) -> bool:
        return lie_bilinear(self.coords, self.coords) == 0

    def to_multivector(self) -> Multivector:
        return lie_algebra().vector(self.coords)

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "LieCoordinate":
        return cls(mv.coordinates())


def lie_bilinear(a: Sequence, b: Sequence) -> Scalar:
    return (-a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            + a[3] * b[3] + a[4] * b[4] - a[5] * b[5])


def lie_encode(element: LieElement) -> LieCoordinate:
    """Homogeneous coordinates of a Euclidean entity on the sphere quadric.

    Planes are encoded with their stored normal; only unit normals land
    exactly on the quadric (general rational normals have no rational
    representative there).
    """
    half = Fraction(1, 2)
    match element:
        case LiePoint(position=u):
            uu = _dot(u, u)
            return LieCoordinate(((1 + uu) * half, (1 - uu) * half,
                                  u[0], u[1], u[2], Fraction(0)))
        case LieInfinity():
            return LieCoordinate((1, -1, 0, 0, 0, 0))
        case LieSphere(center=p, radius=r):
            pp = _dot(p, p)
            return LieCoordinate(((1 + pp - r * r) * half, (1 - pp + r * r) * half,
                                  p[0], p[1], p[2], r))
        case LiePlane(normal=n, offset=h):
            return LieCoordinate((h, -h, n[0], n[1], n[2], 1))
    raise AlgebraError(f"not a Lie element: {element!r}")


def lie_decode(c: LieCoordinate) -> LieElement:
    """Euclidean entity of a point on the sphere quadric.

    Case split on x0+x1 and x5; plane representatives with non-unit normals
    (off-quadric) are still decoded so that encode/decode round-trips, the
    deviation being visible through LiePlane.has_unit_normal.
    """
    x = c.coords
    s = x[0] + x[1]
    if s == 0:
        if x[5] == 0:
            if any(x[2:5]):
                raise AlgebraError("coordinates are off the quadric")
            return LieInfinity()
        inv = 1 / x[5]
        return LiePlane((x[2] * inv, x[3] * inv, x[4] * inv), x[0] * inv)
    if not c.on_quadric():
        raise AlgebraError("coordinates are off the quadric")
    inv = 1 / s
    if x[5] == 0:
        return LiePoint((x[2] * inv, x[3] * inv, x[4] * inv))
    return LieSphere((x[2] * inv, x[3] * inv, x[4] * inv), x[5] * inv)


def oriented_contact(s1: LieCoordinate | LieElement, s2: LieCoordinate | LieElement) -> bool:
    """Oriented tangency: the quadric's bilinear form vanishes exactly."""
    c1 = s1 if isinstance(s1, LieCoordinate) else lie_encode(s1)
    c2 = s2 if isinstance(s2, LieCoordinate) else lie_encode(s2)
    if not c1.on_quadric() or not c2.on_quadric():
        raise AlgebraError("oriented contact needs quadric points")
    return lie_bilinear(c1.coords, c2.coords) == 0


def lie_inversion_sandwich(a: Multivector, x: Multivector) -> Multivector:
    """Sandwich action of an invertible vector on a grade-1 element."""
    if a.grades() != {1} or (not x.is_zero() and x.grades() != {1}):
        raise AlgebraError("inversion sandwich works on grade-1 elements")
    if not a.gp(a).scalar_part():
        raise AlgebraError("inversion needs an invertible vector")
    return sandwich(a, x)


def is_laguerre(a: Multivector) -> bool:
    """Whether the vector generates a transformation fixing infinity."""
    if a.grades() != {1}:
        raise AlgebraError("the test applies to grade-1 elements")
    coords = a.coordinates()
    return coords[0] + coords[1] == 0
