"""Oriented spheres on a rank-6 quadric of signature (4,2).

Points, oriented spheres, oriented planes and the point at infinity embed
homogeneously; oriented contact (tangency with matching orientation) is the
vanishing of the quadric's bilinear form.  Inversions are vector sandwiches,
and transformations fixing infinity are generated by vectors whose first two
coordinates cancel.
"""

from exactga import (
    LieCoordinate,
    LieInfinity,
    LiePlane,
    LiePoint,
    LieSphere,
    factorize_versor,
    is_laguerre,
    lie_algebra,
    lie_decode,
    lie_encode,
    lie_inversion_sandwich,
    oriented_contact,
    proportional,
)

alg = lie_algebra()
print("signature:", alg.signature())

# The four kinds of entities and their homogeneous coordinates.
for element in (LiePoint((0, 0, 0)),
                LieInfinity(),
                LieSphere((0, 0, 0), 1),
                LiePlane((0, 0, 1), 2)):
    c = lie_encode(element)
    print(f"{element!r:50} -> {tuple(str(x) for x in c.coords)}")
    assert lie_decode(c) == element

# Oriented contact: externally tangent spheres touch with matching
# orientations exactly when the radii carry opposite signs.
s1 = LieSphere((0, 0, 0), 1)
s2 = LieSphere((2, 0, 0), -1)
s3 = LieSphere((2, 0, 0), 1)
print("\nunit sphere vs (2,0,0) radius -1:", oriented_contact(s1, s2))
print("unit sphere vs (2,0,0) radius +1:", oriented_contact(s1, s3))

# A plane tangent to a sphere, orientation-sensitively.
plane = LiePlane((0, 0, -1), -1)   # the plane z = 1, oriented downward
print("plane z=1 (downward) vs unit sphere:", oriented_contact(plane, s1))
print("plane z=1 (upward) vs unit sphere:",
      oriented_contact(LiePlane((0, 0, 1), 1), s1))

# Inversions: the sandwich of an invertible vector moves quadric points to
# quadric points.
a = alg.vector([1, -1, 2, 0, 0, 3])
x = lie_encode(s1).to_multivector()
image = lie_inversion_sandwich(a, x)
print("\nimage of the unit sphere under an inversion:", image)
print("still on the quadric:", image.gp(image).is_zero())
print("decoded:", lie_decode(LieCoordinate(image.coordinates())))

# The vector above has cancelling first coordinates, so it fixes infinity:
infinity = lie_encode(LieInfinity()).to_multivector()
print("\nfixes infinity:", proportional(lie_inversion_sandwich(a, infinity), infinity))
print("is an affine (distance-preserving) generator:", is_laguerre(a))

b = alg.vector([1, 0, 0, 0, 0, 2])  # first coordinates do not cancel
print("generic inversion moves infinity:",
      proportional(lie_inversion_sandwich(b, infinity), infinity) is None)

# Versors of the sphere model factor into at most six inversions.
g = alg.scalar(1)
for coords in ([1, -1, 2, 0, 0, 3], [0, 1, 1, 0, 2, 0], [1, 0, 0, 1, 0, 1],
               [2, 1, 0, 0, 1, 0]):
    g = g.gp(alg.vector(coords))
factors = factorize_versor(g)
print(f"\na four-vector versor refactors into {len(factors)} inversions:")
for f in factors:
    print("  ", f)
prod = alg.scalar(1)
for f in factors:
    prod = prod.gp(f)
print("product proportional to the versor:", proportional(prod, g))
