"""Lines of projective 3-space as null vectors of a rank-6 quadric.

The coordinates (l01, l02, l03, l23, l31, l12) of a line satisfy
l01*l23 + l02*l31 + l03*l12 = 0, which is exactly the condition for the
corresponding vector of the algebra to square to zero.  Blades of higher
grade carve out the classical linear line manifolds.
"""

from exactga import (
    Blade,
    PluckerLine,
    classify_blade,
    ipns,
    is_null_blade,
    klein_algebra,
    opns,
)

alg = klein_algebra()
e = alg.e

# Two points span a line; its coordinates land exactly on the quadric.
line = PluckerLine.from_points([1, 0, 0, 1], [0, 2, 1, 0])
print("line through (1,0,0,1) and (0,2,1,0):", line.coords)
v = line.to_multivector()
print("its vector squares to:", v.gp(v))

# The same line via two planes that contain it.
u1 = line.plane_matrix().apply([1, 0, 0, 0])
u2 = line.plane_matrix().apply([0, 1, 0, 0])
again = PluckerLine.from_planes(u1, u2)
print("rebuilt from two of its planes:", again.coords)

# Wedging two lines gives a 2-blade; null means the whole span lies on the
# quadric, i.e. a pencil of lines through a common point in a common plane.
l1 = PluckerLine.from_points([1, 0, 0, 0], [0, 1, 0, 0]).to_multivector()
l2 = PluckerLine.from_points([1, 0, 0, 0], [0, 0, 1, 0]).to_multivector()
pencil = l1.wedge(l2)
print("\ntwo concurrent lines wedge to:", pencil)
print("null 2-blade?", is_null_blade(pencil))
result = classify_blade(pencil)
print("classified as:", result.tag.value, " vertex:", result.witness["vertex"])

# A non-null 2-blade meets the quadric in at most two lines.
pair = (e(1) + e(4)).wedge(e(1) - e(4))
result = classify_blade(pair)
print("\n(e1+e4)^(e1-e4):", result.tag.value, result.witness["lines"])

# Three concurrent lines span a bundle; three coplanar ones a field.
bundle = l1.wedge(l2).wedge(PluckerLine.from_points([1, 0, 0, 0], [0, 0, 0, 1]).to_multivector())
print("\nthree lines through one point:", classify_blade(bundle).tag.value)

# A generic 3-blade cuts a regulus (one family of rulings of a quadric).
regulus = (e(1) + e(4)).wedge(e(2) + e(5)).wedge(e(3) + e(6))
print("generic 3-blade:", classify_blade(regulus).tag.value)

# Outer and inner null spaces are exact linear subspaces.
blade = Blade(pencil, 2)
print("\nOPNS basis of the pencil blade:", [str(x) for x in opns(blade)])
print("IPNS dimension:", len(ipns(blade)))

# Grades 4 and 5 give congruences and complexes.
four = e(1).wedge(e(2)).wedge(e(4)).wedge(e(5))
five = e(1).wedge(e(2)).wedge(e(3)).wedge(e(4)).wedge(e(5))
print("\n4-blade:", classify_blade(four).tag.value)
cls5 = classify_blade(five)
print("5-blade:", cls5.tag.value, " axis:", cls5.witness["axis"],
      " special:", cls5.witness["special"])
