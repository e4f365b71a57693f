import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactga.algebra import AlgebraError, proportional, sandwich
from exactga.factorize import factorize_versor
from exactga.lie import (
    LieCoordinate,
    LieInfinity,
    LiePlane,
    LiePoint,
    LieSphere,
    is_laguerre,
    lie_algebra,
    lie_decode,
    lie_element_from_json,
    lie_encode,
    lie_inversion_sandwich,
    oriented_contact,
)
from exactga.scalars import ComplexRational
from helpers import (
    public_lie_encode,
    public_lie_form,
    rand_fraction,
    rand_unit_normal,
    rand_versor,
    stored_types,
)

ALG = lie_algebra()
E = ALG.e


def rand_sphere(rng):
    return LieSphere(tuple(rand_fraction(rng, 4) for _ in range(3)),
                     rand_fraction(rng, 4))


# -- encoding ---------------------------------------------------------------------

def test_encode_known_values():
    assert lie_encode(LiePoint((0, 0, 0))).coords == (
        Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0)
    assert lie_encode(LieInfinity()).coords == (1, -1, 0, 0, 0, 0)
    assert lie_encode(LieSphere((0, 0, 0), 1)).coords == (0, 1, 0, 0, 0, 1)


def test_encode_lands_on_quadric():
    rng = random.Random(1)
    for _ in range(40):
        for element in (
            LiePoint(tuple(rand_fraction(rng, 4) for _ in range(3))),
            LieInfinity(),
            rand_sphere(rng),
            LiePlane(rand_unit_normal(rng), rand_fraction(rng, 4)),
        ):
            assert lie_encode(element).on_quadric()


def test_plane_with_non_unit_normal_is_off_quadric():
    c = lie_encode(LiePlane((2, 0, 0), 1))
    assert not c.on_quadric()


# -- decoding ---------------------------------------------------------------------

def test_decode_known_values():
    assert lie_decode(LieCoordinate((1, -1, 0, 0, 0, 0))) == LieInfinity()
    assert lie_decode(LieCoordinate((0, 1, 0, 0, 0, 1))) == LieSphere((0, 0, 0), 1)
    assert lie_decode(LieCoordinate((Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0))) \
        == LiePoint((0, 0, 0))


def test_decode_normalizes_homogeneous_scale():
    c = lie_encode(LieSphere((1, 2, 3), Fraction(5, 2)))
    scaled = LieCoordinate(tuple(x * Fraction(-7, 3) for x in c.coords))
    assert lie_decode(scaled) == LieSphere((1, 2, 3), Fraction(5, 2))


def test_decode_encode_round_trip():
    rng = random.Random(2)
    elements = [LiePoint((1, -2, Fraction(1, 3))), LieInfinity(),
                LieSphere((0, 1, 0), -3),
                LiePlane(rand_unit_normal(rng), Fraction(7, 5))]
    for element in elements:
        assert lie_decode(lie_encode(element)) == element


def test_encode_decode_round_trip_on_quadric_points():
    rng = random.Random(3)
    for _ in range(25):
        c = lie_encode(rand_sphere(rng))
        again = lie_encode(lie_decode(c))
        assert proportional(c.to_multivector(), again.to_multivector()) is not None


def test_decode_flags_non_unit_plane():
    plane = lie_decode(LieCoordinate((1, -1, 2, 0, 0, 1)))
    assert isinstance(plane, LiePlane)
    assert not plane.has_unit_normal
    unit = lie_decode(lie_encode(LiePlane((1, 0, 0), 4)))
    assert unit.has_unit_normal


def test_decode_rejects_off_quadric():
    with pytest.raises(AlgebraError):
        lie_decode(LieCoordinate((1, 1, 1, 1, 1, 1)))
    with pytest.raises(AlgebraError):
        lie_decode(LieCoordinate((1, -1, 1, 0, 0, 0)))


# -- oriented contact ----------------------------------------------------------------

def test_contact_known_pair():
    s1 = LieSphere((0, 0, 0), 1)
    s2 = LieSphere((2, 0, 0), -1)
    s3 = LieSphere((3, 0, 0), 1)
    assert oriented_contact(s1, s2)
    assert not oriented_contact(s1, s3)


def test_contact_with_self():
    rng = random.Random(4)
    for _ in range(10):
        s = rand_sphere(rng)
        assert oriented_contact(s, s)


def test_contact_matches_tangency_oracle():
    rng = random.Random(5)
    for _ in range(200):
        s1, s2 = rand_sphere(rng), rand_sphere(rng)
        d = [a - b for a, b in zip(s1.center, s2.center)]
        dist2 = sum(x * x for x in d)
        tangent = dist2 == (s1.radius - s2.radius) ** 2
        assert oriented_contact(s1, s2) == tangent


def test_point_on_sphere_is_contact():
    # a point is a zero-radius sphere; contact means incidence
    s = LieSphere((0, 0, 0), 5)
    p_on = LiePoint((3, 4, 0))
    p_off = LiePoint((1, 1, 1))
    assert oriented_contact(s, p_on)
    assert not oriented_contact(s, p_off)


def test_plane_contact_with_sphere():
    # the plane z = 1 touches the unit sphere at the north pole; contact
    # additionally needs compatible orientations, here normal (0,0,-1)
    plane = LiePlane((0, 0, -1), -1)
    assert oriented_contact(plane, LieSphere((0, 0, 0), 1))
    assert not oriented_contact(plane, LieSphere((0, 0, 0), 2))
    # the same unoriented plane with the opposite normal fails the check
    assert not oriented_contact(LiePlane((0, 0, 1), 1), LieSphere((0, 0, 0), 1))
    assert oriented_contact(LiePlane((0, 0, 1), 1), LieSphere((0, 0, 0), -1))


def test_contact_rejects_off_quadric():
    with pytest.raises(AlgebraError):
        oriented_contact(LiePlane((2, 0, 0), 1), LieSphere((0, 0, 0), 1))


# -- the integer representative against the public-scalar formulas ------------------

_rationals = st.fractions(-12, 12, max_denominator=6)
_gaussians = st.builds(ComplexRational, _rationals, _rationals)


@st.composite
def _unit_normals(draw):
    # the stereographic parameterization, as in helpers.rand_unit_normal
    a, b = draw(_rationals), draw(_rationals)
    d = 1 + a * a + b * b
    return (2 * a / d, 2 * b / d, (1 - a * a - b * b) / d)


@st.composite
def _element_pairs(draw):
    """Two elements of rational or Gaussian-rational scalars; in a third of
    the draws a sphere and a sphere it touches, whose centers lie
    |r1 - r2| apart along a unit vector."""
    scalar = draw(st.sampled_from((_rationals, st.one_of(_rationals, _gaussians))))
    triple = st.tuples(scalar, scalar, scalar)
    if draw(st.integers(0, 2)) == 0:
        p, r, s, u = draw(triple), draw(scalar), draw(scalar), draw(_unit_normals())
        return LieSphere(p, r), LieSphere([x + (r - s) * y for x, y in zip(p, u)], s)
    elements = st.one_of(
        st.builds(LiePoint, triple),
        st.builds(LieSphere, triple, scalar),
        st.builds(LiePlane, _unit_normals(), scalar),
        st.builds(LiePlane, triple.filter(any), scalar),
        st.just(LieInfinity()))
    return draw(elements), draw(elements)


@settings(max_examples=50, deadline=None, database=None)
@given(_element_pairs(), st.one_of(_rationals, _gaussians).filter(bool),
       st.one_of(_rationals, _gaussians).filter(bool))
def test_sphere_model_matches_the_public_scalar_oracle(pair, f1, f2):
    # the integer representatives give the stored coordinates of the
    # Fraction formulas, and the quadric, contact and the off-quadric
    # refusal of Lie's form on public scalars, at any nonzero scale
    encoded = [lie_encode(element) for element in pair]
    for element, c in zip(pair, encoded):
        assert stored_types(c.coords) == stored_types(public_lie_encode(element))
    scaled = [LieCoordinate(tuple(f * x for x in c.coords)) for f, c in zip((f1, f2), encoded)]
    for a, b in (encoded, scaled, (scaled[0], encoded[0]), (encoded[1], scaled[0])):
        on = [public_lie_form(c.coords, c.coords) == 0 for c in (a, b)]
        assert [a.on_quadric(), b.on_quadric()] == on
        if all(on):
            assert oriented_contact(a, b) == (public_lie_form(a.coords, b.coords) == 0)
        else:
            with pytest.raises(AlgebraError, match="oriented contact needs quadric points"):
                oriented_contact(a, b)


# -- inversions and the affine subgroup ------------------------------------------------

def test_inversion_matches_reflection_formula():
    rng = random.Random(6)
    for _ in range(20):
        coords = [rng.randint(-3, 3) for _ in range(6)]
        a = ALG.vector(coords)
        if not a.gp(a).scalar_part():
            continue
        x = ALG.vector([rng.randint(-3, 3) for _ in range(6)])
        got = lie_inversion_sandwich(a, x)
        qa = a.gp(a).scalar_part()
        bax = (a.gp(x) + x.gp(a)).scalar_part() / 2
        assert got == a * (2 * bax) - x * qa


def test_laguerre_condition():
    assert is_laguerre(E(1) - E(2) + E(3))
    assert not is_laguerre(E(1))
    assert is_laguerre(2 * E(1) - 2 * E(2) + 5 * E(6))


def test_laguerre_vectors_fix_infinity():
    rng = random.Random(7)
    infinity = lie_encode(LieInfinity()).to_multivector()
    for _ in range(30):
        coords = [rng.randint(-4, 4) for _ in range(6)]
        coords[1] = -coords[0]
        a = ALG.vector(coords)
        if not a.gp(a).scalar_part():
            continue
        image = lie_inversion_sandwich(a, infinity)
        assert proportional(image, infinity) is not None


def test_single_generator_inversion_fixes_infinity():
    # e3 has cancelling first coordinates trivially
    infinity = lie_encode(LieInfinity()).to_multivector()
    image = lie_inversion_sandwich(E(3), infinity)
    assert proportional(image, infinity) is not None


def test_non_laguerre_vector_moves_infinity():
    infinity = lie_encode(LieInfinity()).to_multivector()
    a = E(1) + 2 * E(3)  # a1 + a2 = 1
    image = lie_inversion_sandwich(a, infinity)
    assert proportional(image, infinity) is None


def test_laguerre_products_fix_infinity():
    rng = random.Random(8)
    infinity = lie_encode(LieInfinity()).to_multivector()
    done = 0
    while done < 15:
        coords = [rng.randint(-3, 3) for _ in range(6)]
        coords[1] = -coords[0]
        a = ALG.vector(coords)
        coords = [rng.randint(-3, 3) for _ in range(6)]
        coords[1] = -coords[0]
        b = ALG.vector(coords)
        if not a.gp(a).scalar_part() or not b.gp(b).scalar_part():
            continue
        image = sandwich(a.gp(b), infinity)
        assert proportional(image, infinity) is not None
        done += 1


def test_sandwich_preserves_quadric():
    rng = random.Random(9)
    done = 0
    while done < 100:
        s = rand_sphere(rng)
        x = lie_encode(s).to_multivector()
        coords = [rng.randint(-3, 3) for _ in range(6)]
        a = ALG.vector(coords)
        if not a.gp(a).scalar_part():
            continue
        img = lie_inversion_sandwich(a, x)
        assert img.gp(img).is_zero()
        done += 1


# -- factorization -------------------------------------------------------------------------

def test_factorize_scalar():
    assert factorize_versor(ALG.scalar(2)) == []


def test_factorize_two_vectors():
    rng = random.Random(10)
    g, _ = rand_versor(rng, ALG, 2)
    factors = factorize_versor(g)
    assert len(factors) == 2
    prod = ALG.scalar(1)
    for f in factors:
        prod = prod.gp(f)
    assert proportional(prod, g) is not None


def test_factorize_six_vectors_bound():
    rng = random.Random(11)
    for _ in range(5):
        g, _ = rand_versor(rng, ALG, 6)
        factors = factorize_versor(g)
        assert len(factors) <= 6
        prod = ALG.scalar(1)
        for f in factors:
            prod = prod.gp(f)
        assert proportional(prod, g) is not None


# -- serialization ----------------------------------------------------------------------------

def test_element_json_round_trip():
    elements = [LiePoint((1, 2, 3)), LieInfinity(),
                LieSphere((Fraction(1, 2), 0, -1), Fraction(-3, 4)),
                LiePlane((0, 0, 1), 5)]
    for element in elements:
        assert lie_element_from_json(element.to_json()) == element
