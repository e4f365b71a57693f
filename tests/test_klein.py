import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exactga.algebra import (
    AlgebraError,
    AlgebraMismatchError,
    NotAVersorError,
    Versor,
    proportional,
    sandwich,
)
from exactga.blades import Blade, BladeError
from exactga.klein import (
    ComplexRequiredError,
    ManifoldKind,
    NotLiftableError,
    NullPolarity,
    PluckerLine,
    ProjTransform4,
    Sandwich6,
    SingularTransformError,
    _cofactor_matrix,
    _table_transpose,
    bilinear,
    classify_blade,
    coefficient_vector,
    induced_line_map,
    klein_algebra,
    klein_form_value,
    multivector_from_coefficients,
    null_polarity_to_vector,
    proj_to_versor,
    vector_sandwich_matrix,
    vector_to_null_polarity,
    versor_to_proj,
)
from exactga.lie import lie_algebra
from exactga.linalg import Matrix, determinant, mat_mul, proportionality
from exactga.scalars import ComplexRational, ScalarError, as_scalar, scalar_sqrt
from helpers import (
    adjugate,
    naive_chain_product,
    published_table,
    rand_coefficient,
    rand_fraction,
    rand_invertible_vector,
    rand_null_line,
    rand_point,
    rand_versor,
)

KLEIN = klein_algebra()
E = KLEIN.e


# -- Pluecker embedding ------------------------------------------------------------

def test_plucker_axes():
    assert PluckerLine.from_points([1, 0, 0, 0], [0, 1, 0, 0]).coords == (1, 0, 0, 0, 0, 0)
    assert PluckerLine.from_points([1, 0, 0, 0], [0, 0, 1, 0]).coords == (0, 1, 0, 0, 0, 0)


def test_plucker_relation_random():
    rng = random.Random(1)
    for _ in range(50):
        p, q = rand_point(rng), rand_point(rng)
        try:
            line = PluckerLine.from_points(p, q)
        except AlgebraError:
            continue
        assert klein_form_value(line.coords) == 0
        v = line.to_multivector()
        assert v.gp(v).is_zero()


def test_plucker_rejects_dependent_points():
    with pytest.raises(AlgebraError):
        PluckerLine.from_points([1, 2, 3, 4], [2, 4, 6, 8])


def test_plucker_from_planes_matches_point_construction():
    # the x-axis as intersection of two coordinate planes
    line = PluckerLine.from_planes([0, 0, 1, 0], [0, 0, 0, 1])
    assert line.coords == (1, 0, 0, 0, 0, 0)


def test_line_incidence_helpers():
    l1 = PluckerLine.from_points([1, 0, 0, 0], [0, 1, 0, 0])
    l2 = PluckerLine.from_points([1, 0, 0, 0], [0, 0, 1, 0])
    skew = PluckerLine.from_points([0, 0, 1, 0], [0, 1, 0, 1])
    assert l1.meets(l2)
    assert not l1.meets(skew)
    pt = l1.intersection_point(l2)
    assert proportionality(Matrix.from_rows([list(pt)]),
                           Matrix.from_rows([[1, 0, 0, 0]])) is not None
    assert l1.contains_point([1, 0, 0, 0])
    assert not l1.contains_point([0, 0, 1, 0])


def test_contains_point_reads_four_coordinates():
    # a point is a coordinate list like every other: the characters of
    # "1000" or the keys of a mapping are not its coordinates
    line = PluckerLine.from_points([1, 0, 0, 0], [0, 1, 0, 0])
    assert line.contains_point(("1", 0, 0, 0)) and line.contains_point(iter([1, 1, 0, 0]))
    for bad in ("1000", "0010", {1: 1, 0: 0, 2: 0, 3: 0}, [1, 0, 0], [1, 0, 0, 0, 0]):
        with pytest.raises(AlgebraError, match="a point needs four homogeneous coordinates"):
            line.contains_point(bad)


# -- vector sandwich matrix ---------------------------------------------------------

def test_sandwich_matrix_columns_match_sandwich():
    rng = random.Random(2)
    for _ in range(15):
        a = rand_invertible_vector(rng, KLEIN)
        m = vector_sandwich_matrix(a).matrix
        for j in range(6):
            img = sandwich(a, KLEIN.mv({1 << j: 1}))
            assert m.col(j) == img.coordinates()


def test_sandwich_matrix_closed_form():
    rng = random.Random(3)
    for _ in range(15):
        a = rand_invertible_vector(rng, KLEIN)
        coords = a.coordinates()
        m = vector_sandwich_matrix(a).matrix
        qa = bilinear(a, a)
        for i in range(6):
            for j in range(6):
                partner = (j + 3) % 6
                expected = 2 * coords[i] * coords[partner] - (qa if i == j else 0)
                assert m[i, j] == expected


def test_sandwich_matrix_of_null_vector_is_degenerate():
    m = vector_sandwich_matrix(E(1)).matrix
    assert m.det() == 0
    # rank one: the only nonzero entry couples the paired coordinate
    assert [(i, j) for i in range(6) for j in range(6) if m[i, j]] == [(0, 3)]
    s = Sandwich6(m)
    assert s.similitude_ratio() == 0


def test_sandwich_matrix_of_zero_vector_is_zero():
    assert vector_sandwich_matrix(KLEIN.zero()).matrix.is_zero()


def test_quadric_invariance_of_sandwich():
    rng = random.Random(4)
    vectors = [rand_invertible_vector(rng, KLEIN) for _ in range(10)]
    for _ in range(40):
        line = rand_null_line(rng)
        x = line.to_multivector()
        for a in vectors[:5]:
            img = sandwich(a, x)
            assert img.gp(img).is_zero()


# -- null polarity tables --------------------------------------------------------------

def test_reference_polarities_exact(reference_factors, reference_polarities):
    actions = ["points", "planes"] * 3
    for vec, action, expected in zip(reference_factors, actions, reference_polarities):
        got = vector_to_null_polarity(vec, action)
        assert got.matrix == expected
        assert got.matrix.is_skew()


def test_polarity_skew_for_all_inputs():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_invertible_vector(rng, KLEIN)
        for action in ("points", "planes"):
            assert vector_to_null_polarity(a, action).matrix.is_skew()


def test_polarity_determinant_is_square_of_form():
    # det = q^2 for q = x1 x4 + x2 x5 + x3 x6 on int, Fraction and Gaussian
    # coordinates, null ones among them: a null vector's polarity is singular,
    # which is why verify_factorization needs no Klein form of its factors
    rng = random.Random("klein/polarity-determinant")
    nulls = 0
    for n in range(300):
        x = [rand_coefficient(rng, ("int", "fraction", "gaussian")[n % 3]) for _ in range(6)]
        if n % 4 == 3:  # solve q = 0 for x6
            x[2] = (x[2] or 1) * Fraction(1)  # an exact divisor, never an int
            x[5] = -(x[0] * x[3] + x[1] * x[4]) / x[2]
        q = x[0] * x[3] + x[1] * x[4] + x[2] * x[5]
        nulls += not q
        for action in ("points", "planes"):
            assert vector_to_null_polarity(KLEIN.vector(x), action).matrix.det() == q * q
    assert 75 <= nulls < 300


def test_proved_polarities_match_the_checked_constructor():
    # vector_to_null_polarity builds its matrix skew by construction and
    # skips the checks that the public constructor runs
    rng = random.Random("klein/proved-polarities")
    for n in range(100):
        coords = [rng.randint(-3, 3) for _ in range(6)]
        if n % 3 == 2:
            coords[rng.randrange(6)] = ComplexRational(rng.randint(-2, 2), rng.randint(1, 2))
        if n % 5 == 4:
            coords[rng.randrange(6)] = Fraction(rng.randint(-3, 3), 2)
        for action in ("points", "planes"):
            proved = vector_to_null_polarity(KLEIN.vector(coords), action)
            checked = NullPolarity(proved.matrix, action)
            assert proved == checked and type(proved) is NullPolarity
            assert proved.matrix.is_skew() and proved.to_json() == checked.to_json()


def test_null_polarity_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_invertible_vector(rng, KLEIN)
        for action in ("points", "planes"):
            np = vector_to_null_polarity(a, action)
            back = null_polarity_to_vector(np)
            assert proportional(back, a) is not None


def test_null_polarity_to_vector_examples(reference_polarities):
    m1 = NullPolarity(reference_polarities[0], "points")
    assert proportional(null_polarity_to_vector(m1), E(1) + E(4)) is not None
    m2 = NullPolarity(reference_polarities[1], "planes")
    assert proportional(null_polarity_to_vector(m2), 4 * E(2) + E(5)) is not None
    with pytest.raises(AlgebraError):
        null_polarity_to_vector(Matrix.zeros(4, 4), "points")


# -- versor coefficient tables -----------------------------------------------------------

def test_identity_versor_gives_identity_matrix():
    t = versor_to_proj(KLEIN.scalar(1), "points")
    assert proportionality(t.matrix, Matrix.identity(4)) is not None
    assert t.kind == "collineation"


def test_reference_versor_induces_reference_matrix(reference_versor, reference_matrix):
    t = versor_to_proj(reference_versor, "points")
    assert t.matrix == reference_matrix.scale(8)


def test_reference_partner_same_collineation(reference_versor, reference_versor_partner,
                                             reference_matrix):
    t = versor_to_proj(reference_versor_partner, "points")
    assert proportionality(t.matrix, reference_matrix) is not None
    j = KLEIN.pseudoscalar()
    assert proportional(j.gp(reference_versor_partner), reference_versor) is not None


def test_two_vector_versor_table_matches_composition():
    g = (E(1) + E(4)).gp(E(2) + E(5))
    t = versor_to_proj(g, "points")
    expected = Matrix.from_rows(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
    assert proportionality(t.matrix, expected) is not None
    composed = mat_mul(vector_to_null_polarity(E(1) + E(4), "planes").matrix,
                       vector_to_null_polarity(E(2) + E(5), "points").matrix)
    assert proportionality(t.matrix, composed) is not None


def test_table_multiplicativity_random():
    rng = random.Random(8)
    flip = {"points": "planes", "planes": "points"}
    for _ in range(12):
        k = rng.randint(2, 5)
        g, vectors = rand_versor(rng, KLEIN, k)
        for innermost in ("points", "planes"):
            # rightmost product factor acts first, with the innermost action
            chain = Matrix.identity(4)
            act = innermost
            for v in reversed(vectors):
                chain = mat_mul(vector_to_null_polarity(v, act).matrix, chain)
                act = flip[act]
            try:
                table = versor_to_proj(g, innermost)
            except NotAVersorError:
                continue
            assert proportionality(table.matrix, chain) is not None


def test_versor_points_planes_adjugate_relation():
    # the identity the lift inverts: Q(g) = +-adj(P(g))^T / sqrt(det P(g)), exactly
    rng = random.Random(9)
    parities = set()
    for _ in range(24):
        g, _ = rand_versor(rng, KLEIN, rng.randint(1, 6))
        try:
            pts = versor_to_proj(g, "points").matrix
            pls = versor_to_proj(g, "planes").matrix
        except (NotAVersorError, SingularTransformError):
            continue
        root = scalar_sqrt(pts.det())
        assert root is not None
        cofactors = adjugate(pts).transpose().scale(1 / root)
        assert pls in (cofactors, -cofactors)
        parities.add(g.parity())
    assert parities == {"even", "odd"}


def test_pseudoscalar_absorption():
    rng = random.Random(10)
    j = KLEIN.pseudoscalar()
    for _ in range(10):
        g, _ = rand_versor(rng, KLEIN, 2)
        try:
            a = versor_to_proj(g, "points").matrix
            b = versor_to_proj(j.gp(g), "points").matrix
        except (NotAVersorError, SingularTransformError):
            continue
        assert proportionality(a, b) is not None


def test_mixed_parity_rejected():
    with pytest.raises(NotAVersorError):
        versor_to_proj(KLEIN.scalar(1) + E(1), "points")


def _table_or_refusal(g, action, doubled):
    try:
        return versor_to_proj(g, action, m23_doubled=doubled).matrix
    except NotAVersorError:
        return "zero"
    except SingularTransformError:
        return "singular"


def test_tables_match_the_published_tables():
    # the tables derived from the six polarities against the hand-typed convention
    rng = random.Random("klein/published-tables")
    elements = []
    for parity in ("even", "odd"):
        masks = KLEIN.basis_masks(parity=parity)
        for k, (mask, row) in enumerate(zip(masks, _table_transpose(parity))):
            blade = KLEIN.mv({mask: 1})
            column = dict(row)
            stacked = (published_table(blade, "points").entries
                       + published_table(blade, "planes").entries)
            assert [column.get(r, 0) for r in range(32)] == list(stacked), (parity, k)
            elements.append(blade)
        for _ in range(16):
            picked = rng.sample(masks, rng.randint(1, len(masks)))
            elements.append(KLEIN.mv({m: ComplexRational(rand_fraction(rng), rand_fraction(rng))
                                      for m in picked}))
    regular = 0
    for g in elements:
        for action in ("points", "planes"):
            for doubled in (False, True):
                expected = published_table(g, action, doubled)
                if expected.is_zero():
                    expected = "zero"
                elif not expected.det():
                    expected = "singular"
                else:
                    regular += 1
                assert _table_or_refusal(g, action, doubled) == expected, (g, action, doubled)
    assert regular >= 4 * 32


# -- induced line maps ----------------------------------------------------------------------

def test_induced_map_identity():
    t = ProjTransform4(Matrix.identity(4), "collineation", "points")
    assert induced_line_map(t).matrix == Matrix.identity(6)


def test_induced_map_matches_point_mapping():
    rng = random.Random(11)
    for _ in range(8):
        g, _ = rand_versor(rng, KLEIN, 2)
        try:
            t = versor_to_proj(g, "points")
        except (NotAVersorError, SingularTransformError):
            continue
        G = induced_line_map(t).matrix
        for _ in range(5):
            p, q = rand_point(rng), rand_point(rng)
            try:
                line = PluckerLine.from_points(p, q)
            except AlgebraError:
                continue
            image = PluckerLine.from_points(t.matrix.apply(p), t.matrix.apply(q))
            assert G.apply(line.coords) == image.coords


def test_induced_map_of_polarity_matches_sandwich(reference_polarities):
    t = ProjTransform4(reference_polarities[0], "correlation", "points")
    G = induced_line_map(t).matrix
    S = vector_sandwich_matrix(E(1) + E(4)).matrix
    assert proportionality(G, S) is not None


KINDS_AND_ACTIONS = [(kind, action) for kind in ("collineation", "correlation")
                     for action in ("points", "planes")]


def test_induced_map_similitude_ratio_is_det():
    # lambda = det(t) on points and det(t)^3 on planes, for both kinds
    rng = random.Random(12)
    for _ in range(10):
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if not m.det():
            continue
        for kind, action in KINDS_AND_ACTIONS:
            t = ProjTransform4(m, kind, action)
            power = 1 if action == "points" else 3
            assert induced_line_map(t).similitude_ratio() == m.det() ** power


def test_proved_line_maps_match_the_checked_constructor():
    # induced_line_map and vector_sandwich_matrix pass the ratio they know in
    # closed form; the public constructor recomputes it from M^T Q M
    rng = random.Random("klein/proved-line-maps")
    maps = vectors = 0
    while maps < 100:
        entries = [rng.randint(-3, 3) for _ in range(16)]
        if maps % 5 == 4:  # a Gaussian entry, in every kind and action
            entries[rng.randrange(16)] = ComplexRational(rng.randint(-2, 2), rng.randint(1, 2))
        m = Matrix(4, 4, tuple(entries))
        if not m.det():
            continue
        kind, action = KINDS_AND_ACTIONS[maps % 4]
        coords = [rng.randint(-3, 3) for _ in range(6)]
        if maps % 3 == 2:
            coords[rng.randrange(6)] = ComplexRational(rng.randint(-2, 2), 1)
        for proved in (induced_line_map(ProjTransform4(m, kind, action)),
                       vector_sandwich_matrix(KLEIN.vector(coords))):
            checked = Sandwich6(proved.matrix)
            assert proved == checked
            assert proved.similitude_ratio() == checked.similitude_ratio()
            assert type(proved.similitude_ratio()) is type(checked.similitude_ratio())
            vectors += not proved.similitude_ratio()
        maps += 1
    assert vectors >= 1  # some vector is null, so its sandwich is degenerate


_ENTRY_KINDS = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(-3, 3, max_denominator=3),
    "gaussian": st.builds(ComplexRational, st.fractions(-2, 2, max_denominator=2),
                          st.integers(-2, 2)),
}


@st.composite
def _line_maps(draw):
    """A 6x6 matrix: a regular map's line map, a null or non-null vector's
    sandwich, each with entries of one kind, and sometimes one entry perturbed."""
    entry = _ENTRY_KINDS[draw(st.sampled_from(sorted(_ENTRY_KINDS)))]
    source = draw(st.sampled_from(("map", "null vector", "vector")))
    if source == "map":
        m = Matrix(4, 4, tuple(draw(st.lists(entry, min_size=16, max_size=16))))
        assume(m.det())
        matrix = induced_line_map(ProjTransform4(m, *draw(st.sampled_from(KINDS_AND_ACTIONS))))
    else:
        x = draw(st.lists(entry, min_size=6, max_size=6))
        if source == "null vector":  # x3 x6 = -(x1 x4 + x2 x5), with x3 nonzero
            x[2] = x[2] or 1
            x[5] = -(x[0] * x[3] + x[1] * x[4]) / as_scalar(x[2])
        matrix = vector_sandwich_matrix(KLEIN.vector(x))
    entries = list(matrix.matrix.entries)
    if draw(st.booleans()):
        entries[draw(st.integers(0, 35))] += draw(entry.filter(bool))
    return Matrix(6, 6, tuple(entries))


@settings(max_examples=60, deadline=None, database=None)
@given(_line_maps())
@example(induced_line_map(ProjTransform4(Matrix(4, 4, tuple(
    Fraction(i + 1, j + 2) ** (i == j) for i in range(4) for j in range(4))),
    "correlation", "planes")).matrix)
@example(vector_sandwich_matrix(E(1)).matrix)  # null: ratio 0
@example(Matrix(6, 6, (0,) * 35 + (1,)))  # M^T Q M zero
@example(Matrix(6, 6, tuple(int(k in (0, 18)) for k in range(36))))  # refused: M^T Q M = 2 E11
def test_checked_line_map_matches_the_product_with_the_form(matrix):
    # the Gram matrix of the columns under the form is M^T Q M, multiplied
    # here one entry at a time
    q = KLEIN.form
    pulled = Matrix.from_rows(naive_chain_product([matrix.transpose(), q, matrix], 6))
    expected = Fraction(0) if pulled.is_zero() else proportionality(pulled, q)
    if expected is None:
        with pytest.raises(AlgebraError, match="matrix does not preserve the quadric form"):
            Sandwich6(matrix)
    else:
        ratio = Sandwich6(matrix).similitude_ratio()
        assert ratio == expected and type(ratio) is type(expected)


def _pair_minor(a, b, i, j):
    return a[i] * b[j] - a[j] * b[i]


def adjugate_line_map(t: ProjTransform4) -> Matrix:
    """The line map pushed through spanning points: on planes, the points
    are the columns of adj(t)^T; a correlation swaps the coordinate halves."""
    pts = t.matrix if t.action == "points" else adjugate(t.matrix).transpose()
    pairs = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
    cols = []
    for i, j in pairs:
        minors = [_pair_minor(pts.col(i), pts.col(j), p, q) for p, q in pairs]
        cols.append(minors[3:] + minors[:3] if t.kind == "correlation" else minors)
    return Matrix.from_rows([[cols[c][r] for c in range(6)] for r in range(6)])


def test_induced_map_equals_adjugate_oracle_exactly():
    rng = random.Random(13)
    done = 0
    while done < 12:
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if not m.det():
            continue
        for kind, action in KINDS_AND_ACTIONS:
            t = ProjTransform4(m, kind, action)
            assert induced_line_map(t).matrix == adjugate_line_map(t)
        done += 1
    # complex entries take the same closed form
    m = Matrix.from_rows([["1i", 0, 3, 0], [1, 1, 0, "2-1i"], [1, 2, 1, 0], [1, 1, 2, 1]])
    for kind, action in KINDS_AND_ACTIONS:
        t = ProjTransform4(m, kind, action)
        assert induced_line_map(t).matrix == adjugate_line_map(t)


def test_cofactor_matrix_equals_adjugate_transpose():
    rng = random.Random(14)
    rows = [[["1i", 0, 3, 0], [1, 1, 0, "2-1i"], [1, 2, 1, 0], [1, 1, 2, 1]]]
    rows += [[[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)] for _ in range(12)]
    for r in rows:
        m = Matrix.from_rows(r)
        assert _cofactor_matrix(m) == adjugate(m).transpose()


def test_reference_matrix_determinant(reference_matrix):
    from helpers import cofactor_det

    assert cofactor_det(reference_matrix) == 4
    assert reference_matrix.det() == 4


def test_transform_keeps_its_determinant(reference_matrix):
    for kind, action in KINDS_AND_ACTIONS:
        t = ProjTransform4(reference_matrix, kind, action)
        assert t.determinant() == 4 and type(t.determinant()) is Fraction


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
_DETERMINANT_ENTRIES = {
    "int": st.integers(-4, 4),
    "fraction": _SMALL_FRACTIONS,
    "gaussian int": st.builds(ComplexRational, st.integers(-2, 2), st.integers(-2, 2)),
    "gaussian rational": st.builds(ComplexRational, _SMALL_FRACTIONS, _SMALL_FRACTIONS),
}


@st.composite
def _transform_matrices(draw):
    """A 4x4 matrix with entries of one kind, in one case of three a row repeated."""
    entry = _DETERMINANT_ENTRIES[draw(st.sampled_from(sorted(_DETERMINANT_ENTRIES)))]
    entries = draw(st.lists(entry, min_size=16, max_size=16))
    if draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(4)))[:2]
        entries[4 * j:4 * j + 4] = entries[4 * i:4 * i + 4]
    return Matrix(4, 4, tuple(entries))


@settings(max_examples=150, deadline=None, database=None)
@given(_transform_matrices(), st.sampled_from(KINDS_AND_ACTIONS))
@example(Matrix.from_rows([["1i", 0, 0, 0], [0, "1i", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         ("collineation", "points"))  # the imaginary part cancels: a Fraction
@example(Matrix.from_rows([["1/2+1i", 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]),
         ("correlation", "planes"))  # Fraction parts
def test_transform_determinant_matches_elimination(m, kind_action):
    # Klein's form of the column lines c0 c1 and c2 c3 against Bareiss
    # elimination: the same value in the same public type, and a zero one
    # refused as singular
    expected = determinant(m)
    if not expected:
        with pytest.raises(SingularTransformError, match="transform matrix is singular"):
            ProjTransform4(m, *kind_action)
        return
    det = ProjTransform4(m, *kind_action).determinant()
    assert det == expected and type(det) is type(expected)
    assert type(det) is Fraction or type(det.re) is type(det.im) is Fraction


def test_transform_refuses_float_and_boolean_entries():
    for bad in (0.5, 2.0, True):
        entries = (bad, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
        with pytest.raises(ScalarError):
            ProjTransform4(Matrix(4, 4, entries), "collineation", "points")


def test_induced_map_plane_collineation_geometric_oracle():
    rng = random.Random(16)
    for _ in range(6):
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if not m.det():
            continue
        t = ProjTransform4(m, "collineation", "planes")
        G = induced_line_map(t).matrix
        for _ in range(4):
            u, v = rand_point(rng), rand_point(rng)
            try:
                line = PluckerLine.from_planes(u, v)
                image = PluckerLine.from_planes(m.apply(u), m.apply(v))
            except AlgebraError:
                continue
            got = G.apply(line.coords)
            assert proportionality(Matrix.from_rows([list(got)]),
                                   Matrix.from_rows([list(image.coords)])) is not None


def test_induced_map_correlation_geometric_oracle():
    rng = random.Random(13)
    for _ in range(6):
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if not m.det():
            continue
        t = ProjTransform4(m, "correlation", "points")
        G = induced_line_map(t).matrix
        for _ in range(4):
            p, q = rand_point(rng), rand_point(rng)
            try:
                line = PluckerLine.from_points(p, q)
                image = PluckerLine.from_planes(m.apply(p), m.apply(q))
            except AlgebraError:
                continue
            assert G.apply(line.coords) == image.coords


def test_induced_map_composition_up_to_scale():
    rng = random.Random(14)
    for _ in range(6):
        g1, _ = rand_versor(rng, KLEIN, 2)
        g2, _ = rand_versor(rng, KLEIN, 2)
        try:
            t1 = versor_to_proj(g1, "points")
            t2 = versor_to_proj(g2, "points")
            t12 = versor_to_proj(g1.gp(g2), "points")
        except (NotAVersorError, SingularTransformError):
            continue
        lhs = induced_line_map(t12).matrix
        rhs = mat_mul(induced_line_map(t1).matrix, induced_line_map(t2).matrix)
        assert proportionality(lhs, rhs) is not None


# -- lifting ---------------------------------------------------------------------------------

def test_lift_reference_matrix(reference_matrix, reference_versor):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    versor = proj_to_versor(t)
    assert proportional(versor.value, reference_versor) is not None
    back = versor_to_proj(versor, "points")
    assert proportionality(back.matrix, reference_matrix) is not None
    assert versor.witness is not None and len(versor.witness) == 6


def test_lift_identity():
    t = ProjTransform4(Matrix.identity(4), "collineation", "points")
    versor = proj_to_versor(t)
    assert versor.value.is_scalar()
    assert versor.witness == ()


def test_lift_single_polarity(reference_polarities):
    t = ProjTransform4(reference_polarities[0], "correlation", "points")
    versor = proj_to_versor(t)
    assert proportional(versor.value, E(1) + E(4)) is not None


def test_lift_complex_variant(complex_variant_matrix):
    t = ProjTransform4(complex_variant_matrix, "collineation", "points")
    with pytest.raises(ComplexRequiredError) as excinfo:
        proj_to_versor(t, "rational")
    assert excinfo.value.diagnosis["reason"] == "negative-ratio"
    versor = proj_to_versor(t, "complex")
    back = versor_to_proj(versor, "points")
    assert proportionality(back.matrix, complex_variant_matrix) is not None


def test_lift_irrational_scale_refused():
    m = Matrix.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    t = ProjTransform4(m, "collineation", "points")
    with pytest.raises(NotLiftableError):
        proj_to_versor(t)
    with pytest.raises(NotLiftableError):
        proj_to_versor(t, "complex")


def test_lift_round_trip_random():
    rng = random.Random(15)
    done = 0
    while done < 8:
        k = rng.choice([2, 4])
        g, _ = rand_versor(rng, KLEIN, k)
        try:
            t = versor_to_proj(g, "points")
        except (NotAVersorError, SingularTransformError):
            continue
        lifted = proj_to_versor(t)
        back = versor_to_proj(lifted, "points")
        assert proportionality(back.matrix, t.matrix) is not None
        assert proportional(lifted.value, g) is not None or proportional(
            lifted.value, KLEIN.pseudoscalar().gp(g)) is not None
        done += 1


def test_singular_matrix_rejected():
    with pytest.raises(SingularTransformError):
        ProjTransform4(Matrix.zeros(4, 4), "collineation", "points")


# -- manifold classification -------------------------------------------------------------------

def test_classify_null_two_blade_pencil():
    result = classify_blade(Blade(E(1).wedge(E(2)), 2))
    assert result.tag is ManifoldKind.PENCIL
    vertex = result.witness["vertex"]
    assert proportionality(Matrix.from_rows([list(vertex)]),
                           Matrix.from_rows([[1, 0, 0, 0]])) is not None


def test_classify_nonnull_two_blade_line_pair():
    blade = Blade((E(1) + E(4)).wedge(E(2) + E(5)), 2)
    result = classify_blade(blade)
    assert result.tag is ManifoldKind.LINE_PAIR
    assert result.witness["real"] is False  # conjugate complex pair


def test_classify_real_line_pair_has_witness_lines():
    blade = Blade((E(1) + E(4)).wedge(E(1) - E(4)), 2)
    result = classify_blade(blade)
    assert result.tag is ManifoldKind.LINE_PAIR
    assert result.witness["real"] is True
    lines = result.witness["lines"]
    assert len(lines) == 2
    for coords in lines:
        assert klein_form_value(coords) == 0


def test_classify_tangent_two_blade_single_line():
    # span of a null vector and an orthogonal non-null vector touches the
    # quadric in exactly one line
    u, v = E(1), E(2) + E(5)
    assert bilinear(u, v) == 0
    result = classify_blade(Blade(u.wedge(v), 2))
    assert result.tag is ManifoldKind.SINGLE_LINE
    assert tuple(result.witness["line"]) == u.coordinates()


def test_classify_bundle():
    result = classify_blade(Blade(E(1).wedge(E(2)).wedge(E(3)), 3))
    assert result.tag is ManifoldKind.BUNDLE
    vertex = result.witness["vertex"]
    assert proportionality(Matrix.from_rows([list(vertex)]),
                           Matrix.from_rows([[1, 0, 0, 0]])) is not None


def test_classify_field():
    # lines joining pairs of the base points of a plane all lie in it
    l1 = PluckerLine.from_points([1, 0, 0, 0], [0, 1, 0, 0])
    l2 = PluckerLine.from_points([1, 0, 0, 0], [0, 0, 1, 0])
    l3 = PluckerLine.from_points([0, 1, 0, 0], [0, 0, 1, 0])
    blade = (l1.to_multivector().wedge(l2.to_multivector())
             .wedge(l3.to_multivector()))
    result = classify_blade(Blade(blade, 3))
    assert result.tag is ManifoldKind.FIELD


def test_classify_regulus():
    blade = (E(1) + E(4)).wedge(E(2) + E(5)).wedge(E(3) + E(6))
    assert classify_blade(Blade(blade, 3)).tag is ManifoldKind.REGULUS


def test_classify_rank_one_three_blade_is_pencil():
    # radical span{e1, e2}; the section is exactly that pencil
    blade = E(1).wedge(E(2)).wedge(E(3) + E(6))
    result = classify_blade(Blade(blade, 3))
    assert result.tag is ManifoldKind.PENCIL
    assert proportionality(Matrix.from_rows([list(result.witness["vertex"])]),
                           Matrix.from_rows([[1, 0, 0, 0]])) is not None


def test_classify_rank_two_three_blade_degenerate():
    # radical is one null line; the plane touches the quadric along pencils
    blade = E(1).wedge(E(2) + E(5)).wedge(E(2) - E(5))
    result = classify_blade(Blade(blade, 3))
    assert result.tag is ManifoldKind.EMPTY_DEGENERATE
    assert result.witness["gram_rank"] == 2
    assert klein_form_value(result.witness["common_line"]) == 0


def test_classify_congruence_and_complex():
    four = E(1).wedge(E(2)).wedge(E(4)).wedge(E(5))
    assert classify_blade(Blade(four, 4)).tag is ManifoldKind.LINEAR_CONGRUENCE
    five = E(1).wedge(E(2)).wedge(E(3)).wedge(E(4)).wedge(E(5))
    result = classify_blade(Blade(five, 5))
    assert result.tag is ManifoldKind.LINEAR_COMPLEX
    assert "axis" in result.witness


def test_classify_rejects_non_blades():
    # a 4-vector whose outer null space span{e3, e4} has dimension 2
    with pytest.raises(BladeError):
        classify_blade(E(1, 2, 3, 4) + E(3, 4, 5, 6))


def test_classify_rejects_bad_grades():
    with pytest.raises(AlgebraError):
        classify_blade(Blade(E(1), 1))
    with pytest.raises(AlgebraError):
        classify_blade(KLEIN.pseudoscalar())


# -- serialization ----------------------------------------------------------------------------

def test_transform_json_roundtrip(reference_matrix):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    assert ProjTransform4.from_json(t.to_json()) == t


def test_polarity_json_roundtrip(reference_polarities):
    p = NullPolarity(reference_polarities[2], "points")
    data = p.to_json()
    assert data["skew"] is True
    assert NullPolarity.from_json(data) == p


def test_klein_entry_points_refuse_sphere_elements():
    sphere = lie_algebra()
    with pytest.raises(AlgebraMismatchError):
        versor_to_proj(sphere.e(1, 2) + 3, "points")
    with pytest.raises(AlgebraMismatchError):
        vector_to_null_polarity(sphere.e(1), "points")
    with pytest.raises(AlgebraMismatchError):
        coefficient_vector(sphere.e(1, 2) + 3, "even")
    with pytest.raises(AlgebraMismatchError):
        vector_sandwich_matrix(sphere.e(1))


def test_coefficient_vector_roundtrip(reference_versor):
    coeffs = coefficient_vector(reference_versor, "even")
    assert multivector_from_coefficients(coeffs, "even") == reference_versor
