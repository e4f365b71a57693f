import hashlib
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactga.algebra import (
    Algebra,
    AlgebraError,
    AlgebraMismatchError,
    DegenerateFormError,
    Multivector,
    NotAVersorError,
    NullVersorError,
    Versor,
    proportional,
    sandwich,
)
from exactga.klein import bilinear, klein_algebra
from exactga.lie import lie_algebra
from exactga.linalg import Matrix, rank
from exactga.scalars import ComplexRational, ScalarError
from helpers import (
    ORACLE_ALGEBRAS,
    descartes_signature,
    orthogonal_oracle_gp,
    per_term_gp,
    per_term_inner,
    per_term_wedge,
    rand_coefficient,
    rand_multivector,
    rand_vector,
)

KLEIN = klein_algebra()
E = KLEIN.e


def diag_algebra(*diag):
    n = len(diag)
    return Algebra(Matrix.from_rows(
        [[Fraction(diag[i] if i == j else 0) for j in range(n)] for i in range(n)]))


# -- generator relations -------------------------------------------------------

def test_generator_relations_klein():
    for i in range(6):
        for j in range(6):
            ei = KLEIN.mv({1 << i: 1})
            ej = KLEIN.mv({1 << j: 1})
            lhs = ei.gp(ej) + ej.gp(ei)
            assert lhs == KLEIN.scalar(2 * KLEIN.metric(i, j))


def test_generator_relations_lie():
    alg = lie_algebra()
    for i in range(6):
        for j in range(6):
            ei = alg.mv({1 << i: 1})
            ej = alg.mv({1 << j: 1})
            assert ei.gp(ej) + ej.gp(ei) == alg.scalar(2 * alg.metric(i, j))


def test_basic_products():
    assert E(1).gp(E(1)).is_zero()
    assert E(1).gp(E(2)) == E(1, 2)
    # hyperbolic pair: the product picks up the scalar contraction
    assert E(1).gp(E(4)) == KLEIN.scalar(1) + E(1, 4)


def test_vector_square_matches_form():
    rng = random.Random(2)
    for _ in range(30):
        v = rand_vector(rng, KLEIN)
        sq = v.gp(v)
        assert sq.is_scalar()
        assert sq.scalar_part() == bilinear(v, v)


# -- outer and inner products ---------------------------------------------------

def test_wedge_antisymmetry_and_examples():
    assert E(1).wedge(E(1)).is_zero()
    assert E(1).wedge(E(4)) == E(1, 4)
    lhs = (E(1) + E(4)).wedge(E(2) + E(5))
    assert lhs == E(1, 2) + E(1, 5) - E(2, 4) + E(4, 5)


def test_wedge_is_top_grade_of_gp():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_multivector(rng, KLEIN, grades={1})
        b = rand_multivector(rng, KLEIN, grades={2})
        if a.is_zero() or b.is_zero():
            continue
        assert a.wedge(b) == a.gp(b).grade(3)


def test_inner_product_on_vectors_is_the_form():
    assert E(1).inner(E(4)) == KLEIN.scalar(1)
    assert E(1).inner(E(2)).is_zero()
    rng = random.Random(4)
    for _ in range(20):
        a, b = rand_vector(rng, KLEIN), rand_vector(rng, KLEIN)
        assert a.inner(b) == KLEIN.scalar(bilinear(a, b))


def test_inner_with_pseudoscalar():
    got = E(1).inner(KLEIN.pseudoscalar())
    assert got.grades() == {5}
    # direct product then projection agrees
    assert got == E(1).gp(KLEIN.pseudoscalar()).grade(5)


def test_gp_decomposes_on_vectors():
    rng = random.Random(5)
    for _ in range(30):
        a, b = rand_vector(rng, KLEIN), rand_vector(rng, KLEIN)
        assert a.gp(b) == a.inner(b) + a.wedge(b)


# -- grade projection -------------------------------------------------------------

def test_grade_projection():
    x = KLEIN.scalar(5) + 3 * E(1, 2)
    assert x.grade(0) == KLEIN.scalar(5)
    assert x.grade(2) == 3 * E(1, 2)
    assert x.grade(4).is_zero()
    with pytest.raises(AlgebraError):
        x.grade(7)


# -- involutions -------------------------------------------------------------------

def test_conjugation_values():
    assert KLEIN.scalar(5).conjugate() == KLEIN.scalar(5)
    assert E(1).conjugate() == -E(1)
    assert E(1, 2).conjugate() == -E(1, 2)
    assert E(1, 2, 3).conjugate() == E(1, 2, 3)


def test_main_involution_values():
    assert E(1).involute() == -E(1)
    assert E(1, 2).involute() == E(1, 2)
    x = KLEIN.scalar(1) + E(1) + E(1, 2)
    assert x.involute() == KLEIN.scalar(1) - E(1) + E(1, 2)


def test_involution_properties_random():
    rng = random.Random(6)
    for _ in range(25):
        a = rand_multivector(rng, KLEIN)
        b = rand_multivector(rng, KLEIN)
        assert a.gp(b).conjugate() == b.conjugate().gp(a.conjugate())
        assert a.gp(b).involute() == a.involute().gp(b.involute())
        assert a.conjugate().involute() == a.involute().conjugate()
        assert a.conjugate().conjugate() == a


@pytest.mark.parametrize("alg", [KLEIN, lie_algebra()], ids=["klein", "lie"])
def test_reverse_properties_random(alg):
    # each basis blade reverses to the wedge of its generators in reverse order
    for mask in alg.basis_masks():
        gens = [alg.e(i + 1) for i in range(alg.dim) if mask >> i & 1]
        product = alg.scalar(1)
        for g in reversed(gens):
            product = product.wedge(g)
        assert alg.mv({mask: 1}).reverse() == product
    rng = random.Random(9)
    for _ in range(25):
        a = rand_multivector(rng, alg, 6)
        b = rand_multivector(rng, alg, 6)
        assert a.gp(b).reverse() == b.reverse().gp(a.reverse())
        assert a.conjugate() == a.involute().reverse()


# -- associativity and the diagonal-basis oracle --------------------------------------

def test_associativity_random():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_multivector(rng, KLEIN)
        b = rand_multivector(rng, KLEIN)
        c = rand_multivector(rng, KLEIN)
        assert a.gp(b).gp(c) == a.gp(b.gp(c))


def test_orthogonal_basis_oracle_agreement():
    rng = random.Random(8)
    for _ in range(25):
        a = rand_multivector(rng, KLEIN, n_terms=5)
        b = rand_multivector(rng, KLEIN, n_terms=5)
        assert a.gp(b) == orthogonal_oracle_gp(a, b)


def test_generalized_products_against_oracle():
    # for homogeneous operands the outer and inner products are the extreme
    # grade parts of the product; check both against the independent oracle
    rng = random.Random(18)
    for _ in range(40):
        ka, kb = rng.randint(0, 6), rng.randint(0, 6)
        a = rand_multivector(rng, KLEIN, n_terms=3, grades={ka})
        b = rand_multivector(rng, KLEIN, n_terms=3, grades={kb})
        if a.is_zero() or b.is_zero():
            continue
        oracle = orthogonal_oracle_gp(a, b)
        if ka + kb <= 6:
            assert a.wedge(b) == oracle.grade(ka + kb)
        else:
            assert a.wedge(b).is_zero()
        assert a.inner(b) == oracle.grade(abs(ka - kb))


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_products_match_the_per_term_oracles(name):
    """gp, wedge and inner equal their one-multiplication-per-pair forms, as JSON."""
    alg = ORACLE_ALGEBRAS[name]
    rng = random.Random(f"algebra/products/{name}")
    masks = alg.basis_masks()
    oracles = {"gp": per_term_gp, "wedge": per_term_wedge, "inner": per_term_inner}
    nonzero = dict.fromkeys(oracles, 0)
    for kind in ("int", "fraction", "gaussian", "gaussian-rational"):
        # mixed-grade operands, some real and some not, and the zero multivector
        operands = [alg.zero()] + [
            alg.mv({rng.choice(masks): rand_coefficient(rng, rng.choice(("int", kind)))
                    for _ in range(rng.randint(1, 6))}) for _ in range(12)]
        for x in operands:
            for y in [operands[0]] + rng.sample(operands, 4):
                for product, oracle in oracles.items():
                    got = getattr(x, product)(y)
                    assert got.to_json() == oracle(x, y).to_json()
                    nonzero[product] += not got.is_zero()
    assert min(nonzero.values()) >= 50


# SHA-256 of repr([blade_gp(a, b) for a in masks for b in masks]), masks in
# basis_masks() order: every entry, its term order and its scalar types
BLADE_GP_DIGESTS = {
    "degenerate": "2114268c06b0e05a3ce01b6f5661dc5405c747e4afdec83993b2e7ee2b86a92e",
    "dense": "de6d9bbb7886538c3428b264e0cdb70f61fbf5a14cd691bab2aad727121791e6",
    "klein": "8bd0905d4f11d44f5ce92b57871ebc8ef1133c770c75cb7e8e9e7119a7560eaa",
    "lie": "c1ed0c48e953cd8543bac72205c1e1f028c712f55878aee3b5123ccb98238668",
}


def test_blade_gp_tables_are_pinned():
    for name, form_alg in sorted(ORACLE_ALGEBRAS.items()):
        alg = Algebra(form_alg.form)  # empty tables, so this builds every entry
        masks = alg.basis_masks()
        entries = [alg.blade_gp(a, b) for a in masks for b in masks]
        assert hashlib.sha256(repr(entries).encode()).hexdigest() == BLADE_GP_DIGESTS[name]
    # a seeded sample of the Klein table against the orthogonal-basis product
    rng = random.Random("algebra/blade-gp-sample")
    masks = KLEIN.basis_masks()
    for a, b in rng.sample([(a, b) for a in masks for b in masks], 1000):
        assert KLEIN.mv(dict(KLEIN.blade_gp(a, b))) == orthogonal_oracle_gp(
            KLEIN.mv({a: 1}), KLEIN.mv({b: 1}))


@pytest.mark.parametrize("builder", ["blade_gp", "blade_wedge", "blade_inner"])
def test_blade_builders_refuse_masks_outside_the_algebra(builder):
    alg = Algebra(KLEIN.form)
    rows = {"blade_gp": alg._gp_rows, "blade_wedge": alg._wedge_rows,
            "blade_inner": alg._inner_rows}[builder]
    build = getattr(alg, builder)
    for a, b, bad in ((64, 0, 64), (64, 1, 64), (0, 64, 64), (-1, 0, -1), (1, -3, -3)):
        with pytest.raises(AlgebraError) as caught:
            build(a, b)
        assert type(caught.value) is AlgebraError
        assert str(caught.value) == f"mask {bad} outside the algebra"
    assert not rows  # nothing cached, not even an empty row
    assert build(1, 2) is rows[1][2]  # in range, an entry is built and cached


# -- norms and inverses ------------------------------------------------------------------

def test_norm_examples():
    assert KLEIN.scalar(1).norm() == 1
    assert E(1).norm() == 0
    v = E(1) + E(4)
    assert v.norm() == -2  # -b(v, v) with b(v, v) = 2
    rng = random.Random(9)
    for _ in range(20):
        w = rand_vector(rng, KLEIN)
        assert w.norm() == -bilinear(w, w)


def test_norm_rejects_non_versors():
    with pytest.raises(NotAVersorError):
        (KLEIN.scalar(1) + E(1, 2, 3, 4)).norm()


def test_versor_inverse():
    assert KLEIN.scalar(1).inverse() == KLEIN.scalar(1)
    v = E(1) + E(4)
    inv = v.inverse()
    assert v.gp(inv) == KLEIN.scalar(1)
    assert inv.gp(v) == KLEIN.scalar(1)
    assert inv == v * Fraction(1, 2)
    with pytest.raises(NullVersorError):
        E(1).inverse()


# -- sandwich ---------------------------------------------------------------------------------

def test_sandwich_values():
    a = E(1) + E(4)
    assert sandwich(a, E(1)) == 2 * E(4)
    assert sandwich(a, E(2)) == -2 * E(2)
    x = rand_multivector(random.Random(10), KLEIN)
    assert sandwich(KLEIN.scalar(1), x) == x


def test_sandwich_preserves_grade_for_versors():
    rng = random.Random(11)
    from helpers import rand_versor

    for k in (1, 2, 3):
        g, _ = rand_versor(rng, KLEIN, k)
        v = rand_vector(rng, KLEIN)
        img = sandwich(g, v)
        assert img.is_zero() or img.grades() == {1}


# -- pseudoscalar, dual, center ------------------------------------------------------------------

def test_pseudoscalar():
    assert KLEIN.pseudoscalar() == E(1, 2, 3, 4, 5, 6)
    assert lie_algebra().pseudoscalar().grades() == {6}
    degenerate = diag_algebra(1, 1, 0)
    with pytest.raises(DegenerateFormError):
        degenerate.pseudoscalar()


def test_dual():
    assert KLEIN.scalar(1).dual() == KLEIN.pseudoscalar()
    rng = random.Random(12)
    jj = KLEIN.pseudoscalar().gp(KLEIN.pseudoscalar()).scalar_part()
    assert jj == 1
    for _ in range(10):
        a = rand_multivector(rng, KLEIN)
        assert a.dual().dual() == a * jj


def test_center_cases():
    # full algebra: nontrivial center only in odd dimension
    odd = diag_algebra(1, 1, -1)
    basis = odd.center_basis()
    assert len(basis) == 2 and basis[1] == odd.e(1, 2, 3)
    assert len(KLEIN.center_basis()) == 1
    # even subalgebra: the opposite pattern
    assert len(odd.center_basis(even_only=True)) == 1
    even_center = KLEIN.center_basis(even_only=True)
    assert len(even_center) == 2 and even_center[1] == E(1, 2, 3, 4, 5, 6)


def commutant_dimension(alg, masks, generators):
    """The dimension of {x in the span of masks : x g = g x for every g}, by elimination."""
    if not generators:
        return len(masks)
    columns = [[(alg.mv({m: 1}).gp(g) - g.gp(alg.mv({m: 1}))).coeff(t)
                for g in generators for t in range(1 << alg.dim)] for m in masks]
    return len(masks) - rank(Matrix.from_rows([list(row) for row in zip(*columns)]))


def test_center_basis_is_the_commutant():
    """On diagonal and dense non-degenerate forms of 0-4 generators, the
    center is the kernel of x -> x e_i - e_i x, and the center of the even
    part that of x -> x e_i e_j - e_i e_j x on even x; degenerate forms are
    refused."""
    rng = random.Random("algebra/center-oracle")
    forms = [Matrix(0, 0, ())]
    for n in range(1, 5):
        forms.append(Matrix.from_rows([[rng.choice((1, -1, 2, -3)) if i == j else 0
                                        for j in range(n)] for i in range(n)]))
        for _ in range(2):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice((0, 1, -1, 2, Fraction(1, 2)))
            forms.append(Matrix.from_rows(rows))
    forms.append(Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    refused = 0
    for form in forms:
        alg = Algebra(form)
        vectors = [alg.mv({1 << i: 1}) for i in range(alg.dim)]
        if alg.is_degenerate():
            for even_only in (False, True):
                with pytest.raises(DegenerateFormError):
                    alg.center_basis(even_only)
            refused += 1
            continue
        pairs = [a.gp(b) for i, a in enumerate(vectors) for b in vectors[i + 1:]]
        for basis, generators, masks in (
                (alg.center_basis(), vectors, alg.basis_masks()),
                (alg.center_basis(even_only=True), pairs, alg.basis_masks(parity="even"))):
            assert len(basis) == commutant_dimension(alg, masks, generators)
            assert all(x.gp(g) == g.gp(x) for x in basis for g in generators)
        assert all(x.parity() == "even" for x in alg.center_basis(even_only=True))
    assert refused >= 2
    # the refused diag(1, 0, 0): e23 is central, so the center is larger than {1, e123}
    assert commutant_dimension(alg, alg.basis_masks(), vectors) > 2


def test_center_elements_commute():
    for element in KLEIN.center_basis():
        for mask in KLEIN.basis_masks():
            blade = KLEIN.mv({mask: 1})
            assert element.gp(blade) == blade.gp(element)


# -- misc API ----------------------------------------------------------------------------------------

def test_algebra_mismatch():
    lie = lie_algebra().e(1)
    for x, y in ((E(1), lie), (lie, E(1)), (E(1) * ComplexRational(0, 1), lie)):
        for product in ("gp", "wedge", "inner"):
            with pytest.raises(AlgebraMismatchError):
                getattr(x, product)(y)


def test_comparison_with_a_bool_is_false():
    # a bool is an int, but never a scalar; == answers and does not raise
    for x in (E(1) + E(4), KLEIN.scalar(1), KLEIN.zero()):
        assert (x == True) is False and (x == False) is False
        assert x != True and x != False
        assert (True == x) is False


def test_algebra_refuses_a_complex_form():
    with pytest.raises(AlgebraError, match="must be real"):
        Algebra(Matrix.from_rows([["1i", 0], [0, 1]]))


def test_scalar_operands_follow_one_rule():
    # +, - and * coerce a scalar operand alike, so text adds and floats are refused
    v = E(1) + 2 * E(2, 4)
    assert v + "1/2" == v - "-1/2" == "1/2" + v == v + Fraction(1, 2)
    assert v * "2" == v + v
    for bad in (1.5, True, "1e3", 1j):
        for op in (operator.add, operator.sub, operator.mul):
            for args in ((v, bad), (bad, v)):
                with pytest.raises(ScalarError):
                    op(*args)


def test_errors_carry_an_empty_diagnosis_by_default():
    assert AlgebraError("refused").diagnosis == {}
    assert NullVersorError("refused", {"step": 1}).diagnosis == {"step": 1}
    assert str(NullVersorError("refused", {"step": 1})) == "refused"


def test_text_and_json_roundtrip():
    x = KLEIN.scalar(7) + 6 * E(1, 2) - 6 * E(1, 3)
    assert x.to_text() == "7 + 6*e12 - 6*e13"
    assert Multivector.from_json(KLEIN, x.to_json()) == x


def test_json_roundtrip_with_complex_coefficients():
    from exactga.scalars import ComplexRational

    x = KLEIN.scalar(ComplexRational("1/2", "-3")) + E(1, 4) * ComplexRational(0, 1)
    assert Multivector.from_json(KLEIN, x.to_json()) == x
    assert "i" in x.to_text()


def test_json_sums_the_coefficients_of_a_repeated_mask():
    def read(*pairs):
        return Multivector.from_json(KLEIN, [{"mask": m, "coeff": c} for m, c in pairs])

    real = read((3, "1/2"), (5, "2"), (3, "1/3"))
    assert real == Multivector(KLEIN, {3: Fraction(5, 6), 5: 2})
    gaussian = read((1, "1+2i"), (1, "1/2-2i"), (6, "3i"), (6, "-1"), (6, "1/2"))
    assert gaussian == Multivector(KLEIN, {1: Fraction(3, 2), 6: ComplexRational("-1/2", 3)})
    assert type(gaussian._terms[1]) is Fraction  # the imaginary parts cancelled
    cancelled = read((2, "1+1i"), (4, "7"), (2, "-1-1i"), (4, "-7"), (8, "2i"))
    assert cancelled._terms == {8: ComplexRational(0, 2)}
    assert read((2, "1/2"), (2, "-1/2")).is_zero()


def test_versor_witness_validation():
    v1, v2 = E(1) + E(4), E(2) + E(5)
    g = Versor.from_vectors(KLEIN, [v1, v2])
    assert g.parity == "even"
    assert g.value == v1.gp(v2)
    with pytest.raises(AlgebraError):
        Versor(v1.gp(v2), "even", (v1, v1))


def test_versor_inverse_keeps_witness():
    v1, v2 = E(1) + E(4), E(2) + E(5)
    g = Versor.from_vectors(KLEIN, [v1, v2])
    gi = g.inverse()
    assert g.value.gp(gi.value) == KLEIN.scalar(1)
    assert gi.witness == (v2, v1)
    # the reversed witness is proved, not multiplied out: the checked
    # constructor accepts the same fields
    for versor in (g, Versor.from_vectors(KLEIN, [v1, v2, E(3) + 2 * E(6)]),
                   Versor(g.value, "even")):
        inverse = versor.inverse()
        assert inverse == Versor(inverse.value, inverse.parity, inverse.witness)
        assert versor.value.gp(inverse.value) == KLEIN.scalar(1)


def test_versor_accessors():
    g = Versor.from_vectors(KLEIN, [E(1) + E(4), E(2) + E(5)])  # each factor squares to 2
    assert g.algebra is KLEIN
    assert g.value.norm() == 4
    x = E(3) - E(6)
    assert sandwich(g.value, x) == g.value.gp(x).gp(g.value.conjugate())


def test_signature():
    assert KLEIN.signature() == (3, 3, 0)
    assert lie_algebra().signature() == (4, 2, 0)
    assert diag_algebra(1, 0, -1, 1).signature() == (2, 1, 1)
    # a zero first pivot swapped with e3, then a hyperbolic pair: 2xy - z^2
    form = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert Algebra(form).signature() == (1, 2, 0)
    assert Algebra(form.scale(-1)).signature() == (2, 1, 0)
    # no nonzero diagonal entry after a zero one: the off-diagonal pair is summed
    assert Algebra(Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 0]])).signature() == (1, 1, 1)


@st.composite
def symmetric_forms(draw):
    """Symmetric int and Fraction forms of 0-7 generators, some with a zero
    diagonal, some degenerate (one generator's row a multiple of another's)."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    zero_diagonal = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = 0 if i == j and zero_diagonal else draw(entry)
    if n >= 2 and draw(st.booleans()):
        k, l = draw(st.permutations(range(n)))[:2]
        c = draw(entry)
        for j in range(n):
            rows[k][j] = rows[j][k] = c * rows[l][j]
        rows[k][k] = c * c * rows[l][l]
    return rows


@settings(max_examples=80, deadline=None, database=None)
@given(symmetric_forms())
def test_signature_matches_the_characteristic_polynomial(rows):
    """(p, q, r) are the positive, negative and zero eigenvalues, counted by
    Descartes' rule on the characteristic polynomial."""
    n = len(rows)
    form = Matrix(n, n, tuple(x for row in rows for x in row))
    assert Algebra(form).signature() == descartes_signature(rows)


# -- hypothesis property checks -----------------------------------------------------------------------

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=4)


@st.composite
def klein_multivectors(draw, max_terms=4):
    masks = draw(st.lists(st.integers(min_value=0, max_value=63),
                          min_size=1, max_size=max_terms))
    return KLEIN.mv({m: draw(coeffs) for m in masks})


@settings(max_examples=40, deadline=None)
@given(klein_multivectors(), klein_multivectors())
def test_property_conjugation_antihomomorphism(a, b):
    assert a.gp(b).conjugate() == b.conjugate().gp(a.conjugate())


@settings(max_examples=40, deadline=None)
@given(klein_multivectors(), klein_multivectors(), klein_multivectors())
def test_property_distributivity(a, b, c):
    assert a.gp(b + c) == a.gp(b) + a.gp(c)


@settings(max_examples=25, deadline=None)
@given(klein_multivectors(max_terms=3), klein_multivectors(max_terms=3),
       klein_multivectors(max_terms=3))
def test_property_associativity(a, b, c):
    assert a.gp(b).gp(c) == a.gp(b.gp(c))


def test_multivector_operators_repr_and_immutability():
    alg = klein_algebra()
    a, b = alg.e(1) + alg.e(2, 3), alg.e(4) - 2
    assert a * b == a.gp(b) and b * a == b.gp(a)
    assert 3 * a == a * 3 == a + a + a
    # a zero scalar compares with the zero multivector only
    assert alg.zero() == 0 and alg.zero() == Fraction(0)
    assert not a == 0 and a != 0
    assert repr(alg.zero()) == "<0>"
    assert repr(alg.e(1) * 3 - alg.e(2, 5)) == "<3*e1 - e25>"
    with pytest.raises(AttributeError, match="^Multivector is immutable$"):
        a.algebra = lie_algebra()
    assert a.algebra is alg


def test_algebra_repr_names_the_signature():
    assert repr(klein_algebra()) == "Algebra(dim=6, signature=(3,3,0))"
    assert repr(lie_algebra()) == "Algebra(dim=6, signature=(4,2,0))"
    assert repr(Algebra(Matrix.from_rows([[1, 0], [0, 0]]))) == "Algebra(dim=2, signature=(1,0,1))"
    assert Matrix(0, 0, ()).det() == 1
    assert repr(Algebra(Matrix(0, 0, ()))) == "Algebra(dim=0, signature=(0,0,0))"


def test_proportional_across_algebras_is_none():
    klein, lie = klein_algebra(), lie_algebra()
    assert proportional(klein.e(1) * 2, klein.e(1)) == 2
    assert proportional(klein.e(1), lie.e(1)) is None
    assert proportional(lie.e(1), klein.e(1)) is None
