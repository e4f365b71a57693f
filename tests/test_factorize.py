import dataclasses
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactga.algebra import AlgebraError, NotAVersorError, NullVersorError, proportional
from exactga.factorize import (
    FactorizationResult,
    NoNonNullVectorError,
    _failed_check,
    choose_nonnull_vector,
    factorize_matrix,
    factorize_versor,
    verify_factorization,
)
from exactga.klein import (
    ComplexRequiredError,
    NullPolarity,
    ProjTransform4,
    bilinear,
    induced_line_map,
    klein_algebra,
    null_polarity_to_vector,
    vector_to_null_polarity,
    versor_to_proj,
)
import exactga.blades as blades
from exactga.blades import Blade, BladeError
from exactga.lie import lie_algebra
from exactga.linalg import Matrix, mat_mul
from exactga.scalars import ComplexRational, scalar_sqrt
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION
from helpers import (
    built_vector_failed_check,
    checked_factorize_versor,
    norm_first_factorize,
    rand_fraction,
    rand_invertible_vector,
    rand_multivector,
    rand_versor,
    scherk_length,
    vector_in_span,
)

KLEIN = klein_algebra()
E = KLEIN.e


def product_of(vectors):
    acc = KLEIN.scalar(1)
    for v in vectors:
        acc = acc.gp(v)
    return acc


# -- choosing non-null vectors ----------------------------------------------------

def test_choose_nonnull_prefers_basis_vectors():
    space = [E(1) + E(4), E(2)]
    assert choose_nonnull_vector(space) == E(1) + E(4)


def test_choose_nonnull_falls_back_to_pair_sums():
    # both basis vectors null, their sum is not
    space = [E(1), E(4)]
    v = choose_nonnull_vector(space)
    assert v == E(1) + E(4)
    assert bilinear(v, v) != 0


def test_choose_nonnull_returns_the_normalized_pick():
    # the vector the descent keeps, whatever the scale of the basis
    assert choose_nonnull_vector([-2 * E(1) - 2 * E(4), E(2)]) == E(1) + E(4)
    assert choose_nonnull_vector([E(2) * Fraction(1, 3), -6 * E(5)]) == E(2) + E(5)


def test_choose_nonnull_rejects_isotropic_span():
    with pytest.raises(NoNonNullVectorError):
        choose_nonnull_vector([E(1)])
    with pytest.raises(NoNonNullVectorError):
        choose_nonnull_vector([E(1), E(2), E(3)])


def test_reference_choices_are_valid(reference_factors):
    # every published pick satisfies the validity predicate at its own step:
    # it lies in the outer null space of the maximal-grade part and is non-null
    from exactga.blades import max_grade_part, opns

    current = product_of(list(reversed(reference_factors)))
    for step, vec in enumerate(reference_factors[:5]):
        space = opns(max_grade_part(current))
        assert vector_in_span(vec, space), f"step {step}"
        assert bilinear(vec, vec) != 0, f"step {step}"
        current = current.gp(vec)
    # the remaining element is the final grade-1 factor
    assert current.max_grade() == 1
    assert proportional(current, reference_factors[5]) is not None


# -- grade descent -----------------------------------------------------------------

def test_factorize_scalar_is_empty():
    assert factorize_versor(KLEIN.scalar(3)) == []


def test_factorize_single_vector():
    v = E(1) + E(4)
    factors = factorize_versor(v)
    assert len(factors) == 1
    assert proportional(factors[0], v) is not None


def test_factorize_two_vector_versor():
    g = (E(1) + E(4)).gp(4 * E(2) + E(5))
    factors = factorize_versor(g)
    assert len(factors) == 2
    assert proportional(product_of(factors), g) is not None


def test_factorize_reference_versor(reference_versor):
    factors = factorize_versor(reference_versor)
    assert len(factors) == 6
    assert proportional(product_of(factors), reference_versor) is not None


def test_reference_chain_passes_verification_predicate(reference_versor, reference_factors):
    # the published sextuple, leftmost factor first
    chain = product_of(list(reversed(reference_factors)))
    assert proportional(chain, reference_versor) is not None


def test_factorize_refuses_non_blade_maximal_grade_parts():
    lie = lie_algebra()
    with pytest.raises(BladeError, match="grade-3"):
        factorize_versor(lie.e(1, 5, 6) + 2 * lie.e(2, 3, 4))
    # the grade-4 part is a blade, so the first step goes through; the
    # element of maximal grade 3 it leaves is not one
    g = 2 * E(3, 6) - E(1, 2, 4, 5)
    assert Blade(g.grade(4), 4).grade == 4
    with pytest.raises(BladeError, match="grade-3"):
        factorize_versor(g)


def test_factorize_rejects_null_versors():
    with pytest.raises(NullVersorError):
        factorize_versor(E(1))
    with pytest.raises(NullVersorError):
        factorize_versor(KLEIN.zero())


# the smallest input found for each refusal of the descent, with its class and message
REFUSALS = [
    (KLEIN, lambda e: -e(5) - e(1, 2), NotAVersorError, "v v\\* is not scalar"),
    (KLEIN, lambda e: -e(6), NullVersorError, "null versors are outside"),
    (KLEIN, lambda e: 1 - e(2), AlgebraError, "not a pure vector"),
    # a mixed-grade remainder of a null element: (2 + v)(2 - v) = 4 - b(v, v) = 0
    (KLEIN, lambda e: 2 + 2 * e(1) + e(4), NullVersorError, "null versors are outside"),
    (KLEIN, lambda e: -e(2) + e(3) - e(5) - e(2, 3, 5), NoNonNullVectorError,
     "span is totally isotropic"),
    (lie_algebra(), lambda e: -e(3) - e(1, 3), AlgebraError,
     "grade descent failed to reduce the maximal grade"),
    (lie_algebra(), lambda e: e(1) - e(2, 3, 4, 5, 6), BladeError,
     "grade-3 element is not decomposable"),
]


# Gaussian multiples of each refusal, which the descent carries split: the
# same refusal, from the joined top parts
GAUSSIAN_SCALES = (1, ComplexRational(1, 2), ComplexRational(0, Fraction(-1, 3)))


@pytest.mark.parametrize("alg, build, error, message", REFUSALS)
def test_factorize_refusal_classes(alg, build, error, message):
    for scale in GAUSSIAN_SCALES:
        with pytest.raises(AlgebraError, match=message) as caught:
            factorize_versor(build(alg.e) * scale)
        assert type(caught.value) is error


# the diagnosis of each refusal above: the step where the descent gave out,
# or the step of the part that is no blade, with its grade and the reason
REFUSAL_DIAGNOSES = [(1, 2, "not-a-versor"), (1, 1, "null-versor"), (1, 1, "mixed-remainder"),
                     (1, 1, "null-versor"), (2, 2, "totally-isotropic"),
                     (1, 2, "grade-not-reduced"), (3, 3, "not-a-blade")]


def test_factorize_refusals_carry_a_diagnosis():
    for (alg, build, _, _), (step, grade, reason) in zip(REFUSALS, REFUSAL_DIAGNOSES,
                                                         strict=True):
        for scale in GAUSSIAN_SCALES:
            with pytest.raises(AlgebraError) as caught:
                factorize_versor(build(alg.e) * scale)
            assert caught.value.diagnosis == {"stage": "descent", "step": step, "grade": grade,
                                              "opns_dim": grade, "reason": reason}


def test_refusal_replays_the_top_parts_in_step_order(monkeypatch):
    # the grade-4 part of this g + c g I is no blade, yet its step lowers the
    # grade; the descent gives out one step later, on a grade-3 part, and the
    # refusal still names the first part that is not a blade.  The one-term
    # grade-6 part is probed only while its pick is not memoized.
    g = (-2 + 4 * E(1, 2) + 4 * E(1, 3) - E(1, 5) + 4 * E(1, 6) + 4 * E(2, 3) - 2 * E(2, 5)
         + 4 * E(2, 6) - E(3, 5) + E(5, 6) + 12 * E(1, 2, 3, 4) - 12 * E(1, 2, 3, 5)
         + 12 * E(1, 2, 3, 6) + 12 * E(1, 2, 4, 6) - 12 * E(1, 2, 5, 6) - 3 * E(1, 3, 4, 5)
         + 6 * E(1, 3, 4, 6) - 3 * E(1, 3, 5, 6) + 3 * E(1, 4, 5, 6) + 6 * E(1, 2, 3, 4, 5, 6))
    steps, checked = [], []
    choose, post_init = blades._choose, Blade.__post_init__

    def probe(alg, space):
        space = list(space)
        steps.append(len(space))
        return choose(alg, space)

    monkeypatch.setattr(blades, "_choose", probe)
    monkeypatch.setattr(Blade, "__post_init__",
                        lambda self: checked.append(self.grade) or post_init(self))
    monkeypatch.setattr(KLEIN, "_unit_picks", {})
    for probed in ([6, 5, 4, 3], [5, 4, 3]):  # a cold memo, then a warm one
        steps.clear()
        checked.clear()
        with pytest.raises(BladeError, match="grade-4 element is not decomposable") as caught:
            factorize_versor(g)
        assert steps == probed
        assert checked == [6, 5, 4]
        assert caught.value.diagnosis == {"stage": "descent", "step": 3, "grade": 4,
                                          "opns_dim": 4, "reason": "not-a-blade"}


def outcome(factorize, g):
    try:
        return [f.to_json() for f in factorize(g)]
    except AlgebraError as exc:
        return type(exc), str(exc)


def is_gaussian(g) -> bool:
    return any(type(c) is ComplexRational for c in g._terms.values())


def gaussian_kinds(i: int) -> tuple:
    """The coordinate kinds of the i-th Gaussian input: Gaussian rationals
    every fourth time, else Gaussian integers, which cost a tenth as much."""
    return ("int", "gaussian-rational") if i % 4 == 3 else ("int", "gaussian")


def test_factorize_matches_the_norm_first_oracle():
    # versors, products through a null vector, and versors with one term
    # perturbed; one input in four is drawn with Gaussian coordinates
    seen = {False: set(), True: set()}
    draws = ((random.Random("factorize/norm-first"), 250, False),
             (random.Random("factorize/norm-first/gaussian"), 84, True))
    for alg in (KLEIN, lie_algebra()):
        for rng, count, gaussian in draws:
            for i in range(count):
                kinds = gaussian_kinds(i // 3) if gaussian else None
                g, _ = rand_versor(rng, alg, rng.randint(1, 6), kinds=kinds)
                if i % 3 == 1:
                    null = alg.e(rng.randint(1, 6)) if alg is KLEIN else alg.e(1) + alg.e(5)
                    g = g.gp(null).gp(rand_invertible_vector(rng, alg, kinds=kinds))
                elif i % 3 == 2:
                    g = g + rand_multivector(rng, alg, n_terms=1, kinds=kinds)
                expected = outcome(norm_first_factorize, g)
                assert outcome(factorize_versor, g) == expected
                kind = expected[0] if isinstance(expected, tuple) else list
                seen[is_gaussian(g)].add((alg is KLEIN, i % 3, kind))
    for found in seen.values():
        assert {kind for _, _, kind in found} >= {list, NotAVersorError, NullVersorError}
        assert {(klein, shape) for klein, shape, _ in found} == {
            (klein, shape) for klein in (True, False) for shape in range(3)}


def descent_input(rng: random.Random, alg, i: int, kinds=None):
    """One of five shapes by i: a versor of 1-6 vectors, a product through a
    null vector, a versor with 1-4 perturbed terms, g + c g I, or a random
    multivector.  The vectors and terms have int and Fraction coordinates,
    or ``rand_coefficient`` ones of the given kinds."""
    shape = i % 5
    if shape == 4:
        return rand_multivector(rng, alg, n_terms=rng.randint(1, 8), kinds=kinds)
    g, _ = rand_versor(rng, alg, rng.randint(1, 6), kinds=kinds)
    if shape == 1:
        null = alg.e(rng.randint(1, 6)) if alg is KLEIN else alg.e(1) + alg.e(5)
        return g.gp(null).gp(rand_invertible_vector(rng, alg, kinds=kinds))
    if shape == 2:
        return g + rand_multivector(rng, alg, n_terms=rng.randint(1, 4), kinds=kinds)
    if shape == 3:
        return g + g.gp(alg.pseudoscalar()) * rand_fraction(rng)
    return g


def test_factorize_matches_the_blade_checked_oracle():
    # the descent that builds a Blade per step gives the same factors, or the
    # same refusal, on 2,670 inputs in Cl(3,3) and Cl(4,2); one in four has
    # Gaussian coordinates, which the descent carries split, and they cover
    # every shape and every refusal but a totally isotropic span, too rare
    # to be drawn (the Gaussian multiples of REFUSALS have it)
    seen = {False: set(), True: set()}
    draws = ((random.Random("factorize/blade-checked"), 1000, False),
             (random.Random("factorize/blade-checked/gaussian"), 335, True))
    for alg in (KLEIN, lie_algebra()):
        for rng, count, gaussian in draws:
            for i in range(count):
                g = descent_input(rng, alg, i, gaussian_kinds(i // 5) if gaussian else None)
                expected = outcome(checked_factorize_versor, g)
                assert outcome(factorize_versor, g) == expected
                kind = expected[0] if isinstance(expected, tuple) else list
                seen[is_gaussian(g)].add((alg is KLEIN, i % 5, kind))
    for found, isotropic in ((seen[False], {NoNonNullVectorError}), (seen[True], set())):
        assert {kind for _, _, kind in found} == {
            list, AlgebraError, NotAVersorError, NullVersorError, BladeError} | isotropic
        assert {(klein, shape) for klein, shape, _ in found} == {
            (klein, shape) for klein in (True, False) for shape in range(5)}


def outcome_with_diagnosis(g):
    try:
        return [f.to_json() for f in factorize_versor(g)]
    except AlgebraError as exc:
        return type(exc), str(exc), exc.diagnosis


def test_descent_is_blind_to_a_rational_scale():
    """factorize_versor(c g) equals factorize_versor(g) for a rational c != 0.

    The same factors, or the same error class, message and diagnosis: every
    pick is normalized, and scaling keeps a vector null or not, so the
    descent could clear the denominators of g.  A Gaussian c does not hold,
    since an odd versor's last factor, the remainder vector, keeps its phase.
    The inputs are ``descent_input``'s five shapes in Cl(3,3) and Cl(4,2),
    one in four with Gaussian coordinates.
    """
    rng = random.Random("factorize/scale-blind")
    seen = set()
    for alg in (KLEIN, lie_algebra()):
        for i in range(40):
            kinds = gaussian_kinds(i // 4) if i % 4 == 3 else None
            g = descent_input(rng, alg, i, kinds)
            expected = outcome_with_diagnosis(g)
            for c in (Fraction(-3, 7), Fraction(5, 2), 6):
                assert outcome_with_diagnosis(g * c) == expected
            seen.add((is_gaussian(g), expected[0] if isinstance(expected, tuple) else list))
    assert {kind for _, kind in seen} >= {list, NotAVersorError, NullVersorError, BladeError}
    assert {gaussian for gaussian, _ in seen} == {False, True}


def line_isometry(t: ProjTransform4) -> Matrix:
    """T = G / s, for G the induced line map and s a root of its similitude ratio."""
    g = induced_line_map(t)
    return g.matrix.scale(1 / scalar_sqrt(g.similitude_ratio()))


def test_factor_count_is_scherks_minimal_length():
    # g and g I induce T and -T, so the shorter of their minimal lengths is
    # the fewest vectors any factorization can have
    rng = random.Random("factorize/scherk")
    counts = set()
    for i in range(240):
        k, action = 1 + i % 6, ("points", "planes")[i // 6 % 2]
        mode = "complex" if i // 12 % 4 == 3 else "rational"
        t = versor_to_proj(rand_versor(rng, KLEIN, k)[0], action)
        if mode == "complex":  # a negated row makes the ratio negative
            rows = t.matrix.row_lists()
            t = ProjTransform4(Matrix.from_rows([[-x for x in rows[0]]] + rows[1:]),
                               t.kind, action)
        result = factorize_matrix(t, mode)
        assert result.verified() and verify_factorization(result, t)
        iso = line_isometry(t)
        assert len(result.factors) == min(scherk_length(iso), scherk_length(-iso))
        counts.add((t.kind, action, mode, len(result.factors)))
    assert {(kind, action, mode) for kind, action, mode, _ in counts} == {
        (kind, action, mode) for kind in ("collineation", "correlation")
        for action in ("points", "planes") for mode in ("rational", "complex")}
    assert {n for *_, n in counts} == set(range(1, 7))


def test_factorize_random_versors_bound_and_parity():
    rng = random.Random(20)
    for _ in range(30):
        k = rng.randint(1, 6)
        g, _ = rand_versor(rng, KLEIN, k)
        factors = factorize_versor(g)
        assert len(factors) <= 6
        assert len(factors) % 2 == k % 2
        assert proportional(product_of(factors), g) is not None
        for f in factors:
            assert f.grades() == {1}
            assert bilinear(f, f) != 0 or len(factors) == 1


# -- matrix pipeline -----------------------------------------------------------------

def test_factorize_reference_matrix(reference_matrix):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    result = factorize_matrix(t)
    assert len(result.factors) == 6
    assert result.verified()
    assert verify_factorization(result, t)
    assert result.scale != 0
    # leftmost-first: the rightmost polarity acts on points like the input
    actions = [p.action for p in result.polarities]
    assert actions == ["planes", "points"] * 3


def test_factorize_identity():
    t = ProjTransform4(Matrix.identity(4), "collineation", "points")
    result = factorize_matrix(t)
    assert result.factors == ()
    assert result.scale == 1
    assert verify_factorization(result, t)


def test_factorize_single_polarity(reference_polarities):
    t = ProjTransform4(reference_polarities[0], "correlation", "points")
    result = factorize_matrix(t)
    assert len(result.factors) == 1
    assert proportional(result.factors[0], E(1) + E(4)) is not None
    assert verify_factorization(result, t)


def test_factorize_complex_variant(complex_variant_matrix):
    t = ProjTransform4(complex_variant_matrix, "collineation", "points")
    with pytest.raises(ComplexRequiredError):
        factorize_matrix(t)
    result = factorize_matrix(t, "complex")
    assert result.verified()
    assert verify_factorization(result, t)
    for p in result.polarities:
        assert p.matrix.is_skew()


def test_factorize_complex_correlation():
    # a correlation with negative determinant also needs the complex mode
    m = Matrix.from_rows([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    t = ProjTransform4(m, "correlation", "points")
    with pytest.raises(ComplexRequiredError):
        factorize_matrix(t)
    result = factorize_matrix(t, "complex")
    assert len(result.factors) % 2 == 1
    assert verify_factorization(result, t)


def test_complex_result_json_round_trip(complex_variant_matrix):
    t = ProjTransform4(complex_variant_matrix, "collineation", "points")
    result = factorize_matrix(t, "complex")
    rebuilt = FactorizationResult.from_json(result.to_json(), t)
    assert rebuilt.residual.is_zero()
    assert verify_factorization(rebuilt, t)


def _reference_chain(reference_factors, reference_polarities):
    """Published chain as a FactorizationResult: leftmost factor first."""
    vectors = tuple(reversed(reference_factors))
    polarities = tuple(
        NullPolarity(m, a) for m, a in zip(
            reversed(reference_polarities), ["planes", "points"] * 3))
    product = polarities[0].matrix
    for p in polarities[1:]:
        product = mat_mul(product, p.matrix)
    return vectors, polarities, product


def test_reference_chain_matrix_identity(reference_matrix, reference_factors,
                                         reference_polarities):
    _, _, chain = _reference_chain(reference_factors, reference_polarities)
    assert chain == reference_matrix.scale(-4)
    # equivalently, the input is exactly -1/4 of the chain
    assert reference_matrix == chain.scale(Fraction(-1, 4))


def test_verify_reference_chain(reference_matrix, reference_factors, reference_polarities):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    vectors, polarities, product = _reference_chain(reference_factors, reference_polarities)
    scale = Fraction(-4)
    residual = product - reference_matrix.scale(scale)
    result = FactorizationResult(vectors, polarities, scale, residual)
    assert residual.is_zero()
    assert verify_factorization(result, t)


def test_verify_rejects_swapped_factors(reference_matrix, reference_factors,
                                        reference_polarities):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    vectors, polarities, _ = _reference_chain(reference_factors, reference_polarities)
    # swap two same-action entries: alternation still holds, the product breaks
    swapped = list(polarities)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    result = FactorizationResult(vectors, tuple(swapped), Fraction(-4), Matrix.zeros(4, 4))
    assert not verify_factorization(result, t)


def test_verify_does_not_trust_a_given_residual(reference_matrix):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    kept = FactorizationResult.from_json(factorize_matrix(t).to_json(), t)
    swapped = list(kept.polarities)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    zero = Matrix.zeros(4, 4)
    forged = [
        # a zero residual the polarities do not bear out
        FactorizationResult(kept.factors, kept.polarities, kept.scale * 2, zero),
        # a copy of a result that kept its polarity product does not keep it
        dataclasses.replace(kept, polarities=tuple(swapped), residual=zero),
        dataclasses.replace(kept, scale=kept.scale * 2, residual=zero),
        # a copy of a lifted result keeps its zero residual, not the lift's proof
        dataclasses.replace(factorize_matrix(t), polarities=tuple(swapped)),
    ]
    assert verify_factorization(kept, t) and kept.verified()
    for result in forged:
        # a zero residual the library did not form is not trusted either
        assert not result.verified()
        assert not verify_factorization(result, t)


def test_verify_takes_only_null_polarities(reference_matrix):
    # the NullPolarity constructors prove skewness, so verify checks the type
    t = ProjTransform4(reference_matrix, "collineation", "points")
    kept = factorize_matrix(t)
    first = kept.polarities[0]
    stand_ins = [SimpleNamespace(matrix=first.matrix, action=first.action), first.matrix,
                 SimpleNamespace(matrix=first.matrix + Matrix.identity(4), action=first.action)]
    assert verify_factorization(kept, t)
    for stand_in in stand_ins:
        result = dataclasses.replace(kept, polarities=(stand_in,) + kept.polarities[1:])
        assert not verify_factorization(result, t)


def null_pair(scale) -> FactorizationResult:
    """Factors (e1, e1) of a collineation on points, with their planes and
    points polarities; e1 is null."""
    polarities = tuple(vector_to_null_polarity(E(1), a) for a in ("planes", "points"))
    return FactorizationResult((E(1), E(1)), polarities, scale, Matrix.zeros(4, 4))


def test_verify_refuses_null_factors_by_their_product(reference_matrix):
    # every check but the product passes; a null factor's polarity is
    # singular, so the product is no multiple of the regular input
    t = ProjTransform4(reference_matrix, "collineation", "points")
    forged = null_pair(Fraction(-4))
    assert all(f == null_polarity_to_vector(p) for f, p in zip(forged.factors, forged.polarities))
    parsed = FactorizationResult.from_json(forged.to_json(), t)
    assert not parsed.residual.is_zero()
    assert [verify_factorization(result, t) for result in (forged, parsed)] == [False, False]


def test_verify_refuses_a_zero_scale(reference_matrix):
    # the two polarities of one null line multiply to the zero matrix, which
    # is 0 * A: only the scale guard refuses this result
    t = ProjTransform4(reference_matrix, "collineation", "points")
    forged = null_pair(Fraction(0))
    data = forged.to_json()
    assert data["scale"] == "0"
    parsed = FactorizationResult.from_json(data, t)
    assert parsed.residual.is_zero()
    assert [verify_factorization(result, t) for result in (forged, parsed)] == [False, False]


@lru_cache(maxsize=1)
def _checked_results() -> tuple:
    """(result, transform) pairs: rational and Gaussian, lifted and read back from JSON."""
    pairs = []
    for rows, kind, action, mode in ((REFERENCE_COLLINEATION, "collineation", "points",
                                      "rational"),
                                     (COMPLEX_VARIANT, "collineation", "points", "complex"),
                                     (COMPLEX_VARIANT, "correlation", "planes", "complex")):
        t = ProjTransform4(Matrix.from_rows(rows), kind, action)
        result = factorize_matrix(t, mode)
        pairs += [(result, t), (FactorizationResult.from_json(result.to_json(), t), t)]
    return tuple(pairs)


_I = ComplexRational(0, 1)
_OTHER_ACTION = {"points": "planes", "planes": "points"}
# each mutation of factor k and its polarity p: (factor, polarity)
_MUTATIONS = {
    "wrong-action": lambda f, p: (f, NullPolarity(p.matrix, _OTHER_ACTION[p.action])),
    "transposed": lambda f, p: (f, NullPolarity(p.matrix.transpose(), p.action)),
    "zero-polarity": lambda f, p: (f, NullPolarity(Matrix.zeros(4, 4), p.action)),
    "zero-pair": lambda f, p: (KLEIN.zero(), NullPolarity(Matrix.zeros(4, 4), p.action)),
    "non-vector": lambda f, p: (f + f.algebra.e(1, 2), p),
    "scalar-term": lambda f, p: (f + 1, p),
    "lie-factor": lambda f, p: (lie_algebra().mv(f.terms), p),
    "gaussian-factor": lambda f, p: (f * _I, p),
    "gaussian-pair": lambda f, p: (f * _I, NullPolarity(p.matrix.scale(_I), p.action)),
    "negated-pair": lambda f, p: (-f, NullPolarity(-p.matrix, p.action)),
    "unchanged": lambda f, p: (f, p),
}


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 5), st.lists(st.tuples(st.sampled_from(sorted(_MUTATIONS)),
                                             st.integers(0, 5)), max_size=3))
def test_factor_check_reads_what_the_built_vector_compares(case, mutations):
    # the factor check reads each factor's coordinates off its polarity's
    # entries; a vector built per factor finds the same first failure
    result, t = _checked_results()[case]
    factors, polarities = list(result.factors), list(result.polarities)
    for name, k in mutations:
        k %= len(factors)
        factors[k], polarities[k] = _MUTATIONS[name](factors[k], polarities[k])
    mutated = dataclasses.replace(result, factors=tuple(factors), polarities=tuple(polarities))
    assert _failed_check(mutated, t) == built_vector_failed_check(mutated, t)
    assert _failed_check(result, t) is built_vector_failed_check(result, t) is None


def test_verify_empty_against_identity():
    t = ProjTransform4(Matrix.identity(4), "collineation", "points")
    result = FactorizationResult((), (), Fraction(1), Matrix.zeros(4, 4))
    assert verify_factorization(result, t)


def test_factorize_random_matrices_round_trip():
    rng = random.Random(21)
    done = 0
    while done < 6:
        k = rng.choice([2, 3, 4])
        g, _ = rand_versor(rng, KLEIN, k)
        action = rng.choice(["points", "planes"])
        try:
            t = versor_to_proj(g, action)
        except Exception:
            continue
        result = factorize_matrix(t)
        assert verify_factorization(result, t)
        assert len(result.factors) % 2 == k % 2
        assert len(result.factors) <= 6
        done += 1


def test_result_json_round_trip(reference_matrix):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    result = factorize_matrix(t)
    data = result.to_json()
    assert data["verified"] is True
    rebuilt = FactorizationResult.from_json(data, t)
    assert rebuilt.residual.is_zero()
    assert verify_factorization(rebuilt, t)
    assert rebuilt.scale == result.scale


def test_verify_rejects_tampered_factors(reference_matrix):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    result = factorize_matrix(t)
    assert verify_factorization(result, t)
    # the polarities and the scale still certify the map; only the factors lie
    all_e1 = FactorizationResult((E(1),) * len(result.factors), result.polarities,
                                 result.scale, result.residual)
    assert not verify_factorization(all_e1, t)
    one_off = list(result.factors)
    one_off[2] = one_off[2] * 2
    tampered = FactorizationResult(tuple(one_off), result.polarities, result.scale,
                                   result.residual)
    assert not verify_factorization(tampered, t)


def test_verify_rejects_tampered_factor_json(reference_matrix):
    t = ProjTransform4(reference_matrix, "collineation", "points")
    data = factorize_matrix(t).to_json()
    data["factors"] = [E(1).to_json() for _ in data["factors"]]
    rebuilt = FactorizationResult.from_json(data, t)
    assert rebuilt.residual.is_zero()  # the polarity product alone still matches
    assert not verify_factorization(rebuilt, t)
