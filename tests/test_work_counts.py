"""Work-count guards: the lift and the descent do each piece of work once.

Each test counts calls through a monkeypatched wrapper, so a regression
that reintroduces a cofactor inverse, an induced line map, a blade sum, a
product after the descent or a second polarity product in the lift, a
second outer null space per descent step or classification, a linear
system in the descent, a norm product in a successful descent, or a
``ComplexRational`` multiplication inside the geometric product fails here
even when its output stays the same.  The storage guards require the
integer core: int blade and coefficient tables, and int or Gaussian-int
coefficients in every multivector of a descent and in every matrix of the
linear algebra.
"""

import random

import exactga.blades as blades
import exactga.factorize as factorize
import exactga.klein as klein
import exactga.linalg as linalg
from exactga.algebra import Multivector
from exactga.lie import lie_algebra
from exactga.linalg import Matrix
from exactga.scalars import ComplexRational
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION
from helpers import rand_versor


def counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def plane_correlation() -> klein.ProjTransform4:
    # the reference collineation followed by a polarity is a correlation
    e = klein.klein_algebra().e
    polarity = klein.vector_to_null_polarity(e(1) + e(4), "planes").matrix
    m = Matrix.from_rows(REFERENCE_COLLINEATION)
    return klein.ProjTransform4(klein.mat_mul(polarity, m), "correlation", "planes")


def test_lift_uses_no_adjugate_and_no_induced_map(monkeypatch):
    t = plane_correlation()
    sandwiches = counting(monkeypatch, klein.Sandwich6, "__post_init__")
    line_maps = counting(monkeypatch, klein, "induced_line_map")
    versor = klein.proj_to_versor(t)
    assert versor.parity == "odd"
    assert not hasattr(Matrix, "adjugate")
    # the similitude ratio is det(A)^3, read off the regularity check
    assert sandwiches == [] and line_maps == []


def test_factorization_multiplies_the_polarities_once(monkeypatch):
    for t, mode in ((plane_correlation(), "rational"),
                    (klein.ProjTransform4(Matrix.from_rows(COMPLEX_VARIANT),
                                          "collineation", "points"), "complex")):
        chains = counting(monkeypatch, klein, "_polarity_product")
        products = counting(monkeypatch, klein, "mat_mul")
        result = factorize.factorize_matrix(t, mode)
        monkeypatch.undo()
        assert result.verified() and len(result.factors) >= 3
        assert len(chains) == 1
        assert len(products) == len(result.factors)  # one per factor, none for M^T Q M


def test_planes_lift_computes_the_determinant_once(monkeypatch):
    klein.klein_algebra()  # an algebra decides the degeneracy of its form once, when built
    calls = counting(monkeypatch, linalg, "determinant")
    t = plane_correlation()
    versor = klein.proj_to_versor(t)
    assert versor.parity == "odd" and t.action == "planes"
    # the regularity check of ProjTransform4 is the only determinant of a lift
    assert [m for (m,) in calls] == [t.matrix]


def test_lift_reads_the_versor_off_the_tables(monkeypatch):
    t = plane_correlation()
    products = counting(monkeypatch, Multivector, "gp")
    wedges = counting(monkeypatch, Multivector, "wedge")
    around_descent = []
    descent = klein.factorize_versor

    def snapshot(value):
        around_descent.append((len(products), len(wedges)))
        factors = descent(value)
        around_descent.append((len(products), len(wedges)))
        return factors

    monkeypatch.setattr(klein, "factorize_versor", snapshot)
    klein.proj_to_versor(t)
    assert len(around_descent) == 2
    gp_calls, wedge_calls = around_descent[0]
    assert wedge_calls == 0
    assert gp_calls == 1  # the pseudoscalar branch
    # the witness is not multiplied out again after the descent
    assert len(products) == around_descent[1][0]


def lifted(rows, mode) -> Multivector:
    t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
    return klein.proj_to_versor(t, mode).value


def descent_versors() -> list[Multivector]:
    return [lifted(REFERENCE_COLLINEATION, "rational"), lifted(COMPLEX_VARIANT, "complex"),
            rand_versor(random.Random("work/lie"), lie_algebra(), 5)[0]]


def test_descent_computes_one_outer_null_space_per_step(monkeypatch):
    # each step reads the top blade's outer null space off its coefficients
    for value in descent_versors() + [klein.proj_to_versor(plane_correlation()).value]:
        spaces = counting(monkeypatch, blades, "_opns_from_coefficients")
        systems = counting(monkeypatch, linalg, "_gauss_jordan")
        factors = blades.factorize_versor(value)
        monkeypatch.undo()
        steps = value.max_grade() - 1
        assert steps >= 2 and len(factors) == steps + 1
        assert len(spaces) == steps
        assert systems == []  # the descent solves no linear system


def test_descent_multiplies_once_per_step(monkeypatch):
    # a successful descent proves the norm nonzero, so it forms no g g*
    for value in descent_versors():
        products = counting(monkeypatch, Multivector, "gp")
        factors = blades.factorize_versor(value)
        monkeypatch.undo()
        steps = value.max_grade() - 1
        assert steps >= 3 and len(factors) == steps + 1
        assert len(products) == steps


def test_gaussian_product_multiplies_no_complex_rationals(monkeypatch):
    value = lifted(COMPLEX_VARIANT, "complex")
    conjugate = value.conjugate()
    assert all(is_integral_storage(c) for c in value._terms.values())
    assert any(type(c) is ComplexRational for c in value._terms.values())
    left = counting(monkeypatch, ComplexRational, "__mul__")
    right = counting(monkeypatch, ComplexRational, "__rmul__")
    norm = value.gp(conjugate)
    assert left == [] and right == []
    assert norm.is_scalar() and norm.scalar_part()


def test_classification_computes_one_outer_null_space(monkeypatch):
    e = klein.klein_algebra().e
    spaces = counting(monkeypatch, blades, "_opns_from_coefficients")
    result = klein.classify_blade(e(1).wedge(e(4)).wedge(e(2) + e(5)))
    assert result.tag is klein.ManifoldKind.REGULUS
    assert len(spaces) == 1


def is_integral_storage(c) -> bool:
    if type(c) is ComplexRational:
        return type(c.re) is int and type(c.im) is int
    return type(c) is int


def test_blade_tables_store_ints():
    for alg in (klein.klein_algebra(), lie_algebra()):
        masks = alg.basis_masks()
        values = [c for a in masks for b in masks for c in alg.blade_gp(a, b).values()]
        assert len(values) >= len(masks) ** 2
        assert all(type(c) is int for c in values)
    for parity in ("even", "odd"):
        entries = [c for row in klein._table_transpose(parity) for _, c in row]
        assert len(entries) >= 32 and all(type(c) is int for c in entries)


def test_descents_store_integral_coefficients(monkeypatch):
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        value = klein.proj_to_versor(t, mode).value
        built = counting(monkeypatch, Multivector, "__init__")
        blades.factorize_versor(value)
        monkeypatch.undo()
        stored = [c for args in built for c in args[0]._terms.values()]
        assert len(built) > 20 and stored
        assert all(is_integral_storage(c) for c in stored)
        if mode == "complex":
            assert any(type(c) is ComplexRational for c in stored)


def test_linear_algebra_stores_integral_entries(monkeypatch):
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        value = klein.proj_to_versor(t, mode).value
        systems = counting(monkeypatch, blades, "nullspace")
        factors = blades.factorize_versor(value)
        assert systems == []  # the descent reads its outer null spaces off the coefficients
        blades.ipns(blades.max_grade_part(value.gp(factors[-1])))
        monkeypatch.undo()
        assert len(systems) == 1
        result = factorize.factorize_matrix(t, mode)
        matrices = [args[0] for args in systems]
        matrices += [klein.induced_line_map(t).matrix,
                     factorize._polarity_product(result.polarities)]
        matrices += [p.matrix for p in result.polarities]
        entries = [x for m in matrices for x in m.entries]
        assert all(is_integral_storage(x) for x in entries)
        if mode == "complex":
            assert any(type(x) is ComplexRational for x in entries)
