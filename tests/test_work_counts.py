"""Work-count guards: the lift and the descent do each piece of work once.

Each test counts calls through a monkeypatched wrapper, so a regression
that reintroduces a cofactor inverse, a repeated similitude product, a
blade sum in the lift or a second outer null space per descent step or
classification fails here even when its output stays the same.  The
storage guards require the integer core: int blade tables, and int or
Gaussian-int coefficients in every multivector of a descent.
"""

import exactga.blades as blades
import exactga.klein as klein
from exactga.algebra import Multivector
from exactga.lie import lie_algebra
from exactga.linalg import Matrix
from exactga.scalars import ComplexRational
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION


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


def test_lift_uses_no_adjugate_and_one_similitude_product(monkeypatch):
    t = plane_correlation()
    adjugates = counting(monkeypatch, Matrix, "adjugate")
    sandwiches = counting(monkeypatch, klein.Sandwich6, "__post_init__")
    products = counting(monkeypatch, klein, "mat_mul")
    versor = klein.proj_to_versor(t)
    assert versor.parity == "odd"
    assert adjugates == []
    assert len(sandwiches) == 1
    assert len(products) == 2  # one triple product M^T Q M


def test_lift_reads_the_versor_off_the_tables(monkeypatch):
    t = plane_correlation()
    products = counting(monkeypatch, Multivector, "gp")
    wedges = counting(monkeypatch, Multivector, "wedge")
    before_descent = []
    descent = klein.factorize_versor

    def snapshot(value):
        before_descent.append((len(products), len(wedges)))
        return descent(value)

    monkeypatch.setattr(klein, "factorize_versor", snapshot)
    klein.proj_to_versor(t)
    assert len(before_descent) == 1
    gp_calls, wedge_calls = before_descent[0]
    assert wedge_calls == 0
    assert gp_calls <= 13  # 12 for the six relations, 1 for the pseudoscalar branch


def test_descent_computes_one_outer_null_space_per_step(monkeypatch):
    value = klein.proj_to_versor(plane_correlation()).value
    kernels = counting(monkeypatch, blades, "_kernel_of_vector_map")
    factors = blades.factorize_versor(value)
    steps = value.max_grade() - 1
    assert steps >= 2 and len(factors) == steps + 1
    assert len(kernels) == steps


def test_classification_computes_one_outer_null_space(monkeypatch):
    e = klein.klein_algebra().e
    kernels = counting(monkeypatch, blades, "_kernel_of_vector_map")
    result = klein.classify_blade(e(1).wedge(e(4)).wedge(e(2) + e(5)))
    assert result.tag is klein.ManifoldKind.REGULUS
    assert len(kernels) == 1


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
