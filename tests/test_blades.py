import random

import pytest

from exactga.algebra import Algebra, proportional
from exactga.blades import (
    Blade,
    BladeError,
    ipns,
    is_null_blade,
    max_grade_part,
    opns,
)
from exactga.klein import bilinear, klein_algebra
from exactga.lie import lie_algebra
from exactga.linalg import Matrix
from helpers import (
    ipns_by_elimination,
    opns_by_elimination,
    rand_coefficient,
    rand_invertible_vector,
    rand_versor,
    vector_in_span,
)

KLEIN = klein_algebra()
E = KLEIN.e


def span_dimension(vectors):
    from exactga.linalg import Matrix, rank

    rows = [list(v.coordinates()) for v in vectors]
    return rank(Matrix.from_rows(rows)) if rows else 0


def same_span(a, b):
    return (span_dimension(a) == span_dimension(b)
            == span_dimension(a + b))


def test_opns_of_pseudoscalar_is_everything():
    basis = opns(KLEIN.pseudoscalar())
    assert len(basis) == 6
    assert span_dimension(basis) == 6


def test_opns_of_two_blade():
    basis = opns(E(1, 2))
    assert len(basis) == 2
    assert same_span(basis, [E(1), E(2)])


def test_opns_dimension_is_grade():
    rng = random.Random(1)
    for k in (1, 2, 3, 4, 5):
        vecs = []
        while span_dimension(vecs) < k:
            vecs = [rand_invertible_vector(rng, KLEIN) for _ in range(k)]
        blade = vecs[0]
        for v in vecs[1:]:
            blade = blade.wedge(v)
        if blade.is_zero():
            continue
        basis = opns(blade)
        assert len(basis) == k
        for b in basis:
            assert b.wedge(blade).is_zero()


def test_ipns_of_pseudoscalar_is_trivial():
    assert ipns(KLEIN.pseudoscalar()) == []


def test_ipns_of_vector_is_orthogonal_hyperplane():
    basis = ipns(E(1))
    assert len(basis) == 5
    assert same_span(basis, [E(1), E(2), E(3), E(5), E(6)])
    for b in basis:
        assert bilinear(b, E(1)) == 0


def test_ipns_matches_opns_of_dual():
    rng = random.Random(2)
    for _ in range(10):
        u = rand_invertible_vector(rng, KLEIN)
        v = rand_invertible_vector(rng, KLEIN)
        blade = u.wedge(v)
        if blade.is_zero():
            continue
        a = ipns(blade)
        b = opns(blade.dual())
        assert len(a) == len(b) == 4
        assert same_span(a, b)


def test_opns_matches_ipns_of_dual():
    rng = random.Random(5)
    for _ in range(10):
        u = rand_invertible_vector(rng, KLEIN)
        v = rand_invertible_vector(rng, KLEIN)
        blade = u.wedge(v)
        if blade.is_zero():
            continue
        assert same_span(opns(blade), ipns(blade.dual()))


def test_ipns_dimension_complements_grade():
    rng = random.Random(3)
    for k in (1, 2, 3):
        vecs = [rand_invertible_vector(rng, KLEIN) for _ in range(k)]
        blade = vecs[0]
        for v in vecs[1:]:
            blade = blade.wedge(v)
        if blade.is_zero():
            continue
        basis = ipns(blade)
        assert len(basis) == 6 - k
        for b in basis:
            assert b.inner(blade).is_zero()


def test_null_blades():
    assert is_null_blade(E(1))
    assert is_null_blade(E(1).wedge(E(2)))
    square = (E(1) + E(4)).wedge(E(2) + E(5))
    assert not is_null_blade(square)


def test_max_grade_part():
    g = KLEIN.scalar(7)
    assert max_grade_part(g).grade == 0
    x = KLEIN.scalar(1) + 3 * E(1, 2) + E(1, 2, 3, 4)
    top = max_grade_part(x)
    assert top.grade == 4
    assert top.value == E(1, 2, 3, 4)
    with pytest.raises(BladeError):
        max_grade_part(KLEIN.zero())


def test_max_grade_of_versor_product():
    rng = random.Random(4)
    for k in (2, 3, 4):
        g, vectors = rand_versor(rng, KLEIN, k)
        wedge = vectors[0]
        for v in vectors[1:]:
            wedge = wedge.wedge(v)
        if wedge.is_zero():
            continue  # linearly dependent factors
        assert max_grade_part(g).grade == k


def test_max_grade_of_reference_versor(reference_versor):
    top = max_grade_part(reference_versor)
    assert top.grade == 6
    assert top.value == -KLEIN.pseudoscalar()


def test_descent_intermediate_grade5(reference_versor, reference_factors):
    from conftest import REFERENCE_DESCENT_GRADE5

    target = KLEIN.mv({sum(1 << (i - 1) for i in idx): c
                       for idx, c in REFERENCE_DESCENT_GRADE5.items()})
    g1 = reference_versor.gp(reference_factors[0])
    assert proportional(g1.grade(5), target) is not None
    # its outer null space is the hyperplane a1 - a2 - 3a3 + 4a5 + 4a6 = 0
    basis = opns(max_grade_part(g1))
    assert len(basis) == 5
    for vec in basis:
        a = vec.coordinates()
        assert a[0] - a[1] - 3 * a[2] + 4 * a[4] + 4 * a[5] == 0


def test_blade_construction_validates_low_grades():
    with pytest.raises(BladeError):
        Blade(E(1, 2) + E(3, 4), 2)  # fails the wedge-square test
    with pytest.raises(BladeError):
        Blade(E(1, 2) + E(3, 4), 3)  # not homogeneous
    ok = Blade((E(1) + E(4)).wedge(E(2)), 2)
    assert ok.grade == 2
    nondecomposable3 = E(1, 2, 3) + E(4, 5, 6)
    with pytest.raises(BladeError):
        Blade(nondecomposable3, 3)
    # higher grades are checked too: this 4-vector's outer null space is span{e3, e4}
    with pytest.raises(BladeError):
        Blade(E(1, 2, 3, 4) + E(3, 4, 5, 6), 4)


def test_opns_errors_on_zero():
    with pytest.raises(BladeError):
        opns(KLEIN.zero())
    with pytest.raises(BladeError):
        ipns(KLEIN.zero())


def test_vector_in_span():
    basis = [E(1), E(2)]
    assert vector_in_span(E(1) + 2 * E(2), basis)
    assert not vector_in_span(E(3), basis)


ORACLE_ALGEBRAS = {
    "klein": klein_algebra(),
    "lie": lie_algebra(),
    "degenerate": Algebra(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]])),
    "dense": Algebra(Matrix.from_rows(
        [[2, 1, 0, -1, 3], [1, 0, 2, 1, 0], [0, 2, -1, 0, 1], [-1, 1, 0, 3, 2],
         [3, 0, 1, 2, -2]])),
}


def rand_sparse_vector(rng, alg, kind):
    return alg.vector([rand_coefficient(rng, rng.choice(("int", kind)))
                       if rng.random() < 0.6 else 0 for _ in range(alg.dim)])


def rand_k_vector(rng, alg, k, kind, blades=1):
    """A sum of wedges of k random sparse vectors: a blade when blades == 1."""
    total = alg.zero()
    for _ in range(blades):
        term = alg.scalar(rand_coefficient(rng, kind) or 1)
        for _ in range(k):
            term = term.wedge(rand_sparse_vector(rng, alg, kind))
        total = total + term
    return total


def as_json(vectors):
    return [v.to_json() for v in vectors]


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_null_spaces_match_elimination(name):
    """The closed-form OPNS and the IPNS system equal the wedge- and inner-map kernels."""
    alg = ORACLE_ALGEBRAS[name]
    rng = random.Random(f"blades/oracle/{name}")
    compared = 0
    for kind in ("int", "fraction", "gaussian", "gaussian-rational"):
        for k in range(alg.dim + 1):
            for _ in range(10):
                b = rand_k_vector(rng, alg, k, kind)
                if b.is_zero():
                    continue
                assert as_json(opns(b)) == as_json(opns_by_elimination(b))
                assert as_json(ipns(b)) == as_json(ipns_by_elimination(b))
                compared += 1
    assert compared >= 30 * (alg.dim + 1)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_decomposability_matches_elimination(name):
    """A k-vector is a blade exactly when its wedge-map kernel has dimension k."""
    alg = ORACLE_ALGEBRAS[name]
    rng = random.Random(f"blades/decomposable/{name}")
    refused = 0
    for kind in ("int", "gaussian"):
        for k in range(2, alg.dim - 1):
            for _ in range(10):
                b = rand_k_vector(rng, alg, k, kind, blades=2)
                if b.is_zero():
                    continue
                if len(opns_by_elimination(b)) == k:
                    assert len(opns(Blade(b, k))) == k
                else:
                    with pytest.raises(BladeError, match=f"grade-{k} element is not decomposable"):
                        Blade(b, k)
                    refused += 1
    assert refused >= 10


def test_null_spaces_are_defined_on_blades_only():
    with pytest.raises(BladeError, match="not decomposable"):
        opns(E(1, 2) + E(3, 4))
    with pytest.raises(BladeError, match="not homogeneous"):
        ipns(E(1) + E(2, 3))
