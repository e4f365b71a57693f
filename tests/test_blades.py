import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactga.blades as blades
from exactga.algebra import AlgebraError, _working, proportional
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
from exactga.linalg import normalize_vector
from exactga.scalars import ComplexRational
from helpers import (
    ORACLE_ALGEBRAS,
    bits,
    ipns_by_elimination,
    joined_choose,
    joined_read_off,
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


def cofactor_read_off(b):
    """The read-off of any homogeneous k-vector: for f in F, the top mask, the
    e_j coordinate is conj(b_F) times the coefficient of e_j ^ e_(F-f)."""
    terms = b.terms
    top = max(terms)
    conj = terms[top].conjugate()
    for f in bits(top):
        rest = top ^ (1 << f)
        yield [b.algebra.blade_wedge(1 << j, rest)[0][1] * terms[rest | 1 << j] * conj
               if rest | 1 << j in terms else 0 for j in range(b.algebra.dim)]


def test_single_term_read_off_is_the_unit_vectors(monkeypatch):
    """The picks of what c e_F reads off are the e_f, the cofactor read-off
    normalized, with no ``ComplexRational`` product by c or its conjugate."""
    products = []

    def counted(original):
        def wrapper(*args):
            products.append(args)
            return original(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "conjugate"):
        monkeypatch.setattr(ComplexRational, name, counted(getattr(ComplexRational, name)))
    rng = random.Random("blades/monomial-read-off")
    compared = 0
    for alg in (klein_algebra(), lie_algebra()):
        for mask in range(1, 1 << alg.dim):
            for kind in ("int", "fraction", "gaussian", "gaussian-rational"):
                c = rand_coefficient(rng, kind) or 1
                b = alg.mv({mask: c})
                expected = [normalize_vector(v) for v in cofactor_read_off(b)]
                assert expected == [tuple(int(j == f) for j in range(alg.dim)) for f in bits(mask)]
                products.clear()
                assert [alg._pick(v) for v in alg._read_off(_working(b._terms))] == expected
                assert products == []
                compared += 1
    assert compared == 2 * 63 * 4


def probe_outcome(choose, space):
    try:
        return choose(space)
    except AlgebraError as exc:
        return type(exc), str(exc)


gaussian_parts = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def split_top_parts(draw):
    """A Gaussian or Gaussian-rational k-vector of Klein's, Lie's or a dense form, split."""
    alg = ORACLE_ALGEBRAS[draw(st.sampled_from(("klein", "lie", "dense")))]
    k = draw(st.integers(1, alg.dim))
    masks = alg.basis_masks(grade=k)
    picked = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=5, unique=True))
    coefficients = [ComplexRational(draw(gaussian_parts), draw(gaussian_parts))
                    for _ in picked]
    first = ComplexRational(draw(gaussian_parts), draw(gaussian_parts.filter(bool)))
    return alg, _working(alg.mv(dict(zip(picked, [first] + coefficients[1:])))._terms)


@settings(max_examples=80, deadline=None)
@given(split_top_parts())
def test_probes_on_parts_match_the_joined_probes(drawn):
    # the read-off, probes and pick on part lists give the pick, or the
    # refusal, of the joined read-off and Gaussian form values they replace;
    # a grade-1 part is the descent's remainder
    alg, top = drawn
    choose = lambda space: blades._choose(alg, space)
    oracle = lambda space: joined_choose(alg, space)
    if max(top).bit_count() == 1:
        parts = lambda: [alg._read_vector(top)]
        joined = lambda: [alg._multivector(top)._coordinates()]
    else:
        parts = lambda: alg._read_off(top)
        joined = lambda: joined_read_off(alg, top)
    assert probe_outcome(choose, parts()) == probe_outcome(oracle, joined())


@pytest.mark.parametrize("name", ["klein", "lie", "degenerate"])
def test_memoized_unit_picks_match_the_probe(name, monkeypatch):
    # every mask's memoized pick is _choose of its unit vectors; a totally
    # isotropic mask raises each time and is not memoized
    alg = ORACLE_ALGEBRAS[name]
    monkeypatch.setattr(alg, "_unit_picks", {})
    refused = 0
    for mask in range(1 << alg.dim):
        units = [[int(j == f) for j in range(alg.dim)] for f in bits(mask)]
        expected = probe_outcome(lambda space: blades._choose(alg, space), units)
        for _ in ("cold", "warm"):
            assert probe_outcome(lambda _: blades._unit_pick(alg, mask), None) == expected
        assert (mask in alg._unit_picks) is (type(expected) is tuple and len(expected) == alg.dim)
        refused += mask not in alg._unit_picks
    # the empty mask, and in Klein's and the degenerate form isotropic ones
    # such as e1 ^ e2; Lie's form has no null unit vector
    assert refused == 1 if name == "lie" else refused > 1
