import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactga.linalg import (
    LinAlgError,
    Matrix,
    _joined,
    _normalized_parts,
    _skew_chain_product,
    determinant,
    mat_mul,
    normalize_vector,
    nullspace,
    proportionality,
    rank,
    ratio,
)
from exactga.scalars import ComplexRational, ScalarError, as_scalar, canonical
from helpers import (
    adjugate,
    cofactor_det,
    complex_normalize_vector,
    naive_chain_product,
    rand_coefficient,
    rand_fraction,
    solve_linear,
    stored_types,
)


def rand_matrix(rng, rows, cols, span=4):
    return Matrix.from_rows([[rand_fraction(rng, span) for _ in range(cols)]
                             for _ in range(rows)])


def test_nullspace_of_zero_map():
    z = Matrix.zeros(3, 3)
    basis = nullspace(z)
    assert len(basis) == 3
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_of_identity():
    assert nullspace(Matrix.identity(4)) == []


def test_nullspace_of_hyperplane_row():
    row = Matrix.from_rows([[1, -1, -3, 0, 4, 4]])
    basis = nullspace(row)
    assert len(basis) == 5
    for vec in basis:
        assert vec[0] - vec[1] - 3 * vec[2] + 4 * vec[4] + 4 * vec[5] == 0
        # integer entries, content one, positive leading entry
        assert all(v.denominator == 1 for v in map(Fraction, vec))
        lead = next(v for v in vec if v)
        assert lead > 0


def test_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for vec in nullspace(m):
            assert all(not v for v in m.apply(vec))


def test_rank_nullity_against_row_reduction_oracle():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        # oracle: brute-force rank = size of the largest nonsingular minor
        r = 0
        from itertools import combinations

        for k in range(1, min(rows, cols) + 1):
            found = False
            for rsel in combinations(range(rows), k):
                for csel in combinations(range(cols), k):
                    sub = Matrix.from_rows([[m[i, j] for j in csel] for i in rsel])
                    if cofactor_det(sub) != 0:
                        found = True
                        break
                if found:
                    break
            if found:
                r = k
        assert rank(m) == r
        assert r + len(nullspace(m)) == cols


def test_mat_mul_identity_and_zero():
    i4 = Matrix.identity(4)
    assert mat_mul(i4, i4) == i4
    rng = random.Random(3)
    m = rand_matrix(rng, 4, 4)
    assert mat_mul(m, Matrix.zeros(4, 4)).is_zero()
    assert mat_mul(m, i4) == m
    n = rand_matrix(rng, 4, 4)
    assert m @ n == mat_mul(m, n) != mat_mul(n, m)  # the operator is the one general product


def test_mat_mul_dimension_mismatch():
    with pytest.raises(LinAlgError):
        mat_mul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def _rand_factor(rng, rows, cols, kinds) -> Matrix:
    entries = [rng.choice(kinds) for _ in range(rows * cols)]
    return Matrix(rows, cols, tuple(0 if rng.random() < 0.2 else rand_coefficient(rng, kind)
                                    for kind in entries))


def _chain_cases():
    """Seeded chains: 0-6 square factors, and non-square shapes."""
    rng = random.Random("linalg/chain")
    mixes = (("int",), ("int", "fraction"), ("int", "gaussian"),
             ("int", "fraction", "gaussian", "gaussian-rational"))
    cases = []
    for n in range(300):
        kinds = mixes[n % 4]
        if n % 3:
            count, size = n % 7, rng.choice((1, 4, 6))
            shapes = [(size, size)] * count
        else:
            dims = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
            size, shapes = dims[0], list(zip(dims, dims[1:]))
        cases.append((size, [_rand_factor(rng, r, c, kinds) for r, c in shapes]))
    # imaginary parts that cancel: i * i, (1 + i)(1 - i), and a Gaussian row
    # against a column that makes it real
    i = ComplexRational(0, 1)
    cases += [(1, [Matrix(1, 1, (i,)), Matrix(1, 1, (i,))]),
              (2, [Matrix(2, 2, ("1+1i", 0, 0, "1/2i")), Matrix(2, 2, ("1-1i", 0, 0, "2i"))]),
              (1, [Matrix(1, 2, ("1+1i", "1-1i")), Matrix(2, 1, (1, 1))]),
              (2, [Matrix(2, 2, ("3i", 0, 0, 1)), Matrix.identity(2),
                   Matrix(2, 2, ("-1/3i", 0, 0, 2))])]
    return cases


def test_mat_mul_chains_match_the_entrywise_product():
    cases = _chain_cases()
    cancelled = gaussian = 0
    for rows, factors in cases:
        got = reduce(mat_mul, factors, Matrix.identity(rows))
        expected = naive_chain_product(factors, rows)
        assert (got.rows, got.cols) == (rows, factors[-1].cols if factors else rows)
        assert got.row_lists() == expected
        stored = [canonical(x) for row in expected for x in row]
        assert stored_types(got.entries) == stored_types(stored)
        has_gaussian = any(type(x) is ComplexRational for f in factors for x in f.entries)
        gaussian += has_gaussian
        cancelled += has_gaussian and not any(type(x) is ComplexRational for x in got.entries)
    assert gaussian >= 100 and cancelled >= 4
    assert {len(factors) for _, factors in cases} >= set(range(7))


def test_chain_kernel_checks_every_shape():
    """A chain folded through mat_mul names the first mismatched shape; an empty chain is the identity."""
    with pytest.raises(LinAlgError, match="2x3 @ 2x3"):
        reduce(mat_mul, [Matrix.zeros(2, 3), Matrix.zeros(2, 3)], Matrix.identity(2))
    with pytest.raises(LinAlgError, match="3x3 @ 2x2"):
        reduce(mat_mul, [Matrix.identity(2)], Matrix.identity(3))
    assert reduce(mat_mul, [], Matrix.identity(3)) == Matrix.identity(3)


_small_fractions = st.fractions(-40, 40, max_denominator=12)
_ENTRIES = {
    "int": st.integers(-10**12, 10**12),
    "fraction": _small_fractions,
    "gaussian": st.builds(ComplexRational, st.integers(-60, 60), st.integers(-60, 60)),
    "gaussian-rational": st.builds(ComplexRational, _small_fractions, _small_fractions),
}


_ABOVE_DIAGONAL = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _skew(upper) -> Matrix:
    """The skew 4x4 matrix with the entries ``upper`` above the diagonal."""
    rows = [[0] * 4 for _ in range(4)]
    for (i, j), s in zip(_ABOVE_DIAGONAL, map(as_scalar, upper)):
        rows[i][j], rows[j][i] = s, -s
    return Matrix.from_rows(rows)


@st.composite
def _skew_chains(draw):
    """0-6 skew factors with entries of a mix of kinds, some with a zero row."""
    kinds = draw(st.sets(st.sampled_from(sorted(_ENTRIES)), min_size=1))
    entry = st.one_of(st.just(0), *(_ENTRIES[k] for k in sorted(kinds)))
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        upper = draw(st.lists(entry, min_size=6, max_size=6))
        zero_row = draw(st.sampled_from((None, None, 0, 1, 2, 3)))
        factors.append(_skew([0 if zero_row in pair else x
                              for pair, x in zip(_ABOVE_DIAGONAL, upper)]))
    return factors


_I = ComplexRational(0, 1)


@settings(max_examples=80, deadline=None, database=None)
@given(_skew_chains())
@example([])
@example([_skew((_I, 0, 0, 0, 0, 0))] * 2)  # i * i: every imaginary part cancels
@example([_skew(("1+1i", 0, 0, "1/2i", 0, 3)), _skew(("1-1i", 0, 0, "2i", 0, 1))])
@example([_skew((_I, 2, 0, 0, "1-1i", 0)), _skew((0, 0, 0, 0, 0, 0)), _skew((1, 2, 3, 4, 5, 6))])
@example([_skew((k, "1/2", "2-1i", 0, "1/3i", -k)) for k in range(1, 7)])  # six Gaussian factors
def test_skew_chain_kernel_matches_the_entrywise_product(factors):
    # values, and the stored types that canonical gives the public product
    got = _skew_chain_product(factors)
    expected = naive_chain_product(factors, 4)
    assert got.row_lists() == expected
    assert stored_types(got.entries) == stored_types(
        [canonical(x) for row in expected for x in row])


def test_determinant_against_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert determinant(m) == cofactor_det(m)


def test_determinant_identity_and_singular():
    assert determinant(Matrix.identity(4)) == 1
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert determinant(singular) == 0
    with pytest.raises(LinAlgError):
        determinant(Matrix.zeros(2, 3))


def test_adjugate_identity():
    rng = random.Random(13)
    for _ in range(10):
        m = rand_matrix(rng, 4, 4)
        d = determinant(m)
        assert mat_mul(m, adjugate(m)) == Matrix.identity(4).scale(d)


def test_solve_linear():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve_linear(m, [5, 6])
    assert m.apply(x) == (Fraction(5), Fraction(6))
    inconsistent = Matrix.from_rows([[1, 1], [1, 1]])
    assert solve_linear(inconsistent, [0, 1]) is None


def test_proportionality():
    a = Matrix.from_rows([[2, 4], [0, 6]])
    b = Matrix.from_rows([[1, 2], [0, 3]])
    assert proportionality(a, b) == 2
    assert proportionality(b, a) == Fraction(1, 2)
    assert proportionality(a, Matrix.identity(2)) is None
    assert proportionality(Matrix.zeros(2, 2), Matrix.zeros(2, 2)) == 1
    # the same entries in another shape are not a multiple
    assert proportionality(a, Matrix(1, 4, b.entries)) is None


_rationals = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=5))
# internal forms: ints, Fractions and Gaussian values with int or Fraction parts
_scalars = st.one_of(_rationals, st.builds(ComplexRational, _rationals, _rationals)).map(canonical)


@st.composite
def _ratio_cases(draw):
    """(xs, ys) with xs = c * ys, zeros among the ys and c, and a few entries redrawn."""
    n = draw(st.integers(0, 6))
    ys = draw(st.lists(st.one_of(st.just(0), _scalars), min_size=n, max_size=n))
    c = draw(st.one_of(st.just(0), _scalars))
    xs = [canonical(c * y) for y in ys]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else ():
        xs[i] = draw(st.one_of(st.just(0), _scalars))
    return xs, ys


@settings(max_examples=300, deadline=None, database=None)
@given(_ratio_cases())
def test_ratio_against_its_definition(case):
    xs, ys = case
    got = ratio(xs, ys)
    if not any(xs) and not any(ys):
        assert got == 1 and type(got) is Fraction
        return
    # the only c that can work is x_k / y_k at a nonzero y_k
    k = next((i for i, y in enumerate(ys) if y), None)
    candidate = None if k is None else as_scalar(xs[k]) / as_scalar(ys[k])
    works = (candidate is not None and candidate != 0
             and all(x == candidate * y for x, y in zip(xs, ys)))
    if not works:
        assert got is None
        return
    assert got == candidate
    assert type(got) is Fraction or (type(got) is ComplexRational
                                     and type(got.re) is type(got.im) is Fraction)


def test_matrix_json_roundtrip():
    m = Matrix.from_rows([[Fraction(1, 2), 3], [-4, Fraction(5, 7)]])
    assert Matrix.from_json(m.to_json()) == m


def test_matrix_json_rejects_garbage():
    with pytest.raises((LinAlgError, Exception)):
        Matrix.from_json("nope")


def test_skew_check():
    assert Matrix.from_rows([[0, 1], [-1, 0]]).is_skew()
    assert not Matrix.from_rows([[0, 1], [1, 0]]).is_skew()
    assert not Matrix.zeros(2, 3).is_skew()
    # against the entrywise definition: skew matrices, and each with one entry changed
    rng = random.Random("linalg/skew")
    for _ in range(200):
        n, kind = rng.randint(1, 5), rng.choice(("int", "fraction", "gaussian"))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rand_coefficient(rng, kind)
                rows[j][i] = -rows[i][j]
        i, j = rng.randrange(n), rng.randrange(n)
        for m in (rows, [r[:j] + [r[j] + (k == i)] + r[j + 1:] for k, r in enumerate(rows)]):
            m = Matrix.from_rows(m)
            assert m.is_skew() == all(m[i, j] == -m[j, i] for i in range(n) for j in range(n))
        assert Matrix.from_rows(rows).is_skew()


def test_constructor_refuses_floats_and_booleans():
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(ScalarError):
            Matrix(2, 2, (bad, 0, 0, 1))
        with pytest.raises(ScalarError):
            Matrix.from_rows([[1, 0], [0, bad]])


def test_constructor_stores_the_internal_form():
    m = Matrix(2, 2, (Fraction(4, 2), "1/3", ComplexRational(2, 0), ComplexRational(1, 3)))
    assert m.entries == (2, Fraction(1, 3), 2, ComplexRational(1, 3))
    assert [type(x) for x in m.entries[:3]] == [int, Fraction, int]
    assert type(m[1, 1].re) is int and type(m[1, 1].im) is int
    assert Matrix.identity(2).entries == (1, 0, 0, 1)
    assert all(type(x) is int for x in Matrix.identity(3).entries + Matrix.zeros(2, 3).entries)


def test_nullspace_with_a_gaussian_pivot():
    # the pivot 1+1i is not removed by rational content: the kernel vector is
    # scaled to 1 at its free column before normalization
    assert nullspace(Matrix.from_rows([["1+1i", 2]])) == [(ComplexRational(1, -1), -1)]
    assert nullspace(Matrix.from_rows([["2i", "1+1i"]])) == [(ComplexRational(1, -1), -2)]


@st.composite
def _normalize_cases(draw):
    """A vector of one kind of entry, with zeros and small ints among them,
    in the public or the internal form."""
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    entry = st.one_of(st.just(0), st.integers(-4, 4), _ENTRIES[kind])
    vec = draw(st.lists(entry, max_size=7))
    return [canonical(v) for v in vec] if draw(st.booleans()) else vec


@settings(max_examples=300, deadline=None, database=None)
@given(_normalize_cases())
@example([0, 0, 0])
@example([Fraction(0), ComplexRational(0, 0), 0])
@example([Fraction(-2, 3), ComplexRational(1, 2), 4])  # a negative real lead
@example([0, ComplexRational(0, -2), ComplexRational(3, 1)])  # zero real part, negative imaginary
@example([ComplexRational(0, Fraction(-1, 2)), Fraction(1, 3)])
@example([0, Fraction(-3, 4), Fraction(5, 6), 2])  # a real vector with a negative lead
@example([Fraction(0), Fraction(0)])
def test_normalize_vector_matches_the_complex_rational_oracle(vec):
    # the real path and the part-list path give the values and the stored
    # types of the same steps on ComplexRational values
    assert stored_types(normalize_vector(vec)) == stored_types(complex_normalize_vector(vec))


def test_normalize_vector_int_path_matches_the_general_path():
    # plain ints skip canonical and the denominators; the part-list path,
    # fed the same values with zero imaginary parts, must give the same ints
    rng = random.Random("linalg/normalize")
    vectors = [[], [0, 0, 0], [0, -4, 6], [3], [-1, 0]]
    vectors += [[rng.choice((0, 0, 1, -1)) * rng.randint(0, 10**rng.randint(1, 30))
                 * rng.choice((1, 6, -12)) for _ in range(rng.randint(1, 6))]
                for _ in range(300)]
    for vec in vectors:
        expected = _joined(_normalized_parts(vec + [0] * len(vec)))
        got = normalize_vector(vec)
        assert got == expected and all(type(x) is int for x in got)
        assert not got or next((x for x in got if x), 0) >= 0
