"""Exact elimination checked against sympy's DomainMatrix over QQ and QQ_I.

The reduced row echelon form (``helpers.rref``, over the package's
elimination), the determinant and the rank are unique, so they are compared
directly.  Kernel bases are compared vector by vector:
each of sympy's vectors is scaled to 1 at its free column, as ``nullspace``
builds them, and then gets the same integer normalization.  Besides small
rationals the cases hold integral and Gaussian-integral matrices, small and
of 72-bit entries, which the fraction-free elimination takes without
clearing denominators (the path of the IPNS systems).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from exactga.linalg import Matrix, determinant, mat_mul, normalize_vector, nullspace, rank
from exactga.scalars import ComplexRational, imag_part, real_part
from helpers import rand_fraction, rref


def _rational(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _to_sympy(x, domain):
    if domain is QQ:
        return QQ(x.numerator, x.denominator)
    re_part, im_part = real_part(x), imag_part(x)
    return QQ_I(QQ(re_part.numerator, re_part.denominator),
                QQ(im_part.numerator, im_part.denominator))


def _from_sympy(x, domain):
    if domain is QQ:
        return _rational(x)
    im_part = _rational(x.y)
    return ComplexRational(_rational(x.x), im_part) if im_part else _rational(x.x)


def _oracle(m: Matrix, domain) -> DomainMatrix:
    rows = [[_to_sympy(v, domain) for v in m.row(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), domain)


def _entry(rng, domain, bits=None):
    """A sparse entry, so that zero pivots and row swaps are common.

    Small rationals by default; with ``bits``, integers (Gaussian integers
    in QQ_I) whose parts have up to that many bits.
    """
    if rng.random() < 0.3:
        return Fraction(0)
    if bits is None:
        part = rand_fraction
    else:
        def part(rng):
            return rng.randint(-(1 << bits), 1 << bits)
    if domain is QQ or rng.random() < 0.3:
        return part(rng)
    return ComplexRational(part(rng), part(rng))


def _random_matrix(rng, rows, cols, domain, kind, bits=None) -> Matrix:
    """A full random, a low-rank product, or a zero matrix of the given shape."""
    def entries(n, m):
        return [[_entry(rng, domain, bits) for _ in range(m)] for _ in range(n)]

    if kind == "zero":
        return Matrix.zeros(rows, cols)
    if kind == "low-rank":
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        return mat_mul(Matrix.from_rows(entries(rows, k)), Matrix.from_rows(entries(k, cols)))
    return Matrix.from_rows(entries(rows, cols))


def _cases(seed: int, domain, square: bool, bits=None):
    rng = random.Random(seed)
    for kind in ("full", "low-rank", "zero"):
        for _ in range(12 if kind != "zero" else 3):
            rows = rng.randint(1, 5)
            cols = rows if square else rng.randint(1, 6)
            yield _random_matrix(rng, rows, cols, domain, kind, bits)


def _check_elimination(m: Matrix, domain):
    oracle = _oracle(m, domain)
    reduced, pivots = oracle.rref()
    rows, got_pivots = rref(m)
    assert got_pivots == list(pivots)
    assert rows == [[_from_sympy(v, domain) for v in row] for row in reduced.to_list()]
    assert rank(m) == oracle.rank()
    kernel = oracle.nullspace().to_list() if len(pivots) < m.cols else []
    free = [c for c in range(m.cols) if c not in pivots]
    expected = []
    for f, vec in zip(free, kernel, strict=True):
        vec = [_from_sympy(v, domain) for v in vec]
        expected.append(normalize_vector([v / vec[f] for v in vec]))
    assert nullspace(m) == expected
    if m.rows == m.cols:
        assert determinant(m) == _from_sympy(oracle.det(), domain)


@pytest.mark.parametrize("domain", [QQ, QQ_I], ids=["QQ", "QQ_I"])
@pytest.mark.parametrize("square", [False, True], ids=["rectangular", "square"])
def test_rref_rank_and_nullspace_match_sympy(domain, square):
    for m in _cases(31 if square else 37, domain, square):
        _check_elimination(m, domain)


@pytest.mark.parametrize("domain", [QQ, QQ_I], ids=["QQ", "QQ_I"])
def test_determinant_matches_sympy(domain):
    for m in _cases(41, domain, square=True):
        assert determinant(m) == _from_sympy(_oracle(m, domain).det(), domain)


@pytest.mark.parametrize("bits", [2, 72], ids=["small", "wide"])
@pytest.mark.parametrize("domain", [QQ, QQ_I], ids=["ZZ", "ZZ_I"])
@pytest.mark.parametrize("square", [False, True], ids=["rectangular", "square"])
def test_integral_elimination_matches_sympy(domain, square, bits):
    count = 0
    for m in _cases(43 if square else 47, domain, square, bits):
        assert all(type(x) is int or type(x.re) is type(x.im) is int for x in m.entries)
        _check_elimination(m, domain)
        count += 1
    assert count == 27
