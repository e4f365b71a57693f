"""The closed-form lift against an independent solve of the twisted adjoint.

The system alpha(g) e_j = T(e_j) g is assembled from basis products of the
orthogonal-basis oracle in ``helpers`` and its kernel is taken with sympy,
so the solve shares neither the library's blade products nor its
elimination.  The induced map and the pseudoscalar branch choice are the
library's own.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from exactga.algebra import NotAVersorError, proportional
from exactga.klein import (
    ComplexRequiredError,
    NotLiftableError,
    ProjTransform4,
    SingularTransformError,
    _table_transpose,
    induced_line_map,
    klein_algebra,
    proj_to_versor,
    versor_to_proj,
)
from exactga.linalg import Matrix, mat_mul
from exactga.scalars import ComplexRational, imag_part, rational_sqrt, real_part, scalar_sqrt
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION
from helpers import checked_lift, orthogonal_oracle_gp, rand_versor

KLEIN = klein_algebra()


@lru_cache(maxsize=2)
def _basis_products(parity: str):
    """Oracle products e_c e_j and e_i e_c over the unknown blades e_c."""
    unknown = KLEIN.basis_masks(parity=parity)
    blade = {m: KLEIN.mv({m: Fraction(1)}) for m in unknown}
    vec = [KLEIN.mv({1 << i: Fraction(1)}) for i in range(6)]
    right = [[orthogonal_oracle_gp(blade[c], vec[j]) for c in unknown] for j in range(6)]
    left = [[orthogonal_oracle_gp(vec[i], blade[c]) for c in unknown] for i in range(6)]
    return unknown, right, left


def _to_gaussian(x):
    re_part, im_part = real_part(x), imag_part(x)
    return QQ_I(QQ(re_part.numerator, re_part.denominator),
                QQ(im_part.numerator, im_part.denominator))


def _from_gaussian(x):
    re_part, im_part = (Fraction(int(p.numerator), int(p.denominator)) for p in (x.x, x.y))
    return ComplexRational(re_part, im_part) if im_part else re_part


def _oracle_kernel(T: Matrix, parity: str) -> list:
    """Kernel basis of the twisted-adjoint system, taken with sympy over Q(i)."""
    unknown, right, left = _basis_products(parity)
    sign = 1 if parity == "even" else -1
    out = KLEIN.basis_masks(parity="odd" if parity == "even" else "even")
    row_of = {(j, m): r for r, (j, m) in enumerate((j, m) for j in range(6) for m in out)}
    columns = []
    for k in range(len(unknown)):
        column = [Fraction(0)] * len(row_of)
        for j in range(6):
            for m, c in right[j][k].terms.items():
                column[row_of[j, m]] += sign * c
            for i in range(6):
                for m, c in left[i][k].terms.items():
                    column[row_of[j, m]] -= T[i, j] * c
        columns.append([_to_gaussian(x) for x in column])
    rows = [list(r) for r in zip(*columns)]
    kernel = DomainMatrix(rows, (len(rows), len(unknown)), QQ_I).nullspace()
    return kernel.to_list()


def _normalize(vec: list) -> list:
    """Scale to 1 at the last nonzero entry, then to a primitive Gaussian-integer
    vector whose first nonzero entry has a positive real part (or, when that
    vanishes, a positive imaginary part)."""
    last = next(x for x in reversed(vec) if x)
    vec = [x / last for x in vec]
    parts = [p for x in vec for p in (real_part(x), imag_part(x))]
    lcm = math.lcm(*(p.denominator for p in parts))
    gcd = math.gcd(*(p.numerator * (lcm // p.denominator) for p in parts))
    vec = [x * Fraction(lcm, gcd) for x in vec]
    lead = next(x for x in vec if x)
    if real_part(lead) < 0 or (real_part(lead) == 0 and imag_part(lead) < 0):
        vec = [-x for x in vec]
    return vec


def _isometry(t: ProjTransform4, scalar_mode: str) -> Matrix:
    g6 = induced_line_map(t)
    lam = g6.similitude_ratio()
    root = rational_sqrt(abs(lam))
    assert root is not None
    if lam < 0:
        assert scalar_mode == "complex"
        root = ComplexRational(0, root)
    return g6.matrix.scale(1 / root)


def _oracle_lift(t: ProjTransform4, scalar_mode: str):
    parity = "even" if t.kind == "collineation" else "odd"
    kernel = _oracle_kernel(_isometry(t, scalar_mode), parity)
    assert len(kernel) == 1
    coeffs = _normalize([_from_gaussian(x) for x in kernel[0]])
    value = KLEIN.mv(dict(zip(KLEIN.basis_masks(parity=parity), coeffs)))
    alternate = value.gp(KLEIN.pseudoscalar())
    return alternate if alternate.max_grade() < value.max_grade() else value


@pytest.mark.parametrize("rows, mode", [
    (REFERENCE_COLLINEATION, "rational"),
    (COMPLEX_VARIANT, "complex"),
])
def test_lift_matches_oracle_on_fixtures(rows, mode):
    t = ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
    assert proj_to_versor(t, mode).value == _oracle_lift(t, mode)


# Gaussian maps of real similitude ratio: a real scale (det 1, det 4) and,
# in complex mode, a Gaussian one (det -1)
GAUSSIAN_MAPS = [
    ([["1i", 0, 0, 0], [0, "-1i", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "rational"),
    ([["1+1i", 1, 0, 2], [0, "1+1i", 1, 0], [0, 0, "1-1i", 1], [0, 0, 0, "1-1i"]], "rational"),
    ([["1i", 0, 0, 0], [0, "1i", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "complex"),
]


@pytest.mark.parametrize("rows, mode", GAUSSIAN_MAPS)
def test_lift_matches_oracle_on_gaussian_maps(rows, mode):
    for kind in ("collineation", "correlation"):
        for action in ("points", "planes"):
            t = ProjTransform4(Matrix.from_rows(rows), kind, action)
            assert proj_to_versor(t, mode).value == _oracle_lift(t, mode)


def _random_transform(rng: random.Random, kind: str, action: str) -> ProjTransform4:
    while True:
        k = rng.choice((2, 4, 6) if kind == "collineation" else (1, 3, 5))
        try:
            return versor_to_proj(rand_versor(rng, KLEIN, k)[0], action)
        except (NotAVersorError, SingularTransformError):
            continue


@pytest.mark.parametrize("kind", ["collineation", "correlation"])
@pytest.mark.parametrize("action", ["points", "planes"])
def test_lift_matches_oracle_on_random_lifts(kind, action):
    rng = random.Random(f"lift-oracle/{kind}/{action}")
    t = _random_transform(rng, kind, action)
    assert proj_to_versor(t, "rational").value == _oracle_lift(t, "rational")
    # negating one row flips the sign of the similitude ratio: complex mode only
    rows = t.matrix.row_lists()
    flipped = ProjTransform4(Matrix.from_rows([[-x for x in rows[0]]] + rows[1:]), kind, action)
    with pytest.raises(ComplexRequiredError):
        proj_to_versor(flipped, "rational")
    assert proj_to_versor(flipped, "complex").value == _oracle_lift(flipped, "complex")


def _refused(g, T: Matrix, parity: str, s=1) -> bool:
    try:
        checked_lift(g, T, s, parity)
    except NotLiftableError as exc:
        assert exc.diagnosis == {"reason": "empty-kernel"}
        return True
    return False


def test_non_orthogonal_map_has_no_versor():
    stretched = Matrix.from_rows([[2 if i == j == 0 else int(i == j) for j in range(6)]
                                  for i in range(6)])
    for parity in ("even", "odd"):
        for mask in KLEIN.basis_masks(parity=parity):
            assert _refused(KLEIN.mv({mask: Fraction(1)}), stretched, parity)


def test_isometry_of_the_other_parity_has_no_versor():
    identity = Matrix.identity(6)
    assert not _refused(KLEIN.scalar(1), identity, "even")
    for mask in KLEIN.basis_masks(parity="odd"):
        assert _refused(KLEIN.mv({mask: Fraction(1)}), identity, "odd")
    rng = random.Random("lift-oracle/odd-identity")
    for k in (1, 3, 5):
        assert _refused(rand_versor(rng, KLEIN, k)[0], identity, "odd")


def test_stacked_tables_are_inverted_by_their_transpose():
    rng = random.Random("lift-oracle/tables")
    for parity, scale, lengths in (("even", 8, (2, 4, 6)), ("odd", 4, (1, 3, 5))):
        rows = _table_transpose(parity)
        dense = [[Fraction(0)] * 32 for _ in rows]
        for k, row in enumerate(rows):
            for r, c in row:
                dense[k][r] = c
        transpose = Matrix.from_rows(dense)
        assert mat_mul(transpose, transpose.transpose()) == Matrix.identity(32).scale(scale)
        # M^T applied to the stacked tables of a versor gives back its coefficients
        for k in lengths:
            g = rand_versor(rng, KLEIN, k)[0]
            stacked = (versor_to_proj(g, "points").matrix.entries
                       + versor_to_proj(g, "planes").matrix.entries)
            coeffs = [g.coeff(m) for m in KLEIN.basis_masks(parity=parity)]
            assert list(transpose.apply(stacked)) == [scale * c for c in coeffs]


def test_lifts_pass_the_checks_they_no_longer_run():
    """The lift trusts the descent and the certificate alone; both dropped
    runtime checks hold on seeded lifts of every kind, action and mode."""
    rng = random.Random("lift-oracle/dropped-checks")
    cases = [(ProjTransform4(Matrix.from_rows(rows), "collineation", "points"), mode)
             for rows, mode in ((REFERENCE_COLLINEATION, "rational"),
                                (COMPLEX_VARIANT, "complex"))]
    for kind in ("collineation", "correlation"):
        for action in ("points", "planes"):
            for _ in range(6):
                t = _random_transform(rng, kind, action)
                rows = t.matrix.row_lists()
                flipped = Matrix.from_rows([[-x for x in rows[0]]] + rows[1:])
                cases += [(t, "rational"), (ProjTransform4(flipped, kind, action), "complex")]
    assert len(cases) == 50
    for t, mode in cases:
        versor = proj_to_versor(t, mode)
        g6 = induced_line_map(t)
        s = scalar_sqrt(g6.similitude_ratio())
        value, parity = versor.value, versor.parity
        # the six relations, for the value or its pseudoscalar partner (the branch)
        assert (not _refused(value, g6.matrix, parity, s)
                or not _refused(value.gp(KLEIN.pseudoscalar()), g6.matrix, parity, s))
        # the witness multiplies out to a multiple of the value
        product = KLEIN.scalar(1)
        for v in versor.witness:
            product = product.gp(v)
        assert proportional(product, value) is not None
