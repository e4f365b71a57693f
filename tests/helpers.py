"""Independent oracles and random generators for the test suite.

The diagonal-basis product here is a from-scratch implementation (bitmask
transposition counting over an orthogonal basis) used to cross-check the
library's metric-contraction product; it shares no code with the package.
The adjugate, the linear solve, the span membership test, the wedge- and
inner-map kernels (outer and inner null spaces by elimination), the
published coefficient tables, the per-term geometric, outer and inner
products, the norm-first descent, the descent that checks every step with a
``Blade``, Scherk's minimal length of an isometry, the six-relation check of
a lift, the entry-by-entry matrix chain product, ``normalize_vector`` on
``ComplexRational`` values, the sphere model's encoding and form on public
scalars, the ``Fraction(text)`` scalar parser and verify's checks with a
vector built per factor serve only as oracles, so
they live here rather than in the package.  So does ``rref``, the reduced
row echelon form read off the package's elimination, which the package
never needs.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from exactga.algebra import (
    Algebra,
    AlgebraError,
    Multivector,
    NullVersorError,
    _merge_sign,
    bilinear,
)
from exactga.blades import (
    Blade,
    NoNonNullVectorError,
    choose_nonnull_vector,
    factorize_versor,
    opns,
)
from exactga.klein import (
    NotLiftableError,
    NullPolarity,
    _alternating_actions,
    _polarity_product,
    coefficient_vector,
    klein_algebra,
    null_polarity_to_vector,
)
from exactga.lie import LieInfinity, LiePlane, LiePoint, LieSphere, lie_algebra
from exactga.linalg import (
    LinAlgError,
    Matrix,
    _gauss_jordan,
    _lcm_of_denominators,
    determinant,
    mat_mul,
    normalize_vector,
    nullspace,
    rank,
)
from exactga.scalars import ComplexRational, ScalarError, _make, _parts, as_scalar, canonical, \
    div, exact_div


_ORACLE_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)
_ORACLE_COMPLEX_RE = re.compile(
    r"(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<im>[+-]?\d+(?:/\d+)?)i", re.ASCII
)


def _oracle_rational(text: str, whole: str) -> Fraction:
    for digits in re.findall(r"\d+", text):  # the numerator first
        if len(digits) > 4300:
            raise ScalarError(f"scalar atom of {len(digits):,} digits is past the limit "
                              f"of 4,300 digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarError(f"zero denominator in scalar {whole!r}") from None


def fraction_parse_scalar(text: str):
    """The scalar grammar of ``parse_scalar``, each atom read by ``Fraction(text)``."""
    if not isinstance(text, str):
        raise ScalarError(f"scalar text must be a string, not {type(text).__name__}")
    s = text.replace(" ", "")
    if not s:
        raise ScalarError("empty scalar string")
    if _ORACLE_RATIONAL_RE.fullmatch(s):
        return _oracle_rational(s, text)
    m = _ORACLE_COMPLEX_RE.fullmatch(s)
    if m:
        re_txt = m.group("re")
        re_part = _oracle_rational(re_txt, text) if re_txt else Fraction(0)
        im_part = _oracle_rational(m.group("im"), text)
        return ComplexRational(re_part, im_part) if im_part else re_part
    raise ScalarError(f"cannot parse scalar {text!r}")


def bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def diag_blade_product(a: int, b: int, squares) -> tuple[int, Fraction]:
    """Product of two basis monomials over an orthogonal basis.

    Returns (mask, coefficient); the sign counts transpositions needed to
    sort the concatenated index list, and repeated indices contract to the
    given squares.
    """
    sign = 1
    # count swaps to move each index of b past the tail of a
    for j in bits(b):
        higher = len([i for i in bits(a) if i > j])
        if higher % 2:
            sign = -sign
    coeff = Fraction(sign)
    for j in bits(a & b):
        coeff *= squares[j]
    return a ^ b, coeff


def diag_gp(x: dict, y: dict, squares) -> dict:
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            m, c = diag_blade_product(a, b, squares)
            if c:
                acc[m] = acc.get(m, Fraction(0)) + ca * cb * c
    return {m: c for m, c in acc.items() if c}


def wedge_change_of_basis(terms: dict, columns) -> dict:
    """Rewrite wedge-basis terms through a linear substitution of generators.

    ``columns[i]`` holds the coefficients of old generator i over the new
    generators; blades expand multilinearly with alternating signs.
    """
    out = {}
    for mask, coeff in terms.items():
        expansion = {0: Fraction(1)}
        for i in bits(mask):
            nxt = {}
            for emask, ecoeff in expansion.items():
                for j, cj in enumerate(columns[i]):
                    if not cj or (emask >> j) & 1:
                        continue
                    below = len([t for t in bits(emask) if t > j])
                    sign = -1 if below % 2 else 1
                    m2 = emask | (1 << j)
                    nxt[m2] = nxt.get(m2, Fraction(0)) + ecoeff * cj * sign
            expansion = nxt
        for m, c in expansion.items():
            v = out.get(m, Fraction(0)) + coeff * c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


# Klein generators over the orthogonal basis f_i = e_i + e_{i+3},
# f_{i+3} = e_i - e_{i+3}; the f squares are (2, 2, 2, -2, -2, -2).
KLEIN_F_SQUARES = (Fraction(2),) * 3 + (Fraction(-2),) * 3


def klein_e_to_f_columns():
    cols = []
    half = Fraction(1, 2)
    for i in range(3):
        col = [Fraction(0)] * 6
        col[i] = half
        col[i + 3] = half
        cols.append(col)
    for i in range(3):
        col = [Fraction(0)] * 6
        col[i] = half
        col[i + 3] = -half
        cols.append(col)
    # index order: columns for e1..e6
    return [cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]]


def klein_f_to_e_columns():
    cols = []
    for i in range(3):
        col = [Fraction(0)] * 6
        col[i] = Fraction(1)
        col[i + 3] = Fraction(1)
        cols.append(col)
    for i in range(3):
        col = [Fraction(0)] * 6
        col[i] = Fraction(1)
        col[i + 3] = Fraction(-1)
        cols.append(col)
    return cols


def orthogonal_oracle_gp(x: Multivector, y: Multivector) -> Multivector:
    """Klein-basis product computed through the orthogonal basis."""
    e2f = klein_e_to_f_columns()
    f2e = klein_f_to_e_columns()
    xf = wedge_change_of_basis(x.terms, e2f)
    yf = wedge_change_of_basis(y.terms, e2f)
    pf = diag_gp(xf, yf, KLEIN_F_SQUARES)
    pe = wedge_change_of_basis(pf, f2e)
    return Multivector(x.algebra, pe)


def per_term_gp(x: Multivector, y: Multivector) -> Multivector:
    """The geometric product with one scalar multiplication per coefficient pair.

    Gaussian coefficients are multiplied as ``ComplexRational``s, so this
    shares only the cached blade tables with ``Multivector.gp``.
    """
    acc = {}
    for a, ca in x._terms.items():
        for b, cb in y._terms.items():
            cab = ca * cb
            for m, c in x.algebra.blade_gp(a, b):
                acc[m] = acc.get(m, 0) + cab * c
    return Multivector(x.algebra, acc)


def per_term_wedge(x: Multivector, y: Multivector) -> Multivector:
    """The outer product with its reordering sign computed for every coefficient pair."""
    x._check(y)
    acc = {}
    for a, ca in x._terms.items():
        for b, cb in y._terms.items():
            if a & b:
                continue
            m = a | b
            acc[m] = acc.get(m, 0) + ca * cb * _merge_sign(a, b)
    return Multivector(x.algebra, acc)


def per_term_inner(x: Multivector, y: Multivector) -> Multivector:
    """The generalized inner product, filtering each pair's ``blade_gp`` by grade."""
    x._check(y)
    acc = {}
    blade_gp = x.algebra.blade_gp
    for a, ca in x._terms.items():
        ka = bin(a).count("1")
        for b, cb in y._terms.items():
            target = abs(ka - bin(b).count("1"))
            cab = ca * cb
            for m, c in blade_gp(a, b):
                if bin(m).count("1") == target:
                    acc[m] = acc.get(m, 0) + cab * c
    return Multivector(x.algebra, acc)


def norm_first_factorize(g: Multivector) -> list[Multivector]:
    """The descent behind an up-front check that g g* is a nonzero scalar."""
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    if not g.norm():
        raise NullVersorError("null versors are outside the factorization domain")
    return factorize_versor(g)


def _require_nonzero_norm(g: Multivector) -> None:
    if not g.norm():
        raise NullVersorError("null versors are outside the factorization domain")


def checked_factorize_versor(g: Multivector) -> list[Multivector]:
    """The grade descent that builds a ``Blade``, and so runs its wedges, at every step.

    A failed descent, or one ending in a null vector or a mixed-grade
    remainder, is refused for the norm first, then with its own error.
    """
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    extracted = []
    current = g
    try:
        while (k := current.max_grade()) >= 2:
            v = choose_nonnull_vector(opns(Blade(current.grade(k), k)))
            nxt = current.gp(v)
            if nxt.is_zero() or nxt.max_grade() != k - 1:
                raise AlgebraError("grade descent failed to reduce the maximal grade")
            extracted.append(v)
            current = nxt
    except AlgebraError:
        _require_nonzero_norm(g)
        raise
    if current.max_grade() == 1:
        if current.grades() != {1} or not bilinear(current, current):
            _require_nonzero_norm(g)  # a mixed-grade remainder then fails in _coordinates
        extracted.append(current)
    return [g.algebra.vector(normalize_vector(v._coordinates())) for v in reversed(extracted)]


def scherk_length(t: Matrix) -> int:
    """The fewest reflections whose product is the isometry t of the Klein form Q.

    rank(t - Id), plus 2 when t != Id and the image of t - Id is totally
    isotropic, that is (t - Id)^T Q (t - Id) = 0 (P. Scherk, "On the
    decomposition of orthogonalities into symmetries", Proc. AMS 1, 1950).
    """
    d = t - Matrix.identity(t.rows)
    if d.is_zero():
        return 0
    isotropic = mat_mul(mat_mul(d.transpose(), klein_algebra().form), d).is_zero()
    return rank(d) + (2 if isotropic else 0)


def checked_lift(g: Multivector, G: Matrix, s, parity: str) -> Multivector:
    """g if alpha(g) (s e_j) = G(e_j) g on all six basis vectors (alpha(g) = -g if odd).

    Since s != 0 this is alpha(g) e_j = (G/s)(e_j) g; scaling by s instead of
    dividing by it keeps the products integral when G and g are.
    """
    alg = klein_algebra()
    se = s if parity == "even" else -s
    if g.is_zero() or not all(g.gp(alg.mv({1 << j: se})) == alg.vector(G.col(j)).gp(g)
                              for j in range(6)):
        raise NotLiftableError("no versor of the requested parity induces this map",
                               {"reason": "empty-kernel"})
    return g


def cofactor_det(m: Matrix) -> Fraction:
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if not m[0, j]:
            continue
        minor = Matrix.from_rows([[m[r, c] for c in range(n) if c != j]
                                  for r in range(1, n)])
        term = m[0, j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def adjugate(m: Matrix) -> Matrix:
    """Transposed cofactor matrix; satisfies m @ adj = det * I exactly."""
    if m.rows != m.cols:
        raise LinAlgError("adjugate needs a square matrix")
    n = m.rows
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = Matrix(n - 1, n - 1, tuple(m[r, c] for r in range(n) if r != i
                                               for c in range(n) if c != j))
            sign = -1 if (i + j) % 2 else 1
            cof[i][j] = sign * determinant(minor)
    return Matrix.from_rows(cof).transpose()


def naive_chain_product(factors, rows: int) -> list[list]:
    """The rows x rows identity times the factors, one entry at a time.

    A triple loop in public ``Fraction`` / ``ComplexRational`` arithmetic,
    which demotes an entry whose imaginary part cancels; it shares no code
    with the chain kernel of ``linalg``.
    """
    product = [[Fraction(int(i == j)) for j in range(rows)] for i in range(rows)]
    for f in factors:
        entries = [[as_scalar(f[i, j]) for j in range(f.cols)] for i in range(f.rows)]
        out = []
        for i in range(rows):
            row = []
            for j in range(f.cols):
                total = Fraction(0)
                for k in range(f.rows):
                    total = total + product[i][k] * entries[k][j]
                row.append(total)
            out.append(row)
        product = out
    return product


def complex_normalize_vector(vec) -> tuple:
    """``normalize_vector`` on whole scalars: ``ComplexRational`` arithmetic
    clears the denominators, divides out the content and fixes the lead sign."""
    if all(type(v) is int for v in vec):
        g = math.gcd(*vec)
        if next((v for v in vec if v), 0) < 0:
            g = -g
        return tuple(v // g for v in vec) if g else tuple(vec)
    vec = [canonical(v) for v in vec]
    lcm = _lcm_of_denominators(vec)
    if lcm > 1:
        vec = [canonical(v * lcm) for v in vec]
    g = math.gcd(*(p for v in vec for p in _parts(v)))
    if g > 1:
        vec = [exact_div(v, g) for v in vec]
    lead_real, lead_imag = _parts(next((v for v in vec if v), 0))
    if (lead_real or lead_imag) < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def stored_types(vec) -> list:
    """Each entry with its type, and for a ComplexRational the types of its parts."""
    return [(x, type(x)) + ((type(x.re), type(x.im)) if type(x) is ComplexRational else ())
            for x in vec]


LIE_DIAGONAL = (-1, 1, 1, 1, 1, -1)


def public_lie_form(x, y):
    """Lie's bilinear form, diag(-1, 1, 1, 1, 1, -1), on public scalars."""
    return sum((d * a * b for d, a, b in zip(LIE_DIAGONAL, x, y)), start=Fraction(0))


def public_lie_encode(element) -> tuple:
    """The six coordinates of a Lie element, formed on its public scalars:
    ((1 + |u|^2) / 2, (1 - |u|^2) / 2, u, 0) for a point u,
    ((1 + |p|^2 - r^2) / 2, (1 - |p|^2 + r^2) / 2, p, r) for a sphere,
    (h, -h, n, 1) for a plane and (1, -1, 0, 0, 0, 0) for infinity."""
    half = Fraction(1, 2)
    match element:
        case LiePoint(position=u):
            uu = sum((x * x for x in u), start=Fraction(0))
            return ((1 + uu) * half, (1 - uu) * half, *u, Fraction(0))
        case LieInfinity():
            return tuple(map(Fraction, (1, -1, 0, 0, 0, 0)))
        case LieSphere(center=p, radius=r):
            pp = sum((x * x for x in p), start=Fraction(0))
            return ((1 + pp - r * r) * half, (1 - pp + r * r) * half, *p, r)
        case LiePlane(normal=n, offset=h):
            return (h, -h, *n, Fraction(1))
    raise TypeError(element)


def rref(m: Matrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns: the rows of ``_gauss_jordan`` over d."""
    rows, pivots, d, _ = _gauss_jordan(m)
    return [[div(x, d) for x in row] for row in rows], pivots


def solve_linear(m: Matrix, rhs) -> tuple | None:
    """One exact solution of m x = rhs, or None when inconsistent."""
    aug = Matrix.from_rows([list(m.row(i)) + [rhs[i]] for i in range(m.rows)])
    rows, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x)


def vector_in_span(v: Multivector, basis: list[Multivector]) -> bool:
    """Exact membership of a grade-1 element in the span of grade-1 elements."""
    if v.is_zero():
        return True
    alg = v.algebra
    cols = [b.coordinates() for b in basis]
    rows = [[cols[j][i] for j in range(len(basis))] for i in range(alg.dim)]
    return solve_linear(Matrix.from_rows(rows), list(v.coordinates())) is not None


# -- the published coefficient tables -------------------------------------------

# The point and plane tables of an even (collineation) and an odd (correlation)
# element, typed out entry by entry from the published convention over the
# coefficient list of ``klein.coefficient_vector``, 1-indexed.  The library
# derives its tables from the six null polarities; these are its oracle.


def kernel_of_vector_map(alg: Algebra, image_fn) -> list[Multivector]:
    """Kernel of a linear map from grade-1 elements into the algebra.

    Its matrix has one column per generator and one row per mask that some
    image reaches; the kernel is that matrix's ``nullspace``.
    """
    n = alg.dim
    columns = [image_fn(alg.mv({1 << i: 1}))._terms for i in range(n)]
    masks = sorted(set().union(*columns))
    if not masks:
        return [alg.mv({1 << i: 1}) for i in range(n)]
    rows = [[columns[j].get(m, 0) for j in range(n)] for m in masks]
    return [alg.vector(vec) for vec in nullspace(Matrix.from_rows(rows))]


def opns_by_elimination(b: Multivector) -> list[Multivector]:
    return kernel_of_vector_map(b.algebra, lambda v: v.wedge(b))


def ipns_by_elimination(b: Multivector) -> list[Multivector]:
    return kernel_of_vector_map(b.algebra, lambda v: v.inner(b))


def published_collineation_table(g: list, action: str, m23_doubled: bool) -> Matrix:
    m = [[None] * 4 for _ in range(4)]
    if action == "points":
        m[0][0] = g[1] - g[20] - g[24] - g[32] - g[29] + g[9] + g[4] + g[13]
        m[1][1] = g[24] - g[9] + g[20] - g[13] - g[32] + g[1] + g[4] - g[29]
        m[2][2] = g[1] - g[13] - g[32] - g[4] + g[29] + g[9] - g[24] + g[20]
        m[3][3] = g[24] + g[13] + g[29] + g[1] - g[4] - g[9] - g[20] - g[32]
        m[0][1] = 2 * (g[7] + g[17])
        m[0][2] = 2 * (g[18] - g[3])
        m[0][3] = 2 * (g[19] + g[2])
        m[1][0] = -2 * (g[26] + g[16])
        m[1][2] = 2 * (g[5] + g[25])
        m[1][3] = 2 * (g[6] - g[22])
        m[2][0] = 2 * (g[15] - g[30])
        m[2][1] = 2 * (g[8] + g[28])
        m[2][3] = 2 * (g[21] + 2 * g[10]) if m23_doubled else 2 * (g[21] + g[10])
        m[3][0] = -2 * (g[31] + g[14])
        m[3][1] = 2 * (g[11] - g[27])
        m[3][2] = 2 * (g[23] + g[12])
    else:
        m[0][0] = g[32] - g[20] - g[13] - g[29] - g[9] - g[24] + g[1] - g[4]
        m[1][1] = g[1] + g[9] + g[20] + g[24] + g[13] - g[29] + g[32] - g[4]
        m[2][2] = g[20] + g[29] + g[4] + g[13] - g[9] - g[24] + g[1] + g[32]
        m[3][3] = g[9] + g[24] + g[29] - g[13] + g[1] + g[4] - g[20] + g[32]
        m[0][1] = 2 * (g[16] - g[26])
        m[0][2] = -2 * (g[15] + g[30])
        m[0][3] = 2 * (g[14] - g[31])
        m[1][0] = 2 * (g[17] - g[7])
        m[1][2] = 2 * (g[28] - g[8])
        m[1][3] = -2 * (g[27] + g[11])
        m[2][0] = 2 * (g[3] + g[18])
        m[2][1] = 2 * (g[25] - g[5])
        m[2][3] = 2 * (g[23] - g[12])
        m[3][0] = 2 * (g[19] - g[2])
        m[3][1] = -2 * (g[22] + g[6])
        m[3][2] = 2 * (g[21] - g[10])
    return Matrix.from_rows(m)


def published_correlation_table(h: list, action: str) -> Matrix:
    m = [[None] * 4 for _ in range(4)]
    if action == "points":
        m[0][0] = 2 * h[26]
        m[1][1] = 2 * h[17]
        m[2][2] = -2 * h[12]
        m[3][3] = 2 * h[10]
        m[0][1] = h[32] - h[4] - h[20] - h[24]
        m[0][2] = h[14] - h[31] - h[25] - h[5]
        m[0][3] = h[30] + h[15] + h[22] - h[6]
        m[1][0] = h[4] - h[32] - h[24] - h[20]
        m[1][2] = h[18] - h[27] - h[3] - h[11]
        m[1][3] = h[2] + h[8] + h[19] - h[28]
        m[2][0] = h[31] + h[14] - h[25] + h[5]
        m[2][1] = h[3] - h[11] + h[27] + h[18]
        m[2][3] = h[9] - h[13] - h[1] - h[29]
        m[3][0] = h[15] - h[30] + h[6] + h[22]
        m[3][1] = h[8] - h[2] + h[28] + h[19]
        m[3][2] = h[1] - h[13] + h[29] + h[9]
    else:
        m[0][0] = -2 * h[7]
        m[1][1] = -2 * h[16]
        m[2][2] = 2 * h[21]
        m[3][3] = -2 * h[23]
        m[0][1] = h[9] + h[13] - h[29] + h[1]
        m[0][2] = h[2] - h[8] + h[28] + h[19]
        m[0][3] = h[3] - h[27] - h[18] - h[11]
        m[1][0] = h[29] + h[13] + h[9] - h[1]
        m[1][2] = h[6] - h[22] + h[15] + h[30]
        m[1][3] = h[31] - h[25] - h[5] - h[14]
        m[2][0] = h[19] - h[8] - h[2] - h[28]
        m[2][1] = h[15] - h[30] - h[6] - h[22]
        m[2][3] = h[4] - h[20] + h[32] + h[24]
        m[3][0] = h[27] - h[11] - h[18] - h[3]
        m[3][1] = h[5] - h[31] - h[25] - h[14]
        m[3][2] = h[24] - h[4] - h[32] - h[20]
    return Matrix.from_rows(m)


def published_table(g: Multivector, action: str, m23_doubled: bool = False) -> Matrix:
    """The published point or plane table of a pure-parity element."""
    parity = g.parity()
    coeffs = [None] + coefficient_vector(g, parity)
    if parity == "even":
        return published_collineation_table(coeffs, action, m23_doubled)
    return published_correlation_table(coeffs, action)


# -- random generators ---------------------------------------------------------


def rand_fraction(rng: random.Random, span: int = 3, denominators=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


# forms the product and null-space oracles run in: both models, a degenerate
# diagonal form and a dense non-diagonal one
ORACLE_ALGEBRAS = {
    "klein": klein_algebra(),
    "lie": lie_algebra(),
    "degenerate": Algebra(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]])),
    "dense": Algebra(Matrix.from_rows(
        [[2, 1, 0, -1, 3], [1, 0, 2, 1, 0], [0, 2, -1, 0, 1], [-1, 1, 0, 3, 2],
         [3, 0, 1, 2, -2]])),
}


def rand_coefficient(rng: random.Random, kind: str):
    """A small coefficient: "int", "fraction", "gaussian" or "gaussian-rational"."""
    n = rng.randint(-3, 3)
    if kind == "int":
        return n
    if kind == "fraction":
        return Fraction(n, rng.choice((2, 3)))
    im = rng.choice((-2, -1, 1, 3))
    if kind == "gaussian":
        return ComplexRational(n, im)
    return ComplexRational(Fraction(n, rng.choice((1, 2))), Fraction(im, rng.choice((2, 3))))


def rand_multivector(rng: random.Random, alg: Algebra, n_terms: int = 4,
                     grades=None, kinds=None) -> Multivector:
    """Random terms: ``rand_fraction`` coefficients, or ``rand_coefficient``
    ones of the given kinds."""
    masks = alg.basis_masks()
    if grades is not None:
        masks = [m for m in masks if bin(m).count("1") in grades]
    terms = {}
    for _ in range(n_terms):
        coefficient = rand_coefficient(rng, rng.choice(kinds)) if kinds else rand_fraction(rng)
        terms[rng.choice(masks)] = coefficient
    return alg.mv(terms)


def rand_vector(rng: random.Random, alg: Algebra, span: int = 3) -> Multivector:
    while True:
        v = alg.vector([rng.randint(-span, span) for _ in range(alg.dim)])
        if not v.is_zero():
            return v


def rand_invertible_vector(rng: random.Random, alg: Algebra, span: int = 2,
                           kinds=None) -> Multivector:
    """A non-null vector of ints up to span, or of ``rand_coefficient``
    coordinates of the given kinds."""
    while True:
        if kinds:
            v = alg.vector([rand_coefficient(rng, rng.choice(kinds)) for _ in range(alg.dim)])
        else:
            v = rand_vector(rng, alg, span)
        if v.gp(v).scalar_part():
            return v


def rand_versor(rng: random.Random, alg: Algebra, k: int, kinds=None):
    vectors = [rand_invertible_vector(rng, alg, kinds=kinds) for _ in range(k)]
    prod = alg.scalar(1)
    for v in vectors:
        prod = prod.gp(v)
    return prod, vectors


def rand_point(rng: random.Random, span: int = 4) -> list:
    while True:
        p = [Fraction(rng.randint(-span, span)) for _ in range(4)]
        if any(p):
            return p


def rand_null_line(rng: random.Random):
    from exactga.klein import PluckerLine

    while True:
        p, q = rand_point(rng), rand_point(rng)
        try:
            return PluckerLine.from_points(p, q)
        except Exception:
            continue


def rand_unit_normal(rng: random.Random) -> tuple:
    """Rational unit vector from the stereographic parameterization."""
    while True:
        a = rand_fraction(rng, 2)
        b = rand_fraction(rng, 2)
        d = 1 + a * a + b * b
        n = (2 * a / d, 2 * b / d, (1 - a * a - b * b) / d)
        if any(n):
            return n


def joined_read_off(alg: Algebra, terms: dict):
    """The descent's read-off on joined coordinates: each entry of a split
    top part recombined by ``_make``, the sign read from ``blade_wedge``."""
    top = max(terms)
    if len(terms) == 1:
        for f in bits(top):
            yield [int(j == f) for j in range(alg.dim)]
        return
    lead = terms[top]
    split = type(lead) is tuple
    lr, li = lead if split else (lead, 0)
    for f in bits(top):
        rest = top ^ (1 << f)
        coords = [0] * alg.dim
        for j in range(alg.dim):
            if c := terms.get(rest | 1 << j):
                sign = alg.blade_wedge(1 << j, rest)[0][1]
                if split:
                    a, b = c
                    coords[j] = _make(sign * (a * lr + b * li), sign * (b * lr - a * li))
                else:
                    coords[j] = sign * c
        yield coords


def joined_choose(alg: Algebra, space) -> tuple:
    """The descent's probe on joined coordinates: the Gaussian form values
    and ``normalize_vector`` of the pick."""
    probed = []
    for v in space:
        if alg._bilinear(v, v):
            return normalize_vector(v)
        probed.append(v)
    for i, a in enumerate(probed):
        for b in probed[i + 1:]:
            if alg._bilinear(a, b):
                a, b = normalize_vector(a), normalize_vector(b)
                return normalize_vector([x + y for x, y in zip(a, b)])
    raise NoNonNullVectorError("span is totally isotropic")


def built_vector_failed_check(result, t) -> dict | None:
    """``factorize._failed_check`` with the factor check on built vectors:
    each factor compared with ``null_polarity_to_vector`` of its polarity."""
    n = len(result.factors)
    if n > 6 or n != len(result.polarities):
        return {"check": "count"}
    if n % 2 != (0 if t.kind == "collineation" else 1):
        return {"check": "parity"}
    if not all(type(p) is NullPolarity for p in result.polarities):
        return {"check": "polarity-type"}
    for index, (f, p) in enumerate(zip(result.factors, result.polarities), 1):
        if p.matrix.is_zero() or f != null_polarity_to_vector(p):
            return {"check": "factor", "index": index}
    if [p.action for p in result.polarities] != _alternating_actions(n, t.action):
        return {"check": "actions"}
    if not result.scale:
        return {"check": "scale"}
    proved = (result.residual.is_zero() if result._against == t.matrix
              else _polarity_product(result.polarities) == t.matrix.scale(result.scale))
    return None if proved else {"check": "product"}
