"""Independent oracles and random generators for the test suite.

The diagonal-basis product here is a from-scratch implementation (bitmask
transposition counting over an orthogonal basis) used to cross-check the
library's metric-contraction product; it shares no code with the package.
The adjugate, the linear solve, the span membership test, the wedge- and
inner-map kernels (outer and inner null spaces by elimination), the
published coefficient tables, the per-term geometric product, the
norm-first descent and the six-relation check of a lift serve only as
oracles, so they live here rather than in the package.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exactga.algebra import Algebra, Multivector, NullVersorError
from exactga.blades import factorize_versor
from exactga.klein import NotLiftableError, coefficient_vector, klein_algebra
from exactga.linalg import LinAlgError, Matrix, determinant, nullspace, rref
from exactga.scalars import ComplexRational


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
            for m, c in x.algebra.blade_gp(a, b).items():
                acc[m] = acc.get(m, 0) + cab * c
    return Multivector(x.algebra, acc)


def norm_first_factorize(g: Multivector) -> list[Multivector]:
    """The descent behind an up-front check that g g* is a nonzero scalar."""
    if g.is_zero():
        raise NullVersorError("zero element cannot be factorized")
    if not g.norm():
        raise NullVersorError("null versors are outside the factorization domain")
    return factorize_versor(g)


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
                     grades=None) -> Multivector:
    masks = alg.basis_masks()
    if grades is not None:
        masks = [m for m in masks if bin(m).count("1") in grades]
    terms = {}
    for _ in range(n_terms):
        terms[rng.choice(masks)] = rand_fraction(rng)
    return alg.mv(terms)


def rand_vector(rng: random.Random, alg: Algebra, span: int = 3) -> Multivector:
    while True:
        v = alg.vector([rng.randint(-span, span) for _ in range(alg.dim)])
        if not v.is_zero():
            return v


def rand_invertible_vector(rng: random.Random, alg: Algebra, span: int = 2) -> Multivector:
    while True:
        v = rand_vector(rng, alg, span)
        if v.gp(v).scalar_part():
            return v


def rand_versor(rng: random.Random, alg: Algebra, k: int):
    vectors = [rand_invertible_vector(rng, alg) for _ in range(k)]
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
