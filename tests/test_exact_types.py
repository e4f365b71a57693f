"""Exact types across the integer core.

Multivectors store integral coefficients as ``int`` (Gaussian integers as a
``ComplexRational`` with ``int`` parts) and convert them at the accessors,
and in Python ``int / int`` is a float.  The first test runs the whole
pipeline with every public function and method of the package wrapped, and
requires that no float is ever stored in a Multivector or Matrix or returned
by a public call.  The others pin the public types of the accessors and
parsers, and of every call that returns a single scalar: ``Fraction``, or
``ComplexRational`` with ``Fraction`` parts, although Matrix entries too are
stored in the internal form.  The last three pin the internal form itself:
the geometric product, which multiplies Gaussian coefficients as pairs of
parts, stores what the per-term product stores, in the same order, with
one kernel call for every kind of right operand; and no stored
``ComplexRational`` has a zero imaginary part.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import random
from fractions import Fraction

import pytest

from exactga import algebra, blades, cli, factorize, klein, lie, linalg, scalars
from exactga.algebra import Algebra, AlgebraMismatchError, Multivector, Versor, proportional
from exactga.linalg import Matrix
from exactga.scalars import ComplexRational, as_scalar, canonical, parse_scalar
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION
from helpers import adjugate, per_term_gp, rand_coefficient, rand_versor, solve_linear

MODULES = (scalars, linalg, algebra, blades, klein, lie, factorize, cli)


def floats_in(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, ComplexRational):
        return floats_in(obj.re) or floats_in(obj.im)
    if isinstance(obj, Multivector):
        return floats_in(obj._terms)
    if isinstance(obj, Matrix):
        return floats_in(obj.entries)
    if isinstance(obj, dict):
        return floats_in(tuple(obj.keys())) or floats_in(tuple(obj.values()))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return any(floats_in(x) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return any(floats_in(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return False


def is_public(x) -> bool:
    if type(x) is ComplexRational:
        return type(x.re) is Fraction and type(x.im) is Fraction
    return type(x) is Fraction


def guarded(fn, name, found):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if floats_in(out):
            found.append(f"{name} returned {out!r}")
        return out

    return wrapper


def guard_package(monkeypatch, found):
    """Wrap every public function and method, and the three storage constructors."""
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", "").split(".")[0] != "exactga":
                continue
            if inspect.isfunction(value):
                monkeypatch.setattr(module, name, guarded(value, name, found))
            elif (inspect.isclass(value) and value.__module__ == module.__name__
                  and not issubclass(value, (BaseException, enum.Enum))):
                guard_class(monkeypatch, value, found)

    for cls, hook in ((Multivector, "__init__"), (Matrix, "__post_init__")):
        original = getattr(cls, hook)

        def stored(self, *args, _original=original, **kwargs):
            _original(self, *args, **kwargs)
            if floats_in(self):
                found.append(f"a float stored in {self!r}")

        monkeypatch.setattr(cls, hook, stored)

    def no_floats(terms):
        if floats_in(terms):
            found.append(f"a float stored in {terms!r}")

    on_adopted_terms(monkeypatch, no_floats)


def on_adopted_terms(monkeypatch, check):
    """Call check(terms) on every term dict that ``Multivector._stored`` adopts unchecked."""
    adopt = Multivector._stored

    def checked(cls, algebra, terms):
        check(terms)
        return adopt(algebra, terms)

    monkeypatch.setattr(Multivector, "_stored", classmethod(checked))


def guard_class(monkeypatch, cls, found):
    arithmetic = {"__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                  "__rtruediv__", "__neg__", "__matmul__"}
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in arithmetic:
            continue
        label = f"{cls.__name__}.{name}"
        if inspect.isfunction(attr):
            monkeypatch.setattr(cls, name, guarded(attr, label, found))
        elif isinstance(attr, classmethod):
            monkeypatch.setattr(cls, name, classmethod(guarded(attr.__func__, label, found)))
        elif isinstance(attr, property):
            monkeypatch.setattr(cls, name, property(guarded(attr.fget, label, found)))


def negate_row0(m: Matrix) -> Matrix:
    rows = m.row_lists()
    rows[0] = [-x for x in rows[0]]
    return Matrix.from_rows(rows)


def run_pipeline():
    """Every stage in both modes, with integer inputs wherever a caller may pass them."""
    kl, lie_alg = klein.klein_algebra(), lie.lie_algebra()
    jobs = []
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        result = factorize.factorize_matrix(t, mode)
        assert factorize.verify_factorization(
            factorize.FactorizationResult.from_json(result.to_json(), t), t)
        jobs.append((t, mode))

    # seeded random lifts: both kinds and actions; row 0 negated needs complex mode
    rng = random.Random("exact-types/lifts")
    for k in range(1, 7):
        g, _ = rand_versor(rng, kl, k)
        for action in ("points", "planes"):
            t = klein.versor_to_proj(g, action)
            jobs.append((t, "rational"))
            jobs.append((klein.ProjTransform4(negate_row0(t.matrix), t.kind, action), "complex"))
    for t, mode in jobs:
        opts = {"scalar_mode": mode}
        code, report = cli.run_job("factorize", t.to_json(), opts)
        assert code == 0, report
        code, _ = cli.run_job("verify", {"transform": t.to_json(), "result": report}, opts)
        assert code == 0
        code, _ = cli.run_job("lift", t.to_json(), opts)
        assert code == 0
    assert cli.run_job("factorize", jobs[0][0].to_json(), {})[0] == 0
    assert cli.run_job("factorize", jobs[1][0].to_json(), {})[0] == 2

    # Lie contact, inversions and descents in Cl(4,2)
    spheres = {"a": {"variant": "sphere", "center": ["0", "0", "0"], "radius": "1"},
               "b": {"variant": "sphere", "center": ["3", "0", "0"], "radius": "-2"}}
    code, report = cli.run_job("lie-contact", spheres, {})
    assert code == 0 and report["contact"] is True
    assert cli.run_job("lie-contact", {"vector": [1, -1, 0, 2, 0, 3]}, {})[0] == 0
    a = lie_alg.vector([0, 1, 2, 0, 0, 1])
    lie.lie_inversion_sandwich(a, lie_alg.vector([1, 1, 0, 0, 0, 0]))
    for k in range(1, 7):
        g, _ = rand_versor(rng, lie_alg, k)
        factors = factorize.factorize_versor(g)
        assert len(factors) <= k

    # proportionality, inverses and division on integer-coefficient elements
    e = kl.e
    assert proportional(e(1, 4) * 6 + 4, e(1, 4) * 3 + 2) == 2
    assert proportional(kl.mv({3: 2}), kl.mv({3: 4})) == Fraction(1, 2)
    assert proportional(kl.mv({3: 2}), kl.mv({3: 3, 5: 1})) is None
    v = Versor.from_vectors(kl, [kl.vector([1, 2, 0, 3, 0, 0]), kl.vector([0, 1, 1, 0, 2, 1])])
    assert v.inverse().value.gp(v.value) == 1
    assert kl.vector([2, 0, 0, 0, 0, 4]) / 4 == kl.vector([Fraction(1, 2), 0, 0, 0, 0, 1])
    algebra.bilinear(kl.vector([1, 2, 3, 4, 5, 6]), kl.vector([1, 0, 0, 0, 0, 1]))

    # Matrix and Algebra built straight from int entries, bypassing from_rows
    m = Matrix(3, 3, (2, 1, 0, 1, 2, 1, 0, 1, 2))
    assert linalg.determinant(m) == 4
    singular = Matrix(3, 3, (2, 1, 3, 4, 2, 6, 1, 5, 2))
    assert linalg.rank(singular) == 2
    assert len(linalg.nullspace(singular)) == 1
    assert solve_linear(m, [1, 1, 1]) is not None
    assert adjugate(m) == adjugate(m)
    assert Algebra(m).signature() == (3, 0, 0)
    assert Algebra(Matrix(3, 3, (0, 1, 0, 1, 0, 0, 0, 0, -1))).signature() == (1, 2, 0)
    assert Algebra(Matrix(2, 2, (2, 3, 3, 2))).signature() == (1, 1, 0)
    assert not Algebra(m).pseudoscalar().is_zero()


def test_no_float_is_stored_or_returned(monkeypatch):
    found: list[str] = []
    guard_package(monkeypatch, found)
    run_pipeline()
    assert found == []


def test_accessors_return_public_types():
    kl = klein.klein_algebra()
    versors = []
    scalars_returned = []
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        for action in ("points", "planes"):
            t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", action)
            result = factorize.factorize_matrix(t, mode)
            assert result.verified() and factorize.verify_factorization(result, t)
            scalars_returned += [linalg.determinant(t.matrix), t.matrix.det(), t.determinant(),
                                 klein.induced_line_map(t).similitude_ratio(), result.scale,
                                 linalg.proportionality(t.matrix.scale(6), t.matrix.scale(4)),
                                 linalg.ratio(t.matrix.entries, t.matrix.entries)]
            if action == "points":
                versors.append(klein.proj_to_versor(t, mode))
    assert any(isinstance(x, ComplexRational) for x in scalars_returned)
    gaussian = Matrix.from_rows([["1+1i", 2], [3, "4i"]])
    scalars_returned += [linalg.determinant(gaussian), gaussian.det(), kl.metric(0, 3),
                         linalg.proportionality(gaussian.scale("2i"), gaussian),
                         linalg.ratio(gaussian.scale(2).entries, gaussian.entries),
                         linalg.determinant(Matrix.from_rows([[1, 2], [2, 4]]))]
    assert all(is_public(x) for x in scalars_returned), \
        [x for x in scalars_returned if not is_public(x)]
    assert any(isinstance(c, ComplexRational) for c in versors[1].value.terms.values())
    for versor in versors:
        g = versor.value
        values = list(g.terms.values()) + [g.coeff(m) for m in kl.basis_masks()]
        values += [g.scalar_part(), g.norm(), g.inverse().coeff(0)]
        for factor in versor.witness:
            values += list(factor.coordinates())
            values.append(algebra.bilinear(factor, factor))
        restored = Multivector.from_json(kl, g.to_json())
        assert restored == g
        values += list(restored.terms.values())
        values.append(proportional(g * 3, g))
        values.append(proportional(g, g * 2))
        assert all(is_public(x) for x in values), [x for x in values if not is_public(x)]
    assert is_public(kl.zero().scalar_part()) and is_public(kl.e(1).coeff(2))


def test_parsers_and_coercion_return_public_types():
    texts = ["3", "-7/2", "0", "12i", "1/2+3/4i", "2-0i", "4+2i"]
    values = [parse_scalar(t) for t in texts]
    values += [as_scalar(x) for x in (3, "5", Fraction(6, 3), ComplexRational(1, 2))]
    # an internal Gaussian integer comes back with Fraction parts
    values.append(as_scalar(canonical(ComplexRational(4, 2))))
    assert all(is_public(x) for x in values), [x for x in values if not is_public(x)]


def storage(mv: Multivector) -> list:
    """The stored terms with the exact type of each coefficient and part."""
    out = []
    for m, c in mv._terms.items():
        parts = (c.re, c.im) if type(c) is ComplexRational else (c,)
        out.append((m, type(c), tuple((type(x), x) for x in parts)))
    return out


def test_split_product_matches_the_per_term_oracle():
    rng = random.Random("exact-types/split-gp")
    kinds = ("int", "fraction", "gaussian", "gaussian-rational")
    for alg in (klein.klein_algebra(), lie.lie_algebra()):
        masks = alg.basis_masks()
        for _ in range(150):
            operands = []
            for allowed in (rng.choice(kinds[:2]), rng.choice(kinds)):
                terms = {rng.choice(masks): rand_coefficient(rng, rng.choice(("int", allowed)))
                         for _ in range(rng.randint(1, 8))}
                operands.append(alg.mv(terms))
            if rng.random() < 0.5:
                operands.reverse()  # real times complex and complex times real
            x, y = operands
            for a, b in ((x, y), (y, y), (y, y.conjugate())):
                assert storage(a.gp(b)) == storage(per_term_gp(a, b))
    # an imaginary part that cancels is stored as an int
    e = klein.klein_algebra().e
    i = ComplexRational(0, 1)
    product = (e(1) * i).gp(e(4) * i)
    assert product == -1 - e(1, 4)
    assert [t for _, t, _ in storage(product)] == [int, int]


def test_product_kernel_matches_the_per_term_oracle(monkeypatch):
    # every geometric product, whatever its right operand, is one call of algebra._product
    kernel = []
    product = algebra._product

    def counted(x, y, rows, build):
        kernel.append(y)
        return product(x, y, rows, build)

    monkeypatch.setattr(algebra, "_product", counted)
    rng = random.Random("exact-types/product-kernel")
    kinds = ("int", "fraction", "gaussian", "gaussian-rational")
    hyperbolic = Algebra(Matrix(3, 3, (0, 1, 0, 1, 0, 0, 0, 0, -1)))
    degenerate = Algebra(Matrix(3, 3, (1, 0, 0, 0, 0, 0, 0, 0, -1)))
    products = 0
    for alg in (klein.klein_algebra(), lie.lie_algebra(), hyperbolic, degenerate):
        masks = alg.basis_masks()
        for _ in range(120):
            x = alg.mv({rng.choice(masks): rand_coefficient(rng, rng.choice(kinds))
                        for _ in range(rng.randint(1, 10))})
            # generators in random order, not in index order
            gens = rng.sample(range(alg.dim), rng.randint(1, alg.dim))
            v = alg.mv({1 << i: rand_coefficient(rng, rng.choice(kinds)) or 1 for i in gens})
            s = alg.scalar(rand_coefficient(rng, rng.choice(kinds)) or 1)
            for a, b in ((x, v), (v, v), (x.gp(v), v), (x, s), (x, v + s), (v, x), (x, x)):
                before = len(kernel)
                got = a.gp(b)
                assert len(kernel) == before + 1
                assert storage(got) == storage(per_term_gp(a, b))
                products += 1
        x = alg.mv({m: 1 for m in masks})
        assert x.gp(alg.zero()).is_zero() and alg.zero().gp(alg.e(1)).is_zero()
        assert x.gp(alg.scalar(3)) == x * 3
        # an algebra of an equal form multiplies, one of another form is refused
        twin = Algebra(alg.form)
        assert x.gp(twin.e(1)) == x.gp(alg.e(1))
        other = Algebra(Matrix(alg.dim, alg.dim, tuple(int(i == j) for i in range(alg.dim)
                                                       for j in range(alg.dim))))
        with pytest.raises(AlgebraMismatchError):
            x.gp(other.e(1))
    assert products == 4 * 120 * 7


def test_stored_complex_rationals_have_imaginary_parts(monkeypatch):
    stored = []
    for cls, hook in ((Multivector, "__init__"), (Matrix, "__post_init__")):
        original = getattr(cls, hook)

        def record(self, *args, _original=original, **kwargs):
            _original(self, *args, **kwargs)
            values = self._terms.values() if isinstance(self, Multivector) else self.entries
            stored.extend(c for c in values if type(c) is ComplexRational)

        monkeypatch.setattr(cls, hook, record)
    on_adopted_terms(monkeypatch, lambda terms: stored.extend(
        c for c in terms.values() if type(c) is ComplexRational))
    # the complex variant, the reference with its last row negated and the
    # reference with its first two rows swapped (both det -4), all of
    # negative similitude ratio
    negated_row = [row if i < 3 else [-x for x in row]
                   for i, row in enumerate(REFERENCE_COLLINEATION)]
    first, second, *rest = REFERENCE_COLLINEATION
    for rows in (COMPLEX_VARIANT, negated_row, [second, first, *rest]):
        for kind in ("collineation", "correlation"):
            for action in ("points", "planes"):
                t = klein.ProjTransform4(Matrix.from_rows(rows), kind, action)
                result = factorize.factorize_matrix(t, "complex")
                assert factorize.verify_factorization(result, t)
                # the verify path reads every factor and polarity back from JSON
                again = factorize.FactorizationResult.from_json(result.to_json(), t)
                assert factorize.verify_factorization(again, t)
    assert len(stored) > 1000
    assert all(c.im for c in stored)
