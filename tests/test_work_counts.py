"""Work-count guards: the lift and the descent do each piece of work once.

Each test counts calls through a monkeypatched wrapper, so a regression
that reintroduces a cofactor inverse, an induced line map, a blade sum, a
pseudoscalar product it does not choose, a product after the descent or a
second polarity product in the lift, a second outer null space per
descent step or classification, a read-off vector normalized before its
probe, a linear system in the descent, a norm product, more than one call
of the product kernel ``algebra._product`` (``_gaussian_product`` on split
terms) per descent step, a ``Blade`` or a decomposability wedge in a
successful descent, a division before the lift's normalization, a
``ComplexRational`` multiplication inside a product, a ``ComplexRational``
multiplication or sum inside the polarity chain or the lift's coefficient
table, a polarity chain that takes more than one call of the skew chain
kernel or any ``mat_mul`` or line-map check, a reordering sign computed
outside the warm blade tables, an outer or inner product routed through
``Multivector.gp``, a certificate check that parses scalars through
``Fraction(text)`` or evaluates the Klein form at all, a second polarity
product in a verify job, a ``scale * A`` in a verify job whose product
is the stated multiple, an elimination for a transform's determinant, a
residual formed by a factorization, a verify that multiplies again the
polarities its lift proved against the same matrix, a verify that builds
a vector per factor, checks a skew pair from both sides or adds a parsed
coefficient to zero, a ``ComplexRational`` operation inside
``normalize_vector``, the descent's read-off, probes and picks, the
certificate's ``ratio`` or the lift's Gaussian coefficient build, more
than the 10 polarity negations in a warm complex factorization, a
``Fraction`` operator in the rational sphere model's encoding or contact,
or a complex descent that splits or joins its remainder more than once
fails here even when its output stays the same.
The storage guards require the integer core: int blade and coefficient
tables, and int or Gaussian-int coefficients in every multivector and
kernel product of a descent and in every matrix of the linear algebra.
"""

import dataclasses
import random
import sys
from fractions import Fraction

import exactga.algebra as algebra
import exactga.blades as blades
import exactga.cli as cli
import exactga.factorize as factorize
import exactga.klein as klein
import exactga.lie as lie
import exactga.linalg as linalg
from exactga.algebra import Algebra, Multivector
from exactga.lie import LieSphere, lie_algebra, lie_encode, oriented_contact
from exactga.linalg import Matrix
from exactga.scalars import ComplexRational, as_scalar, format_scalar, imag_part, real_part
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


def returns(monkeypatch, owner, attr):
    """Like ``counting``, but records what each call returns."""
    outs = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        outs.append(out)
        return out

    monkeypatch.setattr(owner, attr, wrapper)
    return outs


def plane_correlation() -> klein.ProjTransform4:
    # the reference collineation followed by a polarity is a correlation
    e = klein.klein_algebra().e
    polarity = klein.vector_to_null_polarity(e(1) + e(4), "planes").matrix
    m = Matrix.from_rows(REFERENCE_COLLINEATION)
    return klein.ProjTransform4(linalg.mat_mul(polarity, m), "correlation", "planes")


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
        skew_chains = counting(monkeypatch, klein, "_skew_chain_product")
        pairs = counting(monkeypatch, linalg, "mat_mul")
        sandwiches = counting(monkeypatch, klein.Sandwich6, "__post_init__")
        result = factorize.factorize_matrix(t, mode)
        monkeypatch.undo()
        assert result.verified() and len(result.factors) >= 3
        assert factorize.verify_factorization(result, t)
        assert len(chains) == 1
        # one polarity-kernel call covers every factor; no general product
        # runs and no line map is checked, so an M^T Q M would show here
        assert [len(factors) for factors, in skew_chains] == [len(result.factors)]
        assert pairs == [] and sandwiches == []


def test_planes_lift_runs_no_elimination_for_its_determinant(monkeypatch):
    klein.klein_algebra()  # an algebra decides the degeneracy of its form once, when built
    calls = counting(monkeypatch, linalg, "determinant")
    eliminations = counting(monkeypatch, linalg, "_gauss_jordan")
    t = plane_correlation()
    versor = klein.proj_to_versor(t)
    assert versor.parity == "odd" and t.action == "planes"
    # the regularity check of ProjTransform4 is Klein's form of two column
    # lines, and the lift reads the determinant that the check kept
    assert calls == [] and eliminations == []
    assert t.matrix.det() == t.determinant()  # the watchers see Bareiss elimination
    assert [m for (m,) in calls] == [t.matrix] and len(eliminations) == 1


def test_lift_reads_the_versor_off_the_tables(monkeypatch):
    # g I is formed only when its top grade, 6 minus g's lowest, is the
    # smaller one: not for the correlation, once for diag(1, 1, -1, -1),
    # whose g has grade 4 and g I grade 2
    flip = klein.ProjTransform4(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]), "collineation", "points")
    for t, pseudoscalar_products, top in ((plane_correlation(), 0, 5), (flip, 1, 2)):
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
        versor = klein.proj_to_versor(t)
        monkeypatch.undo()
        assert len(around_descent) == 2
        gp_calls, wedge_calls = around_descent[0]
        assert wedge_calls == 0
        assert gp_calls == pseudoscalar_products
        # the witness is not multiplied out again after the descent
        assert len(products) == around_descent[1][0]
        assert versor.value.max_grade() == top


def lifted(rows, mode) -> Multivector:
    t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
    return klein.proj_to_versor(t, mode).value


def descent_versors() -> list[Multivector]:
    return [lifted(REFERENCE_COLLINEATION, "rational"), lifted(COMPLEX_VARIANT, "complex"),
            rand_versor(random.Random("work/lie"), lie_algebra(), 5)[0]]


def test_descent_computes_one_outer_null_space_per_step(monkeypatch):
    # each step reads the top blade's outer null space off its coefficients,
    # but a one-term top part only while its pick is not memoized
    memoized = []
    for value in descent_versors() + [klein.proj_to_versor(plane_correlation()).value]:
        monkeypatch.setattr(value.algebra, "_unit_picks", {})
        counts = []
        for _ in ("cold", "warm"):
            spaces = counting(monkeypatch, Algebra, "_read_off")
            unit_tops = counting(monkeypatch, blades, "_unit_pick")
            systems = counting(monkeypatch, linalg, "_gauss_jordan")
            factors = blades.factorize_versor(value)
            counts.append((len(spaces), len(unit_tops)))
            steps = value.max_grade() - 1
            assert steps >= 2 and len(factors) == steps + 1
            assert systems == []  # the descent solves no linear system
        monkeypatch.undo()
        (cold, units), (warm, _) = counts
        assert cold == steps and warm == steps - units
        memoized.append(units)
    # the two grade-6 lifts memoize their first step; the correlation's
    # grade-5 part has more than one term
    assert memoized[:2] == [1, 1] and memoized[-1] == 0


def test_descent_normalizes_only_the_vectors_it_keeps(monkeypatch):
    # the form probes raw read-off vectors, since scaling keeps a vector null
    # or not: a step normalizes its pick, or the two null vectors whose pair
    # it takes and their sum, and the descent its remainder; 26 calls on the
    # reference when every read-off vector was normalized before the probe,
    # 17 when every basis vector of a pair step was.  A warm memo keeps the
    # pair pick e1 + e4 of the grade-6 part, three normalizations
    for rows, mode, calls in ((REFERENCE_COLLINEATION, "rational", 10),
                              (COMPLEX_VARIANT, "complex", 8)):
        value = lifted(rows, mode)
        monkeypatch.setattr(value.algebra, "_unit_picks", {})
        for memo_calls in (calls, calls - 3):  # cold, then warm
            normalized = counting(monkeypatch, algebra, "normalize_vector")
            on_parts = counting(monkeypatch, algebra, "_normalized_parts")
            factors = blades.factorize_versor(value)
            assert len(factors) == 6
            assert len(normalized) + len(on_parts) == memo_calls
            assert on_parts == [] if mode == "rational" else len(on_parts) == 5
        monkeypatch.undo()


def test_descent_multiplies_once_per_step(monkeypatch):
    # each step multiplies its remainder by its vector in one kernel call, the
    # split kernel for a Gaussian versor; a successful descent proves the norm
    # nonzero, so it forms no g g* either
    for value in descent_versors():
        products = counting(monkeypatch, algebra, "_product")
        split_products = counting(monkeypatch, algebra, "_gaussian_product")
        factors = blades.factorize_versor(value)
        monkeypatch.undo()
        steps = value.max_grade() - 1
        assert steps >= 3 and len(factors) == steps + 1
        gaussian = any(type(c) is ComplexRational for c in value._terms.values())
        assert (len(products), len(split_products)) == ((0, steps) if gaussian else (steps, 0))
        assert all(len(y) and all(b.bit_count() == 1 for b in y)
                   for _, y, _, _ in products + split_products)


def test_complex_descent_splits_and_joins_its_remainder_once(monkeypatch):
    # a Gaussian versor is split into parts once (algebra._working) and
    # carried split through every step; each step splits only its vector, a
    # real descent splits nothing, and the grade-1 remainder is read once as
    # a part list (a coordinate list if real), so no term dict is joined
    for value in descent_versors():
        splits, joins = [], []
        for attr, calls in (("_split", splits), ("_join", joins)):
            def record(terms, _original=getattr(algebra, attr), _calls=calls):
                _calls.append(terms)
                return _original(terms)

            monkeypatch.setattr(algebra, attr, record)
        split_products = returns(monkeypatch, algebra, "_gaussian_product")
        remainders = returns(monkeypatch, Algebra, "_read_vector")
        factors = blades.factorize_versor(value)
        monkeypatch.undo()
        steps = len(factors) - 1
        assert steps == value.max_grade() - 1 >= 3
        assert joins == []
        if not any(type(c) is ComplexRational for c in value._terms.values()):
            assert splits == split_products == []
            assert [len(v) for v in remainders] == [value.algebra.dim]
            continue
        assert splits[0] is value._terms
        assert len(splits) == 1 + steps
        assert all(all(m.bit_count() == 1 for m in terms) for terms in splits[1:])
        assert len(split_products) == steps
        assert all(type(c) is tuple for terms in split_products for c in terms.values())
        assert [len(v) for v in remainders] == [2 * value.algebra.dim]
        assert all(type(p) is int for p in remainders[0])


GAUSSIAN_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__neg__", "conjugate")


def test_warm_complex_factorization_runs_few_gaussian_operations(monkeypatch):
    # the lift's coefficient build, normalize_vector, the descent's
    # read-off, its probes and picks, and the certificate's ratio run on int
    # parts; a warm call ran 234 ComplexRational operations when none of
    # them did (32 c * conj in the lift, 32 lead-sign negations and 46 in
    # the read-off), and 94 while the probes and ratio did not (51 in the
    # probes, 29 in ratio, 14 in the polarities).  The 10 left are the
    # negations that give the polarities their skew halves
    t = klein.ProjTransform4(Matrix.from_rows(COMPLEX_VARIANT), "collineation", "points")
    factorize.factorize_matrix(t, "complex")
    on_parts = {f.__code__ for f in (linalg.normalize_vector, linalg._normalized_parts,
                                     linalg._normalized_table_product, Algebra._read_off,
                                     blades._choose, Algebra._bilinear, Algebra._pick,
                                     linalg.ratio)}
    counts = []
    for _ in range(2):  # the count repeats exactly
        inside, outside = [], []
        for name in GAUSSIAN_OPERATIONS:
            def operation(*args, _original=getattr(ComplexRational, name), _name=name):
                frame = sys._getframe(1)
                while frame is not None and frame.f_code not in on_parts:
                    frame = frame.f_back
                (outside if frame is None else inside).append(_name)
                return _original(*args)

            monkeypatch.setattr(ComplexRational, name, operation)
        result = factorize.factorize_matrix(t, "complex")
        monkeypatch.undo()
        assert len(result.factors) == 6
        assert inside == []
        counts.append(outside)
    assert counts[0] == counts[1] == ["__neg__"] * 10


def test_successful_descent_builds_no_blade(monkeypatch):
    # g v_1 ... v_k ending in a nonzero scalar or a non-null vector proves
    # the factors right, so only a refusal runs the decomposability wedges
    for value in descent_versors():
        wedges = counting(monkeypatch, Multivector, "wedge")
        built = counting(monkeypatch, blades.Blade, "__post_init__")
        factors = blades.factorize_versor(value)
        monkeypatch.undo()
        assert len(factors) == value.max_grade() >= 4
        assert wedges == [] and built == []


def test_lift_normalizes_integral_coefficients(monkeypatch):
    # the lift's one coefficient build normalizes real coefficients as they
    # are, since conj(last) would only scale them, and forms no Fraction to
    # normalize away; a Gaussian lift normalizes them on their int parts,
    # 32 real and then 32 imaginary
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        normalized = counting(monkeypatch, klein, "normalize_vector")
        builds = counting(monkeypatch, klein, "_normalized_table_product")
        built = counting(monkeypatch, linalg, "normalize_vector")
        parts = counting(monkeypatch, linalg, "_normalized_parts")
        klein.proj_to_versor(t, mode)
        monkeypatch.undo()
        assert normalized == [] and len(builds) == 1
        if mode == "rational":
            assert [len(vec) for (vec,) in built] == [32]
            assert all(type(c) is int for c in built[0][0])
            assert parts == []
        else:
            assert built == []
            lift_parts = parts[0][0]  # the lift's, which comes before the descent's
            assert len(lift_parts) == 64 and all(type(p) is int for p in lift_parts)
            assert any(lift_parts[32:])


def test_gaussian_product_multiplies_no_complex_rationals(monkeypatch):
    value = lifted(COMPLEX_VARIANT, "complex")
    conjugate = value.conjugate()
    assert all(is_integral_storage(c) for c in value._terms.values())
    assert any(type(c) is ComplexRational for c in value._terms.values())
    # the decomposability wedges of the Blade at each descent step, whose
    # top parts it reads off split
    parts = counting(monkeypatch, Algebra, "_read_off")
    blades.factorize_versor(value)
    monkeypatch.undo()
    tops = [Multivector._stored(alg, algebra._join(terms)) for alg, terms in parts]
    checks = [(v, part) for part in tops for v in blades.opns(part)]
    assert len(checks) >= 10
    assert any(type(c) is ComplexRational for v, _ in checks for c in v._terms.values())
    left = counting(monkeypatch, ComplexRational, "__mul__")
    right = counting(monkeypatch, ComplexRational, "__rmul__")
    norm = value.gp(conjugate)
    wedges = [v.wedge(part) for v, part in checks]
    inners = [value.inner(conjugate)] + [v.inner(part) for v, part in checks]
    assert left == [] and right == []
    assert norm.is_scalar() and norm.scalar_part()
    assert all(w.is_zero() for w in wedges)
    assert not any(w.is_zero() for w in inners)


def test_polarity_chain_multiplies_no_complex_rationals(monkeypatch):
    # the skew chain kernel and the lift's coefficient build multiply Gaussian
    # entries on their int parts and recombine each result once
    inside, found, outside = [], [], []
    outputs = {}

    def scoped(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args):
            inside.append(attr)
            try:
                out = original(*args)
            finally:
                inside.pop()
            outputs.setdefault(attr, []).append(out)
            return out

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((klein, "_normalized_table_product"), (klein, "_polarity_product"),
                        (factorize, "_polarity_product")):
        scoped(owner, attr)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def operation(self, other, _original=getattr(ComplexRational, name), _name=name):
            (found if inside else outside).append((tuple(inside), _name))
            return _original(self, other)

        monkeypatch.setattr(ComplexRational, name, operation)
    for kind in ("collineation", "correlation"):
        for action in ("points", "planes"):
            t = klein.ProjTransform4(Matrix.from_rows(COMPLEX_VARIANT), kind, action)
            result = factorize.factorize_matrix(t, "complex")
            again = factorize.FactorizationResult.from_json(result.to_json(), t)
            assert factorize.verify_factorization(again, t)
    verified_outside = list(outside)
    # the verified jobs ran none of them outside the kernels; with its scale
    # multiplied by i, the last job forms scale * A on Gaussian objects,
    # which the watchers see
    i_scale = ComplexRational(-imag_part(result.scale), real_part(result.scale))
    wrong = dict(result.to_json(), scale=format_scalar(i_scale))
    assert not factorize.verify_factorization(
        factorize.FactorizationResult.from_json(wrong, t), t)
    monkeypatch.undo()
    assert found == []
    assert verified_outside == [] and ((), "__mul__") in outside
    assert sorted(outputs) == ["_normalized_table_product", "_polarity_product"]
    # four lifts, four verify jobs and the failing one
    assert len(outputs["_polarity_product"]) == 9
    # every kernel returned Gaussian entries, so none ran on real ones only
    gaussian = {attr: sum(type(x) is ComplexRational
                          for out in outs for x in getattr(out, "entries", out))
                for attr, outs in outputs.items()}
    assert all(gaussian.values()), gaussian


def test_warm_factorization_computes_no_reordering_sign(monkeypatch):
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        factorize.factorize_matrix(t, mode)  # fills the blade tables it reads
        signs = counting(monkeypatch, algebra, "_merge_sign")
        result = factorize.factorize_matrix(t, mode)
        monkeypatch.undo()
        assert result.verified() and len(result.factors) >= 4
        assert factorize.verify_factorization(result, t)
        assert signs == []


def test_wedge_and_inner_read_their_own_tables(monkeypatch):
    # neither goes through Multivector.gp, so counting gp (the bench's
    # algebra.gp.calls) counts geometric products
    for x in (lifted(REFERENCE_COLLINEATION, "rational"), lifted(COMPLEX_VARIANT, "complex")):
        y = x.conjugate()
        expected = (x.wedge(y), x.inner(y))  # fills the wedge and inner tables
        assert not any(z.is_zero() for z in expected)
        products = counting(monkeypatch, Multivector, "gp")
        gp_tables = counting(monkeypatch, Algebra, "blade_gp")
        signs = counting(monkeypatch, algebra, "_merge_sign")
        assert (x.wedge(y), x.inner(y)) == expected
        monkeypatch.undo()
        assert products == gp_tables == signs == []


def test_classification_computes_one_outer_null_space(monkeypatch):
    e = klein.klein_algebra().e
    spaces = counting(monkeypatch, Algebra, "_read_off")
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
        values = [c for a in masks for b in masks for _, c in alg.blade_gp(a, b)]
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
        products = returns(monkeypatch, algebra, "_product")
        split_products = returns(monkeypatch, algebra, "_gaussian_product")
        joins = returns(monkeypatch, algebra, "_join")
        factors = blades.factorize_versor(value)
        monkeypatch.undo()
        stored = [c for args in built for c in args[0]._terms.values()]
        stored += [c for terms in products + joins for c in terms.values()]
        stored += [c for v in factors for c in v._terms.values()]
        parts = [p for terms in split_products for c in terms.values() for p in c]
        # one product per step, on int parts for a Gaussian versor
        assert len(products + split_products) == value.max_grade() - 1 >= 4
        assert all(products + split_products) and stored
        assert all(is_integral_storage(c) for c in stored)
        assert all(type(p) is int for p in parts)
        if mode == "complex":
            assert any(type(c) is ComplexRational for c in stored) and any(parts[1::2])


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


def verify_jobs() -> list[tuple[dict, str]]:
    """A CLI verify job for the reference and for the complex variant, with its mode."""
    jobs = []
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        jobs.append(({"transform": {"matrix": t.matrix.to_json(), "kind": t.kind,
                                    "action": t.action},
                      "result": factorize.factorize_matrix(t, mode).to_json()}, mode))
    return jobs


def klein_forms(monkeypatch) -> list:
    """The argument pairs of every evaluation of Klein's form, ``klein_algebra()._bilinear``."""
    calls = []
    klein_form = klein.klein_algebra()
    original = Algebra._bilinear

    def counted(self, x, y):
        if self is klein_form:
            calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(Algebra, "_bilinear", counted)
    return calls


def test_verify_multiplies_the_polarities_once(monkeypatch):
    # a parsed result's product is the job's one polarity product, compared
    # with A by proportionality, so scale * A is formed only for a product
    # that is not the stated multiple; the product proves each factor
    # non-null (a null factor's polarity is singular), so Klein's form is
    # evaluated once, for the transform's determinant, and on no factor
    for job, mode in verify_jobs():
        c0, c1, c2, c3 = map(Matrix.from_json(job["transform"]["matrix"]).col, range(4))
        determinant_lines = (klein._pair_minors(c0, c1), klein._pair_minors(c2, c3))
        doubled = format_scalar(2 * as_scalar(job["result"]["scale"]))
        wrong = dict(job, result=dict(job["result"], scale=doubled))
        for payload, expected, formed in ((job, 0, 0), (wrong, 1, 1)):
            chains = counting(monkeypatch, factorize, "_polarity_product")
            scales = counting(monkeypatch, Matrix, "scale")
            forms = klein_forms(monkeypatch)
            code, report = cli.run_job("verify", payload, {"scalar_mode": mode})
            monkeypatch.undo()
            assert code == expected
            assert (report["verified"] is True if code == 0
                    else report["detail"]["check"] == "product")
            assert len(chains) == 1 and len(scales) == formed
            assert forms == [determinant_lines]


def test_verify_reads_each_factor_off_its_polarity(monkeypatch):
    # the factor check reads the coordinates off the polarity's entries
    # once per factor and builds no vector from them
    for job, mode in verify_jobs():
        built = []
        for owner in (klein, factorize, cli):
            if hasattr(owner, "null_polarity_to_vector"):
                built.append(counting(monkeypatch, owner, "null_polarity_to_vector"))
        reads = counting(monkeypatch, factorize, "_polarity_coordinates")
        code, report = cli.run_job("verify", job, {"scalar_mode": mode})
        monkeypatch.undo()
        assert code == 0 and report["verified"] is True
        assert built == [[]]
        assert len(reads) == len(job["result"]["factors"]) >= 3


def test_verify_checks_each_skew_pair_once_and_adds_no_coefficient_to_zero(monkeypatch):
    # is_skew negates and compares each pair off the diagonal once: the
    # complex variant's six polarities hold 10 Gaussian entries above their
    # diagonals; Multivector.from_json adds only the coefficients of a mask
    # that repeats, which a written result never holds
    for job, mode in verify_jobs():
        inside, counts = [], {}
        for owner, attr in ((Matrix, "is_skew"), (Multivector, "from_json")):
            def scoped(*args, _original=getattr(owner, attr), _attr=attr):
                inside.append(_attr)
                try:
                    return _original(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(owner, attr, scoped)
        for name in ("__neg__", "__eq__", "__add__", "__radd__"):
            def operation(self, *args, _original=getattr(ComplexRational, name), _name=name):
                if inside:
                    counts[inside[-1], _name] = counts.get((inside[-1], _name), 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(ComplexRational, name, operation)
        code, report = cli.run_job("verify", job, {"scalar_mode": mode})
        monkeypatch.undo()
        assert code == 0 and report["verified"] is True
        expected = {("is_skew", "__neg__"): 10, ("is_skew", "__eq__"): 10}
        assert counts == (expected if mode == "complex" else {})


def test_verify_parses_to_ints_and_checks_internal_coordinates(monkeypatch):
    for job, mode in verify_jobs():
        parsed = []
        new_fraction = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            if args and isinstance(args[0], str):
                parsed.append(args[0])
            return new_fraction(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        chains = counting(monkeypatch, factorize, "_polarity_product")
        code, report = cli.run_job("verify", job, {"scalar_mode": mode})
        monkeypatch.undo()
        assert code == 0 and report["verified"] is True
        assert parsed == []  # every string goes straight to its internal form
        (polarities,), = chains
        entries = [c for p in polarities for c in p.matrix.entries]
        assert len(polarities) == len(job["result"]["factors"]) >= 3
        assert all(is_integral_storage(c) for c in entries)
        if mode == "complex":
            assert any(type(c) is ComplexRational for c in entries)


def test_warm_factorization_forms_no_residual(monkeypatch):
    # the lift's proportionality proves product == s A, so no difference is
    # formed, and the lift's coefficient build scales the entries of A
    # itself, so no scaled matrix is formed either
    for rows, mode in ((REFERENCE_COLLINEATION, "rational"), (COMPLEX_VARIANT, "complex")):
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        factorize.factorize_matrix(t, mode)
        scales = counting(monkeypatch, Matrix, "scale")
        differences = counting(monkeypatch, Matrix, "__sub__")
        result = factorize.factorize_matrix(t, mode)
        monkeypatch.undo()
        assert len(result.factors) == 6
        assert scales == [] and differences == []


def test_verifying_a_factorization_multiplies_its_polarities_once(monkeypatch):
    # the lift's proportionality proved the product a multiple of its own
    # matrix, so verify forms no product for it; against another matrix,
    # and for a copy the library did not build, it forms the product once
    cases = ((REFERENCE_COLLINEATION, COMPLEX_VARIANT, "rational"),
             (COMPLEX_VARIANT, REFERENCE_COLLINEATION, "complex"))
    for rows, other_rows, mode in cases:
        t = klein.ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        other = klein.ProjTransform4(Matrix.from_rows(other_rows), "collineation", "points")
        result = factorize.factorize_matrix(t, mode)
        chains = counting(monkeypatch, factorize, "_polarity_product")
        assert factorize.verify_factorization(result, t)
        assert chains == []
        assert not factorize.verify_factorization(result, other)
        assert [args[0] for args in chains] == [result.polarities]
        copies = (dataclasses.replace(result),
                  factorize.FactorizationResult(result.factors, result.polarities,
                                                result.scale, result.residual))
        for copy in copies:
            chains.clear()
            assert factorize.verify_factorization(copy, t) and not copy.verified()
            assert [args[0] for args in chains] == [result.polarities]
        monkeypatch.undo()


FRACTION_OPERATIONS = ("__mul__", "__add__", "__sub__", "__truediv__")


def test_rational_sphere_model_runs_on_ints(monkeypatch):
    # lie_encode forms a sphere's first two coordinates on the integer
    # representative of (p, r, 1), each one Fraction(p, q) construction,
    # and oriented_contact reads Lie's form three times on the integer
    # representatives; on Fraction coordinates the touching pair called
    # these operators 24 times in its two encodings and 39 in its contact
    touching = (LieSphere((Fraction(1, 3), Fraction(-1, 2), Fraction(2, 7)), Fraction(3, 2)),
                LieSphere((Fraction(13, 12), Fraction(1, 2), Fraction(2, 7)), Fraction(1, 4)))
    apart = LieSphere((Fraction(-5, 6), 3, Fraction(1, 9)), Fraction(-7, 5))
    for pair, touch in ((touching, True), ((touching[0], apart), False)):
        operations = [counting(monkeypatch, Fraction, name) for name in FRACTION_OPERATIONS]
        quotients = counting(monkeypatch, lie, "div")
        a, b = map(lie_encode, pair)
        assert oriented_contact(a, b) is touch
        monkeypatch.undo()
        assert operations == [[]] * len(FRACTION_OPERATIONS)
        assert len(quotients) == 4 and all(type(x) is int for q in quotients for x in q)
