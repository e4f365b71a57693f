"""The four workloads of the exactga benchmark, their inputs and checks.

Every input comes from the benchmark's own ``random.Random``.  Random items
are drawn from fixed pools: pool item ``v`` of a stratum is always built from
the generator seeded with its key, and ``--seed`` only chooses which pool
items form the batch and in what order.  So any seed's outputs can be checked
against the digests recorded in ``golden.json`` for every pool item.

Each workload runs as a closed loop with one client: the next call is issued
only after the previous one returns.  ``run_item`` is the untraced form of one
item, ``replay_item`` the traced form (see ``tracing.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from certificate import check_certificate
from tracing import Tracer, wrapped

LAYERS = ("scalars", "linalg", "algebra", "blades", "klein", "factorize", "lie", "cli")
ACTIONS = ("points", "planes")
POOL = 12  # variants per stratum of the random workloads
ROUNDS = 6  # rounds per batch; each round holds one item per stratum

REFERENCE = [[1, 0, 3, 0], [1, 1, 0, 1], [1, 2, 1, 0], [1, 1, 2, 1]]
COMPLEX_VARIANT = [[-1, 0, 3, 0], [1, 1, 0, 1], [1, 2, 1, 0], [1, 1, 2, 1]]


class ReplayMismatch(RuntimeError):
    """The traced replay did not reproduce the work of the untraced call."""


def unload_exactga():
    """Forget every imported exactga module, so that the next import is fresh."""
    for name in [n for n in sys.modules if n == "exactga" or n.startswith("exactga.")]:
        del sys.modules[name]


def load_exactga(src: Path) -> SimpleNamespace:
    """Import exactga afresh from ``src``, one attribute per module."""
    unload_exactga()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    api = SimpleNamespace(**{m: importlib.import_module(f"exactga.{m}") for m in LAYERS})
    if not Path(api.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"exactga was imported from {api.cli.__file__}, not from {src}")
    return api


def fill_product_caches(api):
    """Compute every blade product of both six-generator algebras once."""
    for alg in (api.klein.klein_algebra(), api.lie.lie_algebra()):
        masks = alg.basis_masks()
        for a in masks:
            for b in masks:
                alg.blade_gp(a, b)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def coeff_bits(mv) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    best = 0
    for c in mv.terms.values():
        for part in (c.re, c.im) if hasattr(c, "im") else (c,):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


# -- generators (the rand_versor -> versor_to_proj recipe) ---------------------


def rand_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def rand_nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        x = rand_fraction(rng)
        if x:
            return x


def rand_invertible_vector(rng: random.Random, alg, span: int = 2):
    while True:
        v = alg.vector([rng.randint(-span, span) for _ in range(alg.dim)])
        if not v.is_zero() and v.gp(v).scalar_part():
            return v


def rand_versor(rng: random.Random, alg, k: int):
    prod = alg.scalar(1)
    for _ in range(k):
        prod = prod.gp(rand_invertible_vector(rng, alg))
    return prod


def rand_unit_normal(rng: random.Random) -> tuple:
    """Rational unit vector from the stereographic parameterization."""
    a, b = rand_fraction(rng, 2), rand_fraction(rng, 2)
    d = 1 + a * a + b * b
    return 2 * a / d, 2 * b / d, (1 - a * a - b * b) / d


def sphere_pair(rng: random.Random, contact: bool):
    """Two oriented spheres (center, signed radius) and whether they touch.

    Touching pairs put the second center at distance |r1 - r2| along a
    rational unit normal.  The expected answer is computed here from
    |c1 - c2|^2 == (r1 - r2)^2, without the sphere model.
    """
    c1 = tuple(rand_fraction(rng) for _ in range(3))
    r1 = rand_nonzero_fraction(rng)
    r2 = rand_nonzero_fraction(rng)
    if contact:
        n = rand_unit_normal(rng)
        c2 = tuple(c + (r1 - r2) * x for c, x in zip(c1, n))
    else:
        c2 = tuple(rand_fraction(rng) for _ in range(3))
    expected = sum((a - b) ** 2 for a, b in zip(c1, c2)) == (r1 - r2) ** 2
    return (c1, r1), (c2, r2), expected


def negate_row0(rows: list[list[str]]) -> list[list[str]]:
    return [[str(-Fraction(v)) for v in rows[0]]] + [list(r) for r in rows[1:]]


def matrix_payload(rows, kind: str, action: str) -> dict:
    return {"matrix": [[str(v) for v in r] for r in rows], "kind": kind, "action": action}


# -- recording -----------------------------------------------------------------


class Recorder:
    """Timings and outcomes of the operations of one run."""

    def __init__(self):
        self.samples = {"op_ms": [], "verify_ms": []}
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorded: dict[str, str] | None = None  # filled when recording goldens

    def timed(self, fn, *args):
        """Run one program call; returns (output, exception, seconds)."""
        t0 = perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # a raising call is a failed operation
            out, err = None, exc
        dt = perf_counter() - t0
        self.busy += dt
        self.attempted += 1
        return out, err, dt

    def mark(self) -> SimpleNamespace:
        """Where the recorder stands, to slice out one item's samples later."""
        return SimpleNamespace(op_ms=len(self.samples["op_ms"]),
                               verify_ms=len(self.samples["verify_ms"]),
                               busy=self.busy, attempted=self.attempted)

    def sample(self, metric: str, seconds: float):
        self.samples[metric].append(seconds * 1000)

    def outcome(self, what: str, problems: list[str]):
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


class Workload:
    name = ""
    strata: tuple = ()
    pool = POOL  # variants per stratum
    batch_rounds = ROUNDS
    traced_op = ""  # span name of the traced form of the op_ms operation

    def __init__(self, api, seed: int, golden: dict | None, strata=None,
                 rounds: int | None = None):
        """Build the inputs: the seed samples each stratum's pool variant
        per round, and the order of the items in each round."""
        self.api = api
        self.golden = golden
        self.strata = tuple(strata) if strata is not None else self.strata
        rounds = rounds or self.batch_rounds
        rng = random.Random(f"{self.name}/{seed}")
        variants = [rng.sample(range(self.pool), rounds) for _ in self.strata]
        self.rounds = []
        for r in range(rounds):
            items = [self.make_item(s, variants[i][r]) for i, s in enumerate(self.strata)]
            items += self.extra_items(rng)
            rng.shuffle(items)
            self.rounds.append(items)

    def make_item(self, stratum, variant):
        raise NotImplementedError

    def extra_items(self, rng) -> list:
        return []

    def pool_items(self) -> list:
        """Every item any seed can draw, for recording their digests."""
        return [self.make_item(s, v) for s in self.strata for v in range(self.pool)]

    def schedule(self):
        """Items in closed-loop order, cycling through the batch forever."""
        while True:
            for items in self.rounds:
                yield from items

    def size(self) -> dict:
        return {"rounds": len(self.rounds), "items_per_round": len(self.rounds[0])}

    def check_digest(self, key: str, output) -> list[str]:
        d = digest(output)
        if self.golden is None:
            return []
        if key not in self.golden:
            raise KeyError(f"no recorded digest for {self.name} item {key}")
        if self.golden[key] != d:
            return [f"output digest {d[:12]} differs from the recorded one"]
        return []

    def record(self, rec: Recorder, key: str, output):
        if rec.recorded is not None:
            rec.recorded[key] = digest(output)

    def run_item(self, item, rec: Recorder):
        raise NotImplementedError

    def replay_item(self, item, tracer: Tracer, rec: Recorder):
        raise NotImplementedError


# -- factorization replay, shared by the three matrix workloads ----------------


def alternating_actions(count: int, innermost: str) -> list[str]:
    other = "planes" if innermost == "points" else "points"
    return [innermost if (count - 1 - i) % 2 == 0 else other for i in range(count)]


def replay_descent(api, tracer: Tracer, value):
    """The grade descent step by step with public calls; (factors, steps).

    The product ``current.gp(v)`` is timed by the wrapper the traced run puts
    on ``Multivector.gp``.
    """
    extracted, current, steps = [], value, 0
    while current.max_grade() >= 2:
        blade = tracer.call("blades.max_grade_part", api.blades.max_grade_part, current)
        space = tracer.call("blades.opns", api.blades.opns, blade)
        v = tracer.call("factorize.choose_nonnull_vector",
                        api.factorize.choose_nonnull_vector, space)
        current = current.gp(v)
        extracted.append(v)
        steps += 1
    if current.max_grade() == 1:
        extracted.append(current)
    alg = value.algebra
    return [alg.vector(api.linalg.normalize_vector(v.coordinates()))
            for v in reversed(extracted)], steps


def replay_factorization(api, tracer: Tracer, payload: dict, opts: dict) -> tuple:
    """Factor through ``cli.run_job``, then replay the pipeline layer by layer.

    Returns (exit code, report).  The call into the library from the CLI is
    recorded as ``cli.library``, so ``cli.run_job`` minus it is the CLI's own
    time.  The replay re-runs each stage with public calls on the same input
    and raises ReplayMismatch unless it reproduces the lift's witness and the
    certificate's product.
    """
    captured = {}

    def keep(args, out):
        captured["t"], captured["result"] = args[0], out

    with wrapped(api.cli, "factorize_matrix", tracer, "cli.library", keep):
        code, report = tracer.call("cli.run_job", api.cli.run_job, "factorize", payload, opts)
    if code != 0:
        return code, report
    t, result = captured["t"], captured["result"]
    mode = opts.get("scalar_mode", "rational")
    tracer.call("linalg.determinant", api.linalg.determinant, t.matrix)
    tracer.call("klein.induced_line_map", api.klein.induced_line_map, t)
    versor = tracer.call("klein.proj_to_versor", api.klein.proj_to_versor, t, mode)
    factors = tracer.call("factorize.factorize_versor", api.factorize.factorize_versor,
                          versor.value)
    replayed, steps = replay_descent(api, tracer, versor.value)
    if not factors == replayed == list(versor.witness) == list(result.factors):
        raise ReplayMismatch("replayed descent differs from the lift's witness")
    tracer.count("factorize.descent_steps", steps)
    tracer.high_water("klein.versor_coeff_bits.max", coeff_bits(versor.value))
    actions = alternating_actions(len(factors), t.action)
    product = api.linalg.Matrix.identity(4)
    for v, a in zip(factors, actions):
        polarity = tracer.call("klein.vector_to_null_polarity",
                               api.klein.vector_to_null_polarity, v, a)
        product = tracer.call("linalg.mat_mul", api.linalg.mat_mul, product, polarity.matrix)
    if product != t.matrix.scale(result.scale):
        raise ReplayMismatch("replayed polarity product differs from the certificate")
    if not tracer.call("factorize.verify_factorization",
                       api.factorize.verify_factorization, result, t):
        raise ReplayMismatch("the library rejects its own certificate")
    as_json = tracer.call("scalars.format_scalar", result.to_json)
    tracer.call("scalars.parse_scalar", api.factorize.FactorizationResult.from_json, as_json, t)
    return code, report


# -- reference and complex -------------------------------------------------------


class MatrixWorkload(Workload):
    """Repeated factorize_matrix on one fixed matrix; the seed changes nothing."""

    rows: list = []
    mode = "rational"
    strata = ("single",)
    pool = 1
    batch_rounds = 1
    traced_op = "cli.library"

    def make_item(self, stratum, variant):
        payload = matrix_payload(self.rows, "collineation", "points")
        t = self.api.klein.ProjTransform4.from_json(payload)
        return SimpleNamespace(key=self.name, payload=payload, transform=t,
                               opts={"scalar_mode": self.mode})

    def run_item(self, item, rec: Recorder):
        fz = self.api.factorize
        result, err, dt = rec.timed(fz.factorize_matrix, item.transform, self.mode)
        rec.sample("op_ms", dt)
        if err is not None:
            rec.outcome("factorize", [f"raised {err!r}"])
            return
        report = result.to_json()
        self.record(rec, item.key, report)
        rec.outcome("factorize", self.check_digest(item.key, report) + check_certificate(
            report, item.payload["matrix"], "collineation", "points"))

        def verify():
            t = item.transform
            return fz.verify_factorization(fz.FactorizationResult.from_json(report, t), t)

        ok, err, dt = rec.timed(verify)
        rec.sample("verify_ms", dt)
        rec.outcome("verify", [] if ok is True else [f"verify gave {ok!r} {err!r}"])

    def replay_item(self, item, tracer: Tracer, rec: Recorder):
        code, report = replay_factorization(self.api, tracer, item.payload, item.opts)
        problems = [f"exit code {code}"] if code else []
        if not problems:
            problems = self.check_digest(item.key, report) + check_certificate(
                report, item.payload["matrix"], "collineation", "points")
        rec.attempted += 1
        rec.outcome("traced factorize", problems)


class Reference(MatrixWorkload):
    name = "reference"
    rows = REFERENCE


class Complex(MatrixWorkload):
    name = "complex"
    rows = COMPLEX_VARIANT
    mode = "complex"


# -- random_batch ------------------------------------------------------------------

REFUSAL_CODES = (1, 2, 64, 65)


class RandomBatch(Workload):
    """CLI jobs: factorize on random liftable transforms, each followed by a
    verify of its certificate, plus one refused job per exit code a round."""

    name = "random_batch"
    # (factors k, action, scalar mode): both kinds, both actions, 1-6
    # factors; a quarter have row 0 negated and need the complex mode
    strata = tuple((k, a, "rational") for k in range(1, 7) for a in ACTIONS) + tuple(
        (k, a, "complex") for k in (2, 5) for a in ACTIONS)
    traced_op = "cli.run_job"

    def make_item(self, stratum, variant):
        k, action, mode = stratum
        key = f"{k}/{action}/{mode}/{variant}"
        rng = random.Random(f"{self.name}/{key}")
        klein = self.api.klein
        t = klein.versor_to_proj(rand_versor(rng, klein.klein_algebra(), k), action)
        rows = t.matrix.to_json()
        if mode == "complex":
            rows = negate_row0(rows)
        payload = {"matrix": rows, "kind": t.kind, "action": action}
        return SimpleNamespace(kind="factorize", key=key, payload=payload,
                               opts={"scalar_mode": mode})

    def extra_items(self, rng) -> list:
        return [self.refusal(code, rng.randrange(self.pool)) for code in REFUSAL_CODES]

    def pool_items(self) -> list:
        return super().pool_items() + [self.refusal(code, v) for code in REFUSAL_CODES
                                       for v in range(self.pool)]

    def refusal(self, code: int, variant: int):
        """A job the CLI must refuse with ``code``."""
        key = f"refuse/{code}/{variant}"
        rng = random.Random(f"{self.name}/{key}")
        klein = self.api.klein
        action = rng.choice(ACTIONS)
        t = klein.versor_to_proj(rand_versor(rng, klein.klein_algebra(), rng.randint(1, 6)),
                                 action)
        rows = t.matrix.to_json()
        payload = {"matrix": rows, "kind": t.kind, "action": action}
        if code == 1:  # |det| doubled: the similitude ratio is no rational square
            payload["matrix"] = [[str(2 * Fraction(v)) for v in rows[0]]] + rows[1:]
        elif code == 2:  # negative ratio, submitted in rational mode
            payload["matrix"] = negate_row0(rows)
        elif code == 64:
            flaw = rng.choice(("entry", "shape", "kind", "action"))
            if flaw == "entry":
                r, c = rng.randrange(4), rng.randrange(4)
                payload["matrix"] = [list(row) for row in rows]
                payload["matrix"][r][c] = "x"
            elif flaw == "shape":
                payload["matrix"] = rows[:3]
            elif flaw == "kind":
                del payload["kind"]
            else:
                payload["action"] = "lines"
        else:  # a repeated row makes the matrix singular
            i, j = rng.sample(range(4), 2)
            payload["matrix"] = [list(row) for row in rows]
            payload["matrix"][j] = list(rows[i])
        return SimpleNamespace(kind="refuse", key=key, code=code, payload=payload,
                               opts={"scalar_mode": "rational"})

    def size(self) -> dict:
        jobs = sum(2 if i.kind == "factorize" else 1 for i in self.rounds[0])
        return {"rounds": len(self.rounds), "jobs_per_round": jobs}

    def check_factorize(self, item, code, report) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {report.get('error')}"]
        p = item.payload
        return self.check_digest(item.key, report) + check_certificate(
            report, p["matrix"], p["kind"], p["action"])

    def check_verify(self, code, report, factorized) -> list[str]:
        expected = {"verified": True, "scale": factorized["scale"]}
        return [] if (code, report) == (0, expected) else [f"verify gave {code} {report}"]

    def run_item(self, item, rec: Recorder):
        run_job = self.api.cli.run_job
        out, err, dt = rec.timed(run_job, "factorize", item.payload, item.opts)
        if item.kind == "refuse":
            code = out[0] if err is None else None
            rec.outcome(f"refusal {item.key}",
                        [] if code == item.code else [f"exit code {code}, {err!r}"])
            return
        rec.sample("op_ms", dt)
        if err is not None:
            rec.outcome(f"factorize {item.key}", [f"raised {err!r}"])
            return
        code, report = out
        if code == 0:
            self.record(rec, item.key, report)
        rec.outcome(f"factorize {item.key}", self.check_factorize(item, code, report))
        job = {"transform": item.payload, "result": report}
        out, err, dt = rec.timed(run_job, "verify", job, item.opts)
        rec.sample("verify_ms", dt)
        rec.outcome(f"verify {item.key}", [f"raised {err!r}"] if err is not None
                    else self.check_verify(*out, report))

    def replay_item(self, item, tracer: Tracer, rec: Recorder):
        run_job = self.api.cli.run_job
        rec.attempted += 1
        if item.kind == "refuse":
            code, _ = tracer.call("cli.refused_job", run_job, "factorize", item.payload, item.opts)
            tracer.count(f"cli.refused.{code}")
            rec.outcome(f"traced refusal {item.key}",
                        [] if code == item.code else [f"exit code {code}"])
            return
        code, report = replay_factorization(self.api, tracer, item.payload, item.opts)
        rec.outcome(f"traced factorize {item.key}", self.check_factorize(item, code, report))
        if code == 0:
            rec.attempted += 1
            job = {"transform": item.payload, "result": report}
            out = tracer.call("cli.verify_job", run_job, "verify", job, item.opts)
            rec.outcome(f"traced verify {item.key}", self.check_verify(*out, report))


# -- versor_algebra ----------------------------------------------------------------


class VersorAlgebra(Workload):
    """Grade descent of random versors in Cl(3,3) and Cl(4,2), and oriented
    contact of sphere pairs; no induced map, lift or 4x4 certificate."""

    name = "versor_algebra"
    strata = tuple((alg, k) for alg in ("klein", "lie") for k in range(1, 7))
    # items are cheap, so a seed draws many: half of a larger pool
    pool = 2 * POOL
    batch_rounds = POOL
    traced_op = "op"

    def algebra(self, name: str):
        return self.api.klein.klein_algebra() if name == "klein" else self.api.lie.lie_algebra()

    def make_item(self, stratum, variant):
        alg_name, k = stratum
        key = f"{alg_name}/{k}/{variant}"
        rng = random.Random(f"{self.name}/{key}")
        g = rand_versor(rng, self.algebra(alg_name), k)
        (c1, r1), (c2, r2), expected = sphere_pair(rng, contact=variant % 2 == 0)
        sphere = self.api.lie.LieSphere
        return SimpleNamespace(key=key, k=k, algebra=alg_name, versor=g,
                               spheres=(sphere(c1, r1), sphere(c2, r2)), contact=expected)

    def descend_and_check(self, g, tracer: Tracer | None = None):
        """One descent plus its check: (factors, ratio, seconds of the check)."""
        fv = self.api.factorize.factorize_versor
        factors = tracer.call("factorize.factorize_versor", fv, g) if tracer else fv(g)
        t1 = perf_counter()
        prod = g.algebra.scalar(1)
        for v in factors:
            prod = prod.gp(v)
        ratio = self.api.algebra.proportional(prod, g)
        return factors, ratio, perf_counter() - t1

    def check_factors(self, item, factors, ratio) -> list[str]:
        problems = [] if ratio is not None else ["factor product is not proportional"]
        if len(factors) > min(6, item.k):
            problems.append(f"{len(factors)} factors from {item.k} vectors")
        form = self.algebra(item.algebra).form
        for v in factors:
            if set(v.terms) - {1 << i for i in range(6)}:
                problems.append("a factor is not a vector")
                continue
            x = [v.terms.get(1 << i, 0) for i in range(6)]
            if sum(x[i] * form[i, j] * x[j] for i in range(6) for j in range(6)) == 0:
                problems.append("a factor is null")
        output = [f.to_json() for f in factors]
        return problems + self.check_digest(item.key, output)

    def contact(self, item):
        lie = self.api.lie
        a, b = (lie.lie_encode(s) for s in item.spheres)
        return lie.oriented_contact(a, b)

    def run_item(self, item, rec: Recorder):
        out, err, dt = rec.timed(self.descend_and_check, item.versor)
        rec.sample("op_ms", dt)
        if err is not None:
            rec.outcome(f"descent {item.key}", [f"raised {err!r}"])
        else:
            factors, ratio, check_s = out
            rec.sample("verify_ms", check_s)
            self.record(rec, item.key, [f.to_json() for f in factors])
            rec.outcome(f"descent {item.key}", self.check_factors(item, factors, ratio))
        touching, err, _ = rec.timed(self.contact, item)
        rec.outcome(f"contact {item.key}",
                    [] if err is None and touching == item.contact else [f"{touching} {err!r}"])

    def replay_item(self, item, tracer: Tracer, rec: Recorder):
        rec.attempted += 2
        with tracer.span("op"):
            factors, ratio, _ = self.descend_and_check(item.versor, tracer)
        replayed, steps = replay_descent(self.api, tracer, item.versor)
        if replayed != factors:
            raise ReplayMismatch(f"replayed descent of {item.key} differs")
        tracer.count("factorize.descent_steps", steps)
        if item.algebra == "klein":
            tracer.high_water("klein.versor_coeff_bits.max", coeff_bits(item.versor))
        rec.outcome(f"traced descent {item.key}", self.check_factors(item, factors, ratio))
        lie = self.api.lie
        a, b = (tracer.call("lie.lie_encode", lie.lie_encode, s) for s in item.spheres)
        touching = tracer.call("lie.oriented_contact", lie.oriented_contact, a, b)
        rec.outcome(f"traced contact {item.key}",
                    [] if touching == item.contact else [f"contact {touching}"])


WORKLOADS = {w.name: w for w in (Reference, Complex, RandomBatch, VersorAlgebra)}
