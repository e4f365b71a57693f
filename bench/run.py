"""Benchmark of exactga: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports exactga from its
``src``.  Set-up (import, input generation and filling the per-algebra
product caches) is repeated and its median reported as ``setup_s``.  Then
the workload's operations run back to back for ``--seconds``; every output
is checked (independent certificate check, expected exit code, recorded
output digest) and failures are counted.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` each operation runs untraced and is then replayed with
spans around the calls into each module, and the result holds the per-layer
metrics.  Times are scaled by a calibration taken around each item (see
CAL_SECONDS).  The last line printed is the JSON result; the lines above it are
a readable report and the environment.

    python3 bench/run.py --record-golden

recomputes ``bench/golden.json``, the digests of every pool item's output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer, wrapped
from workloads import REFERENCE, WORKLOADS, Recorder, fill_product_caches, load_exactga, \
    matrix_payload, replay_factorization, sphere_pair, unload_exactga

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SETUPS = 7
# What ``calibrate`` takes on an idle core of the two-vCPU x86-64 machine
# the benchmark was tuned on.  Times are reported as if every item had run
# at that speed (see speed_factor); this takes out the slow spells that
# other tenants of a shared machine cause.
CAL_SECONDS = 0.0005

# per-layer metrics read as the per-call median of the span of that name
SPAN_METRICS = (
    "klein.induced_line_map", "klein.proj_to_versor", "factorize.factorize_versor",
    "factorize.choose_nonnull_vector", "blades.max_grade_part", "blades.opns", "algebra.gp",
    "klein.vector_to_null_polarity", "linalg.mat_mul", "factorize.verify_factorization",
    "scalars.parse_scalar", "linalg.determinant", "scalars.format_scalar",
    "lie.lie_encode", "lie.oriented_contact",
)
# Printed in the readable report but not bounded in BENCHMARK.json: on the
# complex workload (about 45 calls a run) their spread across runs reached
# 0.15-0.2, too close to the largest bound a metric may have.
REPORT_ONLY = {"op_ms.p90": "ms", "verify_ms.p90": "ms"}
COUNT_METRICS = (
    "algebra.gp.calls", "factorize.descent_steps", "klein.versor_coeff_bits.max",
    "cli.refused.1", "cli.refused.2", "cli.refused.64", "cli.refused.65",
)


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic that runs no
    exactga code; it reads slow while other work slows this process down."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    return perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Scale from the wall time of a stretch of work to the time it takes on
    a machine where the calibration reads CAL_SECONDS."""
    return CAL_SECONDS / ((before + after) / 2)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def set_up(name: str, seed: int, golden: dict | None, **sizes):
    """Import, generate inputs and fill the product caches, SETUPS times.

    Returns the last set-up's workload and the median scaled set-up time."""
    times = []
    for _ in range(SETUPS):
        # drop the previous set-up's modules and caches, so that peak_rss_mb
        # holds one copy of exactga's state
        api = workload = None
        unload_exactga()
        gc.collect()
        c0 = calibrate()
        t0 = perf_counter()
        api = load_exactga(SRC)
        workload = WORKLOADS[name](api, seed, golden, **sizes)
        fill_product_caches(api)
        seconds = perf_counter() - t0
        times.append(seconds * speed_factor(c0, calibrate()))
    return workload, statistics.median(times)


def measure(workload, seconds: float, rec: Recorder) -> list[tuple]:
    """Run items back to back for ``seconds``, each between two calibrations.

    Returns per item its speed factor and the recorder's marks before and
    after it."""
    readings = []
    deadline = perf_counter() + seconds
    for item in workload.schedule():
        if perf_counter() >= deadline:
            break
        c0, before = calibrate(), rec.mark()
        workload.run_item(item, rec)
        after = rec.mark()
        readings.append((speed_factor(c0, calibrate()), before, after))
    return readings


def end_to_end(rec: Recorder, readings: list[tuple], setup_s: float,
               scaled: bool = True) -> dict:
    """The end-to-end metrics, every time scaled by its item's speed factor
    (or left as measured on the wall clock when ``scaled`` is false)."""
    readings = [(f if scaled else 1.0, a, b) for f, a, b in readings]
    op = [x * f for f, a, b in readings for x in rec.samples["op_ms"][a.op_ms:b.op_ms]]
    verify = [x * f for f, a, b in readings
              for x in rec.samples["verify_ms"][a.verify_ms:b.verify_ms]]
    busy = sum((b.busy - a.busy) * f for f, a, b in readings)
    return {
        "setup_s": setup_s,
        "ops_per_s": rec.attempted / busy,
        "op_ms.p50": statistics.median(op),
        "op_ms.p90": percentile(op, 90),
        "verify_ms.p50": statistics.median(verify),
        "verify_ms.p90": percentile(verify, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def replay(workload, seconds: float, rec: Recorder, traced: Recorder,
           tracer: Tracer) -> list[float]:
    """Run each item untraced, then replay it traced, until ``seconds`` pass
    and the first round is done.  Returns, per item with an op_ms sample,
    traced over untraced time of that operation; the two run back to back,
    so slow spells of the machine hit both.  Counts cover the first round
    only, so they repeat exactly."""
    ratios = []
    deadline = perf_counter() + seconds
    multivector = workload.api.algebra.Multivector
    first_round = len(workload.rounds[0])
    for index, item in enumerate(workload.schedule()):
        if index >= first_round and perf_counter() >= deadline:
            break
        tracer.counting = index < first_round
        samples = len(rec.samples["op_ms"])
        first = len(tracer.spans)
        tracer.op = (first, item.key)
        # alternate which form runs first, so that an order effect cancels
        if index % 2:
            workload.run_item(item, rec)
        c0 = calibrate()
        with wrapped(multivector, "gp", tracer, "algebra.gp",
                     lambda args, out: tracer.count("algebra.gp.calls")):
            workload.replay_item(item, tracer, traced)
        tracer.speed[tracer.op] = speed_factor(c0, calibrate())
        if index % 2 == 0:
            workload.run_item(item, rec)
        if len(rec.samples["op_ms"]) > samples:
            span = next(s for s in tracer.spans[first:] if s[0] == workload.traced_op)
            ratios.append((span[4] - span[3]) * 1000 / rec.samples["op_ms"][-1])
    tracer.counting = False
    return ratios


def probe(workload, lie: bool, factorize: bool) -> Tracer:
    """Spans for the layers a workload does not call: the paper's reference
    matrix through the factorize path, and seeded sphere pairs through the
    sphere model.  Kept apart so they never mix with the workload's spans."""
    tracer = Tracer()
    api = workload.api
    if factorize:
        payload = matrix_payload(REFERENCE, "collineation", "points")
        with wrapped(api.algebra.Multivector, "gp", tracer, "algebra.gp"):
            for i in range(3):
                tracer.op, c0 = (i, "probe"), calibrate()
                replay_factorization(api, tracer, payload, {"scalar_mode": "rational"})
                tracer.speed[tracer.op] = speed_factor(c0, calibrate())
    if lie:
        rng = random.Random("lie-probe")
        for i in range(16):
            tracer.op, c0 = (i, "lie-probe"), calibrate()
            pair = sphere_pair(rng, contact=i % 2 == 0)
            a, b = (tracer.call("lie.lie_encode", api.lie.lie_encode, api.lie.LieSphere(c, r))
                    for c, r in pair[:2])
            tracer.call("lie.oriented_contact", api.lie.oriented_contact, a, b)
            tracer.speed[tracer.op] = speed_factor(c0, calibrate())
    return tracer


def layer_metrics(workload, tracer: Tracer, overhead_ratios: list[float]) -> dict:
    def timed(t: Tracer) -> dict:
        lift_self = t.paired_ms("klein.proj_to_versor", "factorize.factorize_versor")
        cli_self = t.self_ms("cli.run_job", "cli.library")
        out = {f"{name}.ms": t.median_ms(name) for name in SPAN_METRICS}
        out["klein.lift_self.ms"] = statistics.median(lift_self) if lift_self else None
        out["cli.overhead.ms"] = statistics.median(cli_self) if cli_self else None
        return out

    metrics = timed(tracer)
    missing = [k for k, v in metrics.items() if v is None]
    if missing:
        lie = [k.startswith("lie.") for k in missing]
        fallback = timed(probe(workload, lie=any(lie), factorize=not all(lie)))
        metrics = {k: fallback[k] if v is None else v for k, v in metrics.items()}
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0)
    metrics["trace.overhead_frac"] = statistics.median(overhead_ratios) - 1
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, golden: dict | None,
                  **sizes) -> tuple[dict, dict]:
    """One run; returns (metric values, environment)."""
    workload, setup_s = set_up(name, seed, golden, **sizes)
    rec = Recorder()
    extra = {}
    if not trace:
        readings = measure(workload, seconds, rec)
        values = end_to_end(rec, readings, setup_s)
        wall = end_to_end(rec, readings, setup_s, scaled=False)
        extra["wall_clock"] = {k: wall[k] for k in ("ops_per_s", "op_ms.p50", "verify_ms.p50")}
        traced = Recorder()
    else:
        traced, tracer = Recorder(), Tracer()
        ratios = replay(workload, seconds, rec, traced, tracer)
        values = layer_metrics(workload, tracer, ratios)
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "seed": seed,
        "workload": name,
        "size": workload.size(),
        "operations": rec.attempted + traced.attempted,
        "seconds": seconds,
        "trace": int(trace),
        **extra,
    }
    outcome = {"attempted": rec.attempted + traced.attempted,
               "failed": rec.failed + traced.failed,
               "problems": rec.problems + traced.problems}
    return values, env | {"outcome": outcome}


def report(spec: dict, values: dict, env: dict, trace: bool) -> list[str]:
    """Readable lines, then the environment and the result as JSON lines."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(values) != names | (set(REPORT_ONLY) & set(values)):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    outcome = env.pop("outcome")
    attempted, failed = outcome["attempted"], outcome["failed"]
    lines = [f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}"]
    for m in declared:
        lines.append(f"  {m['name']:34} {values[m['name']]!r:>24} {m['unit']}")
    for name, unit in REPORT_ONLY.items():
        if name in values:
            lines.append(f"  {name:34} {values[name]!r:>24} {unit}  (reported, not bounded)")
    lines.append(f"  {'failed_frac':34} {failed / attempted!r:>24} fraction"
                 f"  ({failed} of {attempted} operations)")
    lines += [f"  problem: {p}" for p in outcome["problems"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    lines.append(json.dumps({"environment": env}))
    lines.append(json.dumps(result))
    return lines


def record_golden() -> dict:
    """Digests of every pool item's output, after checking each item."""
    api = load_exactga(SRC)
    golden = {}
    for name, cls in WORKLOADS.items():
        workload = cls(api, 0, None)
        rec = Recorder()
        rec.recorded = {}
        for item in workload.pool_items():
            workload.run_item(item, rec)
        if rec.failed:
            raise RuntimeError(f"{name}: {rec.problems}")
        golden[name] = dict(sorted(rec.recorded.items()))
        print(f"{name}: {len(rec.recorded)} outputs, {rec.attempted} operations checked")
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; by default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "exactga" / "__init__.py").is_file():
        print(f"no exactga sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.record_golden:
        GOLDEN.write_text(json.dumps(record_golden(), indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text())[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    values, env = run_benchmark(args.workload, args.seed, seconds, bool(args.trace), golden)
    print("\n".join(report(spec, values, env, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
