"""Self-test of the benchmark at tiny sizes; finishes in seconds.

    python3 bench/selftest.py

Checks that the independent certificate check rejects tampered
certificates, that a known cost injected into the timed call comes through
the calibration scaling at its full size, that every metric of
BENCHMARK.json is printed with its unit by each workload, traced and
untraced, and that refusals with the expected exit code count as successes
while a wrong code or a changed output digest counts as a failure.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
from time import perf_counter

import run
from certificate import check_certificate
from workloads import REFERENCE, RandomBatch, Recorder, load_exactga, matrix_payload

TINY = {
    "reference": {},
    "complex": {},
    "random_batch": {"strata": [(1, "points", "rational"), (2, "planes", "complex")],
                     "rounds": 1},
    "versor_algebra": {"strata": [("klein", 3), ("lie", 2)], "rounds": 1},
}


def check(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def tampered_certificates(report: dict):
    """(description, report) pairs, each wrong in one way."""
    def edit(fn):
        bad = copy.deepcopy(report)
        fn(bad)
        return bad

    def bump(m, r, c):
        m[r][c] = str(int(m[r][c]) + 1)

    def skew_bump(bad):
        m = bad["polarities"][2]["matrix"]
        bump(m, 0, 1)
        m[1][0] = str(-int(m[0][1]))

    def factor_e1(bad):
        bad["factors"] = [[{"mask": 1, "coeff": "1"}] for _ in bad["factors"]]

    yield "one entry changed", edit(lambda b: bump(b["polarities"][0]["matrix"], 0, 1))
    yield "skew pair changed", edit(skew_bump)
    yield "scale changed", edit(lambda b: b.update(scale="5"))
    yield "factor dropped", edit(lambda b: (b["factors"].pop(), b["polarities"].pop()))
    yield "actions swapped", edit(lambda b: [p.update(action="planes" if p["action"] == "points"
                                                      else "points") for p in b["polarities"]])
    yield "factors replaced by e1", edit(factor_e1)
    yield "unreadable scale", edit(lambda b: b.update(scale="4.0"))


def test_certificate(api):
    payload = matrix_payload(REFERENCE, "collineation", "points")
    code, report = api.cli.run_job("factorize", payload, {})
    check(code == 0, "reference factorization failed")
    check(check_certificate(report, payload["matrix"], "collineation", "points") == [],
          "genuine certificate rejected")
    for what, bad in tampered_certificates(report):
        check(check_certificate(bad, payload["matrix"], "collineation", "points") != [],
              f"tampered certificate accepted: {what}")


def test_refusals_and_digests(api, golden: dict):
    workload = RandomBatch(api, 7, golden, **TINY["random_batch"])
    rec = Recorder()
    refusals = [i for i in workload.rounds[0] if i.kind == "refuse"]
    check(sorted(i.code for i in refusals) == [1, 2, 64, 65], "one refusal per exit code")
    for item in refusals:
        workload.run_item(item, rec)
    check((rec.attempted, rec.failed) == (4, 0), "expected refusals counted as failures")
    wrong = copy.copy(refusals[0])
    wrong.code = 0
    workload.run_item(wrong, rec)
    check(rec.failed == 1, "a wrong exit code was not counted as a failure")

    item = next(i for i in workload.rounds[0] if i.kind == "factorize")
    changed = dict(golden, **{item.key: "0" * 64})
    rec = Recorder()
    RandomBatch(api, 7, changed, **TINY["random_batch"]).run_item(item, rec)
    check(rec.failed == 1, "a digest mismatch was not counted as a failure")


def extra_work() -> int:
    """A fixed piece of integer arithmetic (tens of ms) that runs no exactga code."""
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def test_injected_cost(spec: dict, golden: dict) -> str:
    """A known extra cost put inside the timed call must raise the scaled
    op_ms.p50 by that cost, timed on its own and scaled alike, to within
    op_ms.p50's bound.  Plain and slowed runs alternate in short spells, so
    that a slow spell of the machine hits both."""
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "op_ms.p50")
    workload, _ = run.set_up("reference", 1, golden)
    fz = workload.api.factorize
    plain = fz.factorize_matrix

    def slowed(*args):
        extra_work()
        return plain(*args)

    runs = {"plain": (Recorder(), []), "slowed": (Recorder(), [])}
    cost = []
    for _ in range(3):
        for kind, (rec, readings) in runs.items():
            fz.factorize_matrix = slowed if kind == "slowed" else plain
            try:
                readings += run.measure(workload, 1.0, rec)
            finally:
                fz.factorize_matrix = plain
        for _ in range(5):
            c0, t0 = run.calibrate(), perf_counter()
            extra_work()
            dt = perf_counter() - t0
            cost.append(dt * 1000 * run.speed_factor(c0, run.calibrate()))
    p50 = {kind: run.end_to_end(rec, readings, 0.0)["op_ms.p50"]
           for kind, (rec, readings) in runs.items()}
    rise, cost_ms = p50["slowed"] - p50["plain"], statistics.median(cost)
    check(all(rec.failed == 0 for rec, _ in runs.values()), "injected runs failed")
    check(abs(rise - cost_ms) <= bound * p50["plain"],
          f"op_ms.p50 rose by {rise:.2f} ms for an extra {cost_ms:.2f} ms "
          f"(plain p50 {p50['plain']:.2f} ms, bound {bound})")
    return f"op_ms.p50 {p50['plain']:.2f} ms rose by {rise:.2f} ms for an extra {cost_ms:.2f} ms"


def test_workloads(spec: dict, golden: dict):
    for name, sizes in TINY.items():
        for trace in (False, True):
            values, env = run.run_benchmark(name, 1, 0.2, trace, golden[name], **sizes)
            lines = run.report(spec, values, env, trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            printed = declared + ([] if trace else
                                  [{"name": k, "unit": u} for k, u in run.REPORT_ONLY.items()])
            for m in printed:
                check(any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                          for line in lines[1:-2]), f"{name}: {m['name']} not printed")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: {lines}")
            check({k: v["unit"] for k, v in result["metrics"].items()}
                  == {m["name"]: m["unit"] for m in declared}, f"{name}: metric units")
            if trace and name == "random_batch":
                check(all(values[f"cli.refused.{c}"] == 1 for c in (1, 2, 64, 65)),
                      "refusals per exit code in the traced round")
            print(f"ok {name} trace={int(trace)}: {result['attempted']} operations", flush=True)


def main() -> int:
    run.SETUPS = 1  # tiny sizes: one set-up per run is enough to exercise it
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(run.GOLDEN.read_text())
    api = load_exactga(run.SRC)
    test_certificate(api)
    print("ok certificate check rejects tampered certificates", flush=True)
    test_refusals_and_digests(api, golden["random_batch"])
    print("ok refusals count as successes, wrong codes and digests as failures", flush=True)
    summary = test_injected_cost(spec, golden["reference"])
    print(f"ok scaled times keep an injected cost: {summary}", flush=True)
    test_workloads(spec, golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
