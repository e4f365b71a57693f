import copy
import hashlib
import io
import json
import math
import random
import re
import sys
from itertools import permutations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from exactga.cli import _format_text, main, run_job
from exactga.factorize import FactorizationResult, factorize_matrix
from exactga.klein import ProjTransform4, klein_algebra, versor_to_proj
from exactga.linalg import Matrix
from exactga.scalars import ComplexRational, as_scalar, format_scalar
from conftest import COMPLEX_VARIANT, REFERENCE_COLLINEATION, REFERENCE_POLARITY_MATRICES
from helpers import naive_chain_product, rand_versor


def as_str_matrix(rows):
    return [[str(v) for v in row] for row in rows]


REFERENCE_JOB = {
    "matrix": as_str_matrix(REFERENCE_COLLINEATION),
    "kind": "collineation",
    "action": "points",
}


def run_cli(capsys, args, payload):
    return run_cli_stdin(capsys, args, io.StringIO(json.dumps(payload)))


def run_cli_stdin(capsys, args, stdin):
    saved = sys.stdin
    sys.stdin = stdin
    try:
        code = main(args)
    finally:
        sys.stdin = saved
    out = capsys.readouterr().out
    return code, out


def test_factorize_reference(capsys):
    code, out = run_cli(capsys, ["--command", "factorize"], REFERENCE_JOB)
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert len(report["factors"]) == 6
    assert len(report["polarities"]) == 6
    for polarity in report["polarities"]:
        assert polarity["skew"] is True


def test_factorize_identity(capsys):
    job = {"matrix": as_str_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
           "kind": "collineation", "action": "points"}
    code, out = run_cli(capsys, ["--command", "factorize"], job)
    assert code == 0
    report = json.loads(out)
    assert report["factors"] == []
    assert report["scale"] == "1"


def test_factorize_complex_exit_codes(capsys):
    job = {"matrix": as_str_matrix(COMPLEX_VARIANT),
           "kind": "collineation", "action": "points"}
    for command in ("factorize", "lift"):
        code, out = run_cli(capsys, ["--command", command], job)
        assert code == 2, command
        report = json.loads(out)
        assert report["detail"]["reason"] == "negative-ratio"
        assert report["detail"]["suggested_mode"] == "complex"
    code, out = run_cli(capsys, ["--command", "factorize", "--scalar-mode", "complex"], job)
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, out = run_cli(capsys, ["--command", "lift", "--scalar-mode", "complex"], job)
    assert code == 0
    assert json.loads(out)["round_trip_scale"] is not None


def test_non_real_ratio_is_refused_in_both_modes(capsys):
    # diag(1i,1,1,1) has det 1i: lambda = det on points, det^3 = -1i on planes
    cases = [("1i", "points", "0+1i"), ("1i", "planes", "0-1i"),
             ("1+1i", "points", "1+1i")]
    for entry, action, ratio in cases:
        job = {"matrix": [[entry, "0", "0", "0"], ["0", "1", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
               "kind": "collineation", "action": action}
        for command in ("factorize", "lift"):
            for mode in ("rational", "complex"):
                code, out = run_cli(capsys, ["--command", command, "--scalar-mode", mode], job)
                assert code == 1, (entry, action, command, mode)
                assert json.loads(out)["detail"] == {
                    "reason": "non-real-ratio", "similitude_ratio": ratio}


def test_descent_refusals_report_their_diagnosis():
    # both maps lift, but the top part of the versor has a totally isotropic
    # outer null space; the library cannot factorize them yet
    translation = [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3], [0, 0, 0, 1]]
    shear = [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for rows in (translation, shear):
        job = {"matrix": as_str_matrix(rows), "kind": "collineation", "action": "points"}
        for command in ("factorize", "lift"):
            assert run_job(command, job, {}) == (1, {
                "error": "span is totally isotropic",
                "detail": {"stage": "descent", "step": 1, "grade": 2, "opns_dim": 2,
                           "reason": "totally-isotropic"}})


def _leibniz_det(rows) -> int:
    total = 0
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = math.prod(rows[i][perm[i]] for i in range(4))
        total += -term if inversions % 2 else term
    return total


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _liftability_code(rows, action: str, mode: str) -> int:
    """The exit code an exact lift predicts: the similitude ratio r must be a square."""
    det = _leibniz_det(rows)
    if not det:
        return 65
    r = det if action == "points" else det ** 3
    if mode == "complex":
        return 0 if _is_square(abs(r)) else 1
    return 0 if _is_square(r) else 2 if _is_square(-r) else 1


_ENTRIES = st.integers(-3, 3)
DENSE_MATRICES = st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), min_size=4, max_size=4)


@st.composite
def near_identity_matrices(draw):
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(draw(st.integers(1, 6))):
        rows[draw(st.integers(0, 3))][draw(st.integers(0, 3))] = draw(_ENTRIES)
    return rows


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(DENSE_MATRICES, near_identity_matrices()),
       st.sampled_from(("collineation", "correlation")), st.sampled_from(("points", "planes")),
       st.sampled_from(("rational", "complex")))
def test_factorize_exit_code_is_the_liftability_predicate(rows, kind, action, mode):
    # a regular map lifts exactly when its similitude ratio (det A for
    # points, det(A)^3 for planes) is a rational square, or minus a square
    # in complex mode; the one hole is a totally isotropic descent step
    job = {"matrix": as_str_matrix(rows), "kind": kind, "action": action}
    code, report = run_job("factorize", job, {"scalar_mode": mode})
    expected = _liftability_code(rows, action, mode)
    if (code, expected) == (1, 0):
        assert report["detail"]["reason"] == "totally-isotropic"
    else:
        assert code == expected, report


def test_parse_failure_exit_code(capsys):
    code, _ = run_cli(capsys, ["--command", "factorize"], {"matrix": "nope"})
    assert code == 64


def test_singular_exit_code(capsys):
    job = {"matrix": as_str_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]]),
           "kind": "collineation", "action": "points"}
    code, _ = run_cli(capsys, ["--command", "factorize"], job)
    assert code == 65


def test_lift_reference(capsys):
    code, out = run_cli(capsys, ["--command", "lift"], REFERENCE_JOB)
    assert code == 0
    report = json.loads(out)
    assert report["parity"] == "even"
    assert len(report["coefficients"]) == 32
    assert report["round_trip_scale"] is not None
    # the round trip matrix is an exact multiple of the input
    got = Matrix.from_json(report["round_trip_matrix"])
    from exactga.linalg import proportionality

    assert proportionality(got, Matrix.from_rows(REFERENCE_COLLINEATION)) is not None


def test_lift_single_polarity(capsys):
    job = {"matrix": as_str_matrix(REFERENCE_POLARITY_MATRICES[0]),
           "kind": "correlation", "action": "points"}
    code, out = run_cli(capsys, ["--command", "lift"], job)
    assert code == 0
    report = json.loads(out)
    assert report["parity"] == "odd"
    versor = {item["mask"]: item["coeff"] for item in report["versor"]}
    assert set(versor) == {1, 8}  # e1 and e4


def test_verify_round_trip(capsys):
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t)
    payload = {"transform": REFERENCE_JOB, "result": result.to_json()}
    code, out = run_cli(capsys, ["--command", "verify"], payload)
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["scale"] == str(result.scale)


def test_verify_rejects_perturbation(capsys):
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t).to_json()
    polarity = result["polarities"][0]["matrix"]
    polarity[0][1], polarity[1][0] = polarity[1][0], polarity[0][1]  # still skew, wrong map
    payload = {"transform": REFERENCE_JOB, "result": result}
    code, out = run_cli(capsys, ["--command", "verify"], payload)
    assert code == 1


def test_verify_published_chain(capsys):
    # the six published polarities certify the collineation with scale -4
    factors_json = []
    from exactga.klein import klein_algebra
    from conftest import REFERENCE_FACTOR_VECTORS

    for coords in reversed(REFERENCE_FACTOR_VECTORS):
        factors_json.append(klein_algebra().vector(coords).to_json())
    polarities_json = [
        {"matrix": as_str_matrix(m), "action": a, "skew": True}
        for m, a in zip(reversed(REFERENCE_POLARITY_MATRICES), ["planes", "points"] * 3)
    ]
    payload = {
        "transform": REFERENCE_JOB,
        "result": {"factors": factors_json, "polarities": polarities_json,
                   "scale": "-4", "verified": True},
    }
    code, out = run_cli(capsys, ["--command", "verify"], payload)
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["scale"] == "-4"


def test_complex_factorize_then_cli_verify(capsys):
    # serialization fidelity for Gaussian-rational scalars end to end
    job = {"matrix": as_str_matrix(COMPLEX_VARIANT),
           "kind": "collineation", "action": "points"}
    code, out = run_cli(capsys, ["--command", "factorize", "--scalar-mode", "complex"], job)
    assert code == 0
    result = json.loads(out)
    payload = {"transform": job, "result": result}
    code, out = run_cli(capsys, ["--command", "verify"], payload)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_empty_against_identity(capsys):
    payload = {
        "transform": {"matrix": as_str_matrix(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            "kind": "collineation", "action": "points"},
        "result": {"factors": [], "polarities": [], "scale": "1", "verified": True},
    }
    code, out = run_cli(capsys, ["--command", "verify"], payload)
    assert code == 0


def test_lie_contact_spheres(capsys):
    payload = {
        "a": {"variant": "sphere", "center": ["0", "0", "0"], "radius": "1"},
        "b": {"variant": "sphere", "center": ["2", "0", "0"], "radius": "-1"},
    }
    code, out = run_cli(capsys, ["--command", "lie-contact"], payload)
    assert code == 0
    report = json.loads(out)
    assert report["contact"] is True
    assert report["a_coordinates"] == ["0", "1", "0", "0", "0", "1"]


def test_lie_contact_point_vs_infinity(capsys):
    payload = {
        "a": {"variant": "point", "position": ["0", "0", "0"]},
        "b": {"variant": "infinity"},
    }
    code, out = run_cli(capsys, ["--command", "lie-contact"], payload)
    assert code == 0
    # l(point, infinity) = -(1/2) - (1/2) = -1, no contact
    assert json.loads(out)["contact"] is False


def test_lie_laguerre_mode(capsys):
    payload = {"vector": ["1", "-1", "2", "0", "0", "3"]}
    code, out = run_cli(capsys, ["--command", "lie-contact"], payload)
    assert code == 0
    report = json.loads(out)
    assert report["laguerre"] is True
    assert report["a1_plus_a2"] == "0"


def test_batch_entry_without_a_command_is_a_parse_error(capsys):
    code, out = run_cli(capsys, ["--command", "factorize"], [{"payload": REFERENCE_JOB}])
    assert code == 64
    assert json.loads(out) == [{"error": "batch entries need a 'command' field"}]


def test_input_that_is_not_json_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{nope"))
    assert main(["--command", "factorize"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input is not valid JSON: ")


def test_lie_contact_off_the_quadric_reports_both_coordinates():
    # a plane's normal must be a unit vector for its point to lie on the quadric
    payload = {"a": {"variant": "plane", "normal": ["1", "1", "0"], "offset": "0"},
               "b": {"variant": "point", "position": ["0", "0", "0"]}}
    assert run_job("lie-contact", payload, {}) == (1, {
        "error": "oriented contact needs quadric points",
        "detail": {"a_coordinates": ["0", "0", "1", "1", "0", "1"],
                   "b_coordinates": ["1/2", "1/2", "0", "0", "0", "0"]}})


def test_batch_mode_isolation(capsys):
    batch = [
        {"command": "factorize", "payload": REFERENCE_JOB},
        {"command": "factorize", "payload": {"matrix": "nope"}},
        {"command": "lie-contact",
         "payload": {"vector": ["1", "-1", "0", "0", "0", "0"]}},
    ]
    code, out = run_cli(capsys, ["--command", "factorize"], batch)
    reports = json.loads(out)
    assert len(reports) == 3
    assert reports[0]["exit_code"] == 0
    assert reports[1]["exit_code"] == 64
    assert reports[2]["exit_code"] == 0
    assert code == 64  # first failing job's code


def test_text_format(capsys):
    code, out = run_cli(capsys, ["--command", "lie-contact", "--format", "text"],
                        {"vector": ["2", "-2", "0", "0", "0", "1"]})
    assert code == 0
    assert "laguerre: True" in out
    assert "." not in out.replace("...", "")  # exact values only, no decimals


def test_text_format_prints_scalar_lists_space_separated(capsys):
    payload = {
        "a": {"variant": "sphere", "center": ["0", "0", "0"], "radius": "1"},
        "b": {"variant": "sphere", "center": ["2", "0", "0"], "radius": "1/2"},
    }
    code, out = run_cli(capsys, ["--command", "lie-contact", "--format", "text"], payload)
    assert code == 0
    assert out == ("a_coordinates: 0 1 0 0 0 1\n"
                   "b_coordinates: 19/8 -11/8 2 0 0 1/2\n"
                   "contact: False\n")


HALF_TURN_JOB = {"matrix": as_str_matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),
                 "kind": "collineation", "action": "points"}


def test_text_format_factorize(capsys):
    # one factor per line in blade notation, each polarity as its action and matrix
    code, out = run_cli(capsys, ["--command", "factorize", "--format", "text"], HALF_TURN_JOB)
    assert code == 0
    assert out == (
        "factors:\n"
        "  e2 + 2*e5\n"
        "  e2 + e5\n"
        "polarities:\n"
        "  planes:\n"
        "     0  0  1   0\n"
        "     0  0  0  -2\n"
        "    -1  0  0   0\n"
        "     0  2  0   0\n"
        "  points:\n"
        "    0   0  -1  0\n"
        "    0   0   0  1\n"
        "    1   0   0  0\n"
        "    0  -1   0  0\n"
        "scale: 1\n"
        "verified: True\n")


def test_text_format_batch(capsys):
    reflection = as_str_matrix([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    batch = [
        {"command": "lift", "payload": HALF_TURN_JOB},
        {"command": "factorize",
         "payload": {"matrix": reflection, "kind": "collineation", "action": "points"}},
    ]
    code, out = run_cli(capsys, ["--command", "factorize", "--format", "text"], batch)
    assert code == 2
    lift, refused = out.split("\n\n")
    coefficients = " ".join(["3"] + ["0"] * 7 + ["-1"] + ["0"] * 23)
    assert lift == (
        "exit_code: 0\n"
        "parity: even\n"
        f"coefficients: {coefficients}\n"
        "versor: 3 - e25\n"
        "witness:\n"
        "  e2 + 2*e5\n"
        "  e2 + e5\n"
        "round_trip_matrix:\n"
        "2  0  0  0\n"
        "0  4  0  0\n"
        "0  0  2  0\n"
        "0  0  0  4\n"
        "round_trip_scale: 2")
    assert refused == (
        "exit_code: 2\n"
        "error: negative similitude ratio needs the complex scalar mode\n"
        "detail:\n"
        "  similitude_ratio: -1\n"
        "  reason: negative-ratio\n"
        "  suggested_mode: complex\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, _ = run_cli(capsys, ["--command", "lift", "--output", str(target)],
                      REFERENCE_JOB)
    assert code == 0
    report = json.loads(target.read_text())
    assert report["parity"] == "even"


def test_input_file(tmp_path, capsys):
    source = tmp_path / "job.json"
    source.write_text(json.dumps(REFERENCE_JOB))
    code = main(["--command", "factorize", "--input", str(source)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["verified"] is True


def main_error(capsys, tmp_path, raw: bytes) -> str:
    """Run a factorize job on raw input bytes; it must exit 64 with a one-line message."""
    source = tmp_path / "job.json"
    source.write_bytes(raw)
    assert main(["--command", "factorize", "--input", str(source)]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # no traceback
    return err


def test_non_utf8_input_is_a_parse_failure(tmp_path, capsys):
    raw = b'{"matrix": "\xff"}'
    assert "cannot read input" in main_error(capsys, tmp_path, raw)
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    code, _ = run_cli_stdin(capsys, ["--command", "factorize"], stdin)
    assert code == 64


def test_json_past_the_interpreter_limits_is_a_parse_failure(tmp_path, capsys):
    # an integer literal of more than 4,300 digits, and nesting deeper than the recursion limit
    long_int = b'{"matrix": [[' + b"7" * 5000 + b"]]}"
    assert "Exceeds the limit" in main_error(capsys, tmp_path, long_int)
    assert "recursion" in main_error(capsys, tmp_path, b"[" * 100_000)


def diagonal_job(entry: str, action: str = "points") -> dict:
    return {"matrix": [[entry if i == j == 0 else str(int(i == j)) for j in range(4)]
                       for i in range(4)], "kind": "collineation", "action": action}


LIMIT_MESSAGE = "field 'matrix': scalar atom of 4,301 digits is past the limit of 4,300 digits"


def test_result_past_the_string_limit_prints():
    # A = B B^T with 1,000-digit entries in B: its factors have atoms of about
    # 12,000 digits, which str() refuses by default
    rng = random.Random("cli/b-bt")
    b = [[rng.randrange(10 ** 999, 10 ** 1000) * rng.choice((1, -1)) for _ in range(4)]
         for _ in range(4)]
    a = [[sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
    code, report = run_job("factorize", {"matrix": as_str_matrix(a), "kind": "collineation",
                                         "action": "points"}, {"scalar_mode": "rational"})
    assert code == 0, report.get("error")  # so the factors were verified
    coeffs = [term["coeff"] for factor in report["factors"] for term in factor]
    assert max(map(len, coeffs)) > 10_000
    text = _format_text(report)
    assert all(c.lstrip("-") in text for c in coeffs)


def test_entries_at_the_limit():
    # 16 * 10**4298, a square, has 4,300 digits and factorizes in both actions
    # (a negative one in complex mode); one more digit is refused before any work
    at_limit = "16" + "0" * 4298
    for entry, mode in ((at_limit, "rational"), ("-" + at_limit, "complex")):
        for action in ("points", "planes"):
            code, report = run_job("factorize", diagonal_job(entry, action), {"scalar_mode": mode})
            assert code == 0, report.get("error")
            assert _format_text(report)
    code, report = run_job("factorize", diagonal_job(at_limit + "0"), {})
    assert (code, report) == (64, {"error": LIMIT_MESSAGE})


def test_job_past_the_limit_fails_alone_in_its_batch(capsys):
    jobs = [{"command": "factorize", "payload": REFERENCE_JOB},
            {"command": "factorize", "payload": diagonal_job("7" * 4301)},
            {"command": "lift", "payload": REFERENCE_JOB}]
    code, out = run_cli(capsys, ["--command", "factorize"], jobs)
    reports = json.loads(out)
    assert code == 64
    assert [r["exit_code"] for r in reports] == [0, 64, 0]
    assert reports[1]["error"] == LIMIT_MESSAGE


def test_verify_of_a_non_skew_polarity_fails_alone_in_its_batch(capsys):
    # skewness is checked once, when the result is parsed
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t).to_json()
    bent = copy.deepcopy(result)
    bent["polarities"][0]["matrix"][0][1] = "5"
    jobs = [{"command": "verify", "payload": {"transform": REFERENCE_JOB, "result": r}}
            for r in (result, bent, result)]
    code, out = run_cli(capsys, ["--command", "verify"], jobs)
    reports = json.loads(out)
    assert code == 64
    assert [r["exit_code"] for r in reports] == [0, 64, 0]
    assert reports[1]["error"] == "field 'result': polarity matrix must be skew-symmetric"


def test_unknown_scalar_mode_is_a_parse_failure(capsys):
    for command in ("factorize", "lift"):
        code, report = run_job(command, REFERENCE_JOB, {"scalar_mode": "real"})
        assert code == 64, command
        assert report == {"error": "scalar_mode must be 'rational' or 'complex', not 'real'"}
    jobs = [{"command": "factorize", "payload": REFERENCE_JOB, "scalar_mode": "real"},
            {"command": "factorize", "payload": REFERENCE_JOB}]
    code, out = run_cli(capsys, ["--command", "factorize"], jobs)
    assert [r["exit_code"] for r in json.loads(out)] == [64, 0]
    assert code == 64


def test_flags_supply_kind_and_action(capsys):
    payload = {"matrix": as_str_matrix(REFERENCE_COLLINEATION)}
    code, out = run_cli(
        capsys,
        ["--command", "factorize", "--kind", "collineation", "--action", "points"],
        payload)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_rejects_tampered_factors(capsys):
    from exactga.klein import klein_algebra

    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t).to_json()
    result["factors"] = [klein_algebra().e(1).to_json() for _ in result["factors"]]
    code, out = run_cli(capsys, ["--command", "verify"], {"transform": REFERENCE_JOB,
                                                          "result": result})
    assert code == 1
    assert json.loads(out)["detail"]["verified"] is False


def test_a_failed_verify_names_its_check():
    # each check broken alone on the reference result; polarity-type, which
    # JSON cannot express, is in test_refusals.py
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    lifted = factorize_matrix(t)
    result = lifted.to_json()
    count = dict(result, polarities=result["polarities"][1:])
    factor = dict(result, factors=result["factors"][:2] + [klein_algebra().e(1).to_json()]
                  + result["factors"][3:])
    product = dict(result, scale=str(2 * lifted.scale))
    broken = [(count, REFERENCE_JOB, {"check": "count"}),
              (result, dict(REFERENCE_JOB, kind="correlation"), {"check": "parity"}),
              (factor, REFERENCE_JOB, {"check": "factor", "index": 3}),
              (result, dict(REFERENCE_JOB, action="planes"), {"check": "actions"}),
              (dict(result, scale="0"), REFERENCE_JOB, {"check": "scale"}),
              (product, REFERENCE_JOB, {"check": "product"})]
    for bad, transform, named in broken:
        code, report = run_job("verify", {"transform": transform, "result": bad}, {})
        assert (code, report["error"]) == (1, "verification failed"), named
        assert report["detail"] == {"verified": False, "scale": bad["scale"],
                                    "stage": "verify", **named}
    code, report = run_job("verify", {"transform": REFERENCE_JOB, "result": result}, {})
    assert (code, report) == (0, {"verified": True, "scale": result["scale"]})


def test_a_parsed_residual_is_formed_only_for_a_wrong_product():
    # a parsed result whose product is the stated multiple of A keeps the
    # int zero residual; a doubled scale, or a Gaussian one times i, keeps
    # the exact difference, and its job fails at the product check with the
    # detail it always had
    cases = ((REFERENCE_COLLINEATION, "rational", 2,
              '{"verified": false, "scale": "8", "stage": "verify", "check": "product"}'),
             (COMPLEX_VARIANT, "complex", ComplexRational(0, 1),
              '{"verified": false, "scale": "-16+8i", "stage": "verify", "check": "product"}'))
    for rows, mode, factor, detail in cases:
        t = ProjTransform4(Matrix.from_rows(rows), "collineation", "points")
        data = factorize_matrix(t, mode).to_json()
        parsed = FactorizationResult.from_json(data, t)
        assert parsed.verified() and parsed.residual == Matrix.zeros(4, 4)
        assert all(type(x) is int for x in parsed.residual.entries)
        scale = factor * parsed.scale
        bad = dict(data, scale=format_scalar(scale))
        failed = FactorizationResult.from_json(bad, t)
        product = naive_chain_product([p.matrix for p in failed.polarities], 4)
        expected = Matrix.from_rows([[product[i][j] - scale * as_scalar(t.matrix[i, j])
                                      for j in range(4)] for i in range(4)])
        assert failed.residual == expected and not expected.is_zero()
        assert not failed.verified()
        code, report = run_job("verify", {"transform": t.to_json(), "result": bad},
                               {"scalar_mode": mode})
        assert (code, report["error"]) == (1, "verification failed")
        assert json.dumps(report["detail"]) == detail


def test_zero_denominators_are_parse_failures(capsys):
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t).to_json()
    bad_scale = {"command": "verify",
                 "payload": {"transform": REFERENCE_JOB, "result": dict(result, scale="1/0")}}
    bad_entry = {"command": "factorize",
                 "payload": dict(REFERENCE_JOB, matrix=[["1/0", "0", "0", "0"]]
                                 + REFERENCE_JOB["matrix"][1:])}
    good = {"command": "verify", "payload": {"transform": REFERENCE_JOB, "result": result}}
    code, out = run_cli(capsys, ["--command", "factorize"], [bad_scale, good, bad_entry])
    reports = json.loads(out)
    assert [r["exit_code"] for r in reports] == [64, 0, 64]
    assert code == 64


def test_scalar_grammar_is_strict(capsys):
    # '$' used to match before a trailing newline and '\d' took any Unicode digit
    jobs = [{"command": "factorize", "scalar_mode": mode,
             "payload": dict(REFERENCE_JOB, matrix=[[entry, "0", "3", "0"]]
                             + REFERENCE_JOB["matrix"][1:])}
            for entry in ("1\n", "1+2i\n", "\u0661\u0662", "1\t")
            for mode in ("rational", "complex")]
    code, out = run_cli(capsys, ["--command", "factorize"], jobs)
    reports = json.loads(out)
    assert [r["exit_code"] for r in reports] == [64] * len(jobs)
    assert all("cannot parse scalar" in r["error"] for r in reports)
    assert code == 64


def test_unwritable_output_is_a_parse_failure(tmp_path, capsys, monkeypatch):
    import exactga.cli
    jobs = []
    monkeypatch.setattr(exactga.cli, "run_job", lambda *args: jobs.append(args))
    source = tmp_path / "job.json"
    source.write_text(json.dumps(REFERENCE_JOB))
    target = tmp_path / "missing" / "out.json"
    code = main(["--command", "factorize", "--input", str(source), "--output", str(target)])
    out, err = capsys.readouterr()
    assert code == 64 and out == ""
    assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert jobs == []  # the output is opened before any job runs
    assert not target.parent.exists()


def test_boolean_matrix_entry_is_a_parse_failure():
    # JSON true must not be read as the integer 1 (the reference has 1 there)
    job = dict(REFERENCE_JOB, matrix=[[True, "0", "3", "0"]] + REFERENCE_JOB["matrix"][1:])
    code, report = run_job("factorize", job, {})
    assert code == 64
    assert "verified" not in report


def test_boolean_factor_mask_is_a_parse_failure():
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t).to_json()
    terms = [term for f in result["factors"] for term in f if term["mask"] == 1]
    assert terms
    for term in terms:
        term["mask"] = True
    code, report = run_job("verify", {"transform": REFERENCE_JOB, "result": result}, {})
    assert code == 64
    assert "verified" not in report



def test_unexpected_error_stays_in_its_job(capsys, monkeypatch):
    import exactga.cli

    def broken(payload, opts):
        raise RuntimeError("boom")

    monkeypatch.setitem(exactga.cli._HANDLERS, "lift", broken)
    sphere = {"variant": "sphere", "center": ["0", "0", "0"], "radius": "1"}
    jobs = [{"command": "lift", "payload": REFERENCE_JOB},
            {"command": "lie-contact", "payload": {"a": sphere, "b": sphere}}]
    code, out = run_cli(capsys, ["--command", "lift"], jobs)
    reports = json.loads(out)
    assert [r["exit_code"] for r in reports] == [1, 0]
    assert reports[0]["error"] == "unexpected RuntimeError: boom"
    assert code == 1

# -- fuzzing: every job of a batch ends in a documented exit code -----------------------

DOCUMENTED_CODES = {0, 1, 2, 64, 65}

# a scalar atom past the limit of 4,300 digits, as each part of the grammar
LONG_ATOMS = st.builds(lambda form, digit, n: form.format(digit * n),
                       st.sampled_from(["{}", "-{}", "1/{}", "{}/7", "{}i", "1-{}i", "-{}+1i"]),
                       st.sampled_from("123456789"), st.integers(4301, 4400))
JUNK = st.sampled_from(["1/0", "0/0", "12i", "1/2+3i", "i", "", "x", "1.5", "0", "-1",
                        "1e3", "+", "1//2", "9" * 30]) | LONG_ATOMS
KEYS = st.sampled_from(["matrix", "kind", "action", "transform", "result", "factors",
                        "polarities", "scale", "mask", "coeff", "a", "b", "vector",
                        "center", "radius", "command", "payload"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False) | JUNK
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(KEYS | st.text(max_size=3), children, max_size=5),
    max_leaves=16)


def _valid_payloads():
    t = ProjTransform4(Matrix.from_rows(REFERENCE_COLLINEATION), "collineation", "points")
    result = factorize_matrix(t).to_json()
    singular = dict(REFERENCE_JOB, matrix=[REFERENCE_JOB["matrix"][0]] * 4)
    return [
        ("factorize", REFERENCE_JOB),
        ("factorize", dict(REFERENCE_JOB, matrix=as_str_matrix(COMPLEX_VARIANT))),
        ("lift", REFERENCE_JOB),
        ("lift", singular),
        ("verify", {"transform": REFERENCE_JOB, "result": result}),
        ("lie-contact", {"a": {"variant": "sphere", "center": ["0", "0", "0"], "radius": "1"},
                         "b": {"variant": "plane", "normal": ["0", "0", "1"], "offset": "2"}}),
        ("lie-contact", {"vector": ["1", "-1", "0", "0", "2", "0"]}),
    ]


VALID_PAYLOADS = _valid_payloads()


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaf_paths(v, path + (i,))
    yield path


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _replace(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: _replace(v, rest, new) if k == head else v for k, v in value.items()}
    return [_replace(v, rest, new) if i == head else v for i, v in enumerate(value)]


@st.composite
def mutated_payloads(draw):
    command, payload = copy.deepcopy(draw(st.sampled_from(VALID_PAYLOADS)))
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_leaf_paths(payload))
        payload = _replace(payload, draw(st.sampled_from(paths)), draw(JSON_VALUES))
    return command, payload


JOBS = st.one_of(
    mutated_payloads(),
    st.tuples(st.sampled_from(["factorize", "lift", "verify", "lie-contact", "nope"])
              | JSON_VALUES, JSON_VALUES),
)
OPTS = st.just({"scalar_mode": "rational", "action": None, "kind": None}) | \
    st.fixed_dictionaries({
        "scalar_mode": st.sampled_from(["rational", "complex"]) | JSON_VALUES,
        "action": st.sampled_from([None, "points", "planes"]) | JSON_VALUES,
        "kind": st.sampled_from([None, "collineation", "correlation"]) | JSON_VALUES,
    })


@seed(20261017)
@settings(max_examples=150, deadline=None, database=None)
@given(JOBS, OPTS)
def test_fuzzed_jobs_end_in_documented_codes(job, opts):
    command, payload = job
    code, report = run_job(command, payload, opts)
    assert code in DOCUMENTED_CODES
    assert isinstance(report, dict)
    json.dumps(report, default=str)
    if code == 64:
        assert names_a_field(report["error"]), report


SCALAR_TEXT = re.compile(r"[-+0-9/i]+")


@st.composite
def ambiguous_payloads(draw):
    """A valid payload with one scalar past the atom limit, or one array a string or an object."""
    command, payload = draw(st.sampled_from(VALID_PAYLOADS))
    paths = [p for p in _leaf_paths(payload) if isinstance(_at(payload, p), list)
             or isinstance(_at(payload, p), str) and SCALAR_TEXT.fullmatch(_at(payload, p))]
    path = draw(st.sampled_from(paths))
    array = isinstance(_at(payload, path), list)
    if array:
        # digits and digit keys, which a lax parser would read as coordinates
        digits = st.text("0123456789", max_size=6)
        new = draw(st.text(max_size=8) | digits
                   | st.dictionaries(digits | st.text(max_size=3), JUNK | JSON_VALUES, max_size=6))
    else:
        new = draw(LONG_ATOMS)
    return command, array, _replace(payload, path, new)


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(ambiguous_payloads())
def test_fuzzed_ambiguous_values_are_parse_failures(job):
    command, array, payload = job
    code, report = run_job(command, payload, {})
    assert code == 64, report
    assert names_a_field(report["error"]), report
    if not array:
        assert "past the limit of 4,300 digits" in report["error"], report


PAYLOAD_FIELDS = ("payload", "command", "matrix", "kind", "action", "transform", "result",
                  "factors", "polarities", "scale", "mask", "coeff", "vector", "a", "b",
                  "variant", "position", "center", "radius", "normal", "offset")


def names_a_field(message: str) -> bool:
    """A parse failure names the field it found wrong (the scalar mode is an option)."""
    return (message.startswith("scalar_mode must be ")
            or re.match(r"field '(%s)'" % "|".join(PAYLOAD_FIELDS), message) is not None)


def test_malformed_payloads_name_the_field_and_the_expected_type():
    jobs = [("factorize", None, "field 'payload' must be an object, not null"),
            ("factorize", ["x"], "field 'payload' must be an object, not an array"),
            ("lift", {"kind": "collineation", "action": "points"},
             "field 'matrix' is missing from 'payload': expected an array"),
            ("verify", {"result": {}},
             "field 'transform' is missing from 'payload': expected an object"),
            ("verify", {"transform": REFERENCE_JOB, "result": {"factors": [], "polarities": []}},
             "field 'scale' is missing from 'result': expected a scalar"),
            ("factorize", dict(REFERENCE_JOB, kind="lines"),
             "field 'kind' must be 'collineation' or 'correlation', not 'lines'"),
            ("factorize", dict(REFERENCE_JOB, matrix=[["1", "0", "3", "0"]] * 3 + [None]),
             "field 'matrix': matrix JSON must be a non-empty list of lists")]
    # coordinates are arrays: the characters of a string and the keys of an
    # object are not read as coordinates, whatever their number
    sphere = {"variant": "sphere", "center": ["0", "0", "0"], "radius": "1"}
    six = "field 'vector': coordinate count must equal the generator count"
    for bad in ("123", {"1": "0", "2": "0", "3": "0"}):
        jobs += [("lie-contact", {"a": {"variant": "point", "position": bad}, "b": sphere},
                  "field 'a': expected three coordinates"),
                 ("lie-contact", {"a": sphere, "b": dict(sphere, center=bad)},
                  "field 'b': expected three coordinates"),
                 ("lie-contact", {"a": sphere, "b": {"variant": "plane", "normal": bad,
                                                     "offset": "2"}},
                  "field 'b': expected three coordinates")]
    jobs += [("lie-contact", {"a": {"variant": ["point"]}, "b": sphere},
              "field 'a': unknown Lie element variant ['point']"),
             ("lie-contact", {"vector": "110000"}, six),
             ("lie-contact", {"vector": {str(i): 0 for i in range(1, 7)}}, six)]
    for command, payload, message in jobs:
        assert run_job(command, payload, {}) == (64, {"error": message})


def sweep_jobs() -> list[tuple[str, dict]]:
    """99 random liftable maps as (scalar mode, transform payload).

    Factor counts 1-6 give both kinds, the action alternates every six maps,
    and every third group of six has row 0 negated, so it needs the complex mode.
    """
    rng = random.Random("cli/sweep")
    jobs = []
    for i in range(99):
        action = ("points", "planes")[i // 6 % 2]
        t = versor_to_proj(rand_versor(rng, klein_algebra(), 1 + i % 6)[0], action)
        rows = t.matrix.row_lists()
        mode = "complex" if i // 6 % 3 == 2 else "rational"
        if mode == "complex":
            rows[0] = [-x for x in rows[0]]
        jobs.append((mode, {"matrix": Matrix.from_rows(rows).to_json(), "kind": t.kind,
                            "action": action}))
    return jobs


def sweep_digests() -> dict[str, str]:
    """sha256 of each (command, mode, format) group of the sweep's rendered reports."""
    rendered = {}
    for mode, transform in sweep_jobs():
        opts = {"scalar_mode": mode}
        factorized = run_job("factorize", transform, opts)
        verified = run_job("verify", {"transform": transform, "result": factorized[1]}, opts)
        for command, (code, report) in (("factorize", factorized),
                                        ("lift", run_job("lift", transform, opts)),
                                        ("verify", verified)):
            assert code == 0, report
            for fmt, text in (("json", json.dumps(report, indent=2, default=str)),
                              ("text", _format_text(report))):
                rendered.setdefault(f"{command}/{mode}/{fmt}", []).append(text)
    return {key: hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
            for key, texts in sorted(rendered.items())}


# recorded while the grade descent still built a Blade at every step
SWEEP_DIGESTS = {
    "factorize/complex/json": "e617094d53d355ca903c76ae27fe65e2862e2cc05ebb85540d468eb4bc213e41",
    "factorize/complex/text": "3dd55b75573fedfbfde72265e95d88a28728f4b314e32b957e75c0358ae3d0f2",
    "factorize/rational/json": "2f2c2eed70624ab55b8edc760b67bd7d00c1cd99aa0e44b4be8da42a38794ec0",
    "factorize/rational/text": "18418836ae19f258fee9769960b3f53e9d538609b2c5f36c7ea8f6b69b703951",
    "lift/complex/json": "b12efb2fe02da40b3fb82cb80049ed3e85a1e1d563d1232319153929a391ec58",
    "lift/complex/text": "934d1c2b3cd58f241052d7acddb031182465b96a67c156660b0472371fd1e54c",
    "lift/rational/json": "bad8d84955f2fa7a82f94be4062d24e68de8888ab95fb97c293527b1d7e56057",
    "lift/rational/text": "f2e6d143f41ac664ebbe911745a27ffcd41b4ea3268693658fcce3fb8aa12286",
    "verify/complex/json": "741227c99b465b41fbe32e3d9018483ed2c6cc99f062cf917b894d36a295deb8",
    "verify/complex/text": "ab0285ddfbf45fdab93f312a416318eaf8c043360a4dc30024015ab1fce526e8",
    "verify/rational/json": "2fc75c7df32c86c65de0e660d0e85c8a4994c8dc4518f18a167c56331b351379",
    "verify/rational/text": "0e946d085fd771f7096345d06e44bfba131ce69a55ed2fb3cf2ae5730fa6bbc3",
}


def test_cli_sweep_is_byte_identical():
    # 297 jobs: a factorize, a lift and a verify of each of 99 liftable maps
    assert sweep_digests() == SWEEP_DIGESTS
