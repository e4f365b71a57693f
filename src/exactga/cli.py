"""Batch command-line interface.

Reads one job from flags plus an input JSON document (file or stdin), or a
batch given as a JSON array of job objects.  All values are exact: text
output prints rationals, never decimals.

Exit codes: 0 success/verified, 1 verification or lifting failure (also
any unexpected error inside one job), 2 complex scalars required in
rational mode, 64 parse failure (also input that is not UTF-8, JSON past
Python's limits, an unknown scalar mode), 65 singular input matrix.  Each
job of a batch gets its own code; one failing job never stops the others.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager

from .algebra import AlgebraError, Multivector
from .factorize import FactorizationResult, factorize_matrix, verify_factorization
from .klein import (
    SCALAR_MODES,
    ComplexRequiredError,
    ProjTransform4,
    SingularTransformError,
    coefficient_vector,
    klein_algebra,
    proj_to_versor,
    versor_to_proj,
)
from .lie import (
    is_laguerre,
    lie_algebra,
    lie_element_from_json,
    lie_encode,
    oriented_contact,
)
from .linalg import LinAlgError, Matrix, proportionality
from .scalars import ScalarError, format_scalar

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_COMPLEX_REQUIRED = 2
EXIT_PARSE = 64
EXIT_SINGULAR = 65

COMMANDS = ("factorize", "lift", "verify", "lie-contact")


class JobError(Exception):
    def __init__(self, code: int, message: str, detail: dict | None = None):
        super().__init__(message)
        self.code = code
        self.detail = detail or {}


def _transform_from_payload(payload: dict, kind: str | None, action: str | None) -> ProjTransform4:
    try:
        data = dict(payload)
        if kind:
            data.setdefault("kind", kind)
        if action:
            data.setdefault("action", action)
        if "kind" not in data or "action" not in data:
            raise JobError(EXIT_PARSE, "transform needs 'kind' and 'action'")
        return ProjTransform4.from_json(data)
    except SingularTransformError as exc:
        raise JobError(EXIT_SINGULAR, str(exc))
    except (KeyError, TypeError, ScalarError, LinAlgError, ValueError) as exc:
        raise JobError(EXIT_PARSE, f"bad transform payload: {exc}")


def _scalar_mode(opts: dict) -> str:
    mode = opts.get("scalar_mode", "rational")
    if mode not in SCALAR_MODES:
        raise JobError(EXIT_PARSE, f"scalar_mode must be 'rational' or 'complex', not {mode!r}")
    return mode


@contextmanager
def _lift_refusals():
    """Map a refused lift to its exit code: 2 when complex scalars would lift it, else 1."""
    try:
        yield
    except ComplexRequiredError as exc:
        raise JobError(EXIT_COMPLEX_REQUIRED, str(exc), exc.diagnosis)
    except AlgebraError as exc:
        raise JobError(EXIT_FAILED, str(exc), getattr(exc, "diagnosis", {}))


def cmd_factorize(payload: dict, opts: dict) -> dict:
    t = _transform_from_payload(payload, opts.get("kind"), opts.get("action"))
    with _lift_refusals():
        result = factorize_matrix(t, _scalar_mode(opts))
    report = result.to_json()
    if not result.verified():
        raise JobError(EXIT_FAILED, "factorization failed exact verification", report)
    return report


def cmd_lift(payload: dict, opts: dict) -> dict:
    t = _transform_from_payload(payload, opts.get("kind"), opts.get("action"))
    with _lift_refusals():
        versor = proj_to_versor(t, _scalar_mode(opts))
    round_trip = versor_to_proj(versor, t.action)
    coeffs = coefficient_vector(versor.value, versor.parity)
    scale = proportionality(round_trip.matrix, t.matrix)
    return {
        "parity": versor.parity,
        "coefficients": [format_scalar(c) for c in coeffs],
        "versor": versor.value.to_json(),
        "witness": [v.to_json() for v in (versor.witness or ())],
        "round_trip_matrix": round_trip.matrix.to_json(),
        "round_trip_scale": format_scalar(scale) if scale is not None else None,
    }


def cmd_verify(payload: dict, opts: dict) -> dict:
    try:
        t = _transform_from_payload(payload["transform"], opts.get("kind"), opts.get("action"))
        result = FactorizationResult.from_json(payload["result"], t)
    except JobError:
        raise
    except (KeyError, TypeError, ScalarError, LinAlgError, AlgebraError, ValueError) as exc:
        raise JobError(EXIT_PARSE, f"bad verification payload: {exc}")
    ok = verify_factorization(result, t)
    report = {"verified": ok, "scale": format_scalar(result.scale)}
    if not ok:
        raise JobError(EXIT_FAILED, "verification failed", report)
    return report


def cmd_lie_contact(payload: dict, opts: dict) -> dict:
    try:
        if "vector" in payload:
            coords = payload["vector"]
            vec = lie_algebra().vector([c for c in coords])
            c = vec.coordinates()
            return {
                "laguerre": is_laguerre(vec),
                "a1_plus_a2": format_scalar(c[0] + c[1]),
            }
        a = lie_element_from_json(payload["a"])
        b = lie_element_from_json(payload["b"])
        ca, cb = lie_encode(a), lie_encode(b)
        report = {
            "a_coordinates": [format_scalar(x) for x in ca.coords],
            "b_coordinates": [format_scalar(x) for x in cb.coords],
        }
    except (KeyError, TypeError, ScalarError, AlgebraError, ValueError) as exc:
        raise JobError(EXIT_PARSE, f"bad sphere payload: {exc}")
    try:
        report["contact"] = oriented_contact(ca, cb)
    except AlgebraError as exc:
        raise JobError(EXIT_FAILED, str(exc), report)
    return report


_HANDLERS = {
    "factorize": cmd_factorize,
    "lift": cmd_lift,
    "verify": cmd_verify,
    "lie-contact": cmd_lie_contact,
}


def _terms_text(terms: list) -> str:
    # the reports with terms (factorize, lift) are all in line geometry
    return Multivector.from_json(klein_algebra(), terms).to_text()


def _format_text(report: dict, indent: str = "") -> str:
    """Readable report: blade notation, aligned matrix rows, space-separated scalars."""
    lines = []
    inner = indent + "  "
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_format_text(value, inner))
        elif key == "versor":
            lines.append(f"{indent}{key}: {_terms_text(value)}")
        elif key in ("factors", "witness") and value:  # one factor per line
            lines.append(f"{indent}{key}:")
            lines.extend(inner + _terms_text(terms) for terms in value)
        elif key == "polarities":
            lines.append(f"{indent}{key}:")
            for polarity in value:
                lines.append(f"{inner}{polarity['action']}:")
                rows = str(Matrix.from_json(polarity["matrix"])).split("\n")
                lines.extend(inner + "  " + row for row in rows)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{indent}{key}:")
            lines.append(str(Matrix.from_json(value)))
        elif isinstance(value, list) and value and all(isinstance(x, str) for x in value):
            lines.append(f"{indent}{key}: {' '.join(value)}")  # coefficients, coordinates
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def run_job(command: str, payload, opts: dict) -> tuple[int, dict]:
    """Run one job; every outcome, even an unexpected exception, is an exit code."""
    handler = _HANDLERS.get(command) if isinstance(command, str) else None
    if handler is None:
        return EXIT_PARSE, {"error": f"unknown command {command!r}"}
    try:
        report = handler(payload, opts)
        return EXIT_OK, report
    except JobError as exc:
        return exc.code, {"error": str(exc), **({"detail": exc.detail} if exc.detail else {})}
    except Exception as exc:  # a bug must not take the rest of a batch down
        traceback.print_exc(file=sys.stderr)
        return EXIT_FAILED, {"error": f"unexpected {type(exc).__name__}: {exc}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="exactga",
        description="Exact factorization of projective transformations into "
                    "null polarities, and oriented-contact checks.")
    parser.add_argument("--command", choices=COMMANDS, required=True)
    parser.add_argument("--input", help="input JSON file (stdin when absent)")
    parser.add_argument("--output", help="output file (stdout when absent)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--scalar-mode", choices=SCALAR_MODES,
                        default="rational", dest="scalar_mode")
    parser.add_argument("--action", choices=("points", "planes"))
    parser.add_argument("--kind", choices=("collineation", "correlation"))
    args = parser.parse_args(argv)

    try:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"input is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RecursionError) as exc:  # valid JSON past the interpreter's limits
        print(f"cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    opts = {"scalar_mode": args.scalar_mode, "action": args.action, "kind": args.kind}

    if isinstance(document, list):
        # batch: independent jobs, output order matches input order
        reports = []
        codes = []
        for job in document:
            if not isinstance(job, dict) or "command" not in job:
                codes.append(EXIT_PARSE)
                reports.append({"error": "batch entries need a 'command' field"})
                continue
            job_opts = dict(opts)
            for key in ("scalar_mode", "action", "kind"):
                if key in job:
                    job_opts[key] = job[key]
            code, report = run_job(job["command"], job.get("payload", {}), job_opts)
            codes.append(code)
            reports.append({"exit_code": code, **report})
        exit_code = next((c for c in codes if c), EXIT_OK)
        body = reports
    else:
        exit_code, report = run_job(args.command, document, opts)
        body = report

    if args.format == "json":
        text = json.dumps(body, indent=2, default=str)
    else:
        if isinstance(body, list):
            text = "\n\n".join(_format_text(r) for r in body)
        else:
            text = _format_text(body)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
