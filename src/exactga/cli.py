"""Batch command-line interface.

Reads one job from flags plus an input JSON document (file or stdin), or a
batch given as a JSON array of job objects.  All values are exact: text
output prints rationals, never decimals.

Exit codes: 0 success/verified, 1 verification or lifting failure (also
any unexpected error inside one job), 2 complex scalars required in
rational mode, 64 parse failure (also a scalar atom of more than 4,300
digits, input that is not UTF-8, JSON past Python's limits, an unknown
scalar mode, an ``--output`` that cannot be opened for writing), 65
singular input matrix.  Each
job of a batch gets its own code; one failing job never stops the others.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager, nullcontext

from .algebra import AlgebraError, terms_text
from .factorize import FactorizationResult, _failed_check, factorize_matrix
from .klein import (
    ACTIONS,
    KINDS,
    SCALAR_MODES,
    ComplexRequiredError,
    ProjTransform4,
    SingularTransformError,
    coefficient_vector,
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
from .linalg import aligned, proportionality
from .scalars import format_scalar

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_COMPLEX_REQUIRED = 2
EXIT_PARSE = 64
EXIT_SINGULAR = 65


class JobError(Exception):
    def __init__(self, code: int, message: str, detail: dict | None = None):
        super().__init__(message)
        self.code = code
        self.detail = detail or {}


# The JSON shape of each payload: None for a scalar, list for an array, a
# tuple of the allowed strings, and {field: shape} for an object that needs
# each field.  Scalars and array items are checked as they convert, and a
# failure names the field that holds them (``_field``).
_TRANSFORM = {"matrix": list, "kind": KINDS, "action": ACTIONS}
_RESULT = {"factors": list, "polarities": list, "scale": None}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               bool: "a boolean", type(None): "null"}  # anything else from JSON is a number


def _expected(shape) -> str:
    if shape is None:
        return "a scalar"
    if isinstance(shape, tuple):
        return " or ".join(map(repr, shape))
    return _JSON_TYPES[shape if isinstance(shape, type) else type(shape)]


def _check(value, shape, name: str) -> None:
    """Refuse with exit 64, naming the field ``name``, a value not of the JSON ``shape``."""
    if shape is None:
        return
    if isinstance(shape, tuple):
        ok = isinstance(value, str) and value in shape
    else:
        ok = isinstance(value, shape if isinstance(shape, type) else type(shape))
    if not ok or isinstance(value, bool):
        got = repr(value) if isinstance(value, str) else _JSON_TYPES.get(type(value), "a number")
        raise JobError(EXIT_PARSE, f"field '{name}' must be {_expected(shape)}, not {got}")
    if isinstance(shape, dict):
        for field, inner in shape.items():
            if field not in value:
                raise JobError(EXIT_PARSE, f"field '{field}' is missing from '{name}': "
                                           f"expected {_expected(inner)}")
            _check(value[field], inner, field)


@contextmanager
def _field(name: str):
    """Exit 64, naming the field ``name``, for a value of it that does not convert.

    A singular transform matrix converts but is refused, with exit 65.
    """
    try:
        yield
    except SingularTransformError as exc:
        raise JobError(EXIT_SINGULAR, str(exc))
    except (KeyError, TypeError, ValueError) as exc:  # what a malformed JSON value raises
        missing = "missing field " if isinstance(exc, KeyError) else ""
        raise JobError(EXIT_PARSE, f"field '{name}': {missing}{exc}")


def _transform_from_payload(payload, kind: str | None, action: str | None,
                            name: str = "payload") -> ProjTransform4:
    _check(payload, {}, name)
    data = dict(payload)
    if kind:
        data.setdefault("kind", kind)
    if action:
        data.setdefault("action", action)
    _check(data, _TRANSFORM, name)
    with _field("matrix"):  # kind and action are checked, so only the matrix can fail
        return ProjTransform4.from_json(data)


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
    except AlgebraError as exc:
        code = EXIT_COMPLEX_REQUIRED if isinstance(exc, ComplexRequiredError) else EXIT_FAILED
        raise JobError(code, str(exc), exc.diagnosis)


def cmd_factorize(payload: dict, opts: dict) -> dict:
    t = _transform_from_payload(payload, opts.get("kind"), opts.get("action"))
    with _lift_refusals():
        result = factorize_matrix(t, _scalar_mode(opts))
    return result.to_json()  # the lift certified it, or refused


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


def cmd_verify(payload, opts: dict) -> dict:
    _check(payload, {"transform": {}}, "payload")
    t = _transform_from_payload(payload["transform"], opts.get("kind"), opts.get("action"),
                                "transform")
    _check(payload, {"result": _RESULT}, "payload")
    with _field("result"):
        result = FactorizationResult.from_json(payload["result"], t)
    failed = _failed_check(result, t)
    report = {"verified": failed is None, "scale": format_scalar(result.scale)}
    if failed:
        raise JobError(EXIT_FAILED, "verification failed", {**report, "stage": "verify", **failed})
    return report


def cmd_lie_contact(payload, opts: dict) -> dict:
    _check(payload, {}, "payload")
    if "vector" in payload:
        with _field("vector"):
            vec = lie_algebra().vector(payload["vector"])
            c = vec.coordinates()
            return {"laguerre": is_laguerre(vec), "a1_plus_a2": format_scalar(c[0] + c[1])}
    _check(payload, {"a": {}, "b": {}}, "payload")
    coords = []
    for name in ("a", "b"):
        with _field(name):
            coords.append(lie_encode(lie_element_from_json(payload[name])))
    ca, cb = coords
    report = {
        "a_coordinates": [format_scalar(x) for x in ca.coords],
        "b_coordinates": [format_scalar(x) for x in cb.coords],
    }
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
COMMANDS = tuple(_HANDLERS)


def _format_text(report: dict, indent: str = "") -> str:
    """Readable report: blade notation, aligned matrix rows, space-separated scalars.

    It lays out the strings of the report as they are, parsing none of them.
    """
    lines = []
    inner = indent + "  "
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_format_text(value, inner))
        elif key == "versor":
            lines.append(f"{indent}{key}: {terms_text(value)}")
        elif key in ("factors", "witness") and value:  # one factor per line
            lines.append(f"{indent}{key}:")
            lines.extend(inner + terms_text(terms) for terms in value)
        elif key == "polarities":
            lines.append(f"{indent}{key}:")
            for polarity in value:
                lines.append(f"{inner}{polarity['action']}:")
                rows = aligned(polarity["matrix"]).split("\n")
                lines.extend(inner + "  " + row for row in rows)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{indent}{key}:")
            lines.append(aligned(value))
        elif isinstance(value, list) and value and all(isinstance(x, str) for x in value):
            lines.append(f"{indent}{key}: {' '.join(value)}")  # coefficients, coordinates
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def run_job(command: str, payload, opts: dict) -> tuple[int, dict]:
    """Run one job; every outcome, even an unexpected exception, is an exit code."""
    handler = _HANDLERS.get(command) if isinstance(command, str) else None
    if handler is None:
        return EXIT_PARSE, {"error": f"field 'command' must be one of {', '.join(COMMANDS)}, "
                                     f"not {command!r}"}
    try:
        report = handler(payload, opts)
        return EXIT_OK, report
    except JobError as exc:
        return exc.code, {"error": str(exc), **({"detail": exc.detail} if exc.detail else {})}
    except Exception as exc:  # a bug must not take the rest of a batch down
        traceback.print_exc(file=sys.stderr)
        return EXIT_FAILED, {"error": f"unexpected {type(exc).__name__}: {exc}"}


def _run_document(document, command: str, opts: dict) -> tuple[int, object]:
    """(exit code, report) of one job, or of a batch: a JSON array of job objects."""
    if not isinstance(document, list):
        return run_job(command, document, opts)
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
    return next((c for c in codes if c), EXIT_OK), reports


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
    parser.add_argument("--action", choices=ACTIONS)
    parser.add_argument("--kind", choices=KINDS)
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
    try:  # opened before any job runs, so an unwritable path costs no work
        sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with sink as out:
        exit_code, body = _run_document(document, args.command, opts)
        if args.format == "json":
            text = json.dumps(body, indent=2, default=str)
        elif isinstance(body, list):
            text = "\n\n".join(_format_text(r) for r in body)
        else:
            text = _format_text(body)
        print(text, file=out)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
