"""Command line front end.

Problem files are JSON objects with four keys::

    {"version": 1, "command": "<name>", "cone": {...}, "payload": {...}}

where ``command`` names the subcommand the file is meant for ("contains",
"solve", "lyap-rank", "check.project", ...).  Reports go to stdout either as
canonical JSON (sorted keys, two-space indent, trailing newline) or as flat
``key: value`` text; given the same file and flags the bytes are identical
run to run.

Exit codes: 0 success, 2 malformed problem file or flag or a report that
cannot be written, 3 dimension mismatch or unsupported cone, 4 iteration did
not converge, 5 a checked property failed to hold.  Reports echo the
command, the settings that influenced the run, and the exit status.

``_COMMANDS`` declares each subcommand with the flags it reads; it takes no
other.  ``main`` loads the problem file, calls the subcommand's handler and
writes the report the handler returns.  ``run``, the entry point of
``python -m mesoc_kit`` and of the ``mesoc-kit`` script, calls ``main`` and
ends the process once the report is flushed.

At the top this module imports only the standard library, NumPy, ``cones``
and ``errors``.  Each subcommand imports the rest of what it runs when it
runs, so a call pays only for those modules:

    contains, check complementarity, check decompose   nothing more
    check project        projections, _kernels
    solve, check verify  micp_solver, projections, _kernels
    check isotone        order, sampling; micp_solver for a map
    lyap-rank            lyapunov, sampling, projections, _kernels

The records of these modules, ``_Command`` here among them, are built by
the small ``_record``, which generates no code.  The README's "Start-up"
paragraph has the cost of a call.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import __version__
from ._record import record
from .cones import (
    CYLINDER,
    CYLINDER_DUAL,
    DEFAULT_TOL,
    KINDS,
    CompPair,
    ConeSpec,
    _as_vector,
    _exponent,
    check_tol,
    contains,
    decompose,
    in_complementarity_set,
    least_slack,
    membership_slacks,
)
from .errors import (
    DimensionError,
    MembershipError,
    MesocKitError,
    OracleError,
    SchemaError,
    UnsupportedConeError,
)

if TYPE_CHECKING:
    from . import micp_solver

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5

# the most entries of lyap-rank's first constraint matrix (8 MB of floats)
MAX_CONSTRAINT_ENTRIES = 10**6
# the most entries of check isotone's sampled lo and hi (80 MB of floats each)
MAX_SAMPLE_ENTRIES = 10**7
# the most cylinders nested in one cone; the kit recurses once or twice per
# cylinder, and Python stops at a depth of 1000
MAX_CONE_DEPTH = 100


# --------------------------------------------------------------------------
# problem file handling


def cone_from_json(obj, depth: int = 0) -> ConeSpec:
    """The cone ``obj`` describes, with ``depth`` cylinders around it."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("cone must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError(f"unknown cone kind {kind!r}")
    inner = None
    if kind in (CYLINDER, CYLINDER_DUAL):
        if "inner" not in obj:
            raise SchemaError("cylinder cones need an 'inner' cone")
        if depth == MAX_CONE_DEPTH:
            raise SchemaError(f"a cone may nest at most {MAX_CONE_DEPTH} cylinders")
        inner = cone_from_json(obj["inner"], depth + 1)
    try:
        return ConeSpec(
            kind,
            _integer(obj.get("p", 1), "cone 'p'"),
            _integer(obj.get("q", inner.dim if inner is not None else 0), "cone 'q'"),
            inner=inner,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad cone description: {exc}") from exc


def cone_to_json(cone: ConeSpec) -> dict:
    out = {"kind": cone.kind, "p": cone.p}
    if cone.inner is not None:
        out["inner"] = cone_to_json(cone.inner)
    elif cone.q:
        out["q"] = cone.q
    return out


def map_from_json(obj) -> micp_solver.StructuredMap:
    from . import micp_solver

    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("map must be an object with a 'kind' key")
    try:
        if obj["kind"] == "scalar_combo":
            fields = tuple(
                micp_solver.ScalarField(
                    linear=_finite(f["linear"], "field 'linear'"),
                    norm_coeff=float(_finite(f["norm_coeff"], "field 'norm_coeff'", depth=0)),
                    offset=float(_finite(f["offset"], "field 'offset'", depth=0)),
                )
                for f in obj["fields"]
            )
            return micp_solver.ScalarComboMap(
                p=_integer(obj["p"], "map 'p'"),
                q=_integer(obj["q"], "map 'q'"),
                fields=fields,
                directions=np.asarray(_finite(obj["directions"], "'directions'", depth=2), dtype=float),
            )
        if obj["kind"] == "affine":
            return micp_solver.AffineMap(
                p=_integer(obj["p"], "map 'p'"),
                q=_integer(obj["q"], "map 'q'"),
                matrix=np.asarray(_finite(obj["matrix"], "'matrix'", depth=2), dtype=float),
                offset=np.asarray(_finite(obj["offset"], "'offset'"), dtype=float),
            )
    except DimensionError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad map description: {exc}") from exc
    raise SchemaError(f"unknown map kind {obj['kind']!r}")


def load_problem(path: str, command: str) -> tuple[ConeSpec, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("problem file nests too deep to read") from None
    if not isinstance(doc, dict):
        raise SchemaError("problem file must hold a JSON object")
    for key in ("version", "command", "cone", "payload"):
        if key not in doc:
            raise SchemaError(f"problem file is missing the {key!r} key")
    if _integer(doc["version"], "problem 'version'") != 1:
        raise SchemaError(f"unsupported problem version {doc['version']!r}")
    if doc["command"] != command:
        raise SchemaError(
            f"problem file is for {doc['command']!r}, invoked as {command!r}"
        )
    if not isinstance(doc["payload"], dict):
        raise SchemaError("payload must be a JSON object")
    return cone_from_json(doc["cone"]), doc["payload"]


def _finite(value, what: str, depth: int = 1):
    """Return ``value`` if it is a finite real number (``depth`` 0) or a list
    of depth ``depth - 1`` values; raise SchemaError otherwise.

    Python's ``json`` reads ``NaN`` and ``Infinity``, and ``bool`` is an
    ``int``, so both are refused here, as are integers too large for a float.
    """
    if depth:
        if not isinstance(value, list):
            raise SchemaError(f"{what} must be a list" + " of lists" * (depth - 1) + " of numbers")
        for entry in value:
            _finite(entry, what, depth - 1)
        return value
    try:
        ok = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise SchemaError(f"{what} must hold finite numbers, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """Return ``value`` if it is a JSON integer; raise SchemaError otherwise
    (``int()`` would also take ``true``, ``"3"`` and truncate ``2.7``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _payload_vector(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"payload is missing the {key!r} key")
    return _finite(payload[key], f"payload key {key!r}")


# --------------------------------------------------------------------------
# output


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    return value


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, list):
        lines.append(f"{prefix}: [{', '.join(json.dumps(v) for v in value)}]")
    else:
        lines.append(f"{prefix}: {json.dumps(value)}")


def emit(report: dict, output: str, command: str, code: int, settings: dict) -> int:
    """Write the report (with command echo, settings, exit status) and pass
    the exit code through."""
    report = dict(report, command=command, exit_status=code, settings=settings)
    report = _jsonable(report)
    if output == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines: list[str] = []
        _flatten("", report, lines)
        text = "\n".join(lines) + "\n"
    if sys.stdout is None:  # the process started with stdout closed
        raise SchemaError("cannot write the report: stdout is closed")
    try:
        sys.stdout.write(text)
    except OSError as exc:  # the reader of stdout is gone
        raise SchemaError(f"cannot write the report: {exc}") from exc
    return code


def write_trace(path: str, p: int, q: int, trace: micp_solver.IterationTrace) -> None:
    import csv

    header = (
        ["iter"]
        + [f"x_{i + 1}" for i in range(p)]
        + [f"u_{j + 1}" for j in range(q)]
        + ["step_norm", "order_ok"]
    )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, z in enumerate(trace.iterates):
                step = 0.0 if i == 0 else float(trace.step_norms[i - 1])
                ok = 1 if i == 0 else int(trace.order_certificates[i - 1])
                writer.writerow([i] + [repr(float(v)) for v in z] + [repr(step), ok])
    except OSError as exc:
        raise SchemaError(f"cannot write trace file: {exc}") from exc


# --------------------------------------------------------------------------
# subcommands
#
# A handler takes the problem file's cone and payload and the parsed flags,
# and returns the report, the exit code and the settings to echo; ``main``
# loads the file and writes the report.


def cmd_contains(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    point = _payload_vector(payload, "point")
    slacks = membership_slacks(cone, point)
    report = {
        "cone": cone_to_json(cone),
        "contains": contains(cone, point, args.tol),
        "min_slack": least_slack(slacks),
        "slacks": slacks,
    }
    return report, EXIT_OK, {"tol": args.tol}


def _verify_report(report: micp_solver.SolutionReport) -> dict:
    return {
        "ok": report.ok,
        "g_norm": report.g_norm,
        "inner_slack": report.inner_slack,
        "dual_slack": report.dual_slack,
        "orthogonality": report.orthogonality,
        "failed": list(report.failed),
    }


def cmd_solve(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    from . import micp_solver

    if cone.kind != CYLINDER:
        raise SchemaError("solve expects a cylinder cone")
    map_ = map_from_json(payload.get("map"))
    start = payload.get("start")
    if start is not None:
        _finite(start, "payload key 'start'")
    instance = micp_solver.MicpInstance(
        map=map_, inner=cone.inner, start=start, max_iter=args.max_iter, conv_tol=args.tol
    )
    solution, trace = micp_solver.picard_solve(instance)
    if args.trace:
        write_trace(args.trace, map_.p, map_.q, trace)
    verify = micp_solver.verify_solution(instance, trace.final)
    report = {
        "status": trace.status,
        "iterations": trace.n_steps,
        "solution": {"x": solution.x, "u": solution.u},
        "final_step_norm": float(trace.step_norms[-1]) if trace.n_steps else 0.0,
        "order_certificates_all_ok": bool(trace.order_certificates.all())
        if trace.n_steps
        else True,
        "verify": _verify_report(verify),
    }
    code = EXIT_OK if trace.status == "converged" else EXIT_NO_CONVERGENCE
    return report, code, {"conv_tol": instance.conv_tol, "max_iter": instance.max_iter}


def cmd_lyap_rank(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    from . import lyapunov

    if cone.dim > 10:
        raise UnsupportedConeError(
            "lyap-rank enumerates dim^2 x dim^2 constraints; dimension must be <= 10"
        )
    n_pairs = _integer(payload.get("n_pairs", args.samples), "'n_pairs'")
    # each pair adds one linear constraint on the dim^2 entries of T
    if n_pairs < cone.dim**2:
        raise SchemaError(
            f"'n_pairs' must be at least dim^2 = {cone.dim**2} to pin down the rank, got {n_pairs}"
        )
    # the constraint matrix has n_pairs x dim^2 entries and may grow 81-fold
    most = MAX_CONSTRAINT_ENTRIES // cone.dim**2
    if n_pairs > most:
        raise SchemaError(
            f"'n_pairs' must be at most {MAX_CONSTRAINT_ENTRIES} / dim^2 = {most}, got {n_pairs}"
        )
    result = lyapunov.lyapunov_rank_numeric(cone, n_pairs=n_pairs, seed=args.seed)
    predicted = lyapunov.predicted_rank(cone)
    report = {
        "cone": cone_to_json(cone),
        "rank": result.rank,
        "predicted": predicted,
        "agree": result.rank == predicted,
        "matrix_dim": result.matrix_dim,
        "n_pairs": result.n_pairs,
        # to one decimal: more digits would pin the summation order of
        # every step before the SVD
        "singular_gap_log10": round(math.log10(result.singular_gap), 1),
    }
    return report, EXIT_OK, {"n_pairs": n_pairs, "seed": args.seed}


def cmd_check_project(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    from . import projections

    point = _payload_vector(payload, "point")
    # the projection rescales a norm whose square overflows, so NumPy's
    # warning of that overflow is noise; set here, not on the solver's path
    with np.errstate(over="ignore"):
        result = projections.project(cone, point)
    residuals = projections.moreau_residuals(cone, point, result.point)
    failed = [name for name, r in residuals.items() if not r >= -args.tol]
    report = {"point": result.point, "distance": result.distance, "residuals": residuals,
              "failed": failed, "ok": not failed}
    return report, EXIT_CHECK_FAILED if failed else EXIT_OK, {"tol": args.tol}


def cmd_check_isotone(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    from . import order

    settings = {"samples": args.samples, "seed": args.seed, "tol": args.tol}
    # lo and hi each hold --samples x dim floats
    most = MAX_SAMPLE_ENTRIES // cone.dim
    if args.samples > most:
        raise SchemaError(
            f"--samples must be at most {MAX_SAMPLE_ENTRIES} / dim = {most}, got {args.samples}"
        )
    if "normal" in payload:
        from . import micp_solver

        if "map" in payload or "pairs" in payload:
            raise SchemaError("payload holds a 'normal' and a 'map' or 'pairs': give one test")
        a = _as_vector(_payload_vector(payload, "normal"), cone.dim)
        # outside input, so held to 1e-8 absolutely (an overflowed norm is inf)
        if abs(np.linalg.norm(a) - 1.0) > 1e-8:
            raise SchemaError("payload key 'normal': normal must be a unit vector")
        # the projection onto a-perp is the update z - <a, z> a of F(z) = a a^T z
        mode, extra = "hyperplane", ()
        map_ = micp_solver.AffineMap(cone.dim, 0, np.outer(a, a), np.zeros(cone.dim))
    else:
        mode, map_ = "map", map_from_json(payload.get("map"))
        pairs = payload.get("pairs", [])
        if not isinstance(pairs, list):
            raise SchemaError("payload key 'pairs' must be a list")
        extra = []
        for entry in pairs:
            if not isinstance(entry, dict) or "lo" not in entry or "hi" not in entry:
                raise SchemaError("each extra pair needs 'lo' and 'hi' lists")
            extra.append(order.OrderedPairSample(
                np.asarray(_finite(entry["lo"], "pair 'lo'"), dtype=float),
                np.asarray(_finite(entry["hi"], "pair 'hi'"), dtype=float),
            ))
    report = order.check_isotone(
        map_, cone, args.samples, args.seed, args.tol, extra_pairs=tuple(extra)
    )
    out = {
        "mode": mode,
        "held": report.ok,
        "checked": report.checked,
        "violations": len(report.violations),
    }
    if report.violations:
        worst = min(report.violations, key=lambda v: v.margin)
        out["witness"] = {
            "lo": worst.pair.lo,
            "hi": worst.pair.hi,
            "image_diff": worst.image_diff,
            "failed_inequality": worst.failed_inequality,
            "margin": worst.margin,
        }
    return out, EXIT_OK if report.ok else EXIT_CHECK_FAILED, settings


def cmd_check_complementarity(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    pair = CompPair(
        primal=_payload_vector(payload, "primal"),
        dual=_payload_vector(payload, "dual"),
    )
    report = in_complementarity_set(cone, pair, args.tol)
    out = {"member": report.member, "residuals": report.residuals, "failed": list(report.failed)}
    return out, EXIT_OK if report.member else EXIT_CHECK_FAILED, {"tol": args.tol}


def cmd_check_verify(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    from . import micp_solver

    if cone.kind != CYLINDER:
        raise SchemaError("check.verify expects a cylinder cone")
    map_ = map_from_json(payload.get("map"))
    instance = micp_solver.MicpInstance(map=map_, inner=cone.inner)
    point = _payload_vector(payload, "point")
    report = micp_solver.verify_solution(instance, point, tol=args.tol)
    region = micp_solver.region_membership(instance, point)
    out = {
        **_verify_report(report),
        "region": {
            "in_feasible": region.in_feasible,
            "in_descent": region.in_descent,
            "reasons": list(region.reasons),
        },
    }
    return out, EXIT_OK if report.ok else EXIT_CHECK_FAILED, {"tol": args.tol}


@np.errstate(over="ignore", invalid="ignore")  # an overflow is judged again
def _reconstruction_gap(dec, z, one: float) -> float:
    """max|sum of the summands - z| over one + max|z|, as
    projections.moreau_residuals scales its residuals with one = 1.0: the
    summands' rounding grows with the point.  A NaN gap fails."""
    return float(np.abs(dec.reconstruct() - z).max()) / (one + float(np.abs(z).max()))


def cmd_check_decompose(cone: ConeSpec, payload: dict, args) -> tuple[dict, int, dict]:
    point = np.asarray(_payload_vector(payload, "point"), dtype=float)
    dec = decompose(cone, point, args.tol)
    gap = _reconstruction_gap(dec, point, 1.0)
    if not gap < math.inf:  # an overflowed split of the finite point: the
        # split is homogeneous, so 2^-k z, scaled as projections._rescaled
        # scales, over 2^-k + max|2^-k z| gives the same ratio
        k = _exponent(point)
        small = np.ldexp(point, -k)
        gap = _reconstruction_gap(decompose(cone, small, args.tol), small, math.ldexp(1.0, -k))
    ok = gap <= args.tol
    report = {
        "factors": [{"factor": f, "columns": [a, b]} for f, a, _, b in dec.factors],
        "image": dec.image,
        "summands": dec.summands,
        "reconstruction_gap": gap,
        "ok": ok,
    }
    return report, EXIT_OK if ok else EXIT_CHECK_FAILED, {"tol": args.tol}


# --------------------------------------------------------------------------
# argument parsing


def _int_at_least(low: int):
    """argparse type for an integer flag no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """argparse type for ``--tol``: a number that :func:`check_tol` accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    try:
        check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


# the flags other than --tol and --output, each taken by the subcommands that
# list it in _COMMANDS
_FLAGS = {
    "--max-iter": dict(type=_int_at_least(0), default=2000, help="iteration budget"),
    "--seed": dict(type=_int_at_least(0), default=0, help="seed of the sampled pairs"),
    "--samples": dict(type=_int_at_least(1), default=200, help="number of sampled pairs"),
    "--trace": dict(default=None, metavar="PATH", help="write a CSV iteration trace"),
}


@record
class _Command:
    help: str
    tol: float | None  # the --tol default, or None for a subcommand without --tol
    flags: tuple[str, ...] = ()  # keys of _FLAGS, in the order --help lists them


# Every subcommand by its dotted name, with the flags it reads.  Each takes the
# problem file and --output too; any other flag exits 2 as an unknown one.
_COMMANDS = {
    "contains": _Command("membership slacks of a point", DEFAULT_TOL),
    "solve": _Command("run the fixed-point iteration", 1e-12, ("--max-iter", "--trace")),
    "lyap-rank": _Command("numeric Lyapunov rank of a cone", None, ("--seed", "--samples")),
    "check.project": _Command("projection certified by Moreau's conditions", 1e-8),
    "check.isotone": _Command(
        "sampled isotonicity of a map, or a hyperplane test", DEFAULT_TOL, ("--seed", "--samples")
    ),
    "check.complementarity": _Command("whether a pair is complementary", DEFAULT_TOL),
    "check.verify": _Command("verify a candidate solution", 1e-8),
    "check.decompose": _Command("split a point into one summand per factor", DEFAULT_TOL),
}

# the check handlers by name, from _COMMANDS; main looks each up here
_CHECKS = {
    name: globals()["cmd_check_" + name]
    for group, _, name in (command.partition(".") for command in _COMMANDS)
    if group == "check"
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesoc-kit",
        description="Ordered-cone calculus and an isotone fixed-point solver.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, spec in _COMMANDS.items():
        group, _, name = command.rpartition(".")
        if group not in groups:
            checks = groups[""].add_parser(group, help="pass/fail property checks")
            groups[group] = checks.add_subparsers(dest=group, required=True)
        leaf = groups[group].add_parser(
            name, help=spec.help, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        leaf.set_defaults(command=command)
        leaf.add_argument("problem", help="path to a JSON problem file")
        if spec.tol is not None:
            leaf.add_argument("--tol", type=_tolerance, default=spec.tol, help="tolerance")
        for flag in spec.flags:
            leaf.add_argument(flag, **_FLAGS[flag])
        leaf.add_argument(
            "--output", choices=("json", "text"), default="json", help="report format"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    group, _, check = args.command.partition(".")
    # looked up on every call, so a wrapper set in place of a handler (as a
    # module attribute or a _CHECKS entry) is the one that runs
    handler = _CHECKS[check] if check else globals()["cmd_" + group.replace("-", "_")]
    try:
        cone, payload = load_problem(args.problem, args.command)
        report, code, settings = handler(cone, payload, args)
        return emit(report, args.output, args.command, code, settings)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DimensionError, UnsupportedConeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (MembershipError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except MesocKitError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and end the process with its code.

    The report is flushed and the exit handlers run (coverage, profilers,
    user hooks); then ``os._exit`` ends the process, skipping the final
    garbage collection and the teardown of NumPy and the kit, which free
    nothing the process outlives (the README's "Start-up" paragraph has
    their cost).  The kit starts no thread and closes the ``--trace`` file
    before ``main`` returns.  A usage error, ``--help`` and ``--version``
    exit through argparse's ``SystemExit``, and an uncaught exception exits
    as usual.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # the reader of stdout is gone
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        code = EXIT_SCHEMA
    atexit._run_exitfuncs()
    # a handler may have written too; a stdout that failed above fails again
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
