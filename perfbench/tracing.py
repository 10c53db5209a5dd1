"""Span recording around the public functions of each mesoc_kit layer.

Nothing under ``src/`` is changed: :func:`install` replaces each function at
the name its callers look it up by (a module attribute, a class attribute or
a dispatch-table entry) with a wrapper that records one span per call, and
:func:`uninstall` puts the originals back.  A span is
``[name, start_ns, end_ns, parent_index, op_id, units]``; ``units`` is the
work the call did (rows, pairs) or, for a membership test, its boolean
result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time

from catalog import CLI_COMMANDS, PROJECTION_KINDS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, units=0) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.spans[idx][5] = units
        self._stack.pop()

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded by another process, re-based and re-tagged."""
        base = len(self.spans)
        for name, start, end, parent, _, units in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, units])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,units\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")


def _wrap(tracer: Tracer, fn, name, units=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args) if callable(name) else name)
        n = 0
        try:
            out = fn(*args, **kwargs)
            n = units(args, out) if units else 0
            return out
        finally:
            tracer.close(idx, n)

    return wrapper


def _rows(args, out):
    return len(args[0])


def _kind_name(args):
    return f"projections.project.{args[0].kind}"


def _patch_table(mk):
    """(owner, attribute, span name, units) for every traced entry point."""
    cli, cones, lyapunov = mk.cli, mk.cones, mk.lyapunov
    micp, order, projections, sampling = mk.micp_solver, mk.order, mk.projections, mk.sampling
    contains_units = lambda args, out: int(out)  # noqa: E731 - order certificate outcome
    table = [
        (projections, "isotonic_decreasing", "kernels.isotonic_decreasing", None),
        (projections, "isotonic_decreasing_batch", "kernels.isotonic_decreasing_batch", _rows),
        (projections, "project", _kind_name, None),
        (projections, "project_oracle", "projections.project_oracle", None),
        (micp, "picard_solve", "micp_solver.picard_solve", None),
        (micp, "picard_step", "micp_solver.picard_step", None),
        (micp, "verify_solution", "micp_solver.verify_solution", None),
        (micp.ScalarComboMap, "update", "micp_solver.map_update", None),
        (micp.AffineMap, "update", "micp_solver.map_update", None),
        (cones, "contains", "cones.contains", contains_units),
        (micp, "contains", "cones.contains", contains_units),
        (cli, "contains", "cones.contains", contains_units),
        (cones, "contains_batch", "cones.contains_batch", lambda a, out: len(out)),
        (order, "check_isotone", "order.check_isotone", lambda a, out: out.checked),
        (sampling, "sample_ordered_pairs", "sampling.sample_ordered_pairs", None),
        (sampling, "complementarity_pairs", "sampling.complementarity_pairs", None),
        (lyapunov, "lyapunov_rank_numeric", "lyapunov.lyapunov_rank_numeric", None),
        (cli, "load_problem", "cli.load_problem", None),
        (cli, "emit", "cli.emit", None),
        (cli, "cmd_contains", "cli.cmd.contains", None),
        (cli, "cmd_solve", "cli.cmd.solve", None),
        (cli, "cmd_lyap_rank", "cli.cmd.lyap-rank", None),
    ]
    table += [(cli._CHECKS, key, f"cli.cmd.check.{key}", None) for key in cli._CHECKS]
    return table


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def install(tracer: Tracer, mk) -> list:
    """Wrap every traced entry point of the imported package ``mk``; returns
    what :func:`uninstall` needs to restore the originals."""
    undo = []
    for owner, attr, name, units in _patch_table(mk):
        original = _get(owner, attr)
        undo.append((owner, attr, original))
        _set(owner, attr, _wrap(tracer, original, name, units))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        _set(owner, attr, original)


class _Agg:
    __slots__ = ("calls", "ns", "units", "child_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.units = 0
        self.child_ns = {}


def per_layer_metrics(spans: list[list], process_overhead_ns: list[int]) -> dict:
    """Reduce spans to the per-layer figures of ``catalog.PER_LAYER`` (all
    but the import and tracing-overhead ones).  A layer no span reached
    reads 0."""
    children: dict[int, dict[str, int]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            d = children.setdefault(parent, {})
            d[name] = d.get(name, 0) + (end - start)
    agg: dict[str, _Agg] = {}
    cert_ok = cert_n = 0
    for i, (name, start, end, parent, _, units) in enumerate(spans):
        a = agg.setdefault(name, _Agg())
        a.calls += 1
        a.ns += end - start
        a.units += units
        for child, ns in children.get(i, {}).items():
            a.child_ns[child] = a.child_ns.get(child, 0) + ns
        if name == "cones.contains" and parent >= 0 and spans[parent][0] == "micp_solver.picard_solve":
            cert_n += 1
            cert_ok += units

    def get(name):
        return agg.get(name, _Agg())

    def per_call(name, scale):
        a = get(name)
        return a.ns / a.calls / scale if a.calls else 0.0

    def rate(name):
        a = get(name)
        return a.units / (a.ns / 1e9) if a.ns else 0.0

    def self_per_call(name, exclude=None):
        a = get(name)
        if not a.calls:
            return 0.0
        excluded = sum(ns for child, ns in a.child_ns.items() if exclude is None or child in exclude)
        return (a.ns - excluded) / a.calls / 1e6

    m = {
        "cli.load_problem_ms": per_call("cli.load_problem", 1e6),
        "cli.emit_ms": per_call("cli.emit", 1e6),
        "cli.process_overhead_ms": (
            sum(process_overhead_ns) / len(process_overhead_ns) / 1e6 if process_overhead_ns else 0.0
        ),
        "kernels.isotonic_decreasing.calls": get("kernels.isotonic_decreasing").calls,
        "kernels.isotonic_decreasing.us_per_call": per_call("kernels.isotonic_decreasing", 1e3),
        "kernels.isotonic_decreasing_batch.rows_per_s": rate("kernels.isotonic_decreasing_batch"),
        "projections.project_oracle.ms": per_call("projections.project_oracle", 1e6),
        "micp_solver.picard_step.us_per_call": per_call("micp_solver.picard_step", 1e3),
        "micp_solver.map_update.us_per_call": per_call("micp_solver.map_update", 1e3),
        "micp_solver.picard_solve.self_ms": self_per_call("micp_solver.picard_solve"),
        "micp_solver.verify_solution.ms": per_call("micp_solver.verify_solution", 1e6),
        "micp_solver.order_cert_ok_ratio": cert_ok / cert_n if cert_n else 0.0,
        "cones.contains.us_per_call": per_call("cones.contains", 1e3),
        "cones.contains_batch.rows_per_s": rate("cones.contains_batch"),
        "order.check_isotone.pairs_per_s": rate("order.check_isotone"),
        "sampling.sample_ordered_pairs.ms": per_call("sampling.sample_ordered_pairs", 1e6),
        "sampling.complementarity_pairs.ms": per_call("sampling.complementarity_pairs", 1e6),
        "lyapunov.svd.ms": self_per_call(
            "lyapunov.lyapunov_rank_numeric", exclude={"sampling.complementarity_pairs"}
        ),
        "trace.spans": len(spans),
    }
    for command in CLI_COMMANDS:
        m[f"cli.compute_ms.{command}"] = self_per_call(
            f"cli.cmd.{command}", exclude={"cli.load_problem", "cli.emit"}
        )
    for kind in PROJECTION_KINDS:
        m[f"projections.project.{kind}.calls"] = get(f"projections.project.{kind}").calls
        m[f"projections.project.{kind}.us_per_call"] = per_call(f"projections.project.{kind}", 1e3)
    return m


def import_times(stderr: str) -> dict:
    """Cumulative import times (ms) from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[1].isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return {
        "import.total_ms": cumulative.get("mesoc_kit", 0.0),
        "import.scipy_optimize_ms": cumulative.get("scipy.optimize", 0.0),
        "import.numpy_ms": cumulative.get("numpy", 0.0),
    }
