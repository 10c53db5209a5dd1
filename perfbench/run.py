"""mesoc-kit benchmark: one workload, one seed, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the named workload for ``--seconds`` seconds with no
tracing and reports the end-to-end metrics of ``catalog.END_TO_END`` on the
last stdout line, as one JSON object; each timed op is followed by a probe
(``probes.py``) so that ``round_rel`` can be given relative to it.  ``--trace 1`` instead runs one untraced
and one traced pass of every workload (the named one first), so that each
per-layer metric of ``catalog.PER_LAYER`` is measured, and reports those.
Lines before the last are human-readable: the environment and, for
``--trace 0``, the workload's named metrics with their units.  Everything is
also written to ``.perfbench-out/<workload>-s<seed>[-trace]/`` (result.json,
and spans.csv for a traced run).

The benchmark builds nothing: it imports ``src/mesoc_kit`` from the checkout
it sits in and refuses to run (exit 2) when that is missing.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import batch_analysis
import catalog
import cli_problems
import solve_sweep
import tracing

WORKLOADS = {
    "cli_problems": cli_problems,
    "solve_sweep": solve_sweep,
    "batch_analysis": batch_analysis,
}
ENV_KNOBS = ("MESOC_KIT_THREADS", "MESOC_KIT_NO_NUMBA")
SETUP_IMPORTS = 5
SETUP_PREPARES = 3
# rounds per workload in each half of a traced run
TRACE_ROUNDS = {"cli_problems": 1, "solve_sweep": 5, "batch_analysis": 1}

ROOT = Path(__file__).resolve().parent.parent


class Recorder:
    """Per-op outcomes of one phase: time samples by op class, and every
    attempted and failed op (a failure is never dropped).  With a ``probe``
    (see ``probes.py``) timed after every timed op, each op is also recorded
    relative to ``reference(cls, p)``, where ``p`` is the mean of the probe
    readings just before and just after it."""

    def __init__(self, probe=None, reference=None):
        self.samples: dict[str, list[float]] = {}
        self.relative: dict[str, list[float]] = {}
        self.probes: list[tuple[float, ...]] = []
        self._probe = probe
        self._reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, cls: str, seconds: float | None, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if seconds is not None:
            self.samples.setdefault(cls, []).append(seconds)
            if self._probe is not None:
                before = self.probes[-1] if self.probes else self._probe()
                self.probes.append(self._probe())
                p = tuple((a + b) / 2 for a, b in zip(before, self.probes[-1]))
                self.relative.setdefault(cls, []).append(seconds / self._reference(cls, p))
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{cls}: {reason}")

    def merge(self, other: Recorder) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 20 - len(self.failures)]


def _fresh_import(env, extra=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, "-c", "import mesoc_kit"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )


def _import_seconds(env, n: int) -> list[float]:
    """Wall time of ``n`` fresh interpreters importing the package, after
    one untimed import that fills the bytecode and file caches."""
    _fresh_import(env)
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _fresh_import(env)
        out.append(time.perf_counter() - t0)
    return out


def _blas_threads() -> str:
    import ctypes

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _command_output(cmd, **kwargs) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def environment(mk, seen: dict) -> dict:
    import numpy
    import scipy

    l3 = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_in_use": bool(mk._kernels.HAS_NUMBA),
        "MESOC_KIT_THREADS": seen["MESOC_KIT_THREADS"],
        "MESOC_KIT_NO_NUMBA": seen["MESOC_KIT_NO_NUMBA"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "l3_bytes": int(l3) if l3.isdigit() else l3,
        "commit": _command_output(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of the largest process of the run (this one or a
    child it waited for), in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _round(module, state, samples: dict[str, list[float]]) -> float:
    """One round, summed from the median of each op class's samples."""
    return sum(count * statistics.median(samples[cls])
               for cls, count in module.round_classes(state).items())


def _prepare(ctx, module, seed: int, times: int) -> tuple[object, list[float]]:
    seconds = []
    for _ in range(times):
        t0 = time.perf_counter()
        inputs = module.prepare(ctx, seed)
        seconds.append(time.perf_counter() - t0)
    return inputs, seconds


def measure(ctx, name: str, seed: int, seconds: float) -> tuple[dict, dict, dict, Recorder]:
    module = WORKLOADS[name]
    import_s = _import_seconds(ctx.child_env, SETUP_IMPORTS)
    inputs, prepare_s = _prepare(ctx, module, seed, SETUP_PREPARES)
    rec = Recorder(probe=lambda: module.probe(ctx), reference=module.reference)
    state = module.start(ctx, inputs, seed, rec)
    deadline = time.perf_counter() + seconds
    module.run_round(ctx, state, rec, None)
    while time.perf_counter() < deadline:
        module.run_round(ctx, state, rec, deadline)
    named, notes = module.named(rec, state)
    named["round_s"] = _round(module, state, rec.samples)
    e2e = {
        "round_rel": _round(module, state, rec.relative),
        "setup_s": statistics.median(import_s) + statistics.median(prepare_s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes["setup_s"] = (f"median of {SETUP_IMPORTS} fresh-interpreter imports "
                        f"+ median of {SETUP_PREPARES} input generations")
    return e2e, named, notes, rec


def measure_traced(ctx, name: str, seed: int) -> tuple[dict, dict, Recorder, tracing.Tracer]:
    importtime = _fresh_import(ctx.child_env, ("-X", "importtime"))
    tracer = tracing.Tracer()
    total = Recorder()
    for wl in [name] + [w for w in catalog.WORKLOADS if w != name]:
        module = WORKLOADS[wl]
        inputs, _ = _prepare(ctx, module, seed, 1)
        state = module.start(ctx, inputs, seed, total)
        rounds = {}
        for traced in (False, True):
            rec = Recorder()
            undo = tracing.install(tracer, ctx.mk) if traced else None
            ctx.tracer = tracer if traced else None
            try:
                for _ in range(TRACE_ROUNDS[wl]):
                    module.run_round(ctx, state, rec, None)
            finally:
                ctx.tracer = None
                if undo is not None:
                    tracing.uninstall(undo)
            total.merge(rec)
            rounds[traced] = _round(module, state, rec.samples)
        if wl == name:
            overhead = rounds[True] / rounds[False] - 1.0
            note = f"round_s of {name}: traced {rounds[True]:.4f} s, untraced {rounds[False]:.4f} s"
    metrics = tracing.per_layer_metrics(tracer.spans, ctx.process_overhead_ns)
    metrics.update(tracing.import_times(importtime.stderr))
    metrics["trace.overhead_ratio"] = overhead
    return metrics, {"trace.overhead_ratio": note}, total, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mesoc_kit" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: no mesoc_kit sources under {src} and problems/ next to them; "
              "run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # measure what a user gets by default; record what the caller had set
    seen = {k: os.environ.pop(k, "<unset>") for k in ENV_KNOBS}
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))
    import mesoc_kit
    import mesoc_kit.cli  # noqa: F401 - binds mesoc_kit.cli for the CLI workload and tracing

    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-s{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ctx = SimpleNamespace(root=ROOT, mk=mesoc_kit, child_env=child_env, out_dir=out_dir,
                          tracer=None, process_overhead_ns=[])
    env = environment(mesoc_kit, seen)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}

    if args.trace:
        metrics, notes, rec, tracer = measure_traced(ctx, args.workload, args.seed)
        units = catalog.PER_LAYER
        tracer.write_csv(out_dir / "spans.csv")
        result.update(per_layer=metrics, notes=notes)
    else:
        metrics, named, notes, rec = measure(ctx, args.workload, args.seed, args.seconds)
        units = catalog.END_TO_END
        named_units = {k: v[0] for k, v in catalog.NAMED[args.workload].items()}
        result.update(end_to_end=metrics, named=named, notes=notes)
    fail_ratio = rec.failed / rec.attempted
    result.update(attempted=rec.attempted, failed=rec.failed, fail_ratio=fail_ratio,
                  failures=rec.failures, samples=rec.samples, relative=rec.relative,
                  probes=rec.probes)
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    shown = metrics if args.trace else {**named, **metrics}
    shown_units = units if args.trace else {**named_units, **units}
    for k, v in shown.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"{'layer' if args.trace else 'metric'} {k} {v:.6g} {shown_units[k]}{note}")
    print(f"metric fail_ratio {fail_ratio:.6g} ratio  ({rec.failed} failed of {rec.attempted} attempted)")
    if not args.trace:
        print(f"note working set: largest batch array {batch_analysis.LARGEST_ARRAY_MB:.1f} MB "
              f"against L3 {env['l3_bytes']} bytes; every hot layer is interpreter-bound, "
              "so no bandwidth metric is reported")
    for failure in rec.failures:
        print(f"failure {failure}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
