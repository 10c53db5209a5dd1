"""Self-test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, and exits non-zero on the first failure:

1. every metric name in ``BENCHMARK.json`` matches ``[A-Za-z0-9_.-]+``, has
   a unit, and agrees with ``catalog``;
2. each workload, run untraced at minimum length, prints a last line with
   exactly the end-to-end metrics, each a positive number with its unit, and
   passes its gates;
3. one traced run emits every per-layer metric;
4. a projection stubbed to return zeros is counted as failed, in the solver
   and in the batch projection, so the gates cannot pass vacuously;
5. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import catalog

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}", flush=True)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _last_line(proc, expected: dict, what: str, positive: bool) -> None:
    check(proc.returncode == 0, f"{what}: exit code 0 ({proc.stderr.strip()[-300:]})")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, f"{what}: every op passed")
    check(set(last["metrics"]) == set(expected), f"{what}: reports exactly the declared metrics")
    for name, m in last["metrics"].items():
        check(NAME.fullmatch(name) is not None and m["unit"] == expected[name]
              and isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              and (m["value"] > 0 or not positive),
              f"{what}: {name} = {m['value']:.6g} {m['unit']}")


def check_declaration() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for group, declared in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        entries = {m["name"]: m["unit"] for m in bench[group]}
        check(all(NAME.fullmatch(n) and u for n, u in entries.items()), f"{group}: names and units well formed")
        check(entries == declared, f"{group}: BENCHMARK.json agrees with catalog")
    check([w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS), "workloads agree with catalog")


def check_stubbed_projection() -> None:
    """Zero projections must fail the solve and batch-projection gates."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import batch_analysis
    import mesoc_kit
    import run
    import solve_sweep

    ctx = SimpleNamespace(root=ROOT, mk=mesoc_kit, tracer=None, out_dir=ROOT / ".perfbench-out" / "selftest")
    projections = mesoc_kit.projections
    saved = projections.project, projections.project_monotone_nonneg_batch
    projections.project = lambda cone, z: projections.ProjectionResult(np.zeros(cone.dim), 0.0)
    projections.project_monotone_nonneg_batch = lambda V: np.zeros_like(V)
    try:
        rec = run.Recorder()
        state = solve_sweep.start(ctx, solve_sweep.prepare(ctx, SEED), SEED, rec)
        solve_sweep.run_round(ctx, state, rec, None)
        check(rec.failed > 0, f"zero projection fails solves ({rec.failed} of {rec.attempted})")
        rec = run.Recorder()
        batch_analysis.run_round(ctx, {"inputs": batch_analysis.prepare(ctx, SEED)}, rec, None)
        pav_failed = sum(f.startswith("pav:") for f in rec.failures)
        check(pav_failed == len(batch_analysis.PAV_SHAPES),
              f"zero batch projection fails every PAV op ({pav_failed} of {len(batch_analysis.PAV_SHAPES)})")
    finally:
        projections.project, projections.project_monotone_nonneg_batch = saved


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("solve_sweep", 0, cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    check_declaration()
    for workload in catalog.WORKLOADS:
        _last_line(_run(workload, 0), catalog.END_TO_END, f"{workload} --trace 0", positive=True)
    _last_line(_run(catalog.WORKLOADS[0], 1), catalog.PER_LAYER, f"{catalog.WORKLOADS[0]} --trace 1",
               positive=False)
    check_stubbed_projection()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
