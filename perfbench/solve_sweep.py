"""Workload ``solve_sweep``: ``picard_solve`` in process, small and large.

Why: the solver is the library's main hot path.  The instances are the
shipped worked example plus seeded affine problems F(z) = M z + b whose
update I - M is scaled to spectral norm 0.8, so every one converges.

- Small instances (dimension <= 16) are bound by per-step Python overhead in
  ``micp_solver`` and ``cones.contains``: they show solver-loop work.
- The large pair shares one 1000 + 1000 map and differs only in the inner
  cone: ``monotone_nonneg`` projects through the single-vector PAV kernel,
  ``lorentz`` through a closed form.  A PAV kernel change should move
  ``solve_large_pav_ms`` and leave ``solve_large_closed_ms`` unchanged.

Every solve is gated on ``converged``, on ``verify_solution(...).ok`` and on
its step count equalling the count recorded for the seed in the untimed
warm-up round (34 for the worked example, as shipped).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse.linalg import svds

import probes

EXAMPLE_STEPS = 34
SMALL_SIZES = ((2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 6), (6, 2), (4, 8), (8, 4), (3, 5), (5, 3), (7, 7))
SMALL_CONES = ("monotone_nonneg", "monotone", "lorentz", "nonneg_orthant")
# several seeded instances per size, so a round's step count varies little by seed
SMALL_PER_SIZE = 3
LARGE = 1000


def _instance(mk, M, b, p, q, kind):
    micp = mk.micp_solver
    inner = getattr(mk.cones, kind)(q)
    return micp.MicpInstance(map=micp.AffineMap(p, q, M, b), inner=inner)


def prepare(ctx, seed: int) -> list[tuple[str, object]]:
    """Every solve of a round as (class, instance)."""
    mk = ctx.mk
    rng = np.random.Generator(np.random.PCG64([seed, 21]))
    out = [("small:example", mk.micp_solver.example_instance())]
    for i in range(SMALL_PER_SIZE * len(SMALL_SIZES)):
        p, q = SMALL_SIZES[i % len(SMALL_SIZES)]
        kind = SMALL_CONES[i % len(SMALL_CONES)]
        n = p + q
        g = rng.standard_normal((n, n))
        M = np.eye(n) - 0.8 * g / np.linalg.norm(g, 2)
        out.append((f"small:{i}:{kind}:{p}+{q}", _instance(mk, M, rng.standard_normal(n), p, q, kind)))
    n = 2 * LARGE
    M = rng.standard_normal((n, n))
    sigma = svds(M, k=1, return_singular_vectors=False, v0=np.ones(n))[0]
    M *= -0.8 / sigma
    M[np.diag_indices(n)] += 1.0
    b = rng.standard_normal(n)
    out.append(("large_pav", _instance(mk, M, b, LARGE, LARGE, "monotone_nonneg")))
    out.append(("large_closed", _instance(mk, M, b, LARGE, LARGE, "lorentz")))
    return out


def _solve(ctx, rec, cls, instance, steps, timed=True) -> int | None:
    micp = ctx.mk.micp_solver
    if ctx.tracer is not None:
        ctx.tracer.op = rec.attempted
    try:
        t0 = time.perf_counter()
        _, trace = micp.picard_solve(instance)
        seconds = time.perf_counter() - t0
        report = micp.verify_solution(instance, trace.final)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rec.add(cls, None, False, f"raised {exc!r}")
        return None
    problems = []
    if trace.status != "converged":
        problems.append(f"status {trace.status}")
    if not report.ok:
        problems.append(f"verify failed: {', '.join(report.failed)}")
    if steps is not None and trace.n_steps != steps:
        problems.append(f"{trace.n_steps} steps, recorded {steps}")
    rec.add(cls, seconds if timed else None, not problems, "; ".join(problems))
    return trace.n_steps


def probe(ctx) -> tuple[float, float]:
    return probes.interpreter(), probes.blas()


def reference(cls: str, p: tuple[float, float]) -> float:
    """Small solves are interpreter-bound; a large step is a dense
    matrix-vector product plus interpreter work."""
    return p[0] if cls.startswith("small:") else p[0] + p[1]


def start(ctx, instances, seed: int, rec) -> dict:
    """Untimed, gated warm-up round; it records each instance's step count."""
    steps = {}
    for cls, instance in instances:
        expected = EXAMPLE_STEPS if cls == "small:example" else None
        steps[cls] = _solve(ctx, rec, cls, instance, expected, timed=False)
    return {
        "instances": instances,
        "steps": steps,
        "order": np.random.Generator(np.random.PCG64([seed, 22])),
    }


def run_round(ctx, state: dict, rec, deadline: float | None) -> None:
    instances = state["instances"]
    for i in state["order"].permutation(len(instances)):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        cls, instance = instances[i]
        _solve(ctx, rec, cls, instance, state["steps"][cls])


def round_classes(state: dict) -> dict[str, int]:
    return {cls: 1 for cls, _ in state["instances"]}


def named(rec, state: dict) -> tuple[dict, dict]:
    small = [t for cls, samples in rec.samples.items() if cls.startswith("small:") for t in samples]
    return (
        {
            "solve_small_ms": 1e3 * statistics.median(small),
            "solve_large_pav_ms": 1e3 * statistics.median(rec.samples["large_pav"]),
            "solve_large_closed_ms": 1e3 * statistics.median(rec.samples["large_closed"]),
            "solve_iters": sum(state["steps"].values()),
        },
        {"solve_iters": "Picard steps of one round at conv_tol 1e-12"},
    )
