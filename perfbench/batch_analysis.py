"""Workload ``batch_analysis``: the vectorised library calls.

Why: batch analysis is the library's other use.  It runs the PAV kernel in
its batch form (``project_monotone_nonneg_batch`` at the shapes of
``benchmarks/bench_kernels.py``), next to the single-vector form that
``solve_sweep`` runs, so a kernel swap that helps one form and hurts the
other shows on one of the two workloads.  It also measures batch membership
(``contains_batch``), the sampled isotonicity check and the numeric
Lyapunov rank, none of which touches PAV.

Gates: every batch projection must pass the full Moreau certificate
y in K, y - v in K*, <v - y, y> = 0 on sampled rows (computed here, not by
the library); membership must match the seeded labels exactly; the isotone
check must pass on the worked example map and must catch the known
violating pair on ``esoc(2, 2)``; the numeric rank must equal
``predicted_rank``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import probes

PAV_SHAPES = ((1_000, 8), (10_000, 8), (10_000, 64), (100_000, 16))
CERT_ROWS = 256
MEMBERSHIP_ROWS = 200_000
MEMBERSHIP_CONE = (8, 8)
ISOTONE_PAIRS = 200_000
LYAP_CONE = (5, 5)
LARGEST_ARRAY_MB = max(max(n * d for n, d in PAV_SHAPES), MEMBERSHIP_ROWS * sum(MEMBERSHIP_CONE)) * 8 / 1e6
# the violating pair shipped in problems/check_isotone_esoc.json
ESOC_PAIR = ([0.0, 0.0, 2.0, 0.0], [1.0, 2.0, 1.0, 0.0])


def moreau_violation(V: np.ndarray, Y: np.ndarray) -> float:
    """Largest scaled violation of the projection certificate onto the
    nonincreasing nonnegative cone, over the rows of ``V`` and ``Y``:
    Y nonincreasing and >= 0, partial sums of Y - V >= 0 (the dual cone),
    and <V - Y, Y> = 0.  Zero for an exact projection."""
    scale = 1.0 + np.abs(V).sum(axis=1)
    primal = np.hstack([Y[:, :-1] - Y[:, 1:], Y[:, -1:]]).min(axis=1)
    dual = np.cumsum(Y - V, axis=1).min(axis=1)
    orth = np.abs(np.einsum("ij,ij->i", V - Y, Y)) / scale**2
    return float(np.max(np.maximum.reduce([-primal / scale, -dual / scale, orth])))


def prepare(ctx, seed: int) -> dict:
    mk = ctx.mk
    rng = np.random.Generator(np.random.PCG64([seed, 31]))
    pav = []
    for n, d in PAV_SHAPES:
        V = rng.standard_normal((n, d))
        pav.append((f"pav:{n}x{d}", V, np.sort(rng.choice(n, CERT_ROWS, replace=False))))
    cone = mk.cones.mesoc(*MEMBERSHIP_CONE)
    Z = mk.sampling.sample(cone, rng, MEMBERSHIP_ROWS)
    inside = rng.random(MEMBERSHIP_ROWS) < 0.5
    p = MEMBERSHIP_CONE[0]
    out = ~inside
    # push x_p below ||u||: the last defining inequality fails by a clear margin
    Z[out, p - 1] = np.linalg.norm(Z[out, p:], axis=1) - rng.uniform(0.01, 1.0, out.sum())
    return {"pav": pav, "membership": (cone, Z, inside), "seed": seed}


def probe(ctx) -> tuple[float]:
    # ops last up to seconds, so a longer probe reads the machine's speed better
    return (probes.interpreter(repeats=5),)


def reference(cls: str, p: tuple[float]) -> float:
    return p[0]


def start(ctx, inputs: dict, seed: int, rec) -> dict:
    return {"inputs": inputs}


def _op_pav(ctx, V, rows):
    t0 = time.perf_counter()
    Y = ctx.mk.projections.project_monotone_nonneg_batch(V)
    seconds = time.perf_counter() - t0
    if Y.shape != V.shape or not np.all(np.isfinite(Y)):
        return seconds, "output shape or values invalid"
    worst = moreau_violation(V[rows], Y[rows])
    return seconds, "" if worst <= 1e-9 else f"Moreau certificate violated by {worst:.3e}"


def _op_membership(ctx, cone, Z, inside):
    t0 = time.perf_counter()
    got = ctx.mk.cones.contains_batch(cone, Z)
    seconds = time.perf_counter() - t0
    wrong = int(np.count_nonzero(np.asarray(got, dtype=bool) != inside))
    return seconds, "" if wrong == 0 else f"{wrong} rows misclassified"


def _op_isotone(ctx, seed):
    mk = ctx.mk
    example = mk.micp_solver.example_instance().map
    t0 = time.perf_counter()
    report = mk.order.check_isotone(example, mk.cones.mesoc(2, 2), ISOTONE_PAIRS, seed)
    seconds = time.perf_counter() - t0
    problems = []
    if not report.ok or report.checked != ISOTONE_PAIRS:
        problems.append(f"{len(report.violations)} violations over {report.checked} pairs")
    lo, hi = (np.array(v) for v in ESOC_PAIR)
    control = mk.order.check_isotone(
        example, mk.cones.esoc(2, 2), 2_000, seed, extra_pairs=(mk.order.OrderedPairSample(lo, hi),)
    )
    if not any(np.array_equal(v.pair.lo, lo) for v in control.violations):
        problems.append("known violating pair on esoc(2, 2) not reported")
    return seconds, "; ".join(problems)


def _op_lyap(ctx, seed):
    mk = ctx.mk
    cone = mk.cones.mesoc(*LYAP_CONE)
    t0 = time.perf_counter()
    result = mk.lyapunov.lyapunov_rank_numeric(cone, seed=seed)
    seconds = time.perf_counter() - t0
    predicted = mk.lyapunov.predicted_rank(cone)
    return seconds, "" if result.rank == predicted else f"rank {result.rank}, predicted {predicted}"


def _ops(ctx, inputs):
    for cls, V, rows in inputs["pav"]:
        yield cls, lambda V=V, rows=rows: _op_pav(ctx, V, rows)
    yield "membership", lambda: _op_membership(ctx, *inputs["membership"])
    yield "isotone", lambda: _op_isotone(ctx, inputs["seed"])
    yield "lyap", lambda: _op_lyap(ctx, inputs["seed"])


def run_round(ctx, state: dict, rec, deadline: float | None) -> None:
    for cls, op in _ops(ctx, state["inputs"]):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        if ctx.tracer is not None:
            ctx.tracer.op = rec.attempted
        try:
            seconds, problem = op()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds, problem = None, f"raised {exc!r}"
        rec.add(cls, seconds, not problem, problem)


def round_classes(state: dict) -> dict[str, int]:
    return {cls: 1 for cls, _ in _ops(None, state["inputs"])}


def named(rec, state: dict) -> tuple[dict, dict]:
    med = {cls: statistics.median(samples) for cls, samples in rec.samples.items()}
    pav_rows = sum(n for n, _ in PAV_SHAPES)
    pav_s = sum(med[f"pav:{n}x{d}"] for n, d in PAV_SHAPES)
    return (
        {
            "pav_batch_rows_per_s": pav_rows / pav_s,
            "membership_rows_per_s": MEMBERSHIP_ROWS / med["membership"],
            "isotone_pairs_per_s": ISOTONE_PAIRS / med["isotone"],
            "lyap_rank_ms": 1e3 * med["lyap"],
        },
        {},
    )
