"""Timing of the batch PAV kernel and of batch membership, checked row by row.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

For each shape it times one call of ``project_monotone_nonneg_batch`` on
seeded normal rows, then recomputes every row with the single-vector sweep
``isotonic_decreasing`` (timed too, as the row loop the batch kernel
replaces) and prints the worst difference, scaled by 1 + max|row|.  The
cascade row repeats ``[n-2, ..., 1, 0, n**2]`` of width n, which pools one
pair per pass for n - 1 passes: the batch kernel's worst case, where the row
sweep is faster.  It is reported for reference; no workload has that shape.
Exits 1 when any row differs by more than 1e-12.

The membership row times ``contains_batch`` on 200 000 seeded ``mesoc(8, 8)``
rows, half of them sampled members and half pushed out of the cone by
0.01-1 in their last inequality, against a reference that stacks the same
slacks row by row (``np.hstack``, ``np.linalg.norm(axis=1)``, row-major
``min(axis=1)``), and prints how many rows the two classify differently.
Exits 1 on any disagreement.

Medians of three runs on a 2-vCPU Xeon (NumPy 2.4), batch against row
sweep or stacked reference, in ms:

    1000x8          0.6 /   10      10000x64         45 /  294
    10000x8         5.7 /  100      100000x16       105 / 1330
    cascade 100x1000  512 /   33    membership 200000x16  21 /   42

Before the batch kernel pooled block sums, its batch column read 1.2, 10,
73, 204 and 897 ms on the same machine.
"""

import sys
import time

import numpy as np

from mesoc_kit import cones, sampling
from mesoc_kit._kernels import isotonic_decreasing
from mesoc_kit.projections import project_monotone_nonneg_batch

SIZES = [(1_000, 8), (10_000, 8), (10_000, 64), (100_000, 16)]
CASCADE = (100, 1_000)
MEMBERSHIP = (200_000, 8, 8)
SEED = 20240817
TOL = 1e-12


def cascade(m: int, n: int) -> np.ndarray:
    """``m`` copies of the cascade row with ``n`` entries."""
    # with a smaller tail the pooled block's mean drops below an earlier entry
    # and the cascade stops early (10n stops after about 140 passes at n = 1000)
    row = np.append(np.arange(n - 2, -1, -1.0), float(n * n))
    return np.tile(row, (m, 1))


def measure(label: str, V: np.ndarray) -> float:
    t0 = time.perf_counter()
    out = project_monotone_nonneg_batch(V)
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = np.array([np.maximum(isotonic_decreasing(v)[0], 0.0) for v in V])
    sweep_s = time.perf_counter() - t0
    scale = 1.0 + np.abs(V).max(axis=1)
    worst = float((np.abs(out - ref).max(axis=1) / scale).max())
    print(f"{label:>22} {batch_s * 1e3:>10.2f}ms {sweep_s * 1e3:>10.2f}ms {worst:>12.2e}")
    return worst


def membership_rows(m: int, p: int, q: int) -> np.ndarray:
    """``m`` seeded rows of R^(p+q): even rows in mesoc(p, q), odd rows with
    x_p pushed below ||u|| by 0.01 to 1."""
    rng = np.random.default_rng(SEED)
    Z = sampling.sample(cones.mesoc(p, q), rng, m)
    Z[1::2, p - 1] = np.linalg.norm(Z[1::2, p:], axis=1) - rng.uniform(0.01, 1.0, m // 2)
    return Z


def stacked_contains(Z: np.ndarray, p: int, tol: float) -> np.ndarray:
    """mesoc(p, q) membership from the slacks stacked row by row."""
    X, U = Z[:, :p], Z[:, p:]
    slacks = np.hstack([X[:, :-1] - X[:, 1:], (X[:, -1] - np.linalg.norm(U, axis=1))[:, None]])
    return slacks.min(axis=1) >= -tol


def measure_membership(m: int, p: int, q: int) -> int:
    Z = membership_rows(m, p, q)
    cone = cones.mesoc(p, q)
    t0 = time.perf_counter()
    got = cones.contains_batch(cone, Z)
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = stacked_contains(Z, p, cones.DEFAULT_TOL)
    ref_s = time.perf_counter() - t0
    wrong = int(np.count_nonzero(got != ref))
    label = f"membership {m}x{p + q}"
    print(f"{label:>22} {batch_s * 1e3:>10.2f}ms {ref_s * 1e3:>10.2f}ms {wrong:>12d}")
    return wrong


def main() -> int:
    project_monotone_nonneg_batch(np.zeros((2, 2)))  # warm the call path
    print(f"{'rows x dim':>22} {'batch':>12} {'row sweep':>12} {'worst diff':>12}")
    worst = 0.0
    for n, dim in SIZES:
        V = np.random.default_rng(SEED).standard_normal((n, dim))
        worst = max(worst, measure(f"{n}x{dim}", V))
    m, n = CASCADE
    worst = max(worst, measure(f"cascade {m}x{n}", cascade(m, n)))
    print(f"{'rows x dim':>22} {'batch':>12} {'reference':>12} {'disagree':>12}")
    wrong = measure_membership(*MEMBERSHIP)
    status = 0
    if worst > TOL:
        print(f"batch kernel disagrees with the sweep by {worst:.2e} > {TOL:.0e}")
        status = 1
    if wrong:
        print(f"contains_batch disagrees with the stacked reference on {wrong} rows")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
