"""Timing of the batch pool-adjacent-violators kernel, checked row by row.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

For each shape it times one call of ``project_monotone_nonneg_batch`` on
seeded normal rows, then recomputes every row with the single-vector sweep
``isotonic_decreasing`` (timed too, as the row loop the batch kernel
replaces) and prints the worst difference, scaled by 1 + max|row|.  The last
row repeats the cascade ``[n-2, ..., 1, 0, n**2]`` of width n, which pools
one pair per pass for n - 1 passes: the batch kernel's worst case, where
the row sweep is faster.  It is reported for reference; no workload has
that shape.  Exits 1 when any row differs by more than 1e-12.
"""

import sys
import time

import numpy as np

from mesoc_kit._kernels import isotonic_decreasing
from mesoc_kit.projections import project_monotone_nonneg_batch

SIZES = [(1_000, 8), (10_000, 8), (10_000, 64), (100_000, 16)]
CASCADE = (100, 1_000)
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


def main() -> int:
    project_monotone_nonneg_batch(np.zeros((2, 2)))  # warm the call path
    print(f"{'rows x dim':>22} {'batch':>12} {'row sweep':>12} {'worst diff':>12}")
    worst = 0.0
    for n, dim in SIZES:
        V = np.random.default_rng(SEED).standard_normal((n, dim))
        worst = max(worst, measure(f"{n}x{dim}", V))
    m, n = CASCADE
    worst = max(worst, measure(f"cascade {m}x{n}", cascade(m, n)))
    if worst > TOL:
        print(f"batch kernel disagrees with the sweep by {worst:.2e} > {TOL:.0e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
