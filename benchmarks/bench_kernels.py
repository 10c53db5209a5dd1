"""Timing of the batch projections and of batch membership, checked row by row.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

For each shape it times one call of ``project_monotone_nonneg_batch`` on
seeded normal rows, then recomputes every row with the single-vector sweep
``isotonic_decreasing`` (timed too, as the row loop the batch kernel
replaces) and prints the worst difference, scaled by 1 + max|row|.  The
cascade row repeats ``[n-2, ..., 1, 0, n**2]`` of width n, which pools one
pair per pass for n - 1 passes: the batch kernel's worst case, where the row
sweep is faster.  It is reported for reference; no workload has that shape.
The ``mesoc(8, 8)`` row times ``project_batch`` on 100 000 normal rows
through the norm tail (row norms, the kernel on (w, ||z||), the rescaled
tail) against a row loop of ``project``.  Exits 1 when any row differs by
more than 1e-12.

The membership row times ``contains_batch`` on 200 000 seeded ``mesoc(8, 8)``
rows, half of them sampled members and half pushed out of the cone by
0.01-1 in their last inequality, against a reference that stacks the same
slacks row by row (``np.hstack``, ``np.linalg.norm(axis=1)``, row-major
``min(axis=1)``), and prints how many rows the two classify differently.
Exits 1 on any disagreement.

The sampler rows time ``sample(mesoc(8, 8))`` and
``sample_ordered_pairs(mesoc(2, 2))`` at 200 000 rows against the
whole-array formulas of ``tests/_reference_sampling.py`` (temporaries joined
by ``np.hstack``, which the samplers used before they built members in one
output), and report both traced peaks: the most bytes a call holds
allocated at once (``tracemalloc``).  Exits 1 unless every array and the
generator state after the call agree byte for byte.

Both batch functions run in row blocks of about ``cones.BLOCK_ENTRIES``
entries.  Every batch call is repeated as one block, with the constant
raised above the input size; the script times that too ("one block") and
exits 1 unless the two results have the same bytes.  Last, it times the two
largest PAV shapes and the membership shape at block sizes 2^12 to 2^18.

Medians of three alternating runs on a 2-vCPU Xeon (NumPy 2.4, 2 MiB of
L2 per core), in ms: the parent commit's batch column, then this one's
batch, one-block and reference columns (the reference is the row sweep,
the ``project`` loop or the stacked slacks):

                          parent   batch  one block  reference
    1000x8                   0.6     0.6     0.5        10
    10000x8                  5.5     5.3     5.4        92
    10000x64                  42      28      39       361
    100000x16                111      66     105      1539
    cascade 100x1000         574     509     524        40
    mesoc(8, 8) 100000        76      52      72      1396
    membership 200000x16      24      13      22        40

The parent's ``mesoc(8, 8)`` figure is a median of 7 calls in each of two
runs of the same call.  Samplers, medians of three runs of the sampler rows
(each the median of three interleaved calls per side), times in ms and
traced peaks in MiB:

                          time  reference  peak  reference peak  output
    sample mesoc(8, 8)     106       106   39.7            50.4    24.4
    pairs mesoc(2, 2)       54        59   19.8            21.4    12.2

The times agree within the run-to-run spread; the peaks repeat exactly.
Block sizes, medians over six runs of the script
(each the median of five interleaved rounds per size), in ms:

    block entries      2^12  2^14  2^15  2^16  2^17  2^18
    pav 10000x64         40    25    22    22    21    22
    pav 100000x16        97    68    64    63    64    64
    membership           28    16    15    15    16    16

From 2^15 to 2^18 the times agree within the run-to-run spread (about
10%), 2^14 is a little slower and 2^12 much slower, where NumPy's per-call
overhead is paid on small blocks; a single block is the one-block column.
2^16 entries (512 KiB of float64) sits in the middle of the flat range and
leaves room in L2 for a block's temporaries.
"""

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from mesoc_kit import cones, sampling
from mesoc_kit._kernels import isotonic_decreasing
from mesoc_kit.projections import project, project_batch, project_monotone_nonneg_batch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import _reference_sampling  # noqa: E402  (the formulas before members were built in one output)

SIZES = [(1_000, 8), (10_000, 8), (10_000, 64), (100_000, 16)]
CASCADE = (100, 1_000)
MEMBERSHIP = (200_000, 8, 8)
NORM_TAIL = (100_000, 8, 8)
BLOCK_EXPONENTS = (12, 14, 15, 16, 17, 18)
SAMPLER_ROWS = 200_000
SEED = 20240817
TOL = 1e-12


def cascade(m: int, n: int) -> np.ndarray:
    """``m`` copies of the cascade row with ``n`` entries."""
    # with a smaller tail the pooled block's mean drops below an earlier entry
    # and the cascade stops early (10n stops after about 140 passes at n = 1000)
    row = np.append(np.arange(n - 2, -1, -1.0), float(n * n))
    return np.tile(row, (m, 1))


def with_block_entries(entries: int, fn, *args):
    """``fn(*args)`` with row blocks of about ``entries`` entries."""
    saved = cones.BLOCK_ENTRIES
    cones.BLOCK_ENTRIES = entries
    try:
        return fn(*args)
    finally:
        cones.BLOCK_ENTRIES = saved


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def blocked_and_whole(fn, *args):
    """``fn(*args)`` in row blocks and as one block (the block constant raised
    above the input size): the first result, both times, and whether the two
    results have the same bytes."""
    out, batch_s = timed(fn, *args)
    whole, whole_s = with_block_entries(args[-1].size + 1, timed, fn, *args)
    return out, batch_s, whole_s, out.tobytes() == whole.tobytes()


def report(label, batch_s, whole_s, ref_s, check, same) -> None:
    print(f"{label:>22} {batch_s * 1e3:>10.2f}ms {whole_s * 1e3:>10.2f}ms "
          f"{ref_s * 1e3:>10.2f}ms {check:>10} {'yes' if same else 'NO':>6}")


def measure(label: str, fn, V: np.ndarray, reference) -> tuple[float, bool]:
    """Time the batch projection ``fn`` on ``V`` against the row loop
    ``reference``; the worst row difference scaled by 1 + max|row|, and the
    byte check."""
    out, batch_s, whole_s, same = blocked_and_whole(fn, V)
    ref, ref_s = timed(lambda: np.array([reference(v) for v in V]))
    scale = 1.0 + np.abs(V).max(axis=1)
    worst = float((np.abs(out - ref).max(axis=1) / scale).max())
    report(label, batch_s, whole_s, ref_s, f"{worst:.2e}", same)
    return worst, same


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


def measure_membership(m: int, p: int, q: int) -> tuple[int, bool]:
    Z = membership_rows(m, p, q)
    cone = cones.mesoc(p, q)
    got, batch_s, whole_s, same = blocked_and_whole(lambda Z: cones.contains_batch(cone, Z), Z)
    ref, ref_s = timed(stacked_contains, Z, p, cones.DEFAULT_TOL)
    wrong = int(np.count_nonzero(got != ref))
    report(f"membership {m}x{p + q}", batch_s, whole_s, ref_s, wrong, same)
    return wrong, same


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` holds allocated at once."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_samplers(rounds: int = 3) -> bool:
    """Time and trace ``sample`` and ``sample_ordered_pairs`` against the
    reference formulas; whether every array and generator state agrees."""
    cases = [
        ("sample mesoc(8, 8)", lambda m, rng: (m.sample(cones.mesoc(8, 8), rng, SAMPLER_ROWS),)),
        ("pairs mesoc(2, 2)", lambda m, rng: m.sample_ordered_pairs(cones.mesoc(2, 2), rng, SAMPLER_ROWS)),
    ]
    print(f"{'sampler':>22} {'time':>12} {'reference':>12} {'peak MiB':>10} {'ref peak':>10} "
          f"{'out MiB':>8} {'bytes':>6}")
    same = True
    for label, draw in cases:
        seconds = {sampling: [], _reference_sampling: []}
        for _ in range(rounds):
            for m in seconds:
                seconds[m].append(timed(draw, m, sampling.rng_from_seed(SEED))[1])
        rng, ref_rng = sampling.rng_from_seed(SEED), sampling.rng_from_seed(SEED)
        got, want = draw(sampling, rng), draw(_reference_sampling, ref_rng)
        ok = (all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
              and rng.bit_generator.state == ref_rng.bit_generator.state)
        same = same and ok
        peak, ref_peak = (traced_peak(draw, m, sampling.rng_from_seed(SEED)) / 2**20 for m in seconds)
        ms, ref_ms = (1e3 * statistics.median(seconds[m]) for m in seconds)
        print(f"{label:>22} {ms:>10.2f}ms {ref_ms:>10.2f}ms {peak:>10.1f} {ref_peak:>10.1f} "
              f"{sum(a.nbytes for a in got) / 2**20:>8.1f} {'yes' if ok else 'NO':>6}")
    return same


def block_sizes(rounds: int = 5) -> None:
    """Median time per block size at the two largest PAV shapes and the
    membership shape, over ``rounds`` rounds that each time every size once."""
    rng = np.random.default_rng(SEED)
    cases = [(f"pav {n}x{d}", project_monotone_nonneg_batch, rng.standard_normal((n, d)))
             for n, d in SIZES[2:]]
    m, p, q = MEMBERSHIP
    cone = cones.mesoc(p, q)
    cases.append((f"membership {m}x{p + q}", lambda Z: cones.contains_batch(cone, Z),
                  membership_rows(m, p, q)))
    seconds = {}
    for _ in range(rounds):
        for e in BLOCK_EXPONENTS:
            for label, fn, A in cases:
                seconds.setdefault((label, e), []).append(with_block_entries(2**e, timed, fn, A)[1])
    print(f"{'block entries':>22} " + " ".join(f"{f'2^{e}':>8}" for e in BLOCK_EXPONENTS))
    for label, _, _ in cases:
        ms = [1e3 * statistics.median(seconds[label, e]) for e in BLOCK_EXPONENTS]
        print(f"{label:>22} " + " ".join(f"{t:>6.1f}ms" for t in ms))


def main() -> int:
    project_monotone_nonneg_batch(np.zeros((2, 2)))  # warm the call path
    print(f"{'rows x dim':>22} {'batch':>12} {'one block':>12} {'row sweep':>12} "
          f"{'worst diff':>10} {'bytes':>6}")

    def sweep(v):
        return np.maximum(isotonic_decreasing(v)[0], 0.0)

    results = []
    for n, dim in SIZES:
        V = np.random.default_rng(SEED).standard_normal((n, dim))
        results.append(measure(f"{n}x{dim}", project_monotone_nonneg_batch, V, sweep))
    m, n = CASCADE
    results.append(measure(f"cascade {m}x{n}", project_monotone_nonneg_batch, cascade(m, n), sweep))
    m, p, q = NORM_TAIL
    tail_cone = cones.mesoc(p, q)
    V = np.random.default_rng(SEED).standard_normal((m, p + q))
    results.append(measure(f"mesoc({p}, {q}) {m}", lambda V: project_batch(tail_cone, V), V,
                           lambda v: project(tail_cone, v).point))
    print(f"{'rows x dim':>22} {'batch':>12} {'one block':>12} {'reference':>12} "
          f"{'disagree':>10} {'bytes':>6}")
    wrong, membership_same = measure_membership(*MEMBERSHIP)
    samplers_same = measure_samplers()
    block_sizes()
    worst = max(w for w, _ in results)
    same = membership_same and all(ok for _, ok in results)
    status = 0
    if worst > TOL:
        print(f"batch projection disagrees with the row loop by {worst:.2e} > {TOL:.0e}")
        status = 1
    if wrong:
        print(f"contains_batch disagrees with the stacked reference on {wrong} rows")
        status = 1
    if not same:
        print("a result in row blocks differs in its bytes from the one-block result")
        status = 1
    if not samplers_same:
        print("a sampler differs in its bytes or generator state from the reference formulas")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
