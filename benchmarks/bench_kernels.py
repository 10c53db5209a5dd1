"""Timing of the batch projections and of batch membership, checked row by row.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

For each shape it times one call of ``project_batch`` onto the monotone
nonnegative cone on seeded normal rows, then recomputes every row with the single-vector sweep
``isotonic_decreasing`` (timed too, as the row loop the batch kernel
replaces) and prints the worst difference, scaled by 1 + max|row|.  The
cascade row repeats ``[n-2, ..., 1, 0, n**2]`` of width n, which pools one
pair per pass for n - 1 passes: the batch kernel's worst case, where the row
sweep is faster.  It is reported for reference; no workload has that shape.
The ``mesoc(8, 8)`` row times ``project_batch`` on 100 000 normal rows
through the norm tail (row norms, the kernel on (w, ||z||), the rescaled
tail) against a row loop of ``project``.  Exits 1 when any row differs by
more than 1e-12.

The twin row times ``project_batch`` of 100 000 seeded normal rows onto
``lorentz(6)`` and onto ``mesoc(1, 5)``, which is the same cone.  The
tests check that the two give the same bytes.

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
generator state after the call agree byte for byte.  The isotone row does
the same for ``check_isotone`` of the worked example map on 200 000 pairs of
``mesoc(2, 2)``, in row blocks, against the whole-array check of
``tests/_reference_order.py``, and exits 1 unless the two reports agree.

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

The twin row and the traced sampler peaks, medians of three alternating runs
before (``lorentz`` through its own closed form, ``mesoc(1, q)`` through the
batch PAV kernel on (w, ||z||), and ``row_norms`` allocating its square root)
and after (both through the norm tail's p = 1 closed form, the root taken in
place), in ms and MiB:

                              before   after
    lorentz(6) 100000x6          6.8     6.7
    mesoc(1, 5) 100000x6        11.2     6.5
    sample mesoc(8, 8) peak     39.7    38.3
    pairs mesoc(2, 2) peak      19.8    18.5

Narrow blocks worked down their columns, and ``check_isotone`` in row
blocks: medians of three alternating runs of the batch, sampler and isotone
rows on the parent commit and on this one (each the median of three
interleaved calls per side), in ms and traced MiB:

                              parent   this
    100000x16 batch               69     63
    10000x64 batch                32     33
    sample mesoc(8, 8)            98     98
    pairs mesoc(2, 2)             55     40
    isotone mesoc(2, 2)           73     56
    pairs mesoc(2, 2) peak      18.5   18.8
    isotone mesoc(2, 2) peak    35.3   18.8

The isotone row's peak is now the sampler's own: the check holds the pairs
and one block's images and slacks, where the whole-array check held both
images, their difference and the slack matrix of every pair at once.  The
pairs' peak grew by 0.3 MiB, the slice of the unit directions' second
column that ``row_norms`` squares beside their sum.  The PAV rows move
within the run-to-run spread here; ``perfbench``'s ``batch_analysis``
shows the end-to-end change.

The narrow-block table times every site that works a narrow block down its
columns, on 200 000 rows and blocks 1 to 8 columns wide, in its 2-D form
(``cones.NARROW_MAX`` set to 0, or the form it replaced) and in its column
form (the constant set to the width).  Gated sites: ``x += nu`` on the x
block of a wider output, the copy of a draw into the u block, the unit
rows, the radii scaled into the u block and ``row_norms`` of the u block.
Not gated: the PAV pre-pass's descent test (2-D neighbours against one
comparison over the flat rows), and ``ScalarComboMap.field_values`` with
as many fields as the width (``np.stack`` of the columns against one
output).  It prints the widest width up to which the column form wins or
ties (within 5%) every gated site; that sets ``cones.NARROW_MAX``.  Medians
of three runs (each the median of seven interleaved rounds), ms for the 2-D
form then the column form:

    width                 1           2           3           4           8
    x += nu         0.32 0.29   4.03 1.03   4.38 2.21   5.22 3.46   8.9 13.8
    block copy      0.28 0.24   1.34 0.96   1.54 2.09   1.96 3.74   3.0 15.5
    unit rows       1.50 0.63   2.84 1.61   2.99 2.44   3.77 3.83   4.8 12.6
    radii into u    0.34 0.31   2.42 1.12   2.62 2.31   3.54 4.08   6.9 20.7
    row_norms       0.59 0.48   1.46 1.15   1.54 2.10   1.85 3.33   3.2 11.2
    pre-pass        0.04 0.01   0.46 0.26   3.97 0.35   4.71 0.44   5.3  1.2
    field values    3.42 4.58   4.33 3.09   6.96 4.50   8.26 5.89  18.0 14.7

At width 1 the gated sites make the same calls in both forms but for the
unit rows, whose 2-D form takes the norms of a one-column block through
``einsum``.  At width 2 every gated site is 1.3-4x faster down its
columns; from width 3 the copy and ``row_norms`` are slower, and at width 8
every gated site is 1.5-5x slower, so the constant is 2.  (``row_norms``
down the columns also keeps ``einsum``'s bits only up to two columns.)  The
flat descent test wins at every width, and runs unconditionally.  The field
values are summed in contiguous vectors and written once into one output:
faster from two fields on, and at 16384 x 2 (a ``check_isotone`` block)
0.176 ms against 0.197 in a separate timing of 40 alternating calls.  With
one field this table reads it slower (3.4 ms against 4.6), which that
separate timing did not show (2.1 against 2.0); no map of the benchmark
has one field.  At 200000 rows these timings include the page faults of
fresh arrays, which is why they move between runs.

The short-block table times ``row_norms`` on u blocks of one and two
columns and 1 to 4096 rows, as one ``einsum`` call and down the columns,
in µs per call (each the median of seven interleaved rounds of 2000 calls).
It prints the fewest rows from which the column form wins or ties (within
5%) on every longer block of two columns; that sets
``cones.NARROW_MIN_ROWS``.  Medians of three runs, ``einsum`` then column:

    rows     width 1       width 2
       1    3.9  3.9      4.7  7.0
       2    3.4  2.6      5.3  7.3
       8    3.7  2.4      3.1  4.1
      32    3.4  2.8      5.3  6.8
     128    3.3  2.5      5.7  6.3
     256    6.1  4.7      7.3  7.1
     320    4.0  3.0      6.3  6.0
     384    4.4  3.5      8.3  7.4
     512    5.6  4.8      9.9  8.9
    1024    6.2  4.8     11.6  7.9
    4096   16.7 11.2     35.7 16.4

One column is one square, no dearer than ``einsum`` at any length.  Two
columns add a slice and a second call; below 256 rows that costs more than
the one ``einsum`` call, from 256 rows on it ties or wins (each of the
three runs put the crossing at 256 rows, an earlier one at 384), so the
constant is 256.  The solver's order certificates take the norms of a
solve's steps, tens of rows for the worked example, in one ``einsum`` call.

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

Last, the one-row table times ``pav_fit``, the single-vector fit of
``project``, through the sweep and through the batch passes on one row
(``_kernels.PASSES_MIN`` set above and below the row's length), in µs per
call at n = 8 to 2000.  It runs on 20 seeded normal rows and on the first n
entries of the 26 step inputs u - H(z) of ``perfbench``'s ``large_pav``
solve for seed 1, whose length 1000 ends that set.  It prints the worst
difference between the two fits, scaled by 1 + max|row|, and exits 1 above
1e-12.  This table sets ``PASSES_MIN``.  Passes time over sweep time,
medians of three runs (each the median of seven interleaved rounds per
side):

    n                   8    32   128   192   256   320   512  1000  2000
    normal rows      6.83  3.84  1.69  1.35  1.08  0.88  0.71  0.43  0.28
    large_pav steps  5.90  3.20  1.71  1.44  1.00  0.89  0.72  0.43     -

The passes pay 20-40 µs of NumPy calls for the pre-pass and a few passes
whatever the length, and the sweep one interpreted turn per entry, so the
sweep wins on short rows and the passes on long ones.  They are about even
at 256 and win on both sets from 320 on, the constant.  The worst
difference was 7e-17.

The per-kind table times ``contains_batch`` on 200 000 rows of every kind,
and of a cylinder over ``mesoc`` and over ``esoc`` (``KIND_CONES``), half
sampled members and half normal rows, against the same row blocks through
the per-kind slack formulas of ``tests/_reference_slacks.py``, which are
the parent commit's ``contains_batch`` before the slacks came from the
factor table of ``cones.factors``.  Seven interleaved rounds, each side
first in every other one; it exits 1 unless every result has the same
bytes.  Medians of three runs on a 2-vCPU Xeon (NumPy 2.4), then the range
of the three, in ms, factor table first:

    cone                        table  per kind   table range  per kind range
    mesoc(8, 8)                   5.7       5.2       5.3-7.7        5.1-7.3
    mesoc_dual(8, 8)              9.5       9.2      9.2-12.8       9.1-12.8
    esoc(8, 8)                    9.6       9.4      7.7-12.6       7.5-12.6
    esoc_dual(8, 8)               9.8       9.7      9.2-12.2       9.6-11.5
    monotone(16)                  5.4       5.3       5.3-7.0        5.2-6.9
    monotone_dual(16)            18.7      18.5     18.2-22.3      17.6-21.7
    monotone_nonneg(16)           5.5       5.5       5.3-7.8        5.4-7.8
    monotone_nonneg_dual(16)     16.1      16.2     15.7-16.9      15.7-16.8
    nonneg_orthant(16)            5.2       5.2       5.1-6.3        5.0-6.3
    lorentz(16)                   4.1       3.8       3.5-5.6        3.4-5.1
    cylinder(4, mesoc(6, 6))      4.4       4.3       4.3-6.0        4.3-5.7
    cylinder(4, esoc(6, 6))       6.5       6.1       6.2-6.6        6.1-7.2
    cylinder_dual(4, mesoc_dual)  12.2      13.3     11.7-12.3      12.9-13.5

Every kind stays within its run-to-run range.  The table's loop over the
factors costs about 2 µs of Python per row block of 2^16 entries (timed
on blocks of 4 rows: 8.0 against 6.4 µs for ``mesoc(8, 8)``), 0.1 ms over
the 49 blocks of a call, which shows most on the cheapest kind, lorentz.
The dual cylinder is faster: its inner slacks are copied once, not twice.
The dual kinds took 2-3x the time of their primals in both columns: their
partial sums ran ``np.cumsum`` along the rows of a block, a short loop per
row.

Since then the maps of the factor tables follow one loop rule
(``cones._by_columns``): a block with more rows than columns, such as a row
block of 4096 x 16, is worked down its columns.  The table column, medians
of three runs of the per-kind table on the parent commit and on this one,
alternating, in ms (the range of the three in brackets; the machine was
shared and noisy):

    cone                        parent               this
    mesoc(8, 8)                    9.0 (6.8-9.4)       6.9 (6.2-8.3)
    mesoc_dual(8, 8)              13.5 (11.1-13.9)     9.9 (7.6-10.4)
    esoc(8, 8)                    13.0 (12.5-14.6)    10.3 (10.1-12.3)
    esoc_dual(8, 8)               13.6 (10.3-14.9)    12.7 (12.5-14.8)
    monotone(16)                   8.1 (6.5-9.2)       7.8 (6.5-8.1)
    monotone_dual(16)             24.0 (21.1-26.9)    10.2 (9.9-12.7)
    monotone_nonneg(16)            7.2 (6.3-8.3)       6.8 (6.7-7.9)
    monotone_nonneg_dual(16)      21.6 (19.1-22.3)     9.7 (8.3-11.1)
    nonneg_orthant(16)             7.7 (6.9-8.1)       6.7 (6.4-7.9)
    lorentz(16)                    7.5 (4.2-9.3)       5.9 (4.5-6.1)
    cylinder(4, mesoc(6, 6))       7.8 (6.0-7.8)       7.9 (6.0-8.0)
    cylinder(4, esoc(6, 6))       13.1 (12.0-13.1)    11.2 (8.6-11.3)
    cylinder_dual(4, mesoc_dual)  16.8 (14.8-18.0)    10.8 (10.7-13.9)

Only the dual kinds with partial sums moved beyond the spread.  The two
kinds alone, 31 interleaved rounds of one call each in one process, gave
monotone_dual(16) 2.96x the time of monotone(16) on the parent and
1.39-1.46x here (median 11.4 against 7.9 ms): the partial sums take 15
ufunc calls down the columns where the drops take one 2-D subtract, and a
zero's -h still copies A^-T's columns into a new slack matrix.

The decompose table times ``cones.decompose`` of one sampled member of
``mesoc(p, 10)`` and of ``mesoc_dual(p, 10)`` at p = 10^3, 10^4 and 10^5
against the whole-row formulas of ``whole_row_split`` (the drops and
``np.cumsum`` of the reversed rows, or ``np.cumsum`` and ``np.diff`` with
0.0 prepended), seven interleaved rounds, and exits 1 unless the image and
the summands have their bytes.  Medians of the three runs above, in ms:

    p                 mesoc parent  this  whole row   mesoc_dual parent  this  whole row
    1000                      1.40  0.07       0.03                2.46  0.06       0.03
    10000                    26.18  0.16       0.11               25.88  0.15       0.09
    100000                  160.75  1.26       1.26              132.98  1.50       1.15

The parent ran the inverse map one column at a time (1.3-2.6 µs per
column here); a summand block has two rows, so it now runs along its rows
in one NumPy call and takes about the whole-row formulas' time.
"""

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import mesoc_kit as mk
from mesoc_kit import _kernels, cones, sampling
from mesoc_kit._kernels import isotonic_decreasing, pav_fit
from mesoc_kit.projections import project, project_batch

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
import _reference_order  # noqa: E402  (the isotonicity check before it ran in row blocks)
import _reference_slacks  # noqa: E402  (the per-kind slack formulas before the factor table)
import _reference_sampling  # noqa: E402  (the formulas before members were built in one output)
from bench_solver import large_instance  # noqa: E402  (perfbench's large_pav instance)

SIZES = [(1_000, 8), (10_000, 8), (10_000, 64), (100_000, 16)]
CASCADE = (100, 1_000)
MEMBERSHIP = (200_000, 8, 8)
NORM_TAIL = (100_000, 8, 8)
TWINS = (100_000, 6)
BLOCK_EXPONENTS = (12, 14, 15, 16, 17, 18)
ONE_ROW_SIZES = (8, 16, 32, 64, 128, 192, 256, 320, 384, 512, 1000, 2000)
ONE_ROW_NORMAL = 20
SAMPLER_ROWS = 200_000
NARROW_ROWS = 200_000
NARROW_WIDTHS = (1, 2, 3, 4, 8)
NARROW_TIE = 1.05  # a column form this much slower ties: the run-to-run spread
SHORT_ROWS = (1, 2, 8, 32, 128, 256, 320, 384, 512, 1024, 4096)
SHORT_CALLS = 2000
ISOTONE_PAIRS = 200_000
KIND_ROWS = 200_000
KIND_CONES = [
    cones.mesoc(8, 8), cones.mesoc_dual(8, 8), cones.esoc(8, 8), cones.esoc_dual(8, 8),
    cones.monotone(16), cones.monotone_dual(16), cones.monotone_nonneg(16),
    cones.monotone_nonneg_dual(16), cones.nonneg_orthant(16), cones.lorentz(16),
    cones.cylinder(4, cones.mesoc(6, 6)), cones.cylinder(4, cones.esoc(6, 6)),
    cones.cylinder_dual(4, cones.mesoc_dual(6, 6)),
]
DECOMPOSE_P = (1_000, 10_000, 100_000)
DECOMPOSE_Q = 10
SEED = 20240817
TOL = 1e-12


def nonneg_batch(V: np.ndarray) -> np.ndarray:
    """``project_batch`` onto the monotone nonnegative cone of ``V``'s width."""
    return project_batch(cones.monotone_nonneg(V.shape[1]), V)


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


def measure_twins(m: int, n: int, rounds: int = 5) -> None:
    """Time ``project_batch`` of the same ``m`` seeded normal rows onto
    lorentz(n) and onto mesoc(1, n - 1), the same cone, over ``rounds``
    interleaved calls."""
    V = np.random.default_rng(SEED).standard_normal((m, n))
    twins = (cones.lorentz(n), cones.mesoc(1, n - 1))
    seconds = {cone: [] for cone in twins}
    for _ in range(rounds):
        for cone in twins:
            seconds[cone].append(timed(project_batch, cone, V)[1])
    ms = [1e3 * statistics.median(seconds[cone]) for cone in twins]
    print(f"{'rows x dim':>22} {'lorentz':>12} {'mesoc(1, n-1)':>13}")
    print(f"{f'{m}x{n}':>22} {ms[0]:>10.2f}ms {ms[1]:>11.2f}ms")


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


def measure_isotone(rounds: int = 3) -> bool:
    """Time and trace ``check_isotone`` of the worked example map on
    ``ISOTONE_PAIRS`` pairs of ``mesoc(2, 2)`` (``perfbench``'s isotone op)
    against the whole-array check of ``tests/_reference_order.py``; whether
    the two reports have the same bytes."""
    map_, cone = mk.example_instance().map, cones.mesoc(2, 2)
    sides = {"blocks": lambda: mk.check_isotone(map_, cone, ISOTONE_PAIRS, 1),
             "whole": lambda: _reference_order.check_isotone(map_, cone, ISOTONE_PAIRS, 1)}
    seconds = {side: [] for side in sides}
    for _ in range(rounds):
        for side, run in sides.items():
            seconds[side].append(timed(run)[1])
    report, (checked, violations) = sides["blocks"](), sides["whole"]()
    same = report.checked == checked and len(report.violations) == len(violations) and all(
        a.pair.lo.tobytes() == b.pair.lo.tobytes() and a.image_diff.tobytes() == b.image_diff.tobytes()
        and a.margin == b.margin for a, b in zip(report.violations, violations))
    peak, ref_peak = (traced_peak(run) / 2**20 for run in sides.values())
    ms, ref_ms = (1e3 * statistics.median(seconds[side]) for side in sides)
    print(f"{'isotone mesoc(2, 2)':>22} {ms:>10.2f}ms {ref_ms:>10.2f}ms {peak:>10.1f} {ref_peak:>10.1f} "
          f"{2 * ISOTONE_PAIRS * 4 * 8 / 2**20:>8.1f} {'yes' if same else 'NO':>6}")
    return same


def with_narrow_max(width: int, fn, *args):
    """``fn(*args)`` with blocks of at most ``width`` columns worked down
    their columns (``cones.NARROW_MAX``); 0 works every block as a whole."""
    saved = cones.NARROW_MAX
    cones.NARROW_MAX = width
    try:
        return fn(*args)
    finally:
        cones.NARROW_MAX = saved


def with_narrow_min_rows(rows: int, fn, *args):
    """``fn(*args)`` with ``row_norms`` working blocks of two to
    ``cones.NARROW_MAX`` columns down their columns from ``rows`` rows."""
    saved = cones.NARROW_MIN_ROWS
    cones.NARROW_MIN_ROWS = rows
    try:
        return fn(*args)
    finally:
        cones.NARROW_MIN_ROWS = saved


def short_blocks(rounds: int = 7) -> int:
    """Microseconds per ``row_norms`` call on blocks of one and two columns
    and ``SHORT_ROWS`` rows, as one ``einsum`` call (``cones.NARROW_MAX``
    set to 0) and down the columns (``cones.NARROW_MIN_ROWS`` set to 0),
    each the median of ``rounds`` interleaved rounds of ``SHORT_CALLS``
    calls; returns the fewest rows from which the column form wins or ties
    (within ``NARROW_TIE``) on every longer block of two columns, the value
    for ``cones.NARROW_MIN_ROWS``."""
    rng = np.random.default_rng(SEED)
    forms = {"einsum": lambda A: with_narrow_max(0, cones.row_norms, A),
             "column": lambda A: with_narrow_min_rows(0, cones.row_norms, A)}

    def per_call(fn, A):
        t0 = time.perf_counter()
        for _ in range(SHORT_CALLS):
            fn(A)
        return (time.perf_counter() - t0) / SHORT_CALLS

    print(f"{'short blocks':>22} {'rows':>5} {'einsum us':>9} {'column us':>10} {'ratio':>6}")
    floor = None
    for w in (1, 2):
        for m in SHORT_ROWS:
            A = rng.standard_normal((m, 2 * w))[:, w:]  # a u block, as the cones pass it
            seconds = {form: [] for form in forms}
            for _ in range(rounds):
                for form, fn in forms.items():
                    seconds[form].append(per_call(fn, A))
            ein_us, col_us = (1e6 * statistics.median(seconds[form]) for form in forms)
            print(f"{f'width {w}':>22} {m:>5} {ein_us:>9.2f} {col_us:>10.2f} {col_us / ein_us:>6.2f}")
            if w == 2:
                floor = None if col_us > NARROW_TIE * ein_us else (floor or m)
    print(f"at two columns the column form wins or ties from {floor} rows; "
          f"cones.NARROW_MIN_ROWS = {cones.NARROW_MIN_ROWS}")
    return floor


def descent_2d(rows: np.ndarray) -> np.ndarray:
    """The PAV pre-pass's descent test as a 2-D comparison of each row's
    neighbours, the form before the flat one of ``_kernels._pool``."""
    opens = np.empty(rows.shape, dtype=bool)
    opens[:, 0] = True
    opens[:, 1:] = rows[:, 1:] < rows[:, :-1]
    return opens.reshape(-1)


def descent_flat(rows: np.ndarray) -> np.ndarray:
    """``_kernels._pool``'s descent test: one comparison over the flat rows,
    then the row starts."""
    flat = rows.reshape(-1)
    opens = np.empty(flat.size, dtype=bool)
    if rows.shape[1] > 1:
        np.less(flat[1:], flat[:-1], out=opens[1:])
    opens[:: rows.shape[1]] = True
    return opens


def stacked_field_values(map_, Z: np.ndarray) -> np.ndarray:
    """``ScalarComboMap.field_values`` as it was: one column per field,
    joined by ``np.stack``."""
    X, U = Z[:, : map_.p], Z[:, map_.p :]
    norms = cones.row_norms(U)
    return np.stack([X @ f.linear + f.norm_coeff * norms + f.offset for f in map_.fields], axis=1)


def narrow_sites(w: int) -> list:
    """``(label, gated, run)`` for every site that works a narrow block down
    its columns, on ``NARROW_ROWS`` rows and blocks ``w`` wide: ``run(column)``
    runs the site once in its column form or its 2-D form, and ``gated``
    says whether ``cones.NARROW_MAX`` picks the form."""
    rng = np.random.default_rng(SEED)
    out = np.empty((NARROW_ROWS, 2 * w))  # the x and u blocks of one output
    x, u = out[:, :w], out[:, w:]
    draw = rng.standard_normal((NARROW_ROWS, w))
    v = rng.uniform(0.2, 2.5, NARROW_ROWS)
    fields = tuple(mk.ScalarField([1.0, -0.5], 0.1, 0.5 * k) for k in range(w))
    combo = mk.ScalarComboMap(p=2, q=2, fields=fields, directions=np.ones((w, 4)))
    Z = rng.standard_normal((NARROW_ROWS, 4))
    gated = [
        ("x += nu", lambda: cones._by_rows(np.add, x, v, x)),
        ("block copy", lambda: sampling._put(u, draw)),
        ("unit rows", lambda: sampling._unit_rows(draw)),
        ("radii into u", lambda: cones._by_rows(np.multiply, draw, v, u)),
        ("row_norms", lambda: cones.row_norms(u)),
    ]
    sites = [(label, True, lambda column, f=f: with_narrow_max(w if column else 0, f))
             for label, f in gated]
    sites.append(("pre-pass", False, lambda column: (descent_flat if column else descent_2d)(draw)))
    sites.append(("field values", False, lambda column: combo.field_values(Z) if column
                  else stacked_field_values(combo, Z)))
    return sites


def narrow_blocks(rounds: int = 7) -> int:
    """Median ms per call of every narrow-block site in its 2-D form and its
    column form at each width of ``NARROW_WIDTHS``, over ``rounds``
    interleaved rounds; returns the widest width up to which the column form
    is at most ``NARROW_TIE`` times slower at every gated site, the value
    for ``cones.NARROW_MAX``.  (At width 1 the two forms make the same
    calls, so there they tie within the run-to-run spread.)"""
    print(f"{'narrow blocks':>22} {'width':>5} {'2-D ms':>9} {'column ms':>10} {'ratio':>6}")
    widest, beaten = 0, False
    for w in NARROW_WIDTHS:
        sites = narrow_sites(w)
        seconds = {(label, column): [] for label, _, _ in sites for column in (False, True)}
        for _ in range(rounds):
            for label, _, run in sites:
                for column in (False, True):
                    seconds[label, column].append(timed(run, column)[1])
        for label, gated, _ in sites:
            flat_ms, col_ms = (1e3 * statistics.median(seconds[label, c]) for c in (False, True))
            print(f"{label:>22} {w:>5} {flat_ms:>9.3f} {col_ms:>10.3f} {col_ms / flat_ms:>6.2f}")
            beaten = beaten or (gated and col_ms > NARROW_TIE * flat_ms)
        if not beaten:
            widest = w
    print(f"the column form wins or ties every gated site up to width {widest}; "
          f"cones.NARROW_MAX = {cones.NARROW_MAX}")
    return widest


def block_sizes(rounds: int = 5) -> None:
    """Median time per block size at the two largest PAV shapes and the
    membership shape, over ``rounds`` rounds that each time every size once."""
    rng = np.random.default_rng(SEED)
    cases = [(f"pav {n}x{d}", nonneg_batch, rng.standard_normal((n, d)))
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


def with_passes_min(entries: int, fn, *args):
    """``fn(*args)`` with :func:`pav_fit` switching to the passes at ``entries``."""
    saved = _kernels.PASSES_MIN
    _kernels.PASSES_MIN = entries
    try:
        return fn(*args)
    finally:
        _kernels.PASSES_MIN = saved


def large_pav_steps(seed: int = 1) -> list[np.ndarray]:
    """The inner-cone inputs of every step of ``perfbench``'s ``large_pav``
    solve for ``seed``: u - H(z) of length 1000, one per iterate."""
    instance = large_instance(seed)
    _, trace = mk.picard_solve(instance)
    p = instance.map.p
    return [instance.map.update(z)[p:] for z in trace.iterates[:-1]]


def one_row(rounds: int = 7) -> bool:
    """Microseconds per :func:`pav_fit` call through the sweep and through the
    passes, on normal rows and on the first n entries of the ``large_pav``
    step inputs, at every n of ``ONE_ROW_SIZES``; whether every pair of fits
    agrees within ``TOL`` relative."""
    rng = np.random.default_rng(SEED)
    steps = large_pav_steps()
    sets = {"normal": lambda n: list(rng.standard_normal((ONE_ROW_NORMAL, n))),
            "large_pav": lambda n: [v[:n] for v in steps] if n <= steps[0].size else None}
    print(f"{'one row':>22} {'n':>5} {'rows':>5} {'sweep us':>9} {'passes us':>10} {'ratio':>6} "
          f"{'worst diff':>10}")
    agree = True
    for label, draw in sets.items():
        for n in ONE_ROW_SIZES:
            rows = draw(n)
            if rows is None:
                continue
            seconds = {"sweep": [], "passes": []}
            for _ in range(rounds):
                for side, entries in (("sweep", n + 1), ("passes", 0)):
                    t0 = time.perf_counter()
                    with_passes_min(entries, lambda: [pav_fit(v) for v in rows])
                    seconds[side].append((time.perf_counter() - t0) / len(rows))
            worst = max(
                float(np.abs(with_passes_min(n + 1, pav_fit, v)[0] - with_passes_min(0, pav_fit, v)[0]).max()
                      / (1.0 + np.abs(v).max()))
                for v in rows
            )
            agree = agree and worst <= TOL
            sweep_us, passes_us = (1e6 * statistics.median(seconds[side]) for side in seconds)
            print(f"{label:>22} {n:>5} {len(rows):>5} {sweep_us:>9.1f} {passes_us:>10.1f} "
                  f"{passes_us / sweep_us:>6.2f} {worst:>10.2e}")
    return agree


def per_kind(rounds: int = 7) -> bool:
    """Time ``contains_batch`` on ``KIND_ROWS`` rows of every cone of
    ``KIND_CONES``, half sampled members and half normal rows, against the
    same row blocks through the per-kind slack formulas of
    ``tests/_reference_slacks.py`` (the parent's ``contains_batch``), in
    ``rounds`` interleaved rounds; whether every result has the same bytes."""
    print(f"{'cone':>44} {'table':>10} {'per kind':>10} {'bytes':>6}")
    same = True
    for cone in KIND_CONES:
        rng = np.random.default_rng(SEED)
        Z = rng.standard_normal((KIND_ROWS, cone.dim))
        Z[::2] = sampling.sample(cone, rng, KIND_ROWS // 2)

        def per_kind_contains(Z):
            return cones.by_row_blocks(
                lambda B: cones.least_slack(_reference_slacks.slacks_batch(cone, B)) >= -TOL,
                Z, np.empty(len(Z), dtype=bool))

        sides = {"table": lambda: cones.contains_batch(cone, Z, TOL),
                 "per kind": lambda: per_kind_contains(Z)}
        seconds, outs = {side: [] for side in sides}, {}
        for r in range(rounds):  # each side runs first in every other round
            for side in sorted(sides, reverse=r % 2 == 1):
                outs[side], s = timed(sides[side])
                seconds[side].append(s)
        ok = outs["table"].tobytes() == outs["per kind"].tobytes()
        same = same and ok
        ms = [1e3 * statistics.median(seconds[side]) for side in sides]
        print(f"{str(cone):>44} {ms[0]:>8.2f}ms {ms[1]:>8.2f}ms {'yes' if ok else 'NO':>6}")
    return same


def whole_row_split(cone, z: np.ndarray):
    """The image and summands of ``decompose(cone, z)`` for ``mesoc`` or
    ``mesoc_dual``, by whole-row formulas: the drops and ``np.cumsum`` of the
    reversed rows, or ``np.cumsum`` and ``np.diff`` with 0.0 prepended."""
    p = cone.p
    x = z[:p]
    if cone.kind == cones.MESOC:
        head = np.append(x[:-1] - x[1:], x[-1])
        back = lambda S: np.cumsum(S[:, ::-1], axis=1)[:, ::-1]  # noqa: E731
    else:
        head = np.cumsum(x)
        back = lambda S: np.diff(S, axis=1, prepend=0.0)  # noqa: E731
    image = np.concatenate([head, z[p:]])
    summands = np.zeros((2, z.size))
    summands[0, : p - 1] = image[: p - 1]  # the rays, then the Lorentz factor
    summands[1, p - 1 :] = image[p - 1 :]
    summands[:, :p] = back(summands[:, :p])
    return image, summands


def decompose_table(rounds: int = 7) -> bool:
    """Time ``decompose`` of one sampled member of ``mesoc(p, DECOMPOSE_Q)``
    and of ``mesoc_dual`` at every p of ``DECOMPOSE_P``, against
    :func:`whole_row_split`, in ``rounds`` interleaved rounds; whether every
    image and summand has the bytes of the whole-row formulas."""
    print(f"{'decompose':>44} {'kit':>10} {'whole row':>10} {'bytes':>6}")
    same = True
    for p in DECOMPOSE_P:
        for cone in (cones.mesoc(p, DECOMPOSE_Q), cones.mesoc_dual(p, DECOMPOSE_Q)):
            z = sampling.sample(cone, np.random.default_rng(SEED), 1)[0]
            sides = {"kit": lambda: cones.decompose(cone, z),
                     "whole row": lambda: whole_row_split(cone, z)}
            seconds, outs = {side: [] for side in sides}, {}
            for r in range(rounds):  # each side runs first in every other round
                for side in sorted(sides, reverse=r % 2 == 1):
                    outs[side], s = timed(sides[side])
                    seconds[side].append(s)
            dec, (image, summands) = outs["kit"], outs["whole row"]
            ok = (dec.image.tobytes() == image.tobytes()
                  and dec.summands.tobytes() == summands.tobytes())
            same = same and ok
            ms = [1e3 * statistics.median(seconds[side]) for side in sides]
            print(f"{str(cone):>44} {ms[0]:>8.2f}ms {ms[1]:>8.2f}ms {'yes' if ok else 'NO':>6}")
    return same


def main() -> int:
    nonneg_batch(np.zeros((2, 2)))  # warm the call path
    print(f"{'rows x dim':>22} {'batch':>12} {'one block':>12} {'row sweep':>12} "
          f"{'worst diff':>10} {'bytes':>6}")

    def sweep(v):
        return np.maximum(isotonic_decreasing(v)[0], 0.0)

    results = []
    for n, dim in SIZES:
        V = np.random.default_rng(SEED).standard_normal((n, dim))
        results.append(measure(f"{n}x{dim}", nonneg_batch, V, sweep))
    m, n = CASCADE
    results.append(measure(f"cascade {m}x{n}", nonneg_batch, cascade(m, n), sweep))
    m, p, q = NORM_TAIL
    tail_cone = cones.mesoc(p, q)
    V = np.random.default_rng(SEED).standard_normal((m, p + q))
    results.append(measure(f"mesoc({p}, {q}) {m}", lambda V: project_batch(tail_cone, V), V,
                           lambda v: project(tail_cone, v).point))
    print(f"{'rows x dim':>22} {'batch':>12} {'one block':>12} {'reference':>12} "
          f"{'disagree':>10} {'bytes':>6}")
    wrong, membership_same = measure_membership(*MEMBERSHIP)
    measure_twins(*TWINS)
    samplers_same = measure_samplers() and measure_isotone()
    narrow_blocks()
    short_blocks()
    block_sizes()
    one_row_agrees = one_row()
    kinds_same = per_kind()
    decompose_same = decompose_table()
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
    if not one_row_agrees:
        print(f"pav_fit through the passes disagrees with the sweep by more than {TOL:.0e}")
        status = 1
    if not kinds_same:
        print("contains_batch differs in its bytes from the per-kind slack formulas")
        status = 1
    if not decompose_same:
        print("decompose differs in its bytes from the whole-row formulas")
        status = 1
    if not samplers_same:
        print("a sampler differs in its bytes or generator state from the reference formulas")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
