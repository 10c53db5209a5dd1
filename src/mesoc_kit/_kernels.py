"""Pool-adjacent-violators (PAV) fits by a nonincreasing vector.

PAV starts from singleton blocks and repeatedly pools two adjacent blocks
whose means violate the order (a later mean >= an earlier one), replacing
both by their exact mean.  The fit it ends with does not depend on the order
in which violators are pooled (Best & Chakravarti, Math. Programming 47,
1990), so two forms are used:

* :func:`isotonic_decreasing` fits one vector with the classic left-to-right
  stack sweep and also returns the blocks.  The solver calls it once per
  step; on short vectors the loop is faster than the batch form's per-pass
  NumPy overhead.  It is also the reference the batch form is tested
  against.
* :func:`isotonic_decreasing_batch` fits every row of a matrix at once: each
  pass pools every violating adjacent pair in every row with whole-array
  NumPy operations.  A row of n entries can be pooled at most n - 1 times.
  Ties and ascents are pooled before the first pass, and each pass pools at
  least once in every row that still has a violator, so the loop ends after
  at most n - 1 passes.
  Random rows take 5-10; the cascade row ``[n-2, ..., 1, 0, n**2]`` takes
  all n - 1, pooling one pair per pass.
"""

import numpy as np

# perfbench records this in its environment report; numba is not used.
HAS_NUMBA = False


def isotonic_decreasing(y):
    """Least-squares fit of ``y`` by a nonincreasing vector.

    Pool-adjacent-violators with a single left-to-right sweep: adjacent blocks
    are merged (replacing both with their exact mean) whenever a later block
    mean is >= an earlier one.  Returns ``(fit, block_starts, block_lengths)``.
    """
    n = y.shape[0]
    means = np.empty(n)
    counts = np.empty(n, np.int64)
    starts = np.empty(n, np.int64)
    k = -1
    for j in range(n):
        k += 1
        means[k] = y[j]
        counts[k] = 1
        starts[k] = j
        while k > 0 and means[k - 1] <= means[k]:
            total = counts[k - 1] + counts[k]
            means[k - 1] += counts[k] * (means[k] - means[k - 1]) / total
            counts[k - 1] = total
            k -= 1
    out = np.empty(n)
    for b in range(k + 1):
        lo = starts[b]
        hi = lo + counts[b]
        for j in range(lo, hi):
            out[j] = means[b]
    return out, starts[: k + 1].copy(), counts[: k + 1].copy()


def isotonic_decreasing_batch(rows):
    """Row-wise :func:`isotonic_decreasing` without block bookkeeping.

    Block means are summed from ``rows`` afresh on every pass, so rounding
    does not build up across passes.  Pooling never crosses a row start, so a
    non-finite entry changes only the fit of its own row.
    """
    m, n = rows.shape
    if rows.size == 0:
        return np.empty_like(rows)
    flat = rows.reshape(-1)
    # Block starts over the flattened rows: 2 opens a row and is never pooled
    # into the end of the row before it, 1 opens any other block, 0 extends
    # the current one.
    start = np.empty((m, n), dtype=np.int8)
    start[:, 0] = 2
    start[:, 1:] = rows[:, 1:] < rows[:, :-1]
    start = start.reshape(-1)
    while True:
        firsts = np.flatnonzero(start)
        counts = np.diff(firsts, append=flat.size)
        means = np.add.reduceat(flat, firsts) / counts
        pool = (means[1:] >= means[:-1]) & (start[firsts[1:]] == 1)
        if not pool.any():
            return np.repeat(means, counts).reshape(m, n)
        start[firsts[1:][pool]] = 0
