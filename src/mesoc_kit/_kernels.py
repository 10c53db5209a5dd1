"""Pool-adjacent-violators (PAV) fits by a nonincreasing vector.

PAV starts from singleton blocks and repeatedly pools two adjacent blocks
whose means violate the order (a later mean >= an earlier one), replacing
both by their exact mean.  The fit it ends with does not depend on the order
in which violators are pooled (Best & Chakravarti, Math. Programming 47,
1990), so two forms are used:

* :func:`isotonic_decreasing` fits one vector with the classic left-to-right
  stack sweep and also returns the blocks.  The solver calls it once per
  step; on short vectors the loop is faster than the batch form's per-pass
  NumPy overhead.  The sweep reads the input once into Python floats and
  keeps its block means and counts in lists: indexing NumPy arrays one
  scalar at a time boxes a NumPy scalar on every access, which made the
  same loop about 6x slower at n = 1000 (2.9 ms against 0.5 ms) and 2.6x
  slower at n = 8 (one core of a 2-vCPU Xeon, NumPy 2.4).  It is also the
  reference the batch form is tested against.
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
    """Least-squares fit of the 1-D float array ``y`` by a nonincreasing vector.

    Pool-adjacent-violators with a single left-to-right sweep: adjacent blocks
    are merged (replacing both with their exact mean) whenever a later block
    mean is >= an earlier one.  Returns ``(fit, block_starts, block_lengths)``,
    the last two as int64 arrays.
    """
    means = []
    counts = []
    for v in y.tolist():
        c = 1
        while means and means[-1] <= v:
            m = means.pop()
            total = counts.pop() + c
            v = m + c * (v - m) / total
            c = total
        means.append(v)
        counts.append(c)
    lengths = np.array(counts, dtype=np.int64)
    return np.array(means).repeat(lengths), lengths.cumsum() - lengths, lengths


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
