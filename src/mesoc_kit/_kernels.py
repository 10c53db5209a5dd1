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
* :func:`isotonic_decreasing_batch` fits every row of a matrix at once.
  Ties and ascents are pooled before the first pass, which sums each block
  of entries once; from then on a block is one entry holding its sum, its
  count and whether it opens a row.  Each pass pools every violating
  adjacent pair of blocks in every row with whole-array NumPy operations:
  the blocks are labelled with the surviving block they pool into, and two
  ``np.bincount`` calls over the labels give the pooled sums and counts.  So
  a pass costs the number of blocks left, not the number of entries: at
  100000 x 16 normal rows about 850k blocks on the first pass, then 510k,
  380k, 340k.  The means are expanded to the rows once, at the end.
  ``np.add.reduceat`` over the surviving blocks pools the same way with a
  per-block overhead: about 1.3x slower on random rows and 1.7x on the
  cascade row below (2-vCPU Xeon, NumPy 2.4).  A row of n entries can be
  pooled at most n - 1 times, and each pass pools at least once in every
  row that still has a violator, so the loop ends after at most n - 1
  passes.
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

    A pooled block's sum is the sum of its parts' sums, so each entry of
    ``rows`` is read once.  That sums the block's entries in another order,
    with the same error bound, (n - 1) eps times the sum of their absolute
    values.  Pooling never crosses a row start, so a non-finite entry
    changes only the fit of its own row.
    """
    m, n = rows.shape
    if rows.size == 0:
        return np.empty_like(rows)
    # An entry below the one before it opens a block, and so does every row
    # start; ties and ascents pool into the block before them.
    opens = np.empty((m, n), dtype=bool)
    opens[:, 0] = True
    opens[:, 1:] = rows[:, 1:] < rows[:, :-1]
    labels = np.cumsum(opens) - 1
    sums = np.bincount(labels, weights=rows.reshape(-1))
    counts = np.bincount(labels)
    opens_row = np.zeros(sums.size, dtype=bool)
    opens_row[labels[::n]] = True
    while True:
        means = sums / counts
        # a later mean >= an earlier one is pooled unless it opens a row;
        # NaN compares false, so a block holding one is never pooled
        pool = means[1:] >= means[:-1]
        pool &= ~opens_row[1:]
        if not pool.any():
            return np.repeat(means, counts.astype(np.intp)).reshape(m, n)
        keep = np.empty(sums.size, dtype=bool)
        keep[0] = True
        np.logical_not(pool, out=keep[1:])
        # each block's label is the surviving block it pools into
        labels = np.cumsum(keep) - 1
        sums = np.bincount(labels, weights=sums)
        counts = np.bincount(labels, weights=counts)
        opens_row = opens_row[keep]
