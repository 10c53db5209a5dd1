"""Pool-adjacent-violators (PAV) fits by a nonincreasing vector.

PAV starts from singleton blocks and repeatedly pools two adjacent blocks
whose means violate the order (a later mean >= an earlier one), replacing
both by their exact mean.  The fit it ends with does not depend on the order
in which violators are pooled (Best & Chakravarti, Math. Programming 47,
1990), so two forms are used, and a single vector may take either:

* :func:`pav_sweep` fits one vector with the classic left-to-right stack
  sweep and returns the block means and lengths as lists;
  :func:`isotonic_decreasing` turns them into the fit and int64 block starts
  and lengths.  The projections reach the sweep through :func:`pav_fit`,
  once per solver step, and expand only the fit: at n = 8 the int64 arrays
  and the ``cumsum`` of the starts took about 2 us, as long as the sweep
  itself.  The sweep reads the input once into Python floats and keeps
  its block means and counts in lists: indexing NumPy arrays one
  scalar at a time boxes a NumPy scalar on every access, which made the
  same loop about 6x slower at n = 1000 (2.9 ms against 0.5 ms) and 2.6x
  slower at n = 8 (one core of a 2-vCPU Xeon, NumPy 2.4).  It is also the
  reference the batch form is tested against.
* :func:`isotonic_decreasing_batch` fits every row of a matrix at once.
  Ties and ascents are pooled before the first pass, which sums each block
  of entries once; from then on a block is one entry holding its sum and
  its count, and ``starts`` holds the index of each row's first block.
  The pre-pass finds the descents with one comparison over the flat
  row-major entries and then marks every row start, which overwrites the
  comparison of a row's first entry with the last entry of the row before
  (NaN, an infinity or a signed zero there included): 0.02 ms against
  0.12 ms for the comparison of each row's neighbours on a 4096 x 16
  block, on which NumPy's 2-D inner loop runs once per row.
  Each pass pools every violating adjacent pair of blocks in every row with
  whole-array NumPy operations.  A pair whose later block opens a row is
  cleared at ``starts[1:] - 1``; the blocks are labelled with the surviving
  block they pool into, two ``np.bincount`` calls over the labels give the
  pooled sums and counts, and ``starts`` follows its blocks through the
  labels.  The labels are an ``intp`` ``cumsum``: over a bool array
  ``np.cumsum`` casts entry by entry, about 10 ns each.  So a pass costs the
  number of blocks left, not the number of entries, and the means are
  expanded to the rows once, at the end.
  :func:`~mesoc_kit.projections.project_batch` calls it once per row block
  of about 2**16 entries (``cones.BLOCK_ENTRIES``), whose arrays stay in a
  core's L2 cache: a block of 4096 normal rows of 16 keeps about 35k
  blocks on the first pass, then 21k, 15k, 14k, and 100000 such rows in one
  call keep 850k, 510k, 380k, 340k.  Most rows are done after two passes
  and are still scanned: a bit-identical prototype that took them out of
  later passes, eagerly or once half were done, ran 1.2-2.6x slower at
  every shape of ``benchmarks/bench_kernels.py``.
  ``np.bincount`` adds each label's weights left to right, so a pooled sum
  does not depend on how the rows are split into blocks.
  ``np.add.reduceat`` over the surviving blocks would pool the same way but
  sums runs longer than 8 pairwise, which changes the last bits, and it was
  slower too: 1.3x on random rows and 1.7x on the cascade row below
  (2-vCPU Xeon, NumPy 2.4).  A row of n entries can be pooled at most
  n - 1 times, and each pass pools at least once in every row that still
  has a violator, so the loop ends after at most n - 1 passes.
  Random rows take 5-10; the cascade row ``[n-2, ..., 1, 0, n**2]`` takes
  all n - 1, pooling one pair per pass.

:func:`pav_fit`, the single-vector fit of the projections, picks the form by
length.  The sweep pays one interpreted loop turn per entry; the passes
(:func:`_pool`, the loop behind the batch form, run on the vector as one
row) pay a fixed NumPy cost of 20-40 us for the pre-pass and a few passes,
then little per block.  Below :data:`PASSES_MIN` = 320 entries it runs the
sweep, so shorter vectors keep their bytes and their cost; from 320 entries
on, the passes.  The one-row table of ``benchmarks/bench_kernels.py`` sets
the constant.  Passes time over sweep time, medians of three runs on a
2-vCPU Xeon (NumPy 2.4), at n = 128, 192, 256, 320 and 1000: 1.69, 1.35,
1.08, 0.88 and 0.43 on normal rows; 1.71, 1.44, 1.00, 0.89 and 0.43 on the
first n entries of the step inputs of ``perfbench``'s ``large_pav`` solve,
whose 1000 entries the passes fit in about 0.19 ms against 0.44 ms.  So the
passes break even at 256 and win on both kinds of row from 320 on.  The
two forms sum a pooled block in another order, so from the constant on a
fit agrees with the sweep's to about 1e-12 relative rather than in its
bytes.
"""

import math

import numpy as np

# perfbench records this in its environment report; numba is not used.
HAS_NUMBA = False

# pav_fit's length rule: the sweep below this many entries, the passes from
# here on (the one-row table of benchmarks/bench_kernels.py)
PASSES_MIN = 320


def pav_sweep(values):
    """Pool-adjacent-violators sweep over the Python floats ``values``.

    Adjacent blocks are merged, replacing both with their exact mean,
    whenever a later block mean is >= an earlier one.  Returns the block
    means and block lengths as two lists; this loop is the only place the
    single-vector fit is computed.
    """
    means = []
    counts = []
    for v in values:
        c = 1
        while means and means[-1] <= v:
            m = means.pop()
            total = counts.pop() + c
            v = m + c * (v - m) / total
            c = total
        means.append(v)
        counts.append(c)
    return means, counts


def isotonic_decreasing(y):
    """Least-squares fit of the 1-D float array ``y`` by a nonincreasing vector.

    Runs :func:`pav_sweep` and returns ``(fit, block_starts, block_lengths)``,
    the last two as int64 arrays.
    """
    means, counts = pav_sweep(y.tolist())
    lengths = np.array(counts, dtype=np.int64)
    return np.array(means).repeat(lengths), lengths.cumsum() - lengths, lengths


def pav_fit(v, nonneg=False):
    """The isotonic fit of the 1-D float array ``v`` and its block lengths.

    Returns ``(fit, counts)``: the fit as a float array and the lengths of
    its constant blocks, a list of ints from the sweep or an ``intp`` array
    from the passes.  Below :data:`PASSES_MIN` entries the fit is the sweep's
    (:func:`pav_sweep`); from there on it is the passes' of
    :func:`isotonic_decreasing_batch` on ``v`` as one row, which agrees with
    the sweep to about 1e-12 relative.  Raises ``OverflowError`` when the
    values are finite and a mean is not: the sweep shows that as a first
    mean of +inf, the passes, whose pooled sums can overflow either way and
    then meet as inf - inf, as any non-finite mean.

    With ``nonneg`` the fit is clipped at 0, bit for bit
    ``np.maximum(fit, 0.0)`` (-0.0 becomes +0.0, a NaN is kept): the block
    means are clipped before they are expanded, the sweep's in Python, and
    a fit in which no block pooled is not expanded at all.  The norm tail
    of the projections fits this way.
    """
    if v.size < PASSES_MIN:
        means, counts = pav_sweep(v.tolist())
        # the sweep pools a block into the one before it only when its mean
        # is not lower, so from finite values a pooled difference overflows
        # to +inf alone, and +inf then pools into the first block
        if means[0] == math.inf and np.isfinite(v).all():
            raise OverflowError("a pooled mean of finite values overflowed")
        if nonneg:
            # m != m keeps a NaN, as np.maximum does
            means = [m if m > 0.0 or m != m else 0.0 for m in means]
        if len(means) == v.size:
            return np.array(means), counts
        return np.array(means).repeat(counts), counts
    means, counts = _pool(v.reshape(1, -1))
    if not np.isfinite(means).all() and np.isfinite(v).all():
        raise OverflowError("a pooled sum of finite values overflowed")
    if nonneg:
        np.maximum(means, 0.0, out=means)
    counts = counts.astype(np.intp)
    return means.repeat(counts), counts


def isotonic_decreasing_batch(rows, nonneg=False):
    """Row-wise :func:`isotonic_decreasing` without block bookkeeping.

    A pooled block's sum is the sum of its parts' sums, so each entry of
    ``rows`` is read once.  That sums the block's entries in another order,
    with the same error bound, (n - 1) eps times the sum of their absolute
    values.  Pooling never crosses a row start, so a non-finite entry
    changes only the fit of its own row.

    With ``nonneg`` the fit is clipped at 0 as :func:`pav_fit` clips it,
    bit for bit ``np.maximum(fit, 0.0)``: on the block means, before they
    are expanded, which spares a pass over the fit and its copy.
    """
    m, n = rows.shape
    if rows.size == 0:
        return np.empty_like(rows)
    means, counts = _pool(rows)
    if nonneg:
        np.maximum(means, 0.0, out=means)
    return np.repeat(means, counts.astype(np.intp)).reshape(m, n)


def _pool(rows):
    """The block means and block lengths of every row of the nonempty 2-D
    ``rows``, row after row: the passes of the batch form.  The lengths
    are integers held as floats once a pass has pooled."""
    n = rows.shape[1]
    # An entry below the one before it opens a block, and so does every row
    # start; ties and ascents pool into the block before them.  One 1-D
    # comparison runs over the flat rows, and the row starts overwrite what
    # it found where a row's first entry met the last of the row before: a
    # 2-D comparison of each row's neighbours pays NumPy's inner loop per
    # row, which made it about 7x slower on a 4096 x 16 block.
    flat = rows.reshape(-1)
    opens = np.empty(flat.size, dtype=bool)
    if n > 1:
        np.less(flat[1:], flat[:-1], out=opens[1:])
    opens[::n] = True
    # an int cumsum: over a bool array np.cumsum casts entry by entry
    labels = opens.astype(np.intp).cumsum() - 1
    sums = np.bincount(labels, weights=flat)
    counts = np.bincount(labels)
    # the index of each row's first block; a block never pools into the one
    # before it when it opens a row
    starts = labels[::n]
    while True:
        means = sums / counts
        # a later mean >= an earlier one is pooled unless it opens a row;
        # NaN compares false, so a block holding one is never pooled
        pool = means[1:] >= means[:-1]
        pool[starts[1:] - 1] = False
        if not pool.any():
            return means, counts
        keep = np.empty(sums.size, dtype=bool)
        keep[0] = True
        np.logical_not(pool, out=keep[1:])
        # each block's label is the surviving block it pools into
        labels = keep.astype(np.intp).cumsum() - 1
        sums = np.bincount(labels, weights=sums)
        counts = np.bincount(labels, weights=counts)
        starts = labels[starts]
