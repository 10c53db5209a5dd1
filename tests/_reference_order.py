"""Reference isotonicity check: every intermediate built as a whole array.

This is how ``mesoc_kit.order.check_isotone`` worked before it built the
images, their differences and the slacks per row block: both images of all
pairs, then all differences, then one slack matrix.  The blocked check must
report the same pairs with the same bytes.
"""

import numpy as np

from mesoc_kit import sampling
from mesoc_kit.cones import _as_vector, _slacks_batch, dual_of, least_slack
from mesoc_kit.order import IsotonicityViolation, OrderedPairSample, _evaluate


def check_isotone(map_, cone, n_samples, seed, tol=1e-10, extra_pairs=(), scale=1.0):
    """The checked count and the violations, as ``check_isotone`` reports them."""
    rng = sampling.rng_from_seed(seed)
    lo, hi = sampling.sample_ordered_pairs(cone, rng, n_samples, scale=scale)
    if extra_pairs:
        lo = np.vstack([[_as_vector(p.lo, cone.dim) for p in extra_pairs], lo])
        hi = np.vstack([[_as_vector(p.hi, cone.dim) for p in extra_pairs], hi])
    diffs = _evaluate(map_, hi) - _evaluate(map_, lo)
    slacks = _slacks_batch(cone, diffs)
    violations = []
    for i in np.flatnonzero(~(least_slack(slacks) >= -tol)):
        j = int(np.argmin(slacks[i]))
        violations.append(
            IsotonicityViolation(
                pair=OrderedPairSample(lo[i], hi[i]),
                image_diff=diffs[i],
                failed_inequality=j,
                margin=float(slacks[i, j]),
            )
        )
    return len(lo), violations


def hyperplane_margins(cone, normal, n_samples, seed):
    """<x, y> - <a, x><a, y> over sampled x in K and y in K*: the sampled
    hyperplane test that ``check_isotone`` on z - <a, z>a replaced."""
    rng = sampling.rng_from_seed(seed)
    X = sampling.sample(cone, rng, n_samples)
    Y = sampling.sample(dual_of(cone), rng, n_samples)
    a = np.asarray(normal, dtype=float)
    return np.einsum("ij,ij->i", X, Y) - (X @ a) * (Y @ a)
