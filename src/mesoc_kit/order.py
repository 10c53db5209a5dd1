"""Cone-induced partial orders and sampled isotonicity checks.

A map F is isotone for the order of a cone K when a <=_K b implies
F(a) <=_K F(b); the checks here falsify that statement on seeded random
ordered pairs (plus any caller-supplied pairs) and report every violating
pair together with the first inequality that failed.

:func:`check_isotone` samples all pairs at once and then works through the
row blocks of :func:`~mesoc_kit.cones.row_blocks`, about
``cones.BLOCK_ENTRIES`` entries each.  A block's two images, their
difference and its slack matrix stay in a core's L2 cache, and only the
violating rows are kept.  On 200000 pairs of ``mesoc(2, 2)`` with the
worked example map the images and slacks took 20-25 ms as whole arrays and
take 7-9 ms in blocks (2-vCPU Xeon, NumPy 2.4), and the traced peak of the
call falls from 35.3 MiB to the sampler's own, 18.8 MiB
(``benchmarks/bench_kernels.py``; ``tests/_reference_order.py`` keeps the
whole-array check, whose reports have the same bytes).
"""

from __future__ import annotations

import math

import numpy as np

from . import cones, sampling
from ._record import record
from .cones import (
    DEFAULT_TOL, ConeSpec, _as_vector, _slacks_batch, check_tol, contains, least_slack,
)
from .errors import DimensionError


@record
class OrderedPairSample:
    """A pair with lo <=_K hi, i.e. hi - lo in the ordering cone."""

    lo: np.ndarray
    hi: np.ndarray


@record
class IsotonicityViolation:
    pair: OrderedPairSample
    image_diff: np.ndarray
    failed_inequality: int
    margin: float


@record
class IsotonicityReport:
    cone: ConeSpec
    checked: int
    violations: tuple[IsotonicityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def cone_leq(cone: ConeSpec, a, b, tol: float = DEFAULT_TOL) -> bool:
    """True when a <=_K b, i.e. ``b - a`` is in the cone."""
    return contains(cone, _as_vector(b, cone.dim) - _as_vector(a, cone.dim), tol)


def _evaluate(map_, Z: np.ndarray) -> np.ndarray:
    """Evaluate a candidate-isotone map on the rows of Z.

    Structured maps are checked through their unprojected fixed-point update
    z - F(z), on all rows of Z in one call; plain callables are called on
    each row in turn, whether or not they broadcast.
    """
    update = getattr(map_, "update_batch", None)
    if update is not None:
        return update(Z)
    return np.array([np.asarray(map_(z), dtype=float).ravel() for z in Z])


def check_isotone(
    map_,
    cone: ConeSpec,
    n_samples: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    extra_pairs: tuple[OrderedPairSample, ...] = (),
    scale: float = 1.0,
) -> IsotonicityReport:
    """Falsification check: does lo <=_K hi imply map(lo) <=_K map(hi)?

    ``map_`` is either a structured map (checked through its update
    z - F(z)) or a callable on full-length vectors.  ``extra_pairs`` are
    checked first and count toward ``checked``.  A pair whose image
    difference has a NaN slack counts as a violation.  With no pair to check
    (``n_samples`` 0 and no ``extra_pairs``) it raises ``ValueError``: an
    empty report would pass vacuously.  So does a negative ``n_samples``,
    and a ``scale`` of the sampled points that is not finite and positive:
    with NaN or inf every image difference is NaN and every pair a false
    violation.

    The images, their differences and the slacks are built per row block
    (see the module docstring), and an overflow among them raises no NumPy
    warning; every report has the bytes of the one that whole arrays give.
    """
    check_tol(tol)
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    if n_samples == 0 and not extra_pairs:
        raise ValueError("nothing to check: n_samples is 0 and there are no extra_pairs")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if hasattr(map_, "update_batch") and map_.p + map_.q != cone.dim:
        raise DimensionError(
            f"map dimension {map_.p + map_.q} does not match the cone dimension {cone.dim}"
        )
    rng = sampling.rng_from_seed(seed)
    lo, hi = sampling.sample_ordered_pairs(cone, rng, n_samples, scale=scale)
    if extra_pairs:
        lo = np.vstack([[_as_vector(p.lo, cone.dim) for p in extra_pairs], lo])
        hi = np.vstack([[_as_vector(p.hi, cone.dim) for p in extra_pairs], hi])
    violations, table = [], cones.factors(cone)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a violation
        for start, stop in cones.row_blocks(len(lo), cone.dim):
            img_lo = _evaluate(map_, lo[start:stop])
            if img_lo.shape[1] != cone.dim:
                raise DimensionError("map image dimension does not match the cone")
            diffs = _evaluate(map_, hi[start:stop]) - img_lo
            slacks = _slacks_batch(cone, diffs, table)
            for i in np.flatnonzero(~(least_slack(slacks) >= -tol)):
                j = int(np.argmin(slacks[i]))
                violations.append(
                    IsotonicityViolation(
                        pair=OrderedPairSample(lo[start + i], hi[start + i]),
                        image_diff=diffs[i].copy(),
                        failed_inequality=j,
                        margin=float(slacks[i, j]),
                    )
                )
    return IsotonicityReport(cone=cone, checked=len(lo), violations=tuple(violations))
