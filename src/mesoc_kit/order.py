"""Cone-induced partial orders and sampled isotonicity checks.

A map F is isotone for the order of a cone K when a <=_K b implies
F(a) <=_K F(b); the checks here falsify that statement on seeded random
ordered pairs (plus any caller-supplied pairs) and report every violating
pair together with the first inequality that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .cones import (
    DEFAULT_TOL, ConeSpec, _as_vector, _slacks_batch, check_tol, contains, dual_of, least_slack,
)
from .errors import DimensionError


@dataclass(frozen=True)
class OrderedPairSample:
    """A pair with lo <=_K hi, i.e. hi - lo in the ordering cone."""

    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class IsotonicityViolation:
    pair: OrderedPairSample
    image_diff: np.ndarray
    failed_inequality: int
    margin: float


@dataclass(frozen=True)
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
    z - F(z); plain callables are applied as-is, one row at a time unless
    they broadcast.
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
    empty report would pass vacuously.
    """
    check_tol(tol)
    if n_samples == 0 and not extra_pairs:
        raise ValueError("nothing to check: n_samples is 0 and there are no extra_pairs")
    if hasattr(map_, "update_batch") and map_.p + map_.q != cone.dim:
        raise DimensionError(
            f"map dimension {map_.p + map_.q} does not match the cone dimension {cone.dim}"
        )
    rng = sampling.rng_from_seed(seed)
    lo, hi = sampling.sample_ordered_pairs(cone, rng, n_samples, scale=scale)
    if extra_pairs:
        lo = np.vstack([[_as_vector(p.lo, cone.dim) for p in extra_pairs], lo])
        hi = np.vstack([[_as_vector(p.hi, cone.dim) for p in extra_pairs], hi])
    img_lo = _evaluate(map_, lo)
    img_hi = _evaluate(map_, hi)
    if img_lo.shape[1] != cone.dim:
        raise DimensionError("map image dimension does not match the cone")
    diffs = img_hi - img_lo
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
    return IsotonicityReport(cone=cone, checked=len(lo), violations=tuple(violations))


@dataclass(frozen=True)
class HyperplaneReport:
    """Outcome of the supporting-inequality test for a unit normal ``a``:
    <x, y> >= <a, x> * <a, y> over sampled x in K, y in K*."""

    held: bool
    checked: int
    min_margin: float
    witness: OrderedPairSample | None


def hyperplane_isotone_test(
    cone: ConeSpec,
    normal,
    n_samples: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> HyperplaneReport:
    """Sampled test of the inequality characterizing order-preserving
    reflection hyperplanes: for every x in the cone and y in its dual,
    <x, y> >= <a, x> <a, y> must hold for the unit normal ``a``.
    """
    check_tol(tol)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    a = _as_vector(normal, cone.dim)
    na = np.linalg.norm(a)
    # held to 1e-8 absolutely; written so that a NaN norm is refused too
    if not abs(na - 1.0) <= 1e-8:
        raise ValueError("normal must be a unit vector")
    rng = sampling.rng_from_seed(seed)
    X = sampling.sample(cone, rng, n_samples)
    Y = sampling.sample(dual_of(cone), rng, n_samples)
    margins = np.einsum("ij,ij->i", X, Y) - (X @ a) * (Y @ a)
    worst = int(np.argmin(margins))
    held = bool(margins[worst] >= -tol)
    witness = None if held else OrderedPairSample(X[worst], Y[worst])
    return HyperplaneReport(
        held=held,
        checked=n_samples,
        min_margin=float(margins[worst]),
        witness=witness,
    )
