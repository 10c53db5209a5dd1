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
from .cones import DEFAULT_TOL, ConeSpec, Tolerances, _as_vector, _slacks_batch, dual_of
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


def cone_leq(cone: ConeSpec, a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when a <=_K b, i.e. ``b - a`` is in the cone."""
    a = _as_vector(a, cone.dim)
    b = _as_vector(b, cone.dim)
    s = _slacks_batch(cone, (b - a)[None, :])[0]
    return bool(s.size == 0 or s.min() >= -tol.membership)


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
    tol: Tolerances = DEFAULT_TOL,
    extra_pairs: tuple[OrderedPairSample, ...] = (),
    scale: float = 1.0,
) -> IsotonicityReport:
    """Falsification check: does lo <=_K hi imply map(lo) <=_K map(hi)?

    ``map_`` is either a structured map (checked through its update
    z - F(z)) or a callable on full-length vectors.  ``extra_pairs`` are
    checked first and count toward ``checked``.
    """
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
    if slacks.shape[1]:
        mins = slacks.min(axis=1)
        for i in np.flatnonzero(mins < -tol.membership):
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
    tol: Tolerances = DEFAULT_TOL,
) -> HyperplaneReport:
    """Sampled test of the inequality characterizing order-preserving
    reflection hyperplanes: for every x in the cone and y in its dual,
    <x, y> >= <a, x> <a, y> must hold for the unit normal ``a``.
    """
    a = _as_vector(normal, cone.dim)
    na = np.linalg.norm(a)
    if not np.isclose(na, 1.0, atol=1e-8):
        raise ValueError("normal must be a unit vector")
    rng = sampling.rng_from_seed(seed)
    X = sampling.sample(cone, rng, n_samples)
    Y = sampling.sample(dual_of(cone), rng, n_samples)
    margins = np.einsum("ij,ij->i", X, Y) - (X @ a) * (Y @ a)
    worst = int(np.argmin(margins))
    held = bool(margins[worst] >= -tol.orthogonality)
    witness = None if held else OrderedPairSample(X[worst], Y[worst])
    return HyperplaneReport(
        held=held,
        checked=n_samples,
        min_margin=float(margins[worst]),
        witness=witness,
    )
