"""Seeded samplers: cone members, ordered pairs, and complementary pairs.

All samplers draw through an explicit :class:`numpy.random.Generator`, so a
fixed seed reproduces the exact same arrays.  Members are produced by exact
parametrizations of each cone (cumulative sums of nonnegative increments,
norm floors, partial-sum coordinates), never by rejection, so every returned
point satisfies its defining inequalities up to float rounding.
Complementary pairs come from one rule for every projectable kind: the
Moreau split (P_K(v), P_K(v) - v) of standard normal points v.
"""

from __future__ import annotations

import numpy as np

from . import cones
from .cones import ConeSpec, row_norms
from .errors import UnsupportedConeError
from .projections import project_batch


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _scaled_directions(rng, size, q):
    """Random u blocks with well-spread, decisively nonzero magnitudes."""
    g = rng.standard_normal((size, q))
    norms = row_norms(g)
    norms[norms == 0] = 1.0
    radii = rng.uniform(0.2, 2.5, size)
    return g / norms[:, None] * radii[:, None]


def _rev_cumsum(a):
    return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]


def sample(cone: ConeSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` members of ``cone`` as the rows of a (size, dim) array."""
    kind, p, q = cone.kind, cone.p, cone.q
    if kind == cones.MESOC:
        u = _scaled_directions(rng, size, q) if q else np.empty((size, 0))
        nu = row_norms(u)
        x = _rev_cumsum(rng.exponential(1.0, (size, p))) + nu[:, None]
        return np.hstack([x, u])
    if kind == cones.MESOC_DUAL:
        v = _scaled_directions(rng, size, q) if q else np.empty((size, 0))
        nv = row_norms(v)
        S = np.empty((size, p))
        if p > 1:
            S[:, :-1] = rng.exponential(1.0, (size, p - 1))
        S[:, -1] = nv + rng.exponential(1.0, size)
        y = np.diff(S, axis=1, prepend=0.0)
        return np.hstack([y, v])
    if kind == cones.ESOC:
        u = _scaled_directions(rng, size, q) if q else np.empty((size, 0))
        nu = row_norms(u)
        x = nu[:, None] + rng.exponential(1.0, (size, p))
        return np.hstack([x, u])
    if kind == cones.ESOC_DUAL:
        x = rng.exponential(1.0, (size, p))
        if not q:
            return x
        g = rng.standard_normal((size, q))
        norms = row_norms(g)
        norms[norms == 0] = 1.0
        u = g / norms[:, None] * (x.sum(axis=1) * rng.uniform(0.0, 1.0, size))[:, None]
        return np.hstack([x, u])
    if kind == cones.MONOTONE:
        base = rng.standard_normal(size)
        x = np.empty((size, p))
        x[:, -1] = base
        if p > 1:
            x[:, :-1] = base[:, None] + _rev_cumsum(rng.exponential(1.0, (size, p - 1)))
        return x
    if kind == cones.MONOTONE_DUAL:
        S = np.empty((size, p))
        if p > 1:
            S[:, :-1] = rng.exponential(1.0, (size, p - 1))
        S[:, -1] = 0.0
        return np.diff(S, axis=1, prepend=0.0)
    if kind == cones.MONOTONE_NONNEG:
        return _rev_cumsum(rng.exponential(1.0, (size, p)))
    if kind == cones.MONOTONE_NONNEG_DUAL:
        S = rng.exponential(1.0, (size, p))
        return np.diff(S, axis=1, prepend=0.0)
    if kind == cones.NONNEG_ORTHANT:
        return rng.exponential(1.0, (size, p))
    if kind == cones.LORENTZ:
        if p == 1:
            return rng.exponential(1.0, (size, 1))
        r = _scaled_directions(rng, size, p - 1)
        head = row_norms(r) + rng.exponential(1.0, size)
        return np.hstack([head[:, None], r])
    if kind == cones.CYLINDER:
        x = rng.standard_normal((size, p)) * rng.uniform(0.2, 2.5, (size, 1))
        return np.hstack([x, sample(cone.inner, rng, size)])
    if kind == cones.CYLINDER_DUAL:
        return np.hstack([np.zeros((size, p)), sample(cone.inner, rng, size)])
    raise UnsupportedConeError(f"no sampler for {kind!r}")


def sample_ordered_pairs(
    cone: ConeSpec, rng: np.random.Generator, size: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (lo, hi) with hi - lo in ``cone``: hi = lo + t * (cone sample)."""
    lo = scale * rng.standard_normal((size, cone.dim))
    t = rng.uniform(0.0, 2.0, size)
    hi = lo + t[:, None] * sample(cone, rng, size)
    return lo, hi


def complementarity_pairs(
    cone: ConeSpec,
    rng: np.random.Generator,
    n_random: int,
    include_deterministic: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (z, w) with z in the cone, w in its dual, and <z, w> = 0.

    Moreau's decomposition splits every v into v = P_K(v) - P_K*(-v) with
    orthogonal parts, so z = P_K(v) and w = z - v = P_K*(-v) is a
    complementary pair, and every pair (z, w) is the one of v = z - w.  The
    ``n_random`` points v are standard normal rows, projected by
    :func:`~mesoc_kit.projections.project_batch`; every kind it projects is
    covered.  Rows of the two returned (n, dim) arrays correspond.

    ``include_deterministic`` is accepted and ignored: it stays until the
    next change to ``perfbench/``, whose ``cli_problems.py`` still passes it.
    """
    V = rng.standard_normal((n_random, cone.dim))
    Z = project_batch(cone, V)
    return Z, Z - V
