"""Reference samplers: every member built from whole-array temporaries.

These are the formulas ``mesoc_kit.sampling`` used before it wrote members
into one output array.  The draws, their order and every sum and product
are the contract that the in-place samplers keep, so both must give the
same bytes and leave the generator in the same state.  The samplers work
narrow blocks down their columns; these formulas work every block as a
whole.
"""

import numpy as np

from mesoc_kit import cones


def row_norms(A):
    """The row norms from one ``einsum`` pass, as ``cones.row_norms`` took
    them before it summed narrow blocks down their columns."""
    s = np.einsum("ij,ij->i", A, A)
    return np.sqrt(s, out=s)


def _scaled_directions(rng, size, q):
    g = rng.standard_normal((size, q))
    norms = row_norms(g)
    norms[norms == 0] = 1.0
    radii = rng.uniform(0.2, 2.5, size)
    return g / norms[:, None] * radii[:, None]


def _rev_cumsum(a):
    return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]


def sample(cone, rng, size):
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
    raise ValueError(f"no sampler for {kind!r}")


def sample_ordered_pairs(cone, rng, size, scale=1.0):
    lo = scale * rng.standard_normal((size, cone.dim))
    t = rng.uniform(0.0, 2.0, size)
    hi = lo + t[:, None] * sample(cone, rng, size)
    return lo, hi
