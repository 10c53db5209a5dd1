"""Seeded samplers: cone members, ordered pairs, and complementary pairs.

All samplers draw through an explicit :class:`numpy.random.Generator`, so a
fixed seed reproduces the exact same arrays.  Members are produced by exact
parametrizations of each cone (cumulative sums of nonnegative increments,
norm floors, partial-sum coordinates), never by rejection, so every returned
point satisfies its defining inequalities up to float rounding.
"""

from __future__ import annotations

import numpy as np

from . import cones
from .cones import ConeSpec, row_norms
from .errors import UnsupportedConeError


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


def _mask_split(rng, size, n):
    """Random disjoint-support weight rows (alpha on mask, beta off it)."""
    mask = rng.random((size, n)) < 0.5
    alpha = np.where(mask, rng.exponential(1.0, (size, n)), 0.0)
    beta = np.where(mask, 0.0, rng.exponential(1.0, (size, n)))
    return mask, alpha, beta


def _staircase_pairs(rng, size, n):
    """Random complementary pairs of the monotone nonnegative cone."""
    _, alpha, beta = _mask_split(rng, size, n)
    x = _rev_cumsum(alpha)
    y = np.diff(beta, axis=1, prepend=0.0)
    return x, y


def _mesoc_deterministic(p, q):
    dim = p + q
    pairs = []

    def pad(xpart, upart=None):
        z = np.zeros(dim)
        z[:p] = xpart
        if upart is not None:
            z[p:] = upart
        return z

    ones = np.ones(p)
    steps = [np.concatenate([np.ones(i), np.zeros(p - i)]) for i in range(1, p + 1)]
    drops = [None] * p
    for j in range(p):
        d = np.zeros(p)
        d[j] = 1.0
        if j + 1 < p:
            d[j + 1] = -1.0
        drops[j] = d
    for i in range(p):
        for j in range(p):
            if i != j:
                pairs.append((pad(steps[i]), pad(drops[j])))
    units = []
    for k in range(q):
        for sign in (1.0, -1.0):
            e = np.zeros(q)
            e[k] = sign
            units.append(e)
    ej = [np.eye(p)[j] for j in range(p)]
    for uhat in units:
        for i in range(p - 1):
            for j in range(i + 1, p):
                pairs.append((pad(steps[i]), pad(ej[j], uhat)))
        for m in range(p - 1):
            for n in range(m + 1, p):
                pairs.append((pad(ones, uhat), pad(ej[m] - ej[n])))
        pairs.append((pad(ones, uhat), pad(ones / p, -uhat)))
        for j in range(p):
            pairs.append((pad(ones, uhat), pad(ej[j], -uhat)))
    return pairs


def _mesoc_random(rng, size, p, q):
    """Random complementary pairs of L(p, q) covering all four norm cases."""
    dim = p + q
    Z = np.zeros((size, dim))
    W = np.zeros((size, dim))
    quarters = np.array_split(np.arange(size), 4 if q else 1)

    # both norm blocks zero: embedded monotone-nonnegative pairs
    idx = quarters[0]
    Z[idx, :p], W[idx, :p] = _staircase_pairs(rng, len(idx), p)

    if not q:
        return Z, W

    def chain_with_floor(idx, floor):
        m = len(idx)
        if p > 1:
            mask, alpha, srest = _mask_split(rng, m, p - 1)
            x = np.hstack([_rev_cumsum(alpha) + floor[:, None], floor[:, None]])
        else:
            srest = np.empty((m, 0))
            x = floor[:, None]
        return x, srest

    # dual norm block only: x ends at zero, dual total exceeds ||v||
    idx = quarters[1]
    m = len(idx)
    x, srest = chain_with_floor(idx, np.zeros(m))
    v = _scaled_directions(rng, m, q)
    S = np.hstack([srest, (row_norms(v) + rng.exponential(1.0, m))[:, None]])
    W[idx, :p] = np.diff(S, axis=1, prepend=0.0)
    W[idx, p:] = v
    Z[idx, :p] = x

    # both norm blocks nonzero: antiparallel u and v, tight norm equalities
    idx = quarters[2]
    m = len(idx)
    u = _scaled_directions(rng, m, q)
    lam = rng.uniform(0.2, 3.0, m)
    v = -lam[:, None] * u
    x, srest = chain_with_floor(idx, row_norms(u))
    S = np.hstack([srest, row_norms(v)[:, None]])
    Z[idx, :p] = x
    Z[idx, p:] = u
    W[idx, :p] = np.diff(S, axis=1, prepend=0.0)
    W[idx, p:] = v

    # primal norm block only: dual total sums to zero
    idx = quarters[3]
    m = len(idx)
    u = _scaled_directions(rng, m, q)
    x, srest = chain_with_floor(idx, row_norms(u))
    S = np.hstack([srest, np.zeros((m, 1))])
    Z[idx, :p] = x
    Z[idx, p:] = u
    W[idx, :p] = np.diff(S, axis=1, prepend=0.0)
    return Z, W


def complementarity_pairs(
    cone: ConeSpec,
    rng: np.random.Generator,
    n_random: int,
    include_deterministic: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (z, w) with z in the cone, w in its dual, and <z, w> = 0.

    The deterministic block enumerates the generator pairs that pin down the
    cone's face structure; the random block fills in generic points of every
    face combination.  Rows of the two returned (n, dim) arrays correspond.
    """
    kind, p, q = cone.kind, cone.p, cone.q
    det: list[tuple[np.ndarray, np.ndarray]] = []
    if kind == cones.MESOC:
        det = _mesoc_deterministic(p, q)
        Zr, Wr = _mesoc_random(rng, n_random, p, q)
    elif kind == cones.MONOTONE_NONNEG:
        det = [
            (z[:p], w[:p])
            for z, w in _mesoc_deterministic(p, 0)
        ]
        Zr, Wr = _staircase_pairs(rng, n_random, p)
    elif kind == cones.NONNEG_ORTHANT:
        eye = np.eye(p)
        det = [(eye[i], eye[j]) for i in range(p) for j in range(p) if i != j]
        _, Zr, Wr = _mask_split(rng, n_random, p)
    elif kind == cones.MONOTONE:
        steps = [np.concatenate([np.ones(i), np.zeros(p - i)]) for i in range(1, p)]
        drops = []
        for j in range(p - 1):
            d = np.zeros(p)
            d[j], d[j + 1] = 1.0, -1.0
            drops.append(d)
        det = [(steps[i], drops[j]) for i in range(p - 1) for j in range(p - 1) if i != j]
        det += [(s * np.ones(p), d) for s in (1.0, -1.0) for d in drops]
        if p > 1:
            mask, alpha, srest = _mask_split(rng, n_random, p - 1)
            base = rng.standard_normal(n_random)
            Zr = base[:, None] + np.hstack([_rev_cumsum(alpha), np.zeros((n_random, 1))])
            S = np.hstack([srest, np.zeros((n_random, 1))])
            Wr = np.diff(S, axis=1, prepend=0.0)
        else:
            Zr = rng.standard_normal((n_random, 1))
            Wr = np.zeros((n_random, 1))
    elif kind == cones.LORENTZ:
        det = []
        for k in range(p - 1):
            for sign in (1.0, -1.0):
                zhat = np.zeros(p)
                zhat[0] = 1.0
                zhat[k + 1] = sign
                what = zhat.copy()
                what[k + 1] = -sign
                det.append((zhat, what))
        if p > 1:
            d = _scaled_directions(rng, n_random, p - 1)
            d /= row_norms(d)[:, None]
            t = rng.exponential(1.0, n_random)
            s = rng.exponential(1.0, n_random)
            Zr = np.hstack([t[:, None], t[:, None] * d])
            Wr = np.hstack([s[:, None], -s[:, None] * d])
        else:
            _, Zr, Wr = _mask_split(rng, n_random, 1)
    else:
        raise UnsupportedConeError(f"no complementary-pair generator for {kind!r}")

    blocks_z = [Zr]
    blocks_w = [Wr]
    if include_deterministic and det:
        blocks_z.insert(0, np.array([z for z, _ in det]))
        blocks_w.insert(0, np.array([w for _, w in det]))
    return np.vstack(blocks_z), np.vstack(blocks_w)
