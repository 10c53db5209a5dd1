"""Seeded samplers: cone members, ordered pairs, and complementary pairs.

All samplers draw through an explicit :class:`numpy.random.Generator`, so a
fixed seed reproduces the exact same arrays.  Members are produced by exact
parametrizations of each cone (cumulative sums of nonnegative increments,
norm floors, partial-sum coordinates), never by rejection, so every returned
point satisfies its defining inequalities up to float rounding.
Complementary pairs come from one rule for every projectable kind: the
Moreau split (P_K(v), P_K(v) - v) of standard normal points v.

A sampler assembles its members in one C-ordered (size, dim) output: every
block is written into its columns with in-place arithmetic, and beside the
output at most one size-by-block draw is alive at a time.  For 200000 rows
of ``mesoc(8, 8)`` (24.4 MiB of output) the traced peak is 39.7 MiB and
the resident peak above the process's baseline 39.6 MiB, against 50.4 and
64.0 MiB for a chain of whole-array temporaries joined by ``np.hstack``
(``benchmarks/bench_kernels.py``).  The draws, their order and the operands
of every sum and product are part of the seeded contract: the same seed
gives the same bytes and leaves the generator in the same state
(``tests/_reference_sampling.py`` keeps the whole-array formulas).
"""

from __future__ import annotations

import numpy as np

from . import cones
from .cones import ConeSpec, row_norms
from .errors import UnsupportedConeError
from .projections import project_batch


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _unit_rows(g):
    """Scale the rows of ``g`` to unit length in place; a zero row stays zero."""
    norms = row_norms(g)
    norms[norms == 0] = 1.0
    return np.divide(g, norms[:, None], out=g)


def _directions(rng, out):
    """Fill the (size, q) block ``out`` with random u blocks of well-spread,
    decisively nonzero magnitudes; return their row norms."""
    size, q = out.shape
    if not q:
        return np.zeros(size)
    g = _unit_rows(rng.standard_normal((size, q)))
    np.multiply(g, rng.uniform(0.2, 2.5, size)[:, None], out=g)
    out[...] = g
    return row_norms(g)


def _rev_cumsum(a):
    """Column j of ``a`` becomes a_j + ... + a_n, in place, added from the
    right as ``np.cumsum`` adds the columns of the reversed view."""
    for j in range(a.shape[1] - 2, -1, -1):
        np.add(a[:, j + 1], a[:, j], out=a[:, j])
    return a


def _diff(a):
    """``np.diff(a, axis=1, prepend=0.0)`` in place: from the right, so every
    difference reads original columns; the first column minus 0.0 is itself."""
    for j in range(a.shape[1] - 1, 0, -1):
        np.subtract(a[:, j], a[:, j - 1], out=a[:, j])
    return a


def _take(out, draw):
    """``draw`` as the members: itself when there is no ``out``, else copied in."""
    if out is None:
        return draw
    out[...] = draw
    return out


def sample(cone: ConeSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` members of ``cone`` as the rows of a (size, dim) array."""
    return _members(cone, rng, size, None)


def _members(cone, rng, size, out):
    """Members of ``cone`` written into the (size, dim) block ``out``, or into
    a new array when ``out`` is None (a cylinder passes its u block)."""
    kind, p, q = cone.kind, cone.p, cone.q
    # members that are one draw, transformed in place
    if kind == cones.NONNEG_ORTHANT or (kind == cones.ESOC_DUAL and not q):
        return _take(out, rng.exponential(1.0, (size, p)))
    if kind == cones.LORENTZ and p == 1:
        return _take(out, rng.exponential(1.0, (size, 1)))
    if kind == cones.MONOTONE_NONNEG:
        return _rev_cumsum(_take(out, rng.exponential(1.0, (size, p))))
    if kind == cones.MONOTONE_NONNEG_DUAL:
        return _diff(_take(out, rng.exponential(1.0, (size, p))))
    if out is None:
        out = np.empty((size, cone.dim))
    x = out[:, :p]
    if kind == cones.MESOC:
        nu = _directions(rng, out[:, p:])
        x[...] = rng.exponential(1.0, (size, p))
        _rev_cumsum(x)
        x += nu[:, None]
    elif kind == cones.MESOC_DUAL:
        nv = _directions(rng, out[:, p:])
        if p > 1:
            x[:, :-1] = rng.exponential(1.0, (size, p - 1))
        x[:, -1] = nv + rng.exponential(1.0, size)
        _diff(x)
    elif kind == cones.ESOC:
        nu = _directions(rng, out[:, p:])
        np.add(nu[:, None], rng.exponential(1.0, (size, p)), out=x)
    elif kind == cones.ESOC_DUAL:
        e = rng.exponential(1.0, (size, p))
        x[...] = e
        total = e.sum(axis=1)
        del e  # released before the direction draw
        u = _unit_rows(rng.standard_normal((size, q)))
        np.multiply(u, (total * rng.uniform(0.0, 1.0, size))[:, None], out=out[:, p:])
    elif kind == cones.MONOTONE:
        base = rng.standard_normal(size)
        x[:, -1] = base
        if p > 1:
            head = x[:, :-1]
            head[...] = rng.exponential(1.0, (size, p - 1))
            _rev_cumsum(head)
            head += base[:, None]
    elif kind == cones.MONOTONE_DUAL:
        if p > 1:
            x[:, :-1] = rng.exponential(1.0, (size, p - 1))
        x[:, -1] = 0.0
        _diff(x)
    elif kind == cones.LORENTZ:
        x[:, 0] = _directions(rng, out[:, 1:]) + rng.exponential(1.0, size)
    elif kind == cones.CYLINDER:
        x[...] = rng.standard_normal((size, p))
        x *= rng.uniform(0.2, 2.5, (size, 1))
        _members(cone.inner, rng, size, out[:, p:])
    elif kind == cones.CYLINDER_DUAL:
        x[...] = 0.0
        _members(cone.inner, rng, size, out[:, p:])
    else:
        raise UnsupportedConeError(f"no sampler for {kind!r}")
    return out


def sample_ordered_pairs(
    cone: ConeSpec, rng: np.random.Generator, size: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (lo, hi) with hi - lo in ``cone``: hi = lo + t * (cone sample)."""
    lo = rng.standard_normal((size, cone.dim))
    lo *= scale
    t = rng.uniform(0.0, 2.0, size)
    hi = sample(cone, rng, size)
    hi *= t[:, None]
    hi += lo
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
