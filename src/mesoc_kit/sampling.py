"""Seeded samplers: cone members, ordered pairs, and complementary pairs.

All samplers draw through an explicit :class:`numpy.random.Generator`, so a
fixed seed reproduces the exact same arrays.  Members are produced by exact
parametrizations of each cone (cumulative sums of nonnegative increments,
norm floors, partial-sum coordinates), never by rejection, so every returned
point satisfies its defining inequalities up to float rounding.  The sums
and differences are ``cones._rev_cumsum`` and ``cones._diff``, the inverses
of the reductions of :func:`~mesoc_kit.cones.factors`; a sampler's block has
more rows than columns, so by the maps' loop rule (the ``cones`` module
docstring) they work it down its columns in place, one 1-D call each, and
hold no temporary as large as the block.
Complementary pairs come from one rule for every kind: the Moreau split
(P_K(v), P_K(v) - v) of standard normal points v.

A sampler assembles its members in one C-ordered (size, dim) output: every
block is written into its columns with in-place arithmetic, and beside the
output at most one size-by-block draw is alive at a time.  For 200000 rows
of ``mesoc(8, 8)`` (24.4 MiB of output) the traced peak is 38.3 MiB and
the resident peak above the process's baseline 38.1 MiB, against 50.4 and
64.0 MiB for a chain of whole-array temporaries joined by ``np.hstack``
(``benchmarks/bench_kernels.py``).  A block of at most ``cones.NARROW_MAX``
columns is worked down its columns, one 1-D call per column
(``cones._by_rows``, ``cones.row_sums``, :func:`_put`), because NumPy pays
a 2-D call on so narrow a block per row: ``sample_ordered_pairs`` of
200000 ``mesoc(2, 2)`` pairs (12.2 MiB) takes about 40 ms against 55 with
every block worked as a whole.  Its traced peak is 18.8 MiB (21.4 for the whole-array formulas): the unit directions'
norms square their second column in slices
(:func:`~mesoc_kit.cones.row_norms`), which holds 0.3 MiB more than one
``einsum`` did, and the radii are scaled straight into the output, so
neither they nor the unit rows outlive that product.  The draws,
their order and the operands of every sum and product are part of the
seeded contract: the same seed gives the same bytes and leaves the
generator in the same state (``tests/_reference_sampling.py`` keeps the
whole-array formulas).
"""

from __future__ import annotations

import numpy as np

from . import cones
from .cones import ConeSpec, _by_rows, _diff, _rev_cumsum, row_norms, row_sums


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _put(out, a):
    """``out[...] = a`` for two 2-D blocks of one shape, down the columns of
    a narrow block as :func:`~mesoc_kit.cones._by_rows` works."""
    if a.shape[1] > cones.NARROW_MAX:
        out[...] = a
    else:
        for j in range(a.shape[1]):
            out[:, j] = a[:, j]
    return out


def _unit_rows(g):
    """Scale the rows of ``g`` to unit length in place; a zero row stays zero."""
    norms = row_norms(g)
    norms[norms == 0] = 1.0
    return _by_rows(np.divide, g, norms, g)


def _directions(rng, out):
    """Fill the (size, q) block ``out`` with random u blocks of well-spread,
    decisively nonzero magnitudes; return their row norms."""
    size, q = out.shape
    if not q:
        return np.zeros(size)
    g = _unit_rows(rng.standard_normal((size, q)))
    # the radii are scaled straight into the output, and neither they nor
    # the unit rows outlive the product
    _by_rows(np.multiply, g, rng.uniform(0.2, 2.5, size), out)
    del g
    return row_norms(out)


def _take(out, draw):
    """``draw`` as the members: itself when there is no ``out``, else copied in."""
    if out is None:
        return draw
    return _put(out, draw)


def sample(cone: ConeSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` members of ``cone`` as the rows of a (size, dim) array."""
    return _members(cone, rng, size, None)


def _members(cone, rng, size, out):
    """Members of ``cone`` written into the (size, dim) block ``out``, or into
    a new array when ``out`` is None (a cylinder passes its u block)."""
    kind, p, q = cones.ordered_form(cone)
    # members that are one draw, transformed in place
    if kind == cones.NONNEG_ORTHANT or (kind == cones.ESOC_DUAL and not q):
        return _take(out, rng.exponential(1.0, (size, p)))
    if kind == cones.MONOTONE_NONNEG:
        return _rev_cumsum(_take(out, rng.exponential(1.0, (size, p))))
    if kind == cones.MONOTONE_NONNEG_DUAL:
        return _diff(_take(out, rng.exponential(1.0, (size, p))))
    if out is None:
        out = np.empty((size, cone.dim))
    x = out[:, :p]
    if kind == cones.MESOC:
        nu = _directions(rng, out[:, p:])
        _rev_cumsum(_put(x, rng.exponential(1.0, (size, p))))
        _by_rows(np.add, x, nu, x)
    elif kind == cones.MESOC_DUAL:
        nv = _directions(rng, out[:, p:])
        if p > 1:
            _put(x[:, :-1], rng.exponential(1.0, (size, p - 1)))
        x[:, -1] = nv + rng.exponential(1.0, size)
        _diff(x)
    elif kind == cones.ESOC:
        nu = _directions(rng, out[:, p:])
        _by_rows(np.add, rng.exponential(1.0, (size, p)), nu, x)
    elif kind == cones.ESOC_DUAL:
        e = rng.exponential(1.0, (size, p))
        _put(x, e)
        total = row_sums(e)
        del e  # released before the direction draw
        u = _unit_rows(rng.standard_normal((size, q)))
        _by_rows(np.multiply, u, total * rng.uniform(0.0, 1.0, size), out[:, p:])
    elif kind == cones.MONOTONE:
        base = rng.standard_normal(size)
        x[:, -1] = base
        if p > 1:
            head = _rev_cumsum(_put(x[:, :-1], rng.exponential(1.0, (size, p - 1))))
            _by_rows(np.add, head, base, head)
    elif kind == cones.MONOTONE_DUAL:
        if p > 1:
            _put(x[:, :-1], rng.exponential(1.0, (size, p - 1)))
        x[:, -1] = 0.0
        _diff(x)
    elif kind == cones.CYLINDER:
        _put(x, rng.standard_normal((size, p)))
        _by_rows(np.multiply, x, rng.uniform(0.2, 2.5, size), x)
        _members(cone.inner, rng, size, out[:, p:])
    else:  # CYLINDER_DUAL, the last kind
        x[...] = 0.0
        _members(cone.inner, rng, size, out[:, p:])
    return out


def sample_ordered_pairs(
    cone: ConeSpec, rng: np.random.Generator, size: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (lo, hi) with hi - lo in ``cone``: hi = lo + t * (cone sample)."""
    lo = rng.standard_normal((size, cone.dim))
    if scale != 1.0:  # times 1.0 keeps every value's bytes
        lo *= scale
    t = rng.uniform(0.0, 2.0, size)
    hi = sample(cone, rng, size)
    _by_rows(np.multiply, hi, t, hi)
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
    :func:`~mesoc_kit.projections.project_batch`, which reaches every kind,
    the ESOC and its dual included.  Rows of the two returned (n, dim)
    arrays correspond.

    ``include_deterministic`` is accepted and ignored: it stays until the
    next change to ``perfbench/``, whose ``cli_problems.py`` still passes it.
    """
    from .projections import project_batch

    V = rng.standard_normal((n_random, cone.dim))
    Z = project_batch(cone, V)
    return Z, Z - V
