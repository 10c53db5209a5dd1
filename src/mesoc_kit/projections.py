"""Euclidean projections onto every cone kind but the ESOC, plus a slow exact oracle.

:func:`project` reaches each kind from three leaves and three reductions.
The leaves are the monotone cone (the pool-adjacent-violators sweep of
:mod:`mesoc_kit._kernels`), the nonnegative orthant (a clip) and the Lorentz
cone (the three-case closed form).  The **norm tail** projects L(p, q):
P(w, z) = (x, s z/||z||), where (x, s) projects (w, ||z||) onto the monotone
nonnegative cone of R^(p+1); with no tail it is that cone's own projection.
A **cylinder** R^p x C keeps the x block and projects the u block onto C.
**Moreau** gives each dual kind, P_K*(v) = v + P_K(-v).  The ESOC and its
dual need a root finder (Ferreira & Németh, J. Global Optim. 70, 2018) and
raise :class:`UnsupportedConeError`, as do cylinders over them.

:func:`project` computes only the projected point.  Its
:class:`ProjectionResult` keeps a copy of the input and, for the isotonic
kinds, the block lengths of the sweep; the distance and the blocks are
worked out from them the first time they are read.  The solver reads only
the point, once per step.

:func:`project_batch` projects every row of a matrix through the same
leaves and reductions, with the batch PAV kernel in place of the sweep.
The complementary-pair sampler behind the Lyapunov rank draws through it.

:func:`project_oracle` re-solves the polyhedral and Lorentz problems by
exhaustive face enumeration — every subset of active constraints for the
polyhedral cones, and the interior, the apex and the boundary ray for the
Lorentz cone — and certifies each result with the full Moreau conditions.
``check project`` and the test suite use it to cross-check the fast paths.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import cones
from ._kernels import isotonic_decreasing_batch, pav_sweep
# Not called here: the benchmark tracer (perfbench/tracing.py) wraps the
# kernels at this module's names, and this one must stay for it to install.
from ._kernels import isotonic_decreasing  # noqa: F401
from .cones import ConeSpec
from .errors import DimensionError, OracleError, UnsupportedConeError


class ProjectionResult:
    """Projection output: the ``point``, its ``distance`` from the input, and
    ``active_blocks``, the index ranges ``(start, stop)`` that the isotonic
    solvers merged into constant blocks.  The monotone cones and L(p, q)
    have them; those of L(p, q) run over (x, ||u||), so index p stands for
    ||u||.  The other kinds, the duals included, give ``None``.

    ``ProjectionResult(point, distance, active_blocks=None)`` reports the
    values it is given.  A result from :func:`project` holds the point, a
    private copy of the input and the block lengths; the first read of
    ``distance`` computes ``math.sqrt(r @ r)`` with r = input - point (a
    Python float), and the first read of ``active_blocks`` builds the tuple
    of Python-int pairs.  Writing into the input after the call does not
    change either.  The public attributes are read-only.
    """

    __slots__ = ("_point", "_distance", "_blocks", "_source", "_lengths")

    def __init__(self, point: np.ndarray, distance: float, active_blocks=None):
        self._point = point
        self._distance = distance
        self._blocks = active_blocks
        self._source = None
        self._lengths = None

    @property
    def point(self) -> np.ndarray:
        return self._point

    @property
    def distance(self) -> float:
        # a local, so a concurrent first read cannot see the source cleared
        source = self._source
        if source is not None:
            r = source - self._point
            self._distance = math.sqrt(r @ r)
            self._source = None
        return self._distance

    @property
    def active_blocks(self) -> tuple[tuple[int, int], ...] | None:
        lengths = self._lengths
        if lengths is not None:
            stops = list(accumulate(lengths))
            self._blocks = tuple(zip([0] + stops[:-1], stops))
            self._lengths = None
        return self._blocks

    def __repr__(self) -> str:
        return (f"ProjectionResult(point={self.point!r}, distance={self.distance!r}, "
                f"active_blocks={self.active_blocks!r})")


def _result(v: np.ndarray, point: np.ndarray, lengths=None) -> ProjectionResult:
    """The result of projecting ``v`` to ``point``, distance and blocks pending."""
    r = ProjectionResult.__new__(ProjectionResult)
    r._point = point
    r._distance = r._blocks = None
    r._source = v.copy()
    r._lengths = lengths
    return r


# Every cone is closed under positive scaling, so P(v) = 2^k P(2^-k v), and
# scaling by a power of two is exact.  When a fast value overflows on a
# finite input, the leaf is redone on v scaled so that its largest entry lies
# in [1/2, 1).  Only an overflowed value takes that branch, so every finite
# result keeps its bits.  The sweep pools a block into the one before it only
# when its mean is not lower, so from finite values a pooled difference
# overflows to +inf alone, and +inf then pools into the first block: an
# overflowed norm or mean shows as means[0] == inf, one compare per call, and
# the pooling loop itself stays unguarded.


def _rescaled(leaf, v: np.ndarray):
    """``2^k leaf(2^-k v)`` for the finite ``v``, with 2^-k v in (-1, 1)."""
    k = math.frexp(float(np.abs(v).max()))[1]
    point, lengths = leaf(np.ldexp(v, -k))
    return np.ldexp(point, k), lengths


def _norm_tail(v: np.ndarray, p: int):
    """Project (w, z) = (v[:p], v[p:]) onto {x_1 >= ... >= x_p >= ||u||}:
    (x, s) fits (w, ||z||) in the monotone nonnegative cone and u = s z/||z||.
    Its blocks are those of that fit, index p standing for ||u||."""
    head = v[:p].tolist()  # only the head goes to Python floats
    if p < v.size:
        tail = v[p:]
        try:
            norm = math.sqrt(tail.dot(tail))
        except RuntimeWarning:  # an overflowed square sum under -W error
            norm = math.inf
        head.append(norm)
    means, counts = pav_sweep(head)
    if means[0] == math.inf and np.isfinite(v).all():
        return _rescaled(lambda w: _norm_tail(w, p), v)
    fit = np.maximum(np.array(means).repeat(counts), 0.0)
    if p == v.size:
        return fit, counts
    return np.concatenate([fit[:p], tail * (fit[p] / norm if norm > 0.0 else 0.0)]), counts


def _lorentz(v: np.ndarray):
    head, rest = v[0], v[1:]
    try:
        nr = math.sqrt(rest.dot(rest))
    except RuntimeWarning:  # an overflowed square sum under -W error
        nr = math.inf
    if head >= nr:
        return v.copy(), None
    if head <= -nr:
        return np.zeros_like(v), None
    t = (head + nr) / 2.0
    # an overflowed norm or sum; head is above -nr, so neither gives -inf
    if t == math.inf and np.isfinite(v).all():
        return _rescaled(_lorentz, v)
    point = v * (t / nr)
    point[0] = t
    return point, None


def _point(cone: ConeSpec, v: np.ndarray):
    """The projection of the validated ``v`` onto ``cone`` and the block
    lengths of its isotonic fit (None for kinds without one)."""
    kind = cone.kind
    if kind == cones.MONOTONE_NONNEG or kind == cones.MESOC:
        return _norm_tail(v, cone.p)
    if kind == cones.MONOTONE:
        means, counts = pav_sweep(v.tolist())
        if means[0] == math.inf and np.isfinite(v).all():
            return _rescaled(lambda w: _point(cone, w), v)
        return np.array(means).repeat(counts), counts
    if kind == cones.NONNEG_ORTHANT:
        return np.maximum(v, 0.0), None
    if kind == cones.LORENTZ:
        return _lorentz(v)
    if kind == cones.CYLINDER:
        point, lengths = _point(cone.inner, v[cone.p :])
        return np.concatenate([v[: cone.p], point]), lengths
    # project has refused the ESOC kinds, so every kind left is the dual of
    # one above; the blocks of the primal fit do not describe this point
    return v + _point(cones.dual_of(cone), -v)[0], None


# the kinds (also as a cylinder's base) that project refuses
_UNSUPPORTED = (cones.ESOC, cones.ESOC_DUAL)


def project(cone: ConeSpec, z) -> ProjectionResult:
    """Project ``z`` onto ``cone``; see the module docstring for the kinds."""
    base = cone
    while base.inner is not None:
        base = base.inner
    if base.kind in _UNSUPPORTED:
        raise UnsupportedConeError(f"no projection for {base.kind!r}")
    v = cones._as_vector(z, cone.dim)
    return _result(v, *_point(cone, v))


def _batch_point(cone: ConeSpec, V: np.ndarray) -> np.ndarray:
    """The row-wise projection of the validated 2-D ``V`` onto ``cone``."""
    kind = cone.kind
    if kind == cones.MONOTONE_NONNEG or kind == cones.MESOC:
        p = cone.p
        # isotonic_decreasing_batch is read from this module's globals, so the
        # benchmark tracer's wrapper of it counts these rows too
        if p == cone.dim:
            return np.maximum(isotonic_decreasing_batch(V), 0.0)
        tail = V[:, p:]
        norms = cones.row_norms(tail)
        fit = np.maximum(isotonic_decreasing_batch(np.column_stack([V[:, :p], norms])), 0.0)
        scale = np.divide(fit[:, p], norms, out=np.zeros_like(norms), where=norms > 0.0)
        return np.hstack([fit[:, :p], tail * scale[:, None]])
    if kind == cones.MONOTONE:
        return isotonic_decreasing_batch(V)
    if kind == cones.NONNEG_ORTHANT:
        return np.maximum(V, 0.0)
    if kind == cones.LORENTZ:
        head = V[:, 0]
        nr = cones.row_norms(V[:, 1:])
        t = (head + nr) / 2.0
        # a zero rest puts the row inside or in the polar, never between
        out = V * np.divide(t, nr, out=np.zeros_like(nr), where=nr > 0.0)[:, None]
        out[:, 0] = t
        inside = head >= nr
        out[inside] = V[inside]
        out[head <= -nr] = 0.0
        return out
    if kind == cones.CYLINDER:
        return np.hstack([V[:, : cone.p], _batch_point(cone.inner, V[:, cone.p :])])
    return V + _batch_point(cones.dual_of(cone), -V)


def project_batch(cone: ConeSpec, V) -> np.ndarray:
    """Row-wise ``project(cone, row).point`` for the rows of the 2-D ``V``.

    A mirror of :func:`_point` over a batch: the batch PAV kernel, a clip
    and the Lorentz three-case formula are the leaves, and the norm tail,
    the cylinder and Moreau the reductions.  Its contract is finite rows of
    moderate scale: the rescale that keeps a near-limit projection finite
    lives in :func:`project` only.  The batch kernel sums a pooled block in
    another order than the sweep, so rows agree with :func:`project` to
    about 1e-12 relative.  The ESOC kinds are refused as by :func:`project`.

    The rows are projected in blocks of about :data:`cones.BLOCK_ENTRIES`
    entries, whose temporaries stay in cache.  Every row gets the bytes a
    single block gives it, but for the sign of a NaN: a Moreau sum of two
    NaNs takes either one's, and IEEE 754 gives that sign no meaning.
    """
    # the check of project, not shared through a function: one more call
    # made a small projection about 3% slower
    base = cone
    while base.inner is not None:
        base = base.inner
    if base.kind in _UNSUPPORTED:
        raise UnsupportedConeError(f"no projection for {base.kind!r}")
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != cone.dim:
        raise DimensionError(f"expected rows of length {cone.dim}, got shape {V.shape}")
    return cones.by_row_blocks(lambda B: _batch_point(cone, B), V, np.empty(V.shape))


def project_monotone_nonneg_batch(V) -> np.ndarray:
    """Row-wise :func:`project` onto the monotone nonnegative cone, through
    :func:`project_batch`; ``perfbench`` calls it by this name."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.size == 0:  # no cone has dimension 0
        return np.empty_like(V)
    return project_batch(cones.monotone_nonneg(V.shape[1]), V)


# ---------------------------------------------------------------------------
# independent oracle


def _constraint_rows(cone: ConeSpec) -> np.ndarray:
    """Rows a_i with the cone equal to { z : a_i . z >= 0 for all i }."""
    n = cone.dim
    diffs = np.eye(n)[:-1] - np.eye(n)[1:]
    if cone.kind == cones.MONOTONE:
        return diffs
    if cone.kind == cones.MONOTONE_NONNEG:
        return np.vstack([diffs, np.eye(n)[-1]])
    if cone.kind == cones.NONNEG_ORTHANT:
        return np.eye(n)
    raise UnsupportedConeError(f"{cone.kind!r} is not polyhedral here")


# The oracle tries all 2^m faces of a cone with m constraint rows and caches
# their projectors per (kind, dim); above this many rows it refuses to run.
ORACLE_MAX_ROWS = 12

_FACE_CACHE: dict[tuple[str, int], list[np.ndarray]] = {}


def _face_projectors(cone: ConeSpec) -> list[np.ndarray]:
    key = (cone.kind, cone.dim)
    if key not in _FACE_CACHE:
        A = _constraint_rows(cone)
        m, n = A.shape
        projectors = [np.eye(n)]
        for bits in range(1, 1 << m):
            As = A[[i for i in range(m) if bits >> i & 1]]
            projectors.append(np.eye(n) - np.linalg.pinv(As) @ As)
        _FACE_CACHE[key] = projectors
    return _FACE_CACHE[key]


def _polyhedral_oracle(cone: ConeSpec, v: np.ndarray) -> np.ndarray:
    A = _constraint_rows(cone)
    if len(A) > ORACLE_MAX_ROWS:
        raise UnsupportedConeError(
            f"the face-enumeration oracle tries 2^m faces; {cone} has m = {len(A)} "
            f"constraint rows, more than {ORACLE_MAX_ROWS}"
        )
    best = None
    best_dist = np.inf
    for P in _face_projectors(cone):
        cand = P @ v
        if (A @ cand >= -1e-11).all():
            d = np.linalg.norm(v - cand)
            if d < best_dist:
                best, best_dist = cand, d
    return best


def _lorentz_oracle(v: np.ndarray) -> np.ndarray:
    """The projection of v = (h, r) lies in the plane of e_1 and (0, r), so
    one candidate per face suffices: v itself when feasible, the apex, and
    the projection onto the boundary ray through (1, r/||r||) clipped at 0.
    The nearest of them wins."""
    head, rest = v[0], v[1:]
    nr = float(np.linalg.norm(rest))
    candidates = [np.zeros_like(v)]
    if head >= nr:
        candidates.append(v)
    if nr > 0.0:
        ray = np.concatenate([[1.0], rest / nr])
        candidates.append(max(ray @ v / 2.0, 0.0) * ray)
    return min(candidates, key=lambda y: np.linalg.norm(v - y))


def _moreau_residual(cone: ConeSpec, v: np.ndarray, y: np.ndarray) -> float:
    """Largest violation of y = P_K(v): y in K and y - v in K* (slacks
    scaled by 1 + ||v||), and <v - y, y> = 0 (scaled by 1 + ||v||^2)."""
    primal = cones.least_slack(cones.membership_slacks(cone, y))
    dual = cones.least_slack(cones.membership_slacks(cones.dual_of(cone), y - v))
    feas = -min(primal, dual) / (1.0 + float(np.linalg.norm(v)))
    comp = abs(float((v - y) @ y)) / (1.0 + float(v @ v))
    return max(feas, comp)


def project_oracle(cone: ConeSpec, v) -> ProjectionResult:
    """Independently recompute the projection of ``v`` onto ``cone``.

    Both cone families are solved exactly by face enumeration: polyhedral
    cones try all 2^m subsets of active constraints, the Lorentz cone its
    interior, apex and boundary ray; each keeps the feasible candidate
    closest to ``v``, and cylinders compose the two.  Raises
    :class:`OracleError` when the result fails the Moreau certificate
    (y in K, y - v in K*, <v - y, y> = 0) at 1e-8 or no candidate is
    feasible, as for an input holding NaN, and
    :class:`UnsupportedConeError` for a polyhedral cone with more than
    :data:`ORACLE_MAX_ROWS` constraint rows.
    """
    v = cones._as_vector(v, cone.dim)
    if cone.kind == cones.CYLINDER:
        inner = project_oracle(cone.inner, v[cone.p:])
        y = np.concatenate([v[: cone.p], inner.point])
    elif cone.kind == cones.LORENTZ:
        y = _lorentz_oracle(v)
    else:
        y = _polyhedral_oracle(cone, v)
        if y is None:
            raise OracleError("no face candidate of the oracle is feasible")
    resid = _moreau_residual(cone, v, y)
    # a NaN residual fails too
    if not resid <= 1e-8:
        raise OracleError(f"oracle optimality residual {resid:.3e} exceeds 1e-8")
    return ProjectionResult(y, float(np.linalg.norm(v - y)), None)
