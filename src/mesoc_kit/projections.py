"""Euclidean projections onto every cone kind, plus a slow exact oracle.

:func:`project` reaches each kind from two leaves and three reductions.
The leaves are the monotone cone (the pool-adjacent-violators fit
:func:`~mesoc_kit._kernels.pav_fit`: a sweep below 320 entries, the batch
passes on one row from there on) and the nonnegative orthant (a clip).  The
**norm tail** projects L(p, q), lorentz(n) = L(1, n - 1) and the ESOC(p, q):
P(w, z) = (x, s z/||z||), where (x, s) projects (w, ||z||) onto the monotone
nonnegative cone of R^(p+1), or onto {x_i >= t >= 0} for the ESOC
(:func:`_esoc_fit_batch`, on one row in :func:`project`), in closed form
at p = 1.  A **cylinder** R^p x C keeps the x block and projects the u
block onto C.  **Moreau** gives each dual kind, P_K*(v) = v + P_K(-v).

:func:`project` computes only the projected point.  Its
:class:`ProjectionResult` keeps a copy of the input and, for the isotonic
kinds, the block lengths of the fit; the distance and the blocks are
worked out from them the first time they are read.  The solver reads only
the point, once per step.

:func:`project_batch` projects every row of a matrix through the same
leaves and reductions, with the batch PAV kernel in place of ``pav_fit``.
The complementary-pair sampler behind the Lyapunov rank draws through it.

:func:`moreau_residuals` certifies a projection on every kind by Moreau's
conditions; ``check project`` reports them.  :func:`project_oracle`
re-solves the polyhedral and Lorentz problems by exhaustive face
enumeration — every subset of active constraints for the polyhedral cones,
and the interior, the apex and the boundary ray for the Lorentz cone — as
the test suite's independent second projection.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import cones
from ._kernels import isotonic_decreasing_batch, pav_fit
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
    ||u||.  The other kinds, lorentz and the duals included, give ``None``.

    ``ProjectionResult(point, distance, active_blocks=None)`` reports the
    values it is given.  A result from :func:`project` holds the point, a
    private copy of the input and the block lengths; the first read of
    ``distance`` computes ``math.sqrt(r @ r)`` with r = input - point (a
    Python float; one that overflows on finite values is taken on both
    scaled by 2^-k, as :func:`_rescaled` does, and scaled back), and the
    first read of ``active_blocks`` builds the tuple of Python-int pairs.
    Writing into the input after the call does not change either.  The
    public attributes are read-only.
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
            with np.errstate(over="ignore"):  # an overflow is evaluated again
                r = source - self._point
                d = math.sqrt(r @ r)
                if d == math.inf and np.isfinite(source).all() and np.isfinite(self._point).all():
                    k = cones._exponent(source)  # as _rescaled scales
                    r = np.ldexp(source, -k) - np.ldexp(self._point, -k)
                    d = float(np.ldexp(math.sqrt(r @ r), k))  # inf past the float range
            self._distance = d
            self._source = None
        return self._distance

    @property
    def active_blocks(self) -> tuple[tuple[int, int], ...] | None:
        lengths = self._lengths
        if lengths is not None:
            stops = list(accumulate(map(int, lengths)))
            self._blocks = tuple(zip([0] + stops[:-1], stops))
            self._lengths = None
        return self._blocks

    def __repr__(self) -> str:
        return (f"ProjectionResult(point={self.point!r}, distance={self.distance!r}, "
                f"active_blocks={self.active_blocks!r})")


# Every cone is closed under positive scaling, so P(v) = 2^k P(2^-k v), and
# scaling by a power of two is exact.  When a fast value overflows on a
# finite input, the leaf is redone on v scaled so that its largest entry lies
# in [1/2, 1).  Only an overflowed value takes that branch, so every finite
# result keeps its bits: an overflowed norm shows as inf, an overflowed fit
# as the OverflowError of pav_fit, and the pooling loops stay unguarded.


def _rescaled(leaf, v: np.ndarray):
    """``2^k leaf(2^-k v)`` for the finite ``v``, with 2^-k v in (-1, 1)."""
    k = cones._exponent(v)
    point, lengths = leaf(np.ldexp(v, -k))
    return np.ldexp(point, k), lengths


def _norm_tail(v: np.ndarray, p: int, esoc: bool = False):
    """Project (w, z) = (v[:p], v[p:]) onto {x_1 >= ... >= x_p >= ||u||}:
    (x, s) fits (w, ||z||) in the monotone nonnegative cone, the isotonic
    fit clipped at 0 inside ``pav_fit``, and u = s z/||z||.  Its blocks are
    those of that fit, index p standing for ||u||.  With ``esoc``, (x, s)
    is :func:`_esoc_fit_batch` of the one row (w, ||z||), with ||z|| = 0
    at q = 0, and has no blocks."""
    head = v
    if p < v.size:
        tail = v[p:]
        try:
            norm = math.sqrt(tail.dot(tail))
        except RuntimeWarning:  # an overflowed square sum under -W error
            norm = math.inf
        if norm == math.inf and np.isfinite(v).all():
            return _rescaled(lambda w: _norm_tail(w, p, esoc), v)
        head = v[: p + 1].copy()
        head[p] = norm
    if esoc:
        # s, a mean of ||z|| < 2^512 and entries below s, cannot overflow
        row = head if p < v.size else np.append(v, 0.0)
        fit, counts = _esoc_fit_batch(row[None], p)[0], None
    else:
        try:
            fit, counts = pav_fit(head, nonneg=True)
        except OverflowError:
            return _rescaled(lambda w: _norm_tail(w, p), v)
    if p == v.size:
        return fit[:p], counts  # the ESOC's fit holds s too
    return np.concatenate([fit[:p], tail * (fit[p] / norm if norm > 0.0 else 0.0)]), counts


def _norm_tail_1(v: np.ndarray):
    """:func:`_norm_tail` at p = 1: v, the apex or t = (h + ||z||)/2 by one comparison."""
    head, rest = float(v[0]), v[1:]  # Python floats compare and add faster
    try:
        nr = math.sqrt(rest.dot(rest))
    except RuntimeWarning:  # an overflowed square sum under -W error
        nr = math.inf
    counts = [1] if not rest.size else [2] if head <= nr else [1, 1]
    if head >= nr:
        return v.copy(), counts
    if head <= -nr:
        return np.zeros_like(v), counts
    t = (head + nr) / 2.0
    # an overflowed norm or sum; head is above -nr, so neither gives -inf
    if t == math.inf and np.isfinite(v).all():
        return _rescaled(_norm_tail_1, v)
    point = v * (t / nr if nr else t)  # nr is 0 here only when t is a NaN
    point[0] = t
    return point, counts


def _point(cone: ConeSpec, v: np.ndarray):
    """The projection of the validated ``v`` onto ``cone`` and the block
    lengths of its isotonic fit (None for kinds without one)."""
    kind, p, _ = cones.ordered_form(cone)
    if kind == cones.MONOTONE_NONNEG or kind == cones.MESOC:
        point, lengths = _norm_tail_1(v) if p == 1 else _norm_tail(v, p)
        return point, lengths if kind == cone.kind else None  # lorentz keeps None
    if kind == cones.ESOC:  # at p = 1 the Lorentz cone
        return (_norm_tail_1(v) if p == 1 else _norm_tail(v, p, esoc=True))[0], None
    if kind == cones.MONOTONE:
        try:
            return pav_fit(v)
        except OverflowError:
            return _rescaled(lambda w: _point(cone, w), v)
    if kind == cones.NONNEG_ORTHANT:
        return np.maximum(v, 0.0), None
    if kind == cones.CYLINDER:
        point, lengths = _point(cone.inner, v[cone.p :])
        return np.concatenate([v[: cone.p], point]), lengths
    # every kind left is the dual of one above; the blocks of the primal fit
    # do not describe this point
    return v + _point(cones.dual_of(cone), -v)[0], None


def project(cone: ConeSpec, z) -> ProjectionResult:
    """Project ``z`` onto ``cone``; see the module docstring for the kinds."""
    v = np.asarray(z, dtype=float).ravel()
    if v.size != cone.dim:
        raise DimensionError(f"expected a vector of length {cone.dim}, got {v.size}")
    point, lengths = _point(cone, v)
    # the result with its distance and blocks pending
    r = ProjectionResult.__new__(ProjectionResult)
    r._point = point
    r._distance = r._blocks = None
    r._source = v.copy()
    r._lengths = lengths
    return r


def _batch_point(cone: ConeSpec, V: np.ndarray) -> np.ndarray:
    """The row-wise projection of the validated 2-D ``V`` onto ``cone``."""
    kind, p, _ = cones.ordered_form(cone)
    if kind == cones.MONOTONE_NONNEG or kind == cones.MESOC or kind == cones.ESOC:
        if p == 1:  # _norm_tail_1 row by row
            head = V[:, 0]
            nr = cones.row_norms(V[:, 1:])
            t = (head + nr) / 2.0
            # a zero norm puts the row inside or in the polar, never between
            out = V * np.divide(t, nr, out=np.zeros_like(nr), where=nr > 0.0)[:, None]
            out[:, 0] = t
            inside = head >= nr
            out[inside] = V[inside]
            out[head <= -nr] = 0.0
            return out
        # isotonic_decreasing_batch is read from this module's globals, so the
        # benchmark tracer's wrapper of it counts these rows too
        if p == cone.dim and kind != cones.ESOC:  # the ESOC's q = 0 takes r = 0 below
            return isotonic_decreasing_batch(V, nonneg=True)
        tail = V[:, p:]
        norms = cones.row_norms(tail)
        head = np.column_stack([V[:, :p], norms])
        fit = _esoc_fit_batch(head, p) if kind == cones.ESOC else isotonic_decreasing_batch(head, nonneg=True)
        scale = np.divide(fit[:, p], norms, out=np.zeros_like(norms), where=norms > 0.0)
        return np.hstack([fit[:, :p], tail * scale[:, None]])
    if kind == cones.MONOTONE:
        return isotonic_decreasing_batch(V)
    if kind == cones.NONNEG_ORTHANT:
        return np.maximum(V, 0.0)
    if kind == cones.CYLINDER:
        return np.hstack([V[:, : cone.p], _batch_point(cone.inner, V[:, cone.p :])])
    return V + _batch_point(cones.dual_of(cone), -V)


# a running sum may overflow, past the run (not read) or to -inf in it (s is
# clipped to 0), and infinities of both signs add to NaN: none of it warns
@np.errstate(over="ignore", invalid="ignore")
def _esoc_fit_batch(H: np.ndarray, p: int) -> np.ndarray:
    """The projection (max(w, s), s) of every row (w, r) = (H[:p], H[p]) of
    the 2-D ``H`` onto {x_i >= t >= 0}: s is the root of s - r + sum_i
    (s - w_i)_+ = 0, clipped at 0 (Ferreira & Németh, J. Global Optim. 70,
    2018).  From s = r each sorted w_i below s is pulled in: with k pulled,
    s_k = C_k/(k + 1) over one ``cumsum`` C_k = r + w_(1) + ... + w_(k),
    and k is the length of the leading run of w_(k+1) < s_k.  A NaN is
    never pulled in, and a NaN s stays NaN."""
    S = np.sort(H[:, :p], axis=1)
    C = np.cumsum(np.column_stack([H[:, p], S]), axis=1)
    C /= np.arange(1.0, p + 2.0)
    k = np.logical_and.accumulate(S < C[:, :p], axis=1).sum(axis=1)
    s = np.maximum(C[np.arange(len(H)), k], 0.0)
    fit = np.empty_like(H)
    cones._by_rows(np.maximum, H[:, :p], s, fit[:, :p])
    fit[:, p] = s
    return fit


def project_batch(cone: ConeSpec, V) -> np.ndarray:
    """Row-wise ``project(cone, row).point`` for the rows of the 2-D ``V``.

    A mirror of :func:`_point` over a batch, with the batch PAV kernel in
    place of ``pav_fit``.  Its contract is finite rows of moderate scale:
    the rescale that keeps a near-limit projection finite lives in
    :func:`project` only.  The batch kernel sums a pooled block in another
    order than the sweep that fits :func:`project`'s heads below 320
    entries, so rows agree with :func:`project` to about 1e-12 relative.

    The rows are projected in blocks of about :data:`cones.BLOCK_ENTRIES`
    entries, whose temporaries stay in cache.  Every row gets the bytes a
    single block gives it, but for the sign of a NaN: a Moreau sum of two
    NaNs takes either one's, and IEEE 754 gives that sign no meaning.
    """
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
# independent oracle: the test suite's second projection.  No subcommand
# calls it; the benchmark tracer (perfbench/tracing.py) wraps it by name.


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


def moreau_residuals(cone: ConeSpec, v, y) -> dict[str, float]:
    """Moreau's conditions y in K, y - v in K* and <y, y - v> = 0, which hold
    for y = P_K(v) and no other y, as slacks that hold at >= 0: the least
    slacks over 1 + ||v|| and minus the largest |term| of <y, y - v>
    (:func:`~mesoc_kit.cones.complementarity_terms`) over 1 + ||v||^2.  The
    conditions are homogeneous, so when ||v||^2, the term or a slack
    overflows on finite v and y they are taken on 2^-k (v, y), scaled as
    :func:`_rescaled` scales, over 2^-k + ||2^-k v|| and 2^-2k + ||2^-k v||^2:
    the same ratios.  A least slack of +inf is that of a cone with no
    inequality, not an overflow."""
    v = cones._as_vector(v, cone.dim)
    res, overflowed = _moreau(cone, v, y, 1.0)
    if overflowed and np.isfinite(v).all() and np.isfinite(y).all():
        k = cones._exponent(v)
        res, _ = _moreau(cone, np.ldexp(v, -k), np.ldexp(y, -k), math.ldexp(1.0, -k))
    return res


@np.errstate(over="ignore", invalid="ignore")  # an overflow is evaluated again
def _moreau(cone, v, y, one):
    primal, dual, largest = cones.pair_residuals(cone, y, y - v)
    scale, square = one + float(np.linalg.norm(v)), one * one + float(v @ v)
    res = {"primal_membership": primal / scale, "dual_membership": dual / scale,
           "orthogonality": -largest / square}
    finite = square < math.inf and largest < math.inf and primal > -math.inf and dual > -math.inf
    return res, not finite


def _moreau_residual(cone: ConeSpec, v: np.ndarray, y: np.ndarray) -> float:
    """The largest violation of :func:`moreau_residuals`, NaN if one is NaN."""
    return -float(np.min(list(moreau_residuals(cone, v, y).values())))


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
