"""Euclidean projections onto the solvable cones, plus a slow exact oracle.

The isotonic projections run through the pool-adjacent-violators kernel in
:mod:`mesoc_kit._kernels`; the Lorentz projection is the standard three-case
closed form; cylinders project blockwise (the free block is untouched).

:func:`project_oracle` re-solves the same problems by exhaustive face
enumeration — every subset of active constraints for the polyhedral cones,
and the interior, the apex and the boundary ray for the Lorentz cone — and
certifies each result with the full Moreau conditions.  ``check project``
and the test suite use it to cross-check the fast paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones
from ._kernels import isotonic_decreasing, isotonic_decreasing_batch
from .cones import ConeSpec, PartitionedVector
from .errors import DimensionError, OracleError, UnsupportedConeError


@dataclass(frozen=True)
class ProjectionResult:
    """Projection output: the point, its distance from the input, and (for
    the isotonic solvers) the index ranges merged into constant blocks."""

    point: np.ndarray
    distance: float
    active_blocks: tuple[tuple[int, int], ...] | None = None


def _as_1d(v, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise DimensionError("cannot project an empty vector")
    if dim is not None and v.size != dim:
        raise DimensionError(f"expected length {dim}, got {v.size}")
    return v


def _result(v: np.ndarray, point: np.ndarray, blocks=None) -> ProjectionResult:
    r = v - point
    return ProjectionResult(point, math.sqrt(r @ r), blocks)


def _blocks(starts: np.ndarray, lengths: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple((s, s + c) for s, c in zip(starts.tolist(), lengths.tolist()))


# The routines below take a vector that _as_1d has already validated.


def _monotone(v: np.ndarray) -> ProjectionResult:
    fit, starts, lengths = isotonic_decreasing(v)
    return _result(v, fit, _blocks(starts, lengths))


def _monotone_nonneg(v: np.ndarray) -> ProjectionResult:
    fit, starts, lengths = isotonic_decreasing(v)
    return _result(v, np.maximum(fit, 0.0), _blocks(starts, lengths))


def _lorentz(v: np.ndarray) -> ProjectionResult:
    head, rest = v[0], v[1:]
    nr = math.sqrt(rest @ rest)
    if head >= nr:
        point = v.copy()
    elif head <= -nr:
        point = np.zeros_like(v)
    else:
        t = (head + nr) / 2.0
        point = np.concatenate([[t], rest * (t / nr)])
    return _result(v, point)


def _nonneg_orthant(v: np.ndarray) -> ProjectionResult:
    return _result(v, np.maximum(v, 0.0))


def project_monotone(v) -> ProjectionResult:
    """Project onto the nonincreasing vectors x_1 >= ... >= x_n."""
    return _monotone(_as_1d(v))


def project_monotone_nonneg(v) -> ProjectionResult:
    """Project onto nonincreasing nonnegative vectors (isotonic fit, then clip)."""
    return _monotone_nonneg(_as_1d(v))


def project_lorentz(v) -> ProjectionResult:
    """Project onto the second order cone x_1 >= ||rest||: identity inside,
    zero on the polar, and the boundary average in between."""
    return _lorentz(_as_1d(v))


def project_nonneg_orthant(v) -> ProjectionResult:
    return _nonneg_orthant(_as_1d(v))


_PROJECTABLE = {
    cones.MONOTONE: _monotone,
    cones.MONOTONE_NONNEG: _monotone_nonneg,
    cones.NONNEG_ORTHANT: _nonneg_orthant,
    cones.LORENTZ: _lorentz,
}


def project(cone: ConeSpec, z) -> ProjectionResult:
    """Dispatch to the projection for ``cone``.

    Supported: the monotone / monotone nonnegative cones, the nonnegative
    orthant, the Lorentz cone, and cylinders over any of those.
    """
    if cone.kind == cones.CYLINDER:
        return project_cylinder(cone.p, cone.inner, z)
    fn = _PROJECTABLE.get(cone.kind)
    if fn is None:
        raise UnsupportedConeError(f"no projection for {cone.kind!r}")
    return fn(_as_1d(z, cone.dim))


def project_cylinder(p: int, inner: ConeSpec, z) -> ProjectionResult:
    """Project onto R^p x C by leaving the x block alone and projecting the
    u block onto the base cone."""
    if isinstance(z, PartitionedVector):
        z = z.concat()
    z = _as_1d(z, p + inner.dim)
    inner_result = project(inner, z[p:])
    point = np.concatenate([z[:p], inner_result.point])
    return _result(z, point, inner_result.active_blocks)


def project_monotone_batch(V) -> np.ndarray:
    """Row-wise :func:`project_monotone` (no block bookkeeping)."""
    V = np.ascontiguousarray(np.atleast_2d(np.asarray(V, dtype=float)))
    return isotonic_decreasing_batch(V)


def project_monotone_nonneg_batch(V) -> np.ndarray:
    """Row-wise :func:`project_monotone_nonneg`."""
    return np.maximum(project_monotone_batch(V), 0.0)


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
    primal = np.min(cones.membership_slacks(cone, y), initial=0.0)
    dual = np.min(cones.membership_slacks(cones.dual_of(cone), y - v), initial=0.0)
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
    (y in K, y - v in K*, <v - y, y> = 0) at 1e-8, and
    :class:`UnsupportedConeError` for a polyhedral cone with more than
    :data:`ORACLE_MAX_ROWS` constraint rows.
    """
    v = _as_1d(v, cone.dim)
    if cone.kind == cones.CYLINDER:
        inner = project_oracle(cone.inner, v[cone.p:])
        y = np.concatenate([v[: cone.p], inner.point])
    elif cone.kind == cones.LORENTZ:
        y = _lorentz_oracle(v)
    else:
        y = _polyhedral_oracle(cone, v)
    resid = _moreau_residual(cone, v, y)
    if resid > 1e-8:
        raise OracleError(f"oracle optimality residual {resid:.3e} exceeds 1e-8")
    return ProjectionResult(y, float(np.linalg.norm(v - y)), None)
