"""Lyapunov-like matrices: structured bases and a numeric rank oracle.

A matrix T is Lyapunov-like for a cone K when <w, T z> = 0 for every
complementary pair (z in K, w in K*, <z, w> = 0).  These matrices form a
linear space whose dimension only depends on K; two independent routes to
it live here:

* closed-form bases for the nonincreasing-nonnegative cone and for the
  ordered cone with a norm tail (``lyap_basis_*``), and
* ``lyapunov_rank_numeric``, which stacks the rank-one constraints
  kron(w, z) coming from sampled complementary pairs and counts the
  dimension of their null space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .cones import (
    LORENTZ,
    MESOC,
    MONOTONE_NONNEG,
    NONNEG_ORTHANT,
    ConeSpec,
    _as_vector,
    row_norms,
)
from .errors import OracleError, UnsupportedConeError


@dataclass(frozen=True)
class LyapMatrix:
    entries: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _block(p: int, q: int) -> np.ndarray:
    return np.zeros((p + q, p + q))


def lyap_basis_monotone_nonneg(p: int) -> list[LyapMatrix]:
    """Basis of the Lyapunov-like space for the cone of nonincreasing
    nonnegative vectors in R^p; its dimension is p.

    The family is upper triangular: a common diagonal shift plus, for each
    column j >= 2, a matrix with +1 at (i, j) and -1 at (i, i) for all
    rows i < j.
    """
    out = [LyapMatrix(np.eye(p), {"diag": 1.0})]
    for j in range(1, p):
        T = np.zeros((p, p))
        T[:j, j] = 1.0
        T[np.arange(j), np.arange(j)] = -1.0
        out.append(LyapMatrix(T, {"column": j}))
    return out


def lyap_basis_mesoc(p: int, q: int) -> list[LyapMatrix]:
    """Basis of the Lyapunov-like space for the ordered cone with a norm
    tail, in (x, u) block coordinates; its dimension is p + q(q+1)/2.

    Blocks: the x-x block runs over the nonincreasing-nonnegative family,
    the u-u block over shifts of the identity plus antisymmetric matrices,
    and a vector c couples the blocks (row-constant x-u block, c in the
    last column of the u-x block).
    """
    out = []
    for base in lyap_basis_monotone_nonneg(p):
        T = _block(p, q)
        T[:p, :p] = base.entries
        if "diag" in base.params:
            T[p:, p:] = np.eye(q)
        out.append(LyapMatrix(T, base.params))
    for k in range(q):
        T = _block(p, q)
        T[:p, p + k] = 1.0
        T[p + k, p - 1] = 1.0
        out.append(LyapMatrix(T, {"coupling": k}))
    for k in range(q):
        for l in range(k + 1, q):
            T = _block(p, q)
            T[p + k, p + l] = 1.0
            T[p + l, p + k] = -1.0
            out.append(LyapMatrix(T, {"skew": (k, l)}))
    return out


def predicted_rank(cone: ConeSpec) -> int:
    """Closed-form Lyapunov rank for the kinds where one is known."""
    if cone.kind == MESOC:
        return cone.p + cone.q * (cone.q + 1) // 2
    if cone.kind == MONOTONE_NONNEG:
        return cone.p
    if cone.kind == NONNEG_ORTHANT:
        return cone.p
    if cone.kind == LORENTZ:
        n = cone.p
        return n * (n - 1) // 2 + 1
    raise UnsupportedConeError(f"no closed-form Lyapunov rank for {cone.kind!r}")


def _pairs(cone, rng, n_pairs, pairs):
    if pairs is not None:
        Z = np.array([_as_vector(z, cone.dim) for z, _ in pairs])
        W = np.array([_as_vector(w, cone.dim) for _, w in pairs])
        return Z, W
    return sampling.complementarity_pairs(cone, rng, n_pairs)


@dataclass(frozen=True)
class LyapCheck:
    ok: bool
    checked: int
    max_residual: float
    witness: tuple[np.ndarray, np.ndarray] | None


def is_lyapunov_like(
    matrix,
    cone: ConeSpec,
    n_pairs: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
    pairs=None,
) -> LyapCheck:
    """Sampled check of <w, T z> = 0 over complementary pairs of the cone.

    Residuals are normalized per pair by (1 + |z|)(1 + |w|); the worst pair
    is returned as a witness when the check fails.
    """
    T = matrix.entries if isinstance(matrix, LyapMatrix) else np.asarray(matrix, dtype=float)
    Z, W = _pairs(cone, sampling.rng_from_seed(seed), n_pairs, pairs)
    vals = np.abs(np.einsum("ij,jk,ik->i", W, T, Z))
    scale = (1.0 + row_norms(Z)) * (1.0 + row_norms(W))
    res = vals / scale
    worst = int(np.argmax(res))
    ok = bool(res[worst] <= tol)
    return LyapCheck(
        ok=ok,
        checked=len(Z),
        max_residual=float(res[worst]),
        witness=None if ok else (Z[worst], W[worst]),
    )


@dataclass(frozen=True)
class LyapRankResult:
    rank: int
    matrix_dim: int
    n_pairs: int
    singular_gap: float


def _constraint_rank(Z: np.ndarray, W: np.ndarray, svd_tol: float):
    rows = np.einsum("ik,il->ikl", W, Z).reshape(len(Z), -1)
    # np.linalg.norm, not row_norms: the two differ in the last bit from
    # three columns on, and the singular gap, a ratio against noise-level
    # singular values, would then change in the reports.  The SVD dominates.
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0
    rows = rows[keep] / norms[keep, None]
    if not len(rows):  # every pair had a zero member: no constraints at all
        return 0, np.inf
    s = np.linalg.svd(rows, compute_uv=False)
    cut = svd_tol * s[0]
    r = int(np.count_nonzero(s > cut))
    below = s[r] if r < s.size else 0.0
    gap = float(s[r - 1] / below) if below > 0 else np.inf
    return r, gap


def lyapunov_rank_numeric(
    cone: ConeSpec,
    n_pairs: int = 400,
    seed: int = 0,
    svd_tol: float = 1e-8,
) -> LyapRankResult:
    """Measure the Lyapunov rank of a cone from sampled complementary pairs.

    Each pair (z, w) contributes the linear constraint <vec(T), kron(w, z)>
    = 0; the rank is dim^2 minus the numerical rank of the stacked
    constraints.  The batch is doubled once and the result must agree, else
    the sample is deemed too thin and an OracleError is raised.
    """
    m = cone.dim
    rng = sampling.rng_from_seed(seed)
    Z1, W1 = sampling.complementarity_pairs(cone, rng, n_pairs)
    r1, gap1 = _constraint_rank(Z1, W1, svd_tol)
    Z2, W2 = sampling.complementarity_pairs(cone, rng, 2 * n_pairs)
    r2, gap2 = _constraint_rank(np.vstack([Z1, Z2]), np.vstack([W1, W2]), svd_tol)
    if r1 != r2:
        raise OracleError(
            f"constraint rank did not stabilize ({r1} vs {r2} after doubling); "
            "increase n_pairs"
        )
    return LyapRankResult(
        rank=m * m - r2,
        matrix_dim=m,
        n_pairs=len(Z1) + len(Z2),
        singular_gap=min(gap1, gap2),
    )
