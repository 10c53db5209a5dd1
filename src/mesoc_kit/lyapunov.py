"""Lyapunov-like matrices: structured bases and a numeric rank oracle.

A matrix T is Lyapunov-like for a cone K when <w, T z> = 0 for every
complementary pair (z in K, w in K*, <z, w> = 0).  These matrices form a
linear space whose dimension only depends on K; two independent routes to
it live here:

* a basis for L(p, q), the monotone nonnegative cone included at q = 0
  (``lyap_basis_mesoc``), conjugated back from the basis of the product
  that the reduction map of :mod:`mesoc_kit.cones` takes L(p, q) onto, and
* ``lyapunov_rank_numeric``, which stacks the rank-one constraints
  kron(w, z) coming from sampled complementary pairs and counts the
  dimension of their null space.  The pairs are Moreau splits of random
  points (:func:`mesoc_kit.sampling.complementarity_pairs`), so every kind
  :func:`mesoc_kit.projections.project_batch` reaches is measured, and the
  sample is doubled until the rank is stable.
"""

from __future__ import annotations

import numpy as np

from . import sampling
from ._record import factory, record
from .cones import (
    CYLINDER,
    MESOC,
    MESOC_DUAL,
    MONOTONE,
    MONOTONE_NONNEG,
    NONNEG_ORTHANT,
    ConeSpec,
    _as_vector,
    check_tol,
    dual_of,
    ordered_form,
    reduced_coordinates,
    row_norms,
)
from .errors import OracleError, UnsupportedConeError


@record
class LyapMatrix:
    entries: np.ndarray
    params: dict = factory(dict)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def lyap_basis_mesoc(p: int, q: int) -> list[LyapMatrix]:
    """Basis of the Lyapunov-like space of L(p, q) in (x, u) coordinates,
    p + q(q+1)/2 matrices; L(p, 0) is the monotone nonnegative cone.

    The Lyapunov-like space of a product is the direct sum of its factors'
    spaces (Gowda & Tao, Math. Program. 147, 2014).  So the basis is A^-1 S A,
    A the reduction onto R_+^(p-1) x L^(q+1), over the product's basis S: the
    identity, a unit diagonal per ray, and the q boosts (``coupling``) and
    q(q-1)/2 rotations (``skew``) of the Lorentz factor, whose head is p - 1.
    """
    n, h = p + q, p - 1
    # the helper's rows are the columns of A (primal) and of A^-T (dual)
    A, A_inv = np.eye(n), np.eye(n)
    A[:p, :p] = reduced_coordinates(MESOC, np.eye(p)).T
    A_inv[:p, :p] = reduced_coordinates(MESOC_DUAL, np.eye(p))
    product = (
        [({"ray": i}, [(i, i, 1.0)]) for i in range(h)]
        + [({"coupling": k}, [(h, p + k, 1.0), (p + k, h, 1.0)]) for k in range(q)]
        + [({"skew": (k, l)}, [(p + k, p + l, 1.0), (p + l, p + k, -1.0)])
           for k in range(q) for l in range(k + 1, q)]
    )
    out = [LyapMatrix(np.eye(n), {"diag": 1.0})]
    for params, entries in product:
        S = np.zeros((n, n))
        for i, j, s in entries:
            S[i, j] = s
        out.append(LyapMatrix(A_inv @ S @ A, params))
    return out


def predicted_rank(cone: ConeSpec) -> int:
    """Closed-form Lyapunov rank for the kinds where one is known.

    A dual kind has the rank of its primal, beta(K*) = beta(K) (Gowda & Tao,
    Math. Program. 147, 2014).  A cone R^k x K' with K' pointed has
    k(k + dim K') + beta(K'): the monotone cone, R x R_+^(p-1) under the
    reduction map, has 2p - 1.  A cylinder R^p x C has p(p + q + k) + beta(C),
    k the dimension of C's lineality space, into which T may map R^p.
    """
    kind, p, q = ordered_form(cone)
    # the monotone nonnegative cone is L(p, 0)
    if kind == MESOC or kind == MONOTONE_NONNEG:
        return p + q * (q + 1) // 2
    if kind == NONNEG_ORTHANT:
        return cone.p
    if kind == MONOTONE:
        return 2 * p - 1
    if kind == CYLINDER:
        return cone.p * (cone.dim + _lineality(cone.inner)) + predicted_rank(cone.inner)
    if kind.endswith("_dual"):
        return predicted_rank(dual_of(cone))
    raise UnsupportedConeError(f"no closed-form Lyapunov rank for {kind!r}")


def _lineality(cone: ConeSpec) -> int:
    """The dimension of the largest subspace in ``cone``."""
    if cone.inner is not None:  # R^p x C or {0}^p x C
        return cone.p * (cone.kind == CYLINDER) + _lineality(cone.inner)
    return int(cone.kind == MONOTONE)  # the line of (1, ..., 1)


def _check_n_pairs(n_pairs):
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")


def _pairs(cone, rng, n_pairs, pairs):
    if pairs is not None:
        if not len(pairs):
            raise ValueError("pairs must hold at least one pair")
        Z = np.array([_as_vector(z, cone.dim) for z, _ in pairs])
        W = np.array([_as_vector(w, cone.dim) for _, w in pairs])
        return Z, W
    _check_n_pairs(n_pairs)
    return sampling.complementarity_pairs(cone, rng, n_pairs)


@record
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
    is returned as a witness when the check fails.  With no pair to check
    (``n_pairs`` below 1, or an empty ``pairs``) it raises ``ValueError``.
    """
    check_tol(tol)
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


@record
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


# doublings of the sample before the rank is declared unstable; the last
# round holds 81 times the first draw
MAX_DOUBLINGS = 4


def lyapunov_rank_numeric(
    cone: ConeSpec,
    n_pairs: int = 400,
    seed: int = 0,
    svd_tol: float = 1e-8,
) -> LyapRankResult:
    """Measure the Lyapunov rank of a cone from sampled complementary pairs.

    Each pair (z, w) contributes the linear constraint <vec(T), kron(w, z)>
    = 0; the rank is dim^2 minus the numerical rank of the stacked
    constraints.  The sample is doubled until that rank repeats, at most
    :data:`MAX_DOUBLINGS` times; if it never does, the sample is deemed too
    thin and an OracleError is raised.  ``n_pairs`` of the result counts
    every pair drawn, and ``singular_gap`` is the smaller gap of the two
    agreeing rounds.  ``n_pairs`` below 1 raises ``ValueError``.
    """
    _check_n_pairs(n_pairs)
    m = cone.dim
    rng = sampling.rng_from_seed(seed)
    Z, W = sampling.complementarity_pairs(cone, rng, n_pairs)
    r, gap = _constraint_rank(Z, W, svd_tol)
    for _ in range(MAX_DOUBLINGS):
        Z2, W2 = sampling.complementarity_pairs(cone, rng, 2 * len(Z))
        Z, W = np.vstack([Z, Z2]), np.vstack([W, W2])
        r_next, gap_next = _constraint_rank(Z, W, svd_tol)
        if r_next == r:
            return LyapRankResult(
                rank=m * m - r,
                matrix_dim=m,
                n_pairs=len(Z),
                singular_gap=min(gap, gap_next),
            )
        r, gap = r_next, gap_next
    raise OracleError(
        f"constraint rank did not stabilize over {MAX_DOUBLINGS} doublings "
        f"({len(Z)} pairs, last rank {r}); increase n_pairs"
    )
