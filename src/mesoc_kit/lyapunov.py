"""Lyapunov-like matrices: structured bases and a numeric rank oracle.

A matrix T is Lyapunov-like for a cone K when <w, T z> = 0 for every
complementary pair (z in K, w in K*, <z, w> = 0).  These matrices form a
linear space whose dimension, the rank, only depends on K and follows
from its factor table (``predicted_rank``); two other routes to it are:

* a basis for L(p, q), the monotone nonnegative cone included at q = 0
  (``lyap_basis_mesoc``), conjugated back from the basis of the product
  that :func:`mesoc_kit.cones.factors` reduces L(p, q) to, and
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
    FREE,
    RAY,
    ZERO,
    _INVERSE,
    ConeSpec,
    _as_vector,
    _exponent,
    check_tol,
    factors,
    mesoc,
    row_norms,
)
from .errors import DimensionError, OracleError


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
    A the reduction of :func:`~mesoc_kit.cones.factors` onto R_+^(p-1) x
    L^(q+1), over the product's basis S: the identity, a unit diagonal per
    ray, and the q boosts (``coupling``) and q(q-1)/2 rotations (``skew``)
    of the Lorentz factor.
    """
    n = p + q
    lo, hi, reduce, parts = factors(mesoc(p, q))
    # a map of the rows of the identity gives the transpose of its matrix
    A, A_inv = np.eye(n), np.eye(n)
    A[lo:hi, lo:hi] = reduce(np.eye(hi - lo)).T
    A_inv[lo:hi, lo:hi] = _INVERSE[reduce](np.eye(hi - lo)).T
    product = []
    for f, a, m, b in parts:
        if f == RAY:
            product += [({"ray": i}, [(i, i, 1.0)]) for i in range(a, m)]
            continue
        product += [({"coupling": k}, [(a, m + k, 1.0), (m + k, a, 1.0)]) for k in range(b - m)]
        product += [({"skew": (k, l)}, [(m + k, m + l, 1.0), (m + l, m + k, -1.0)])
                    for k in range(b - m) for l in range(k + 1, b - m)]
    out = [LyapMatrix(np.eye(n), {"diag": 1.0})]
    for params, entries in product:
        S = np.zeros((n, n))
        for i, j, s in entries:
            S[i, j] = s
        out.append(LyapMatrix(A_inv @ S @ A, params))
    return out


def predicted_rank(cone: ConeSpec) -> int:
    """The Lyapunov rank of ``cone`` from its factor table.

    Up to the map A the cone is R^k x {0}^l x K_1 x ... x K_m, the free
    lines and zeros of the table and its other factors.  A Lyapunov-like T
    maps neither R^k nor the K_i into the zeros' coordinates, nor R^k into
    the K_i's, so beta = k * dim + l * (dim - k) + sum beta(K_i)
    (Gowda & Tao, Math. Program. 147, 2014), which gives a dual the rank of
    its primal.  A factor of p heads and a norm block of q has the rank of
    esoc(p, q): p at q = 0 (R_+^p), 1 + q(q+1)/2 at p = 1 (L^(q+1)), and
    1 + q(q-1)/2 otherwise (Sznajder, J. Global Optim. 66, 2016).
    """
    n, k, l, rank = cone.dim, 0, 0, 0
    for f, a, m, b in factors(cone)[3]:
        p, q = m - a, b - m
        if f == FREE:
            k += p
        elif f == ZERO:
            l += p
        else:
            rank += p if not q else 1 + q * (q + 1) // 2 if p == 1 else 1 + q * (q - 1) // 2
    return k * n + l * (n - k) + rank


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
    is returned as a witness when the check fails.  Each pair is evaluated
    on 2^-a z and 2^-b w over (2^-a + |2^-a z|)(2^-b + |2^-b w|), with
    a, b >= 0 from :func:`~mesoc_kit.cones._exponent`: the same ratio, as
    powers of two scale exactly, and no overflow of |<w, T z>| or of the
    scale at large z and w.  With no pair to check
    (``n_pairs`` below 1, or an empty ``pairs``) it raises ``ValueError``,
    and with a matrix that is not dim x dim ``DimensionError``, before it
    samples.
    """
    check_tol(tol)
    T = matrix.entries if isinstance(matrix, LyapMatrix) else np.asarray(matrix, dtype=float)
    if T.shape != (cone.dim, cone.dim):
        raise DimensionError(f"matrix must be {cone.dim} x {cone.dim}, got shape {T.shape}")
    Z, W = _pairs(cone, sampling.rng_from_seed(seed), n_pairs, pairs)
    a = np.maximum([_exponent(z) for z in Z], 0)
    b = np.maximum([_exponent(w) for w in W], 0)
    Zs, Ws = np.ldexp(Z, -a[:, None]), np.ldexp(W, -b[:, None])
    vals = np.abs(np.einsum("ij,jk,ik->i", Ws, T, Zs))
    scale = (np.ldexp(1.0, -a) + row_norms(Zs)) * (np.ldexp(1.0, -b) + row_norms(Ws))
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


# singular values below this share of the largest count as zero
SVD_TOL = 1e-8


def _constraint_rank(Z: np.ndarray, W: np.ndarray):
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
    cut = SVD_TOL * s[0]
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
    r, gap = _constraint_rank(Z, W)
    for _ in range(MAX_DOUBLINGS):
        Z2, W2 = sampling.complementarity_pairs(cone, rng, 2 * len(Z))
        Z, W = np.vstack([Z, Z2]), np.vstack([W, W2])
        r_next, gap_next = _constraint_rank(Z, W)
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
