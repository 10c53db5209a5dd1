"""Cone descriptions, membership, duality, complementarity, decomposition.

The central object is the monotone extended second order cone

    L(p, q) = { (x, u) in R^p x R^q : x_1 >= x_2 >= ... >= x_p >= ||u|| }

together with its dual

    M(p, q) = { (y, v) : y_1 + ... + y_j >= 0 for j < p,
                          y_1 + ... + y_p >= ||v|| },

the "all coordinates dominate the norm" variant (x_i >= ||u|| for every i),
the plain monotone / monotone nonnegative cones and their duals, the Lorentz
cone, the nonnegative orthant, and cylinders R^p x C with their duals
{0}^p x C*.  Vectors over the partitioned cones split into an ``x`` block of
length ``p`` and a ``u`` block of length ``q``.

Every cone is represented by a small frozen :class:`ConeSpec`; membership is
computed through per-inequality slack vectors so callers can see which
inequality failed, not just a boolean.

L(p, q) is reducible: A(x, u) = (x_1 - x_2, ..., x_{p-1} - x_p, x_p, u)
takes it onto R_+^(p-1) x L^(q+1).  :func:`reduced_coordinates` is A's one
encoding, and :data:`TAILS` holds the tail factor of each ordered kind.  The
slacks, the structured complementarity test, the decomposition and the
Lyapunov basis (:mod:`mesoc_kit.lyapunov`) derive from the two.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import factory, record
from .errors import DimensionError, MembershipError

MESOC = "mesoc"
MESOC_DUAL = "mesoc_dual"
ESOC = "esoc"
ESOC_DUAL = "esoc_dual"
MONOTONE = "monotone"
MONOTONE_DUAL = "monotone_dual"
MONOTONE_NONNEG = "monotone_nonneg"
MONOTONE_NONNEG_DUAL = "monotone_nonneg_dual"
NONNEG_ORTHANT = "nonneg_orthant"
LORENTZ = "lorentz"
CYLINDER = "cylinder"
CYLINDER_DUAL = "cylinder_dual"

KINDS = frozenset(
    {
        MESOC,
        MESOC_DUAL,
        ESOC,
        ESOC_DUAL,
        MONOTONE,
        MONOTONE_DUAL,
        MONOTONE_NONNEG,
        MONOTONE_NONNEG_DUAL,
        NONNEG_ORTHANT,
        LORENTZ,
        CYLINDER,
        CYLINDER_DUAL,
    }
)

# kinds whose vectors split into (x, u) blocks; only they take a q
PARTITIONED_KINDS = frozenset({MESOC, MESOC_DUAL, ESOC, ESOC_DUAL, CYLINDER, CYLINDER_DUAL})

# slack allowed by membership and complementarity checks
DEFAULT_TOL = 1e-10


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0.  Every comparison
    with NaN is false, so a NaN tolerance would let a check pass untested."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def least_slack(slacks):
    """The least membership slack over the last axis of ``slacks`` (one value
    per row of a batch); +inf for a cone with no inequality, which holds
    every vector of its space.  A NaN slack gives NaN, which no check passes."""
    return np.minimum.reduce(slacks, axis=-1, initial=np.inf)


@record
class ConeSpec:
    """Description of a cone: a variant tag plus dimension parameters.

    ``p`` is the x-block length (or the full length for unpartitioned kinds),
    ``q`` the u-block length, and ``inner`` the base cone for cylinders.  Use
    the module-level factories (:func:`mesoc`, :func:`lorentz`, ...) rather
    than the constructor.
    """

    kind: str
    p: int
    q: int = 0
    inner: ConeSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.p < 1:
            raise ValueError("dimension parameters must be strictly positive")
        if self.q < 0 or (self.q == 0 and self.kind in (CYLINDER, CYLINDER_DUAL)):
            raise ValueError("cylinder cones need a nonempty base")
        if self.q and self.kind not in PARTITIONED_KINDS:
            raise ValueError(f"kind {self.kind!r} has no u block, so q must be 0")
        if self.kind in (CYLINDER, CYLINDER_DUAL):
            if self.inner is None:
                raise ValueError("cylinder cones require an inner cone")
            if self.inner.dim != self.q:
                raise DimensionError("cylinder q does not match the inner cone dimension")
        elif self.inner is not None:
            raise ValueError(f"kind {self.kind!r} does not take an inner cone")

    @property
    def dim(self) -> int:
        return self.p + self.q

    def __str__(self):
        if self.kind in (CYLINDER, CYLINDER_DUAL):
            return f"{self.kind}(p={self.p}, inner={self.inner})"
        if self.kind in PARTITIONED_KINDS:
            return f"{self.kind}({self.p}, {self.q})"
        return f"{self.kind}({self.p})"


def mesoc(p: int, q: int) -> ConeSpec:
    """Cone of (x, u) with x nonincreasing and x_p >= ||u||."""
    return ConeSpec(MESOC, p, q)

def mesoc_dual(p: int, q: int) -> ConeSpec:
    """Dual of :func:`mesoc`: partial sums of y nonnegative, total >= ||v||."""
    return ConeSpec(MESOC_DUAL, p, q)

def esoc(p: int, q: int) -> ConeSpec:
    """Cone of (x, u) with every x_i >= ||u||."""
    return ConeSpec(ESOC, p, q)

def esoc_dual(p: int, q: int) -> ConeSpec:
    """Dual of :func:`esoc`: x >= 0 componentwise and sum(x) >= ||u||."""
    return ConeSpec(ESOC_DUAL, p, q)

def monotone(n: int) -> ConeSpec:
    """Nonincreasing vectors x_1 >= ... >= x_n."""
    return ConeSpec(MONOTONE, n)

def monotone_dual(n: int) -> ConeSpec:
    """Dual of :func:`monotone`: leading partial sums >= 0, total sum = 0."""
    return ConeSpec(MONOTONE_DUAL, n)

def monotone_nonneg(n: int) -> ConeSpec:
    """Nonincreasing nonnegative vectors x_1 >= ... >= x_n >= 0."""
    return ConeSpec(MONOTONE_NONNEG, n)

def monotone_nonneg_dual(n: int) -> ConeSpec:
    """Dual of :func:`monotone_nonneg`: all partial sums >= 0."""
    return ConeSpec(MONOTONE_NONNEG_DUAL, n)

def nonneg_orthant(n: int) -> ConeSpec:
    """Componentwise nonnegative vectors."""
    return ConeSpec(NONNEG_ORTHANT, n)

def lorentz(n: int) -> ConeSpec:
    """Second order cone in R^n: x_1 >= ||(x_2, ..., x_n)||."""
    return ConeSpec(LORENTZ, n)

def cylinder(p: int, inner: ConeSpec) -> ConeSpec:
    """R^p x C for a base cone C over the u block."""
    return ConeSpec(CYLINDER, p, inner.dim, inner)

def cylinder_dual(p: int, inner: ConeSpec) -> ConeSpec:
    """{0}^p x D; obtained from :func:`dual_of` with D the dual base."""
    return ConeSpec(CYLINDER_DUAL, p, inner.dim, inner)


@record
class PartitionedVector:
    """A vector split into its x block (length p) and u block (length q)."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        u = np.atleast_1d(np.asarray(self.u, dtype=float)) if np.size(self.u) else np.empty(0)
        if x.ndim != 1 or u.ndim != 1:
            raise DimensionError("blocks must be one-dimensional")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise ValueError("blocks must contain finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @classmethod
    def from_array(cls, z, p: int, q: int) -> PartitionedVector:
        """Split ``z`` into views of its two blocks, checked in one pass."""
        z = np.asarray(z, dtype=float).ravel()
        if z.size != p + q:
            raise DimensionError(f"expected length {p + q}, got {z.size}")
        if not np.isfinite(z).all():
            raise ValueError("blocks must contain finite values")
        return cls._split(z, p)

    @classmethod
    def _split(cls, z: np.ndarray, p: int) -> PartitionedVector:
        """Views of the 1-D float array ``z``, known finite, split at ``p``."""
        out = object.__new__(cls)
        object.__setattr__(out, "x", z[:p])
        object.__setattr__(out, "u", z[p:])
        return out

    @property
    def p(self) -> int:
        return self.x.size

    @property
    def q(self) -> int:
        return self.u.size

    @property
    def dim(self) -> int:
        return self.x.size + self.u.size

    def concat(self) -> np.ndarray:
        return np.concatenate([self.x, self.u])

    def __array__(self, dtype=None, copy=None):
        out = self.concat()
        return out.astype(dtype) if dtype is not None else out


def _as_vector(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float).ravel()
    if z.size != dim:
        raise DimensionError(f"expected a vector of length {dim}, got {z.size}")
    return z


def membership_slacks(cone: ConeSpec, z) -> np.ndarray:
    """Signed slack of every defining inequality at ``z`` (all >= 0 inside).

    Equality constraints contribute a pair of one-sided slacks, so membership
    is uniformly ``min(slacks) >= -tol``.
    """
    z = _as_vector(z, cone.dim)
    return _slacks_batch(cone, z[None, :])[0]


# Entries per row block of the batch functions: 512 KiB of float64, so a
# block's temporaries stay in a core's L2 cache (benchmarks/bench_kernels.py).
BLOCK_ENTRIES = 2**16


# Blocks of at most this many columns are worked down their columns, one 1-D
# ufunc call per column: NumPy runs a 2-D ufunc with its inner loop on the
# last axis, so on a narrow block it pays per row, not per entry.  Wider
# blocks keep the 2-D form (the narrow-block table of
# benchmarks/bench_kernels.py).
NARROW_MAX = 2

# row_norms sums the squared columns of a block of two to NARROW_MAX columns
# only from this many rows: below, the slices and additions of the column
# form cost more than one einsum call (the short-block table of
# benchmarks/bench_kernels.py).
NARROW_MIN_ROWS = 256


def row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of the 2-D array ``A``.

    One ``einsum`` pass over the rows; ``np.linalg.norm(A, axis=1)`` runs a
    short reduction loop per row, about 5x slower at 200000 x 8.  The two
    agree bit for bit up to two columns and within a few ulp beyond.  A
    block of one column, or of at most :data:`NARROW_MAX` columns and at
    least :data:`NARROW_MIN_ROWS` rows, sums its squared columns instead,
    with the bits of ``einsum``, which adds a row's first two squares as one
    sum: at 200000 x 2 it takes about 0.8 ms against 1.3, and at 16384 x 2
    0.04 ms against 0.12.  A shorter block of two columns, such as the steps
    of a solve that its order certificates take, makes one ``einsum`` call,
    which costs less than the column form's slices and additions.  The
    square root is taken in place, which spares a second vector of norms.
    """
    m, n = A.shape
    if 0 < n <= NARROW_MAX and (n == 1 or m >= NARROW_MIN_ROWS):
        s = _column_squares(A)
    else:
        s = np.einsum("ij,ij->i", A, A)
    return np.sqrt(s, out=s)


# einsum raises no overflow warning, so neither do the squares
@np.errstate(over="ignore")
def _column_squares(A):
    """The sum of the squared columns of the 2-D ``A``, a column at a time.
    A later column is squared in slices of :data:`BLOCK_ENTRIES` rows, so
    beside the sum no second vector as long as a column is alive."""
    s = np.square(A[:, 0])
    for j in range(1, A.shape[1]):
        for k in range(0, len(A), BLOCK_ENTRIES):
            s[k : k + BLOCK_ENTRIES] += np.square(A[k : k + BLOCK_ENTRIES, j])
    return s


def _by_rows(ufunc, a, v, out):
    """``ufunc(a, v[:, None], out=out)``: every row of the 2-D ``a`` with its
    entry of ``v``.  A block of at most :data:`NARROW_MAX` columns is worked
    down its columns, one 1-D call each, with the same bytes."""
    if a.shape[1] > NARROW_MAX:
        return ufunc(a, v[:, None], out=out)
    for j in range(a.shape[1]):
        ufunc(a[:, j], v, out=out[:, j])
    return out


def row_sums(A: np.ndarray) -> np.ndarray:
    """``A.sum(axis=1)``, which adds a row's entries to 0.0 in turn, so a
    block of at most :data:`NARROW_MAX` columns added a column at a time
    has its bytes: 0.4 ms against 4.4 at 200000 x 2."""
    if A.shape[1] > NARROW_MAX:
        return A.sum(axis=1)
    s = A[:, 0] + 0.0  # -0.0 + 0.0 is 0.0, as NumPy's sum gives it
    for j in range(1, A.shape[1]):
        s += A[:, j]
    return s


def row_blocks(m: int, width: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of ``m`` rows of ``width``
    entries, about :data:`BLOCK_ENTRIES` entries each and at least two rows:
    a lone last row joins the block before it.  NumPy multiplies a one-row
    matrix as a vector (gemv), which can give other last bits than the same
    row in a matrix product (gemm), so a map evaluated in these blocks gives
    the bytes of one whole-array call."""
    r = max(2, BLOCK_ENTRIES // max(width, 1))
    stops = [*range(r, m - 1, r), m] if m else []
    return list(zip([0, *stops], stops))


def by_row_blocks(fn, Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out[s:e] = fn(Z[s:e])`` over the :func:`row_blocks` of the 2-D
    ``Z`` and return ``out``.  ``fn`` must work row by row.  A ``Z`` that is
    one block returns ``fn(Z)`` itself and leaves ``out`` unwritten, so a
    small call, such as the solver's order certificates, skips the copy."""
    blocks = row_blocks(len(Z), Z.shape[1])
    if len(blocks) == 1:
        return fn(Z)
    for s, e in blocks:
        out[s:e] = fn(Z[s:e])
    return out


def _columns(*blocks) -> np.ndarray:
    """``np.hstack`` of 1-D columns and 2-D blocks into a new column-major
    matrix, so the slacks never alias the input.  Row-wise reductions of a
    column-major slack matrix (``min(axis=1)``) run one vectorised pass per
    column instead of a short loop per row.
    """
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    out = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)), order="F")
    j = 0
    for b in blocks:
        out[:, j : j + b.shape[1]] = b
        j += b.shape[1]
    return out


# The tail factor of each ordered kind after A's p - 1 rays: L^(q+1), where
# L^1 = R_+, or R.  A dual kind, one not in _PRIMAL_TAILS, takes the dual tail
# (the dual of R is {0}) and the reduced coordinates of A^-T.
FREE, ZERO = "free", "zero"  # R and {0}
_PRIMAL_TAILS = {MESOC: LORENTZ, MONOTONE_NONNEG: LORENTZ, MONOTONE: FREE}
TAILS = {**_PRIMAL_TAILS,
         MESOC_DUAL: LORENTZ, MONOTONE_NONNEG_DUAL: LORENTZ, MONOTONE_DUAL: ZERO}


def ordered_form(cone: ConeSpec) -> tuple[str, int, int]:
    """``(kind, p, q)`` of ``cone``, with lorentz(n) read as L(1, n - 1): the
    Lorentz cone's one translation.  It builds no :class:`ConeSpec`, so the
    solver reads it on every step."""
    return (MESOC, 1, cone.p - 1) if cone.kind == LORENTZ else (cone.kind, cone.p, cone.q)


def reduced_coordinates(kind: str, X: np.ndarray) -> np.ndarray:
    """A's first p coordinates of every row of the x blocks ``X`` of an
    ordered kind (a key of :data:`TAILS`), in a new column-major array: the
    drops x_i - x_{i+1}, then x_p.  A dual kind takes those of A^-T instead,
    the partial sums y_1 + ... + y_j."""
    R = np.empty(X.shape, order="F")
    if kind not in _PRIMAL_TAILS:
        return np.cumsum(X, axis=1, out=R)
    # down R's columns: the default order runs along X's rows here, about
    # three times slower on a 4096 x 16 block (2-vCPU Xeon, NumPy 2.4)
    np.subtract(X[:, :-1], X[:, 1:], out=R[:, :-1], order="F")
    R[:, -1] = X[:, -1]
    return R


def _lorentz_tail(R, U):
    if U.shape[1]:  # the slack of L^(q+1) at (h, u) is h - ||u||, and h at q = 0
        R[:, -1] -= row_norms(U)
    return R


# the slacks of an ordered kind from its reduced coordinates R (the rays,
# then the tail's head h) and its u block U, written over R where they can be
_TAIL_SLACKS = {
    LORENTZ: _lorentz_tail,
    FREE: lambda R, U: R[:, :-1],
    ZERO: lambda R, U: _columns(R, -R[:, -1]),
}


def _slacks_batch(cone: ConeSpec, Z: np.ndarray) -> np.ndarray:
    """Membership slacks of every row of ``Z``, one column per inequality,
    in a column-major matrix."""
    kind, p, _ = ordered_form(cone)
    X, U = Z[:, :p], Z[:, p:]
    if kind in TAILS:
        return _TAIL_SLACKS[TAILS[kind]](reduced_coordinates(kind, X), U)
    if kind == ESOC:
        return _by_rows(np.subtract, X, row_norms(U), np.empty(X.shape, order="F"))
    if kind == ESOC_DUAL:
        return _columns(X, row_sums(X) - row_norms(U))
    if kind == NONNEG_ORTHANT:
        return _columns(X)
    if kind == CYLINDER:
        return _slacks_batch(cone.inner, U)
    # CYLINDER_DUAL, the last kind
    return _columns(X, -X, _slacks_batch(cone.inner, U))


def contains(cone: ConeSpec, z, tol: float = DEFAULT_TOL) -> bool:
    """True when the least membership slack of ``z`` is >= -tol."""
    check_tol(tol)
    return bool(least_slack(membership_slacks(cone, z)) >= -tol)


def contains_batch(cone: ConeSpec, Z, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized :func:`contains` over the rows of ``Z``, one bool per row.

    The slacks are built over row blocks of about :data:`BLOCK_ENTRIES`
    entries, whose temporaries stay in cache; every row's result is the one
    a single block gives.
    """
    check_tol(tol)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != cone.dim:
        raise DimensionError(f"expected shape (n, {cone.dim})")
    return by_row_blocks(lambda B: least_slack(_slacks_batch(cone, B)) >= -tol,
                         Z, np.empty(len(Z), dtype=bool))


_DUAL_MAP = {
    MESOC: MESOC_DUAL,
    MESOC_DUAL: MESOC,
    ESOC: ESOC_DUAL,
    ESOC_DUAL: ESOC,
    MONOTONE: MONOTONE_DUAL,
    MONOTONE_DUAL: MONOTONE,
    MONOTONE_NONNEG: MONOTONE_NONNEG_DUAL,
    MONOTONE_NONNEG_DUAL: MONOTONE_NONNEG,
    NONNEG_ORTHANT: NONNEG_ORTHANT,
    LORENTZ: LORENTZ,
}


def dual_of(cone: ConeSpec) -> ConeSpec:
    """The dual cone, in the same representation family.

    Self-dual kinds map to themselves; a cylinder R^p x C maps to the dual
    cylinder {0}^p x C*, and applying the map twice returns the original
    description.
    """
    if cone.kind == CYLINDER:
        return cylinder_dual(cone.p, dual_of(cone.inner))
    if cone.kind == CYLINDER_DUAL:
        return cylinder(cone.p, dual_of(cone.inner))
    return ConeSpec(_DUAL_MAP[cone.kind], cone.p, cone.q)


def pair_residuals(cone: ConeSpec, z, w) -> tuple[float, float, float]:
    """The conditions z in K, w in K* and <z, w> = 0 of a complementary pair,
    as the least slack of ``z`` in ``cone``, that of ``w`` in its dual and
    |<z, w>|, Python floats that the pair, solution and projection checks read."""
    z, w = _as_vector(z, cone.dim), _as_vector(w, cone.dim)
    return (float(least_slack(membership_slacks(cone, z))),
            float(least_slack(membership_slacks(dual_of(cone), w))), abs(float(z @ w)))


def duality_chain(
    xu: PartitionedVector, yv: PartitionedVector, tol: float = DEFAULT_TOL
) -> tuple[float, float, float]:
    """The chained pairing bounds for a primal/dual pair.

    For (x, u) in L(p, q) and (y, v) in its dual the three quantities

        <x, y>  >=  ||u|| * (y_1 + ... + y_p)  >=  ||u|| * ||v||

    are returned in that order; the full pairing <x,y> + <u,v> is then
    bounded below by the first minus the last.  Raises
    :class:`MembershipError` when either argument fails its membership check.
    """
    if (xu.p, xu.q) != (yv.p, yv.q):
        raise DimensionError("pair members have different block sizes")
    L = mesoc(xu.p, xu.q)
    if not contains(L, xu.concat(), tol):
        raise MembershipError("first argument is not in the primal cone")
    if not contains(dual_of(L), yv.concat(), tol):
        raise MembershipError("second argument is not in the dual cone")
    nu = float(np.linalg.norm(xu.u))
    nv = float(np.linalg.norm(yv.u))
    return (float(xu.x @ yv.x), nu * float(yv.x.sum()), nu * nv)


@record
class CompPair:
    """A candidate complementary pair (primal point, dual point).

    Members may be :class:`PartitionedVector` instances or plain full-length
    vectors.
    """

    primal: PartitionedVector | np.ndarray
    dual: PartitionedVector | np.ndarray


@record
class ComplementarityReport:
    """Outcome of a complementarity-set test with per-condition residuals.

    ``mode`` is "structured" when the face-by-face characterization was used
    and "direct" when the test fell back to plain orthogonality (always the
    case for degenerate pairs with a vanishing norm block).  Residuals are
    slack-like: a condition passes when its value is >= -tol, so equality
    conditions report minus their absolute violation, and a NaN fails.
    """

    member: bool
    mode: str
    residuals: dict[str, float] = factory(dict)
    failed: tuple[str, ...] = ()
    scaling: float | None = None

    def __bool__(self) -> bool:
        return self.member


def _report(mode, residuals, tol, scaling=None):
    failed = tuple(name for name, r in residuals.items() if not r >= -tol)
    return ComplementarityReport(
        member=not failed, mode=mode, residuals=residuals, failed=failed, scaling=scaling
    )


def _direct_report(cone, zp, zd, tol):
    primal, dual, product = pair_residuals(cone, zp, zd)
    res = {"primal_membership": primal, "dual_membership": dual, "orthogonality": -product}
    return _report("direct", res, tol)


def in_complementarity_set(
    cone: ConeSpec, pair: CompPair, tol: float = DEFAULT_TOL
) -> ComplementarityReport:
    """Test whether (primal, dual) is a complementary pair of ``cone``.

    For L(p, q) and the monotone nonnegative cone L(p, 0) the structured
    test runs factor by factor on the reduced coordinates, with S_i =
    y_1 + ... + y_i: memberships, (x_i - x_{i+1}) * S_i = 0 for the rays
    i < p, and on the tail x_p * S_p = 0 if q = 0, else x_p = ||u||,
    S_p = ||v|| and v = -lambda * u with lambda = ||v|| / ||u|| > 0.  When
    q > 0 and a norm block vanishes, as for every other kind, the direct
    orthogonality test runs; the report's ``mode`` records which did.
    """
    check_tol(tol)
    zp = _as_vector(pair.primal, cone.dim)
    zd = _as_vector(pair.dual, cone.dim)
    p, q = cone.p, cone.q
    if _PRIMAL_TAILS.get(cone.kind) != LORENTZ:  # mesoc and monotone_nonneg
        return _direct_report(cone, zp, zd, tol)
    u, v = zp[p:], zd[p:]
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if q and not (nu > tol and nv > tol):
        return _direct_report(cone, zp, zd, tol)
    R = reduced_coordinates(cone.kind, zp[None, :p])[0]
    S = reduced_coordinates(_DUAL_MAP[cone.kind], zd[None, :p])[0]
    rays = p - 1 if q else p
    primal, dual, _ = pair_residuals(cone, zp, zd)
    res = {"primal_membership": primal, "dual_membership": dual}
    res["face_products"] = -float(np.max(np.abs(R[:rays] * S[:rays]), initial=0.0))
    if not q:
        return _report("structured", res, tol)
    lam = nv / nu
    res["primal_tightness"] = -abs(float(R[-1] - nu))
    res["dual_tightness"] = -abs(float(S[-1] - nv))
    res["antiparallel"] = -float(np.max(np.abs(v + lam * u)))
    return _report("structured", res, tol, scaling=lam)


@record
class Decomposition:
    """Additive split of a point of L(p, q) into its two generating summands.

    The first summand is a_1 * (1, ..., 1, u / a_1) — a constant x block of
    height a_1 carrying the whole u block — and the second collects the
    nonnegative staircase built from the increments a_2, ..., a_p, with
    a_i = x_{p-i+1} - x_{p-i+2}.
    """

    weights: np.ndarray
    u: np.ndarray

    @property
    def p(self) -> int:
        return self.weights.size

    @property
    def q(self) -> int:
        return self.u.size

    @property
    def first_summand(self) -> np.ndarray:
        return np.concatenate([np.full(self.p, self.weights[0]), self.u])

    @property
    def second_summand(self) -> np.ndarray:
        a = self.weights
        # x_i - x_p is the sum of the drops below index i, i.e. a_2 + ... up
        # to the increment recorded for that position
        xs = np.append(np.cumsum(a[1:])[::-1], 0.0) if self.p > 1 else np.zeros(1)
        return np.concatenate([xs, np.zeros(self.q)])

    def reconstruct(self) -> np.ndarray:
        return self.first_summand + self.second_summand


def decompose_mesoc(p: int, q: int, z, tol: float = DEFAULT_TOL) -> Decomposition:
    """Split a point of L(p, q) into its flat and staircase summands.

    Weights are a_1 = x_p and a_i = x_{p-i+1} - x_{p-i+2} for i >= 2; all are
    nonnegative for members and ``reconstruct`` returns the input exactly.
    Raises :class:`MembershipError` when ``z`` is not in the cone.
    """
    cone = mesoc(p, q)
    z = _as_vector(z, cone.dim)
    if not contains(cone, z, tol):
        raise MembershipError(f"point is not in {cone}")
    weights = reduced_coordinates(MESOC, z[None, :p])[0, ::-1]
    return Decomposition(weights=weights, u=z[p:].copy())
