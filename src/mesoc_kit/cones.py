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
takes it onto R_+^(p-1) x L^(q+1).  :func:`factors` is the one table of such
reductions: for every kind it gives A, or A^-T for a dual kind, and the
factors of the image; ``_INVERSE`` holds each reduction's inverse.  The
slacks, the terms of the complementarity test, the decomposition of a point
into one member per factor (:func:`decompose`), the Lyapunov rank rule and
basis (:mod:`mesoc_kit.lyapunov`) and the samplers' increments
(:mod:`mesoc_kit.sampling`) derive from it.

A and A^-T work on a block of rows by the differences and running sums of
its columns (``_drops``, ``_sums``), their inverses in place (``_rev_cumsum``,
``_diff``).  One loop rule, ``_by_columns``, picks the axis of the last
three: a block with more rows than columns (a sampler's output, a membership
row block) is worked down its columns, one 1-D NumPy call each, where a 2-D
call would loop along every short row; any other block (one vector's image,
the few summands of a decomposition, an identity) along its rows in one
NumPy call, so a point of dimension n costs O(n) in NumPy, not n Python
calls.  Either way each entry has the same operands in the same order, so
the same bytes.
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

# the dual kind of each kind but the cylinders, whose dual :func:`dual_of`
# builds from their base cone
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

KINDS = frozenset(_DUAL_MAP) | {CYLINDER, CYLINDER_DUAL}

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
    with np.errstate(over="ignore", invalid="ignore"):  # see _slacks_batch
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


def row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of the 2-D array ``A``.

    One ``einsum`` pass over the rows; ``np.linalg.norm(A, axis=1)`` runs a
    short reduction loop per row, about 5x slower at 200000 x 8.  The two
    agree bit for bit up to two columns and within a few ulp beyond.  A
    block of at most :data:`NARROW_MAX` columns sums its squared columns
    instead, with the bits of ``einsum``, which adds a row's first two
    squares as one sum: at 200000 x 2 it takes about 0.8 ms against 1.3,
    and at 16384 x 2 0.04 ms against 0.12.  Below a few hundred rows one
    ``einsum`` call costs a few µs less, but no ``perfbench`` workload
    times the norms of so short a narrow block.  The square root is taken
    in place, which spares a second vector of norms.
    """
    s = _column_squares(A) if 0 < A.shape[1] <= NARROW_MAX else np.einsum("ij,ij->i", A, A)
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


# The factors of an image of A: rays R_+, Lorentz cones L^k, head first (L^1
# is R_+), free lines R, zeros {0}, and the ESOC pair, whose p heads share one
# norm block.  Their duals: a ray, a Lorentz cone, a zero, a line, the other.
RAY, FREE, ZERO = "ray", "free", "zero"


def ordered_form(cone: ConeSpec) -> tuple[str, int, int]:
    """``(kind, p, q)`` of ``cone``, with lorentz(n) read as L(1, n - 1): the
    Lorentz cone's one translation.  It builds no :class:`ConeSpec`, so the
    solver reads it on every step."""
    return (MESOC, 1, cone.p - 1) if cone.kind == LORENTZ else (cone.kind, cone.p, cone.q)


def _drops(X):
    """A's drops x_i - x_{i+1}, then x_p, of the rows of ``X``."""
    R = np.empty(X.shape, order="F")
    # down R's columns: the default order runs along X's rows here, about
    # three times slower on a 4096 x 16 block (2-vCPU Xeon, NumPy 2.4)
    np.subtract(X[:, :-1], X[:, 1:], out=R[:, :-1], order="F")
    R[:, -1] = X[:, -1]
    return R


def _by_columns(a) -> bool:
    """The loop rule of the other three maps: True when ``a`` has more rows
    than columns, so they work it down its columns, one 1-D call each."""
    return len(a) > a.shape[1]


def _sums(X, out=None):
    """A^-T's partial sums y_1 + ... + y_j of the rows of ``X``, into ``out``
    (by default a new column-major array), which may be ``X``."""
    out = np.empty(X.shape, order="F") if out is None else out
    if not _by_columns(X):
        return np.cumsum(X, axis=1, out=out)
    out[:, :1] = X[:, :1]
    for j in range(1, X.shape[1]):
        np.add(out[:, j - 1], X[:, j], out=out[:, j])
    return out


def _rev_cumsum(a):
    """Column j of ``a`` becomes a_j + ... + a_n, in place: :func:`_sums` of
    the reversed view, the inverse of :func:`_drops`."""
    _sums(a[:, ::-1], a[:, ::-1])
    return a


def _diff(a):
    """``np.diff(a, axis=1, prepend=0.0)`` in place: the inverse of :func:`_sums`."""
    if not _by_columns(a):
        a[:, 1:] = np.diff(a, axis=1)
        return a
    for j in range(a.shape[1] - 1, 0, -1):  # from the right: each reads original columns
        np.subtract(a[:, j], a[:, j - 1], out=a[:, j])
    return a


# the inverse of each reduction of a factor table, in place
_INVERSE = {_drops: _rev_cumsum, _sums: _diff}


def factors(cone: ConeSpec):
    """The reduction of ``cone`` onto a product, as ``(lo, hi, reduce, parts)``.

    A takes a block of rows Z to the image whose columns lo:hi are
    ``reduce(Z[:, lo:hi])``, a new array (the drops, or the partial sums of
    A^-T for a dual kind), and whose other columns are Z's.  ``parts`` lists
    the factors as ``(factor, a, m, b)``: image columns a:m are the factor's
    heads and m:b its norm block, which only a Lorentz factor and the ESOC
    pair have.  A Lorentz factor's head lies in lo:hi.  The table of
    ``dual_of(cone)`` has the dual factors in the same columns.
    """
    kind, p, q = ordered_form(cone)
    if kind in (CYLINDER, CYLINDER_DUAL):  # R^p, or {0}^p, on the inner table
        lo, hi, reduce, parts = factors(cone.inner)
        return lo + p, hi + p, reduce, [(FREE if kind == CYLINDER else ZERO, 0, p, p),
                                        *((f, a + p, m + p, b + p) for f, a, m, b in parts)]
    if kind in (ESOC, ESOC_DUAL, NONNEG_ORTHANT):
        return 0, 0, None, [(RAY if kind == NONNEG_ORTHANT else kind, 0, p, p + q)]
    tail = {MONOTONE: FREE, MONOTONE_DUAL: ZERO}.get(kind, LORENTZ)
    reduce = _drops if kind in (MESOC, MONOTONE_NONNEG, MONOTONE) else _sums
    return 0, p, reduce, [(RAY, 0, p - 1, p - 1), (tail, p - 1, p, p + q)]


def image(table, Z: np.ndarray):
    """A of a :func:`factors` table on the rows of the 2-D ``Z``, as
    ``cols(a, b)``, which returns image columns a:b, all in lo:hi or all
    outside: a view of the reduced block, computed once, or of ``Z``."""
    lo, hi, reduce, _ = table
    if not reduce:
        return lambda a, b: Z[:, a:b]
    R = reduce(Z[:, lo:hi])
    return lambda a, b: R[:, a - lo : b - lo] if lo <= a and b <= hi else Z[:, a:b]


def _slacks_batch(cone: ConeSpec, Z: np.ndarray, table=None) -> np.ndarray:
    """Membership slacks of every row of ``Z``, one column per inequality,
    in a new column-major matrix: those of each factor of ``table`` (by
    default ``factors(cone)``) in turn, and without a copy when they are a
    run of A's reduced columns.  An overflow to +-inf, or inf - inf = NaN,
    is a slack the checks read: callers run this under one ``np.errstate``
    per call that lets both pass without a warning."""
    table = table or factors(cone)
    cols = image(table, Z)
    out = []  # image columns (a, b) as they stand, or new slack columns
    for f, a, m, b in table[3]:
        if f == ESOC:  # x_i - ||u|| for every head
            H = cols(a, m)
            out.append(_by_rows(np.subtract, H, row_norms(cols(m, b)), np.empty_like(H, order="F")))
            continue
        if f == LORENTZ and b > m:  # h - ||u||, written over the head
            cols(a, m)[:, 0] -= row_norms(cols(m, b))
        if f != FREE:  # a ray, a Lorentz head, a zero's h, the ESOC dual's x
            out.append((a, m))
        if f == ZERO:  # and -h
            out.append(-cols(a, m))
        elif f == ESOC_DUAL:  # and sum(x) - ||u||
            out.append(cols(a, m).sum(axis=1) - row_norms(cols(m, b)))
    if table[2] and all(type(s) is tuple for s in out):  # rays, then a Lorentz head
        return cols(out[0][0], out[-1][1])
    if len(out) == 1 and type(out[0]) is not tuple:
        return out[0]
    return _columns(*(cols(*s) if type(s) is tuple else s for s in out))


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
    table = factors(cone)  # once, not per block
    with np.errstate(over="ignore", invalid="ignore"):  # once, not per block
        return by_row_blocks(lambda B: least_slack(_slacks_batch(cone, B, table)) >= -tol,
                             Z, np.empty(len(Z), dtype=bool))


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


def complementarity_terms(cone: ConeSpec, z, w) -> np.ndarray:
    """The terms of <z, w>, factor by factor, on R = A z and S = A^-T w of
    :func:`factors`, whose pairing is <z, w>.  They add up to <z, w>, and
    each is >= 0 when z is in ``cone`` and w in its dual, so a pair of
    members is complementary exactly when every term is 0.  A ray, or a free
    line against a zero, gives r * s.  A Lorentz factor (h, u) against
    (g, v) gives (h - ||u||) g, ||u|| (g - ||v||) and ||u|| ||v|| + <u, v>
    (Németh & Zhang, J. Global Optim. 62, 2015); an ESOC factor (x, u)
    against (y, v) gives (x_i - ||u||) y_i for every i and the same two
    (Ferreira & Németh, J. Global Optim. 70, 2018), and an ESOC dual factor
    the same with the two points swapped.  No term divides, so a vanishing
    norm block needs no other test."""
    z, w = _as_vector(z, cone.dim), _as_vector(w, cone.dim)
    table = factors(cone)
    R, S = image(table, z[None, :]), image(factors(dual_of(cone)), w[None, :])
    terms = []
    for f, a, m, b in table[3]:
        x, y = R(a, m)[0], S(a, m)[0]
        if f in (RAY, FREE, ZERO) or m == b:  # L^1 is R_+
            terms.append(x * y)
            continue
        u, v = R(m, b), S(m, b)
        if f == ESOC_DUAL:  # the chain runs from the ESOC side
            x, y, u, v = y, x, v, u
        nu, nv = row_norms(u)[0], row_norms(v)[0]
        terms += [(x - nu) * y, [nu * (y.sum() - nv), nu * nv + u[0] @ v[0]]]
    return np.concatenate(terms)


def _largest_term(cone, z, w):
    return np.max(np.abs(complementarity_terms(cone, z, w)), initial=0.0)


def _least_slacks(cone, z, w):
    return (float(least_slack(membership_slacks(cone, z))),
            float(least_slack(membership_slacks(dual_of(cone), w))))


def pair_residuals(cone: ConeSpec, z, w) -> tuple[float, float, float]:
    """The conditions z in K, w in K* and <z, w> = 0 of a complementary pair,
    as the least slack of ``z`` in ``cone``, that of ``w`` in its dual and
    the largest |term| of :func:`complementarity_terms`, absolute: Python
    floats that the pair, solution and projection checks read."""
    z, w = _as_vector(z, cone.dim), _as_vector(w, cone.dim)
    return (*_least_slacks(cone, z, w), float(_largest_term(cone, z, w)))


def _exponent(z) -> int:
    """The k with max |z_i| in [2^(k-1), 2^k), so that 2^-k z, taken exactly
    by ``np.ldexp(z, -k)``, lies in (-1, 1); 0 when z is 0 or not finite."""
    return math.frexp(float(np.abs(z).max(initial=0.0)))[1]


def _unit(z):
    """``z`` over the power of two just above max |z_i| (exact), so its
    squares and products neither overflow nor underflow; ``z``'s values when
    it is 0 or not finite."""
    return np.ldexp(z, -_exponent(z))


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
    """Outcome of a complementarity-set test: ``residuals`` holds
    ``primal_membership``, ``dual_membership`` and ``orthogonality``, each
    passing at >= -tol (a NaN fails), and ``failed`` those that do not."""

    member: bool
    residuals: dict[str, float] = factory(dict)
    failed: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.member


@np.errstate(over="ignore", invalid="ignore")  # an infinite entry gives a NaN residual
def in_complementarity_set(
    cone: ConeSpec, pair: CompPair, tol: float = DEFAULT_TOL
) -> ComplementarityReport:
    """Test whether (primal, dual) is a complementary pair of ``cone``: both
    least membership slacks, absolute, and ``orthogonality``, minus the
    largest |term| of :func:`complementarity_terms` over ||z|| ||w||, or 0
    when every term is 0.  The terms are bilinear, so the ratio is taken on
    :func:`_unit` points, where no norm or term overflows or underflows."""
    check_tol(tol)
    z, w = _as_vector(pair.primal, cone.dim), _as_vector(pair.dual, cone.dim)
    primal, dual = _least_slacks(cone, z, w)
    z, w = _unit(z), _unit(w)
    largest = _largest_term(cone, z, w)
    orthogonality = float(-(largest / np.linalg.norm(z) / np.linalg.norm(w))) if largest else 0.0
    res = {"primal_membership": primal, "dual_membership": dual, "orthogonality": orthogonality}
    failed = tuple(name for name, r in res.items() if not r >= -tol)
    return ComplementarityReport(member=not failed, residuals=res, failed=failed)


@record
class Decomposition:
    """A point z of a cone split along its :func:`factors` table.

    ``image`` is A z (A^-T z for a dual kind), and ``factors`` lists the
    table's parts that hold image columns, as ``(factor, a, m, b)``.  Row i
    of ``summands`` is A^-1 of the image kept on part i's columns a:b and
    zero elsewhere: a member of the cone, since the part is a member of its
    factor.  The rows add up to z.  For L(p, q) they are the staircase of
    the drops and the flat x_p ones carrying u, in that order.
    """

    factors: tuple
    image: np.ndarray
    summands: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.summands.sum(axis=0)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed image is reported
def decompose(cone: ConeSpec, z, tol: float = DEFAULT_TOL) -> Decomposition:
    """Split ``z`` into one summand per factor of ``cone`` with columns, in
    O(dim) per summand: the table's inverse map works row by row, and no
    matrix of A is built.  Raises :class:`MembershipError` when ``z`` is not
    in the cone."""
    z = _as_vector(z, cone.dim)
    if not contains(cone, z, tol):
        raise MembershipError(f"point is not in the {cone.kind} cone of dimension {cone.dim}")
    lo, hi, reduce, parts = factors(cone)
    img = z.copy()
    if reduce:
        img[lo:hi] = reduce(z[None, lo:hi])[0]
    parts = tuple(part for part in parts if part[3] > part[1])
    summands = np.zeros((len(parts), z.size))
    for row, (_, a, _, b) in zip(summands, parts):
        row[a:b] = img[a:b]
    if reduce:
        _INVERSE[reduce](summands[:, lo:hi])
    return Decomposition(factors=parts, image=img, summands=summands)
