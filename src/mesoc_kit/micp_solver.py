"""Isotone fixed-point solver for complementarity problems on cylinders.

The problem: given F = (G, H) on R^p x R^q and a closed convex cone C in
R^q, find z = (x, u) with

    G(z) = 0,    u in C,    H(z) in C*,    <u, H(z)> = 0.

The solver iterates the half-projected step

    z+ = (x - G(z), P_C(u - H(z))),

whose fixed points are exactly the solutions.  When the update map
z -> z - F(z) is isotone for the order of the cone of nonincreasing
coordinates with a norm tail, and the first step moves up in that order,
the iteration is monotone and its limit solves the problem.  Each step's
order certificate (is z_{k+1} - z_k in that cone?) is recorded in the trace
but never enforced.  The loop keeps its iterates and step norms in lists
and builds the trace from them with the one constructor of
:class:`IterationTrace`, which stacks the iterates, turns the step norms
into an array and computes every order certificate from the iterates in one
``contains_batch`` call when it is first asked for them, so a caller that
reads only the solution or ``final`` pays for none of them.

:func:`picard_solve` stops with status ``converged`` (step norm within
``conv_tol``), ``diverged`` (iterate norm above :data:`DIVERGENCE_LIMIT`),
``nonfinite`` (an iterate with a NaN or infinite entry, which is dropped so
the trace ends at the last finite iterate) or ``max_iter``.

Each step takes one square sum, d.d for its step d = z_new - z.  When that
is finite, so is every entry of d, and so of z and z_new.  The loop keeps
an upper bound on ||z||, the last exact norm plus every step norm since
(inf before the first step), and while it is at most DIVERGENCE_LIMIT / 2,
z_new is inside the limit and the step takes no z_new.z_new.  Halving the
limit leaves a margin far wider than the rounding of the bound, a few
(n + k) eps relative after k steps of n entries.  A step whose square sum
is not finite makes the bound inf or NaN, and the test is written so that
a NaN fails it.  Then, and whenever the bound is past half the limit, the
step runs the full check: the square sum of z_new, its finiteness, and an
exact norm that resets the bound.  So the statuses, the step norms and the
order of the tests are those of a loop that takes both square sums on
every step.  The solution is a copy of the last iterate split into views,
with no second finiteness pass: the loop has shown every kept iterate but
the start finite, and a solve that keeps no step checks the start and
raises ``ValueError`` when it is not finite.

A small solve is bound by the fixed cost of each NumPy call, not by its
arithmetic, so the products on the solver path (the map updates and the
loop's norms) call ``ndarray.dot``: the ``@`` operator goes through the
matmul ufunc dispatch, about 0.8 us more per call on vectors of length 4-16
(NumPy 2.4, ``benchmarks/bench_solver.py``), for the same BLAS routine and
the same bytes.  The batch updates keep ``@``.

``projections`` is imported by the functions that project, not at the top,
so a caller that only builds and evaluates maps, as ``check isotone`` does,
does not load it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from ._record import factory, record
from .cones import (
    NARROW_MAX,
    ConeSpec,
    PartitionedVector,
    _as_vector,
    check_tol,
    contains,
    contains_batch,
    mesoc,
    monotone_nonneg,
    pair_residuals,
    row_norms,
)
from .errors import DimensionError

if TYPE_CHECKING:
    from . import order

DIVERGENCE_LIMIT = 1e12


@record
class ScalarField:
    """Affine scalar field f(x, u) = <linear, x> + norm_coeff * |u| + offset."""

    linear: np.ndarray
    norm_coeff: float
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))


@record
class ScalarComboMap:
    """Map whose update z - F(z) is a scalar-field combination of fixed
    directions: z - F(z) = sum_i f_i(z) * w_i."""

    kind = "scalar_combo"

    p: int
    q: int
    fields: tuple[ScalarField, ...]
    directions: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.directions, dtype=float)
        if W.shape != (len(self.fields), self.p + self.q):
            raise DimensionError(
                f"directions must be {len(self.fields)} x {self.p + self.q}, got {W.shape}"
            )
        for f in self.fields:
            if f.linear.shape != (self.p,):
                raise DimensionError("scalar field coefficients must have length p")
        object.__setattr__(self, "directions", W)

    def field_values(self, Z: np.ndarray) -> np.ndarray:
        """The field values f_i(z) of every row of ``Z``, one column per
        field: each is summed in a contiguous vector and its last sum is
        written into its column of one output array."""
        X, U = Z[:, : self.p], Z[:, self.p :]
        norms = row_norms(U)
        out = np.empty((len(Z), len(self.fields)))
        for f, col in zip(self.fields, out.T):
            t = X @ f.linear
            t += f.norm_coeff * norms
            np.add(t, f.offset, out=col)
        return out

    def update_batch(self, Z: np.ndarray) -> np.ndarray:
        return self.field_values(np.asarray(Z, dtype=float)) @ self.directions

    def update(self, z: np.ndarray) -> np.ndarray:
        """:meth:`update_batch` of the one-row batch ``z[None, :]``, byte for
        byte: a dot product per field and the bits of :func:`row_norms` for
        |u| (a plain dot norm differs from it in the last bit from three tail
        entries on).  A tail of at most ``NARROW_MAX`` entries takes its
        norm from Python floats, one product or one sum of two, as
        ``row_norms`` adds them, at a fifth of the cost of its ``einsum``
        call (0.65 against 3.4 us).  A row of a larger batch can differ in the last bits, because
        BLAS multiplies a batch's field values as a matrix (gemm) and one
        row's as a vector (gemv)."""
        z = np.asarray(z, dtype=float)
        x, u = z[: self.p], z[self.p :]
        if self.q <= NARROW_MAX:
            norm = math.sqrt(sum([v * v for v in u.tolist()]))
            if norm != norm:  # of two NaNs, Python's sum keeps another payload than einsum
                norm = row_norms(u[None])[0]
        else:
            norm = row_norms(u[None])[0]
        vals = [x.dot(f.linear) + f.norm_coeff * norm + f.offset for f in self.fields]
        return np.array(vals).dot(self.directions)

    def residual(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z - self.update(z)


@record
class AffineMap:
    """Map F(z) = matrix @ z + offset."""

    kind = "affine"

    p: int
    q: int
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        n = self.p + self.q
        M = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        if M.shape != (n, n) or b.shape != (n,):
            raise DimensionError(f"affine map blocks must be {n} x {n} and length {n}")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "offset", b)

    def residual(self, z: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(z, dtype=float) + self.offset

    def update(self, z: np.ndarray) -> np.ndarray:
        """z - (M z + b), the three operations in that order in one buffer."""
        z = np.asarray(z, dtype=float)
        t = self.matrix.dot(z)
        t += self.offset
        return np.subtract(z, t, out=t)

    def update_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        return Z - (Z @ self.matrix.T + self.offset)


StructuredMap = Union[ScalarComboMap, AffineMap]


def evaluate_map(map_: StructuredMap, z) -> tuple[np.ndarray, np.ndarray]:
    """Split F(z) into its x-part G(z) and u-part H(z)."""
    r = map_.residual(_as_vector(z, map_.p + map_.q))
    return r[: map_.p], r[map_.p :]


@record
class MicpInstance:
    map: StructuredMap
    inner: ConeSpec
    start: np.ndarray | None = None
    max_iter: int = 2000
    conv_tol: float = 1e-12

    def __post_init__(self):
        # the refusals of the CLI's --tol and --max-iter: a NaN tolerance
        # passes no step norm, so the solve would run every step
        check_tol(self.conv_tol)
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be at least 0, got {self.max_iter!r}")
        if self.inner.dim != self.map.q:
            raise DimensionError(
                f"inner cone dimension {self.inner.dim} != map tail dimension {self.map.q}"
            )
        z0 = np.zeros(self.map.p + self.map.q) if self.start is None else None
        if z0 is None:
            z0 = _as_vector(self.start, self.map.p + self.map.q)
        object.__setattr__(self, "start", z0)

    @cached_property
    def order_cone(self) -> ConeSpec:
        """mesoc(p, q), built on first read and then kept."""
        return mesoc(self.map.p, self.map.q)


class IterationTrace:
    """A solve's ``iterates`` z_0, ..., z_k (one row each), its ``step_norms``
    ||z_(i+1) - z_i||, its ``order_certificates`` (is z_(i+1) - z_i in the
    order cone?) and its ``status``.

    ``IterationTrace(iterates, step_norms, status, cone=order_cone)`` takes
    the iterates and step norms as lists, as the loop of
    :func:`picard_solve` keeps them, or as arrays.  The first read of
    ``iterates`` or ``step_norms`` makes an array of a list, and the first
    read of ``order_certificates`` runs ``contains_batch`` of ``cone`` on
    the rows of ``np.diff(iterates, axis=0)``, so the certificates always
    agree with the iterates.  ``final`` and ``n_steps`` build nothing.  The
    public attributes are read-only.
    """

    __slots__ = ("_iterates", "_step_norms", "_certificates", "_cone", "_status")

    def __init__(self, iterates: list | np.ndarray, step_norms: list | np.ndarray, status: str, *,
                 cone: ConeSpec):
        self._iterates = iterates
        self._step_norms = step_norms
        self._certificates = None
        self._cone = cone
        self._status = status

    @property
    def iterates(self) -> np.ndarray:
        self._iterates = iterates = np.asarray(self._iterates)
        return iterates

    @property
    def step_norms(self) -> np.ndarray:
        self._step_norms = step_norms = np.asarray(self._step_norms)
        return step_norms

    @property
    def order_certificates(self) -> np.ndarray:
        if self._certificates is None:
            self._certificates = contains_batch(self._cone, np.diff(self.iterates, axis=0))
        return self._certificates

    @property
    def status(self) -> str:
        return self._status

    @property
    def n_steps(self) -> int:
        return len(self._step_norms)

    @property
    def final(self) -> np.ndarray:
        return self._iterates[-1]

    def __repr__(self) -> str:
        return (f"IterationTrace(iterates={self.iterates!r}, step_norms={self.step_norms!r}, "
                f"order_certificates={self.order_certificates!r}, status={self.status!r})")


def picard_step(instance: MicpInstance, z) -> np.ndarray:
    """One half-projected step (x - G(z), P_C(u - H(z)))."""
    from . import projections

    p = instance.map.p
    t = instance.map.update(_as_vector(z, p + instance.map.q))
    t[p:] = projections.project(instance.inner, t[p:]).point
    return t


def picard_solve(instance: MicpInstance) -> tuple[PartitionedVector, IterationTrace]:
    """Iterate :func:`picard_step` from ``instance.start``; return the last
    iterate as the solution and the trace.  See the module docstring for
    the stopping rules.  Raises ``ValueError`` when no step was kept and
    the start is not finite."""
    from . import projections

    p = instance.map.p
    update, inner, conv_tol = instance.map.update, instance.inner, instance.conv_tol
    z = instance.start.copy()
    iterates = [z]
    step_norms = []
    status = "max_iter"
    # the last exact norm of an iterate plus every step norm since: an upper
    # bound on ||z||, inf until the first exact norm
    bound = math.inf
    limit = DIVERGENCE_LIMIT
    half_limit = limit / 2
    for _ in range(instance.max_iter):
        # the step of picard_step; project is read from the module on every
        # step, so a replacement of projections.project takes effect
        z_new = update(z)
        u = z_new[p:]
        u[...] = projections.project(inner, u).point
        d = z_new - z
        step = math.sqrt(d.dot(d))
        bound += step
        # the one-square-sum rule of the module docstring: z_new's own
        # square sum only for a step that is not finite, which makes the
        # bound inf or NaN (a NaN fails the test too), or a bound past half
        # the limit
        if not bound <= half_limit:
            zz = z_new.dot(z_new)
            # an overflowed square sum alone is a divergence, not a bad entry
            if not math.isfinite(zz) and not np.isfinite(z_new).all():
                status = "nonfinite"
                break
            bound = math.sqrt(zz)
        step_norms.append(step)
        iterates.append(z_new)
        z = z_new
        if step <= conv_tol:
            status = "converged"
            break
        if bound > limit:
            status = "diverged"
            break
    return _finish(instance, iterates, step_norms, status)


def _finish(instance: MicpInstance, iterates: list, step_norms: list,
            status: str) -> tuple[PartitionedVector, IterationTrace]:
    """What :func:`picard_solve` does after its loop: the trace of the
    loop's lists, and the solution."""
    trace = IterationTrace(iterates, step_norms, status, cone=instance.order_cone)
    # the trace keeps the last iterate in its list, so the solution is a
    # copy; the loop has shown every iterate but the start finite
    z = iterates[-1].copy()
    if not step_norms:
        return PartitionedVector.from_array(z, instance.map.p, instance.map.q), trace
    return PartitionedVector._split(z, instance.map.p), trace


@record
class SolutionReport:
    ok: bool
    g_norm: float
    inner_slack: float
    dual_slack: float
    orthogonality: float
    failed: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a residual
def verify_solution(instance: MicpInstance, z, tol: float = 1e-8) -> SolutionReport:
    """Check the four complementarity conditions at z against a scalar
    tolerance: G = 0, u in C, H in C*, <u, H> = 0.  The two slacks are
    least membership slacks, +inf for a cone with no inequality, and
    ``orthogonality`` is the largest |term| of
    :func:`~mesoc_kit.cones.complementarity_terms` of (u, H); a NaN
    residual fails its condition."""
    check_tol(tol)
    zv = _as_vector(z, instance.map.p + instance.map.q)
    G, H = evaluate_map(instance.map, zv)
    g_norm = float(np.abs(G).max()) if G.size else 0.0
    inner, dual, largest = pair_residuals(instance.inner, zv[instance.map.p :], H)
    # each condition as a slack that passes at >= -tol, so a NaN fails
    slacks = {"g_norm": -g_norm, "inner_membership": inner,
              "dual_membership": dual, "orthogonality": -largest}
    failed = tuple(name for name, s in slacks.items() if not s >= -tol)
    return SolutionReport(ok=not failed, g_norm=g_norm, inner_slack=inner, dual_slack=dual,
                          orthogonality=largest, failed=failed)


@record
class RegionReport:
    in_feasible: bool
    in_descent: bool
    reasons: tuple[str, ...]
    details: dict = factory(dict)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a detail
def region_membership(instance: MicpInstance, z, tol: float = 1e-10) -> RegionReport:
    """Locate z relative to the two comparison regions of the iteration.

    Feasible region: z in the order cone, u in C, and the chain
    G_1 >= ... >= G_p >= |H| holds at z.  Descent region: same but with
    the weaker floor |u - P_C(u - H)| (the actual move of the u-block), so
    the feasible region sits inside the descent region.
    """
    from . import projections

    check_tol(tol)
    p = instance.map.p
    zv = _as_vector(z, p + instance.map.q)
    u = zv[p:]
    G, H = evaluate_map(instance.map, zv)
    move = u - projections.project(instance.inner, u - H).point
    # how far G is from being nonincreasing (0.0 when it already is)
    chain_violation = float(max(np.diff(G).max(), 0.0)) if p > 1 else 0.0
    details = {
        "order_cone_ok": contains(instance.order_cone, zv),
        "inner_ok": contains(instance.inner, u),
        "chain_violation": chain_violation,
        "g_floor": float(G[-1]),
        "h_norm": float(np.linalg.norm(H)),
        "move_norm": float(np.linalg.norm(move)),
    }
    reasons = []
    if not details["order_cone_ok"]:
        reasons.append("order_cone")
    if not details["inner_ok"]:
        reasons.append("inner_membership")
    if chain_violation > tol:
        reasons.append("g_not_nonincreasing")
    common_ok = not reasons
    in_feasible = common_ok and details["g_floor"] >= details["h_norm"] - tol
    in_descent = common_ok and details["g_floor"] >= details["move_norm"] - tol
    if common_ok and not in_feasible:
        reasons.append("g_floor_below_h_norm")
    return RegionReport(
        in_feasible=in_feasible,
        in_descent=in_descent,
        reasons=tuple(reasons),
        details=details,
    )


@record
class PreconditionReport:
    start_ascending: bool
    first_step: np.ndarray
    isotone: order.IsotonicityReport

    @property
    def ok(self) -> bool:
        return self.start_ascending and self.isotone.ok


def check_solvability_preconditions(
    instance: MicpInstance,
    n_samples: int = 200,
    seed: int = 0,
) -> PreconditionReport:
    """Sampled check of the sufficient conditions for convergence to a
    solution: the update map is isotone for the order cone, and the first
    step moves up in that order.  The isotone half is a falsification
    check, not a proof."""
    from . import order

    cone = instance.order_cone
    z1 = picard_step(instance, instance.start)
    return PreconditionReport(
        start_ascending=bool(order.cone_leq(cone, instance.start, z1)),
        first_step=z1,
        isotone=order.check_isotone(instance.map, cone, n_samples, seed),
    )


def example_instance(max_iter: int = 2000, conv_tol: float = 1e-12) -> MicpInstance:
    """Two-field worked instance on the cylinder R^2 x C, with C the cone
    of nonincreasing nonnegative pairs.

    Its update map is isotone for the graded order cone by construction,
    not just by sampling: the update is sum_k f_k(z) * w_k with both
    directions w_k members of the order cone, and each scalar field grows
    along the order — for an ordered difference (dx, du) with
    dx_1 >= dx_2 >= |du|, the field change is
    a_1 dx_1 + a_2 dx_2 + c (|u + du| - |u|) >= (a_1 + a_2 - c) |du| >= 0
    since both fields satisfy a_1 >= 0 and a_1 + a_2 = c = 1/20.  Image
    differences are therefore nonnegative combinations of cone members.
    The iteration from the origin converges to the solution interior to C,
    where G = 0 and H = 0: x_2 = (172784 + 240 sqrt(2854)) / 258299,
    x_1 = 2 x_2, u_1 = (76196 + 58 sqrt(2854)) / 258299 and
    u_2 = (10196 + 62 sqrt(2854)) / 258299."""
    fields = (
        ScalarField(linear=[1 / 10, -1 / 20], norm_coeff=1 / 20, offset=1.0),
        ScalarField(linear=[1 / 5, -3 / 20], norm_coeff=1 / 20, offset=-3 / 5),
    )
    directions = np.array(
        [
            [2.0, 1.0, 1 / 3, 1 / 6],
            [2.0, 1.0, 1 / 6, 1 / 3],
        ]
    )
    return MicpInstance(
        map=ScalarComboMap(p=2, q=2, fields=fields, directions=directions),
        inner=monotone_nonneg(2),
        max_iter=max_iter,
        conv_tol=conv_tol,
    )
