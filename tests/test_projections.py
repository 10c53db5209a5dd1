"""Projections: closed forms and kernels against the brute-force oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import mesoc_kit as mk
from mesoc_kit import _kernels, projections, sampling
from mesoc_kit._kernels import isotonic_decreasing, isotonic_decreasing_batch
from mesoc_kit.projections import project_batch

from _row_blocks import one_block, with_block_entries
from _strategies import MIXED_SCALES, MODERATE, NONFINITE


def _monotone_batch(V):
    return project_batch(mk.monotone(V.shape[1]), V)


def test_monotone_frozen_cases():
    # merges computed by hand
    r = mk.project(mk.monotone(3), [1.0, 3.0, 2.0])
    assert_allclose(r.point, [2.0, 2.0, 2.0])
    assert r.distance == pytest.approx(np.sqrt(2.0))
    assert r.active_blocks == ((0, 3),)

    r = mk.project(mk.monotone(3), [3.0, 1.0, 2.0])
    assert_allclose(r.point, [3.0, 1.5, 1.5])
    assert r.active_blocks == ((0, 1), (1, 3))

    # already nonincreasing: untouched, singleton blocks
    r = mk.project(mk.monotone(3), [3.0, 2.0, -1.0])
    assert_allclose(r.point, [3.0, 2.0, -1.0])
    assert r.distance == 0.0
    assert r.active_blocks == ((0, 1), (1, 2), (2, 3))


def test_monotone_nonneg_frozen_cases():
    r = mk.project(mk.monotone_nonneg(5), [1.2, 2.4, -0.5, 0.7, 0.1])
    assert_allclose(r.point, [1.8, 1.8, 0.1, 0.1, 0.1])
    r = mk.project(mk.monotone_nonneg(2), [-3.0, -1.0])
    assert_allclose(r.point, [0.0, 0.0])
    assert r.distance == pytest.approx(np.sqrt(10.0))


def test_lorentz_three_cases():
    K = mk.lorentz(3)
    inside = np.array([5.0, 3.0, 4.0])
    assert_allclose(mk.project(K, inside).point, inside)
    polar = np.array([-5.0, 3.0, 4.0])
    assert_allclose(mk.project(K, polar).point, np.zeros(3))
    between = np.array([0.0, 3.0, 4.0])
    r = mk.project(K, between)
    assert_allclose(r.point, [2.5, 1.5, 2.0])
    assert mk.contains(K, r.point)


def test_mesoc_frozen_cases():
    # the norm tail fits (w, ||z||) = (1, 0, 5) by (2, 2, 2): x = (2, 2) and
    # u = 2 z/||z||; its blocks are those of that fit, index 2 being ||u||
    r = mk.project(mk.mesoc(2, 2), [1.0, 0.0, 3.0, 4.0])
    assert_allclose(r.point, [2.0, 2.0, 1.2, 1.6])
    assert r.active_blocks == ((0, 3),)
    # a zero tail stays zero, and q = 0 is the monotone nonnegative cone
    r = mk.project(mk.mesoc(2, 2), [1.0, -1.0, 0.0, 0.0])
    assert_allclose(r.point, [1.0, 0.0, 0.0, 0.0])
    v = np.array([1.2, 2.4, -0.5])
    assert mk.project(mk.mesoc(3, 0), v).point.tobytes() == mk.project(mk.monotone_nonneg(3), v).point.tobytes()


def test_fast_agrees_with_oracle(rng):
    cones = [mk.monotone(5), mk.monotone_nonneg(6), mk.nonneg_orthant(6), mk.lorentz(5)]
    for cone in cones:
        V = rng.normal(size=(250, cone.dim)) * rng.uniform(0.3, 3.0, (250, 1))
        for v in V:
            fast = mk.project(cone, v)
            oracle = mk.project_oracle(cone, v)
            assert np.abs(fast.point - oracle.point).max() < 1e-7, (cone, v)
            assert abs(fast.distance - oracle.distance) < 1e-7


def test_projection_optimality_conditions(rng):
    # membership, idempotence, orthogonality of the residual, and the polar
    # inequality <v - Pv, k> <= 0 against sampled cone members; the Moreau
    # certificate reads only membership slacks of the cone and its dual, so
    # it does not share code with the reductions behind project
    for cone in [mk.monotone(6), mk.monotone_nonneg(6), mk.lorentz(4), mk.mesoc(2, 2),
                 mk.mesoc(3, 0), mk.mesoc_dual(2, 2), mk.monotone_dual(5),
                 mk.monotone_nonneg_dual(5), mk.cylinder_dual(2, mk.lorentz(3))]:
        K = sampling.sample(cone, rng, 200)
        for v in rng.normal(size=(100, cone.dim)) * 2.0:
            y = mk.project(cone, v).point
            assert mk.contains(cone, y, 1e-9)
            assert_allclose(mk.project(cone, y).point, y, atol=1e-9)
            assert abs((v - y) @ y) < 1e-9 * (1 + v @ v)
            assert ((K @ (v - y)) < 1e-9).all()
            assert projections._moreau_residual(cone, v, y) <= 1e-12


def test_nonexpansive(rng):
    for cone in [mk.monotone(7), mk.monotone_nonneg(7)]:
        A = rng.normal(size=(2000, 7)) * 3
        B = A + rng.normal(size=(2000, 7))
        PA, PB = project_batch(cone, A), project_batch(cone, B)
        lhs = np.linalg.norm(PA - PB, axis=1)
        rhs = np.linalg.norm(A - B, axis=1)
        assert (lhs <= rhs + 1e-12).all()


def test_batch_matches_scalar(rng):
    V = rng.normal(size=(300, 9)) * 2
    B = _monotone_batch(V)
    for i, v in enumerate(V):
        assert_allclose(B[i], mk.project(mk.monotone(9), v).point, atol=1e-13)
    B = project_batch(mk.monotone_nonneg(9), V)
    for i, v in enumerate(V):
        assert_allclose(B[i], mk.project(mk.monotone_nonneg(9), v).point, atol=1e-13)


def test_blocks_partition_and_are_constant(rng):
    for v in rng.normal(size=(100, 8)):
        r = mk.project(mk.monotone(8), v)
        edges = [b[0] for b in r.active_blocks] + [r.active_blocks[-1][1]]
        assert edges[0] == 0 and edges[-1] == 8
        assert edges == sorted(edges)
        for lo, hi in r.active_blocks:
            assert np.ptp(r.point[lo:hi]) == 0.0


def test_cylinder_projection_leaves_x_alone(rng):
    cyl = mk.cylinder(3, mk.monotone_nonneg(2))
    z = np.array([9.0, -4.0, 0.1, -1.0, 2.0])
    r = mk.project(cyl, z)
    assert_allclose(r.point[:3], z[:3])
    assert_allclose(r.point[3:], mk.project(mk.monotone_nonneg(2), z[3:]).point)
    # oracle composes the same way
    o = mk.project_oracle(cyl, z)
    assert_allclose(o.point, r.point, atol=1e-9)


def test_oracle_certificate_rejects_the_apex(monkeypatch):
    # y = 0 is in K and orthogonal to v - y, but y - v = -v is not in the
    # dual of the monotone cone, so the full Moreau certificate refuses it
    monkeypatch.setattr(projections, "_polyhedral_oracle", lambda cone, v: np.zeros_like(v))
    with pytest.raises(mk.OracleError, match="residual"):
        mk.project_oracle(mk.monotone(4), [3.0, 2.0, 1.0, 0.0])


def test_unsupported_and_dimension_errors():
    with pytest.raises(mk.DimensionError):
        mk.project(mk.monotone(3), [1.0, 2.0])
    with pytest.raises(mk.UnsupportedConeError):
        mk.project_oracle(mk.esoc(2, 2), [1.0, 1.0, 0.0, 0.0])



# Batch kernel properties.  Small integers make ties common; each row is kept
# as drawn or made constant, ascending or descending.
_ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 12))
_ROW_KINDS = st.sampled_from(["drawn", "constant", "ascending", "descending"])


@st.composite
def _batches(draw, shape=_SHAPES, elements=_ENTRIES):
    V = draw(arrays(float, draw(shape), elements=elements))
    for row in V:
        kind = draw(_ROW_KINDS)
        if kind == "constant":
            row[:] = row[0]
        elif kind == "ascending":
            row.sort()
        elif kind == "descending":
            row[:] = np.sort(row)[::-1]
    return V


def _cascade(n):
    """Width-n row that pools exactly one pair per pass, for n - 1 passes."""
    return np.append(np.arange(n - 2, -1, -1.0), float(n * n))


def _assert_rows_match_sweep(V, B):
    for v, b in zip(V, B):
        tol = 1e-12 * (1.0 + np.abs(v).max())
        assert np.abs(b - isotonic_decreasing(v)[0]).max() <= tol, v


@settings(deadline=None)
@given(_batches())
def test_batch_rows_match_the_sweep(V):
    _assert_rows_match_sweep(V, _monotone_batch(V))


@settings(deadline=None)
@given(_batches(st.tuples(st.integers(1, 8), st.integers(1, 24)), elements=MIXED_SCALES))
def test_batch_rows_match_the_sweep_across_scales(V):
    _assert_rows_match_sweep(V, _monotone_batch(V))


@settings(deadline=None)
@given(_batches())
def test_nonneg_batch_passes_moreau_certificate(V):
    # y in K (nonincreasing, >= 0), y - v in K* (partial sums >= 0) and
    # <v - y, y> = 0: together they characterize the projection of v onto K
    Y = project_batch(mk.monotone_nonneg(V.shape[1]), V)
    scale = 1.0 + np.abs(V).sum(axis=1)
    assert (Y[:, :-1] >= Y[:, 1:]).all() and (Y >= 0.0).all()
    assert (np.cumsum(Y - V, axis=1).min(axis=1) >= -1e-12 * scale).all()
    assert (np.abs(np.einsum("ij,ij->i", V - Y, Y)) <= 1e-12 * scale**2).all()


@settings(deadline=None)
@given(st.data())
def test_cascade_row_fully_pooled(data):
    # the cascade runs n - 1 passes; rows batched with it must still match
    n = data.draw(st.integers(2, 60))
    at = data.draw(st.integers(0, 4))
    V = np.insert(data.draw(_batches(st.just((4, n)))), at, _cascade(n), axis=0)
    B = _monotone_batch(V)
    _assert_rows_match_sweep(V, B)
    assert_allclose(B[at], np.full(n, _cascade(n).mean()), rtol=1e-14)


def test_batch_row_starts_block_pooling_across_rows():
    # each row opens with a tie or an ascent, so its first block holds
    # several entries, and its mean is >= the mean of the previous row's last
    # block; the last row's first block grows over two passes, after the
    # block indices have shifted.  All means are exact.
    V = np.array([
        [2.0, 1.0, 0.0, -8.0],
        [0.0, 0.0, 6.0, -2.0],
        [-1.0, 3.0, 5.0, 9.0],
        [1.0, 0.0, -1.0, 30.0],
        [7.5, 7.5, -3.0, -3.0],
    ])
    expected = [[2.0, 1.0, 0.0, -8.0], [2.0, 2.0, 2.0, -2.0], [4.0] * 4, [7.5] * 4,
                [7.5, 7.5, -3.0, -3.0]]
    np.testing.assert_array_equal(isotonic_decreasing_batch(V), expected)
    np.testing.assert_array_equal(isotonic_decreasing_batch(V[::-1]), expected[::-1])


_ROW_ENDS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0]


@pytest.mark.parametrize("last", _ROW_ENDS)
@pytest.mark.parametrize("first", _ROW_ENDS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_prepass_does_not_compare_across_row_ends(n, first, last):
    # the pre-pass compares the flat rows entry by entry, so a row's last
    # entry meets the next row's first there; the row start overwrites that
    # comparison, and every row gets the fit it gets alone
    V = np.random.default_rng(n).standard_normal((8, n))
    V[::2, -1] = last
    V[1::2, 0] = first
    V[3, :] = -0.0
    got = isotonic_decreasing_batch(V)
    alone = np.vstack([isotonic_decreasing_batch(v[None, :]) for v in V])
    assert got.tobytes() == alone.tobytes()
    finite = np.isfinite(V).all(axis=1)
    _assert_rows_match_sweep(V[finite], got[finite])


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (3, 1)])
def test_batch_degenerate_shapes(shape):
    V = np.arange(np.prod(shape), dtype=float).reshape(shape) - 1.0
    cases = [(projections.project_monotone_nonneg_batch, np.maximum(V, 0.0))]
    if shape[1]:  # no cone has dimension 0
        cases.append((_monotone_batch, V))
    for fn, expected in cases:
        out = fn(V)
        assert out.shape == shape and out.dtype == np.float64
        assert not np.shares_memory(out, V)
        assert_allclose(out, expected, atol=0)


@settings(deadline=None)
@given(_batches(), st.data(), NONFINITE)
def test_nonfinite_entry_stays_in_its_row(V, data, bad):
    i = data.draw(st.integers(0, V.shape[0] - 1))
    j = data.draw(st.integers(0, V.shape[1] - 1))
    W = V.copy()
    W[i, j] = bad
    clean, dirty = _monotone_batch(V), _monotone_batch(W)
    others = np.arange(V.shape[0]) != i
    assert_allclose(dirty[others], clean[others], atol=0)
    assert np.isfinite(dirty[others]).all()


# Single-vector kernel properties, on the rows the batch strategies draw.
_VECTORS = _batches(st.tuples(st.just(1), st.integers(1, 12))).map(lambda V: V[0])


@settings(deadline=None)
@given(_VECTORS)
def test_sweep_passes_moreau_certificate(v):
    # fit in K, fit - v in K* and <v - fit, fit> = 0 characterize P_K(v)
    n = v.size
    fit = isotonic_decreasing(v)[0]
    tol = 1e-12 * (1.0 + v @ v)
    assert mk.membership_slacks(mk.monotone(n), fit).min(initial=0.0) >= -tol
    assert mk.membership_slacks(mk.monotone_dual(n), fit - v).min(initial=0.0) >= -tol
    assert abs((v - fit) @ fit) <= tol


@settings(deadline=None)
@given(_VECTORS)
def test_sweep_blocks_hold_their_means(v):
    fit, starts, lengths = isotonic_decreasing(v)
    assert starts.dtype == lengths.dtype == np.int64
    assert (lengths >= 1).all() and starts[0] == 0
    assert (starts[1:] == (starts + lengths)[:-1]).all()
    assert starts[-1] + lengths[-1] == v.size
    for lo, length in zip(starts, lengths):
        block = fit[lo : lo + length]
        assert (block == block[0]).all()
        assert abs(block[0] - v[lo : lo + length].mean()) <= 1e-12 * (1.0 + np.abs(v).max())
    assert (fit[starts[1:]] < fit[starts[:-1]]).all()


@pytest.mark.parametrize(
    "v,fit,starts,lengths",
    [
        ([3.0, 1.0, 2.0], [3.0, 1.5, 1.5], [0, 1], [1, 2]),
        ([0.1, 0.2, 0.3], [0.2, 0.2, 0.2], [0], [3]),
        # pooled means are updated in place, m + c (v - m) / total, which
        # rounds differently from the block sums: 31 / 5 is 6.2
        ([3.0, 2.0, 1.0, 0.0, 25.0], [6.200000000000001] * 5, [0], [5]),
        ([0.3, -0.1, 0.7, 0.7, -2.0], [0.3999999999999999] * 4 + [-2.0], [0, 4], [4, 1]),
        # NaN compares false, so it is never pooled and blocks the sweep
        ([2.0, 3.0, np.nan, 1.0], [2.5, 2.5, np.nan, 1.0], [0, 2, 3], [2, 1, 1]),
    ],
)
def test_sweep_frozen_outputs(v, fit, starts, lengths):
    got = isotonic_decreasing(np.array(v))
    np.testing.assert_array_equal(got[0], fit)
    np.testing.assert_array_equal(got[1], starts)
    np.testing.assert_array_equal(got[2], lengths)


# every kind but the cylinder, whose inner cone the tests choose
_KINDS = ("monotone", "monotone_nonneg", "nonneg_orthant", "lorentz", "mesoc", "mesoc_dual",
          "esoc", "esoc_dual", "monotone_dual", "monotone_nonneg_dual", "cylinder_dual")
_PAV_KINDS = ("monotone", "monotone_nonneg", "mesoc")


def _cone(kind, n):
    """A cone of ``kind`` in R^n (n >= 2 for cylinder_dual)."""
    if kind in ("mesoc", "mesoc_dual", "esoc", "esoc_dual"):
        return getattr(mk, kind)(n - n // 2, n // 2)
    if kind == "cylinder_dual":
        return mk.cylinder_dual(1, mk.lorentz(n - 1))
    return getattr(mk, kind)(n)


@settings(deadline=None)
@given(st.sampled_from(_KINDS), st.integers(0, 3), _VECTORS, st.data())
def test_project_result_fields(kind, p, v, data):
    # a cone and a cylinder over it give the same point bytes; the distance
    # is np.linalg.norm of the move as a Python float and the blocks are
    # tuples of Python ints, a cylinder's those of its inner cone
    assume(kind != "cylinder_dual" or v.size > 1)
    inner = _cone(kind, v.size)
    cases = [(inner, v)]
    if p:
        x = data.draw(arrays(float, p, elements=_ENTRIES))
        cases.append((mk.cylinder(p, inner), np.concatenate([x, v])))
    expected = mk.project(inner, v)
    for cone, z in cases:
        # the solver writes the point back into the vector it projected; the
        # distance and blocks are read later and must not see that write
        written = z.copy()
        r = mk.project(cone, written)
        written[:] = 1e9
        assert r.point.tobytes() == np.concatenate([z[: z.size - v.size], expected.point]).tobytes()
        distance = r.distance
        assert type(distance) is float and distance == float(np.linalg.norm(z - r.point))
        assert r.distance == distance and r.active_blocks == r.active_blocks
        assert r.active_blocks == expected.active_blocks
        if kind in _PAV_KINDS:
            assert type(r.active_blocks) is tuple
            assert all(type(b) is tuple and [type(i) for i in b] == [int, int] for b in r.active_blocks)
        else:
            assert r.active_blocks is None
        for name in ("point", "distance", "active_blocks"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
    # built directly, a result reports exactly what it was given
    given = mk.ProjectionResult(expected.point, 0.0)
    assert given.point is expected.point and given.distance == 0.0 and given.active_blocks is None
    blocks = ((0, v.size),)
    given = mk.ProjectionResult(v, 2.5, blocks)
    assert given.point is v and given.distance == 2.5 and given.active_blocks is blocks


@pytest.mark.parametrize("kind", _KINDS)
def test_dimension_errors_of_every_kind(kind):
    cone = _cone(kind, 3)
    for z in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], []):
        with pytest.raises(mk.DimensionError):
            mk.project(cone, z)
        with pytest.raises(mk.DimensionError):
            mk.project(mk.cylinder(2, cone), [0.0, 0.0] + z)
    # nested input of the right size is flattened
    assert mk.project(cone, [[1.0], [2.0], [3.0]]).point.shape == (3,)


@pytest.mark.parametrize("cone", [mk.esoc(2, 2), mk.esoc_dual(2, 2), mk.esoc(1, 0),
                                  mk.cylinder(2, mk.esoc_dual(1, 2))])
def test_esoc_kinds_project(cone, rng):
    # the ESOC kinds project as every other kind does, also under cylinders
    for outer in (cone, mk.cylinder(1, cone), mk.cylinder_dual(1, cone), mk.cylinder(1, mk.cylinder(1, cone))):
        for v in rng.standard_normal((20, outer.dim)) * 3.0:
            y = mk.project(outer, v).point
            assert projections._moreau_residual(outer, v, y) <= 1e-12, (outer, v)
    # a wrong length is a DimensionError, as for every kind
    with pytest.raises(mk.DimensionError):
        mk.project(cone, np.ones(cone.dim - 1))
    with pytest.raises(mk.DimensionError):
        mk.project(mk.cylinder(1, cone), np.ones(cone.dim))


@pytest.mark.parametrize("cone", [mk.esoc(2, 2), mk.esoc_dual(2, 2), mk.cylinder(1, mk.esoc(1, 1)),
                                  mk.cylinder_dual(1, mk.esoc(1, 1)),
                                  mk.cylinder(1, mk.cylinder_dual(1, mk.esoc_dual(1, 1)))], ids=str)
def test_esoc_kinds_keep_the_errors_of_every_kind(cone):
    # project raises what it raises for any kind; only the face-enumeration
    # oracle, which has no ESOC face list, refuses the kind
    message = f"expected a vector of length {cone.dim}, got"
    for z in (np.ones(cone.dim + 1), [], [[1.0, None]]):
        with pytest.raises(mk.DimensionError, match=message):
            mk.project(cone, z)
    with pytest.raises(ValueError, match="could not convert"):
        mk.project(cone, "not a vector")
    with pytest.raises(mk.UnsupportedConeError, match="not polyhedral"):
        mk.project_oracle(cone, np.ones(cone.dim))


def test_supported_kinds_keep_their_errors():
    with pytest.raises(mk.DimensionError, match="expected a vector of length 3, got 2"):
        mk.project(mk.cylinder_dual(1, mk.lorentz(2)), [1.0, 2.0])
    with pytest.raises(ValueError, match="could not convert"):
        mk.project(mk.lorentz(2), ["x", 1.0])


def _scaled_projection(cone, v):
    """2^k P(2^-k v), with the largest entry of 2^-k v in [1/2, 1)."""
    k = math.frexp(np.abs(v).max())[1]
    return np.ldexp(mk.project(cone, np.ldexp(v, -k)).point, k)


# square sums and pooled differences of these entries overflow; the
# projections are finite all the same
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", _KINDS + ("cylinder",))
def test_near_limit_inputs_project_to_finite_points(kind, rng):
    cones = [_cone(kind, n) for n in (2, 3, 5)] if kind != "cylinder" else [
        mk.cylinder(1, mk.mesoc(2, 2)), mk.cylinder(2, mk.lorentz(3))]
    for cone in cones:
        for _ in range(100):
            v = rng.standard_normal(cone.dim) * 10.0 ** rng.uniform(0.0, 307.0, cone.dim)
            y = mk.project(cone, v).point
            assert np.isfinite(y).all(), (cone, v, y)
            assert np.abs(y - _scaled_projection(cone, v)).max() <= 1e-12 * np.abs(v).max()


def _long_overflow(n):
    """A finite vector of length n whose pooled sums overflow both ways and
    then meet as inf - inf: the passes give its last block a NaN mean."""
    tail = [-1e308] * 3 + [-1.5e308] + [1e308] * 4
    return np.concatenate([np.linspace(1e300, 1e299, n - len(tail)), tail]).tolist()


_LONG = _kernels.PASSES_MIN + 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "cone,v",
    [
        (mk.mesoc(2, 2), [1e-300, -1.0, -1.0, -1e308]),  # was [inf, inf, nan, nan]
        (mk.monotone(_LONG), _long_overflow(_LONG)),  # the passes: last block was nan
        (mk.monotone_nonneg(_LONG), _long_overflow(_LONG)),
        (mk.mesoc(_LONG - 1, 2), _long_overflow(_LONG - 1) + [1.0, 2.0]),
        (mk.lorentz(3), [-1e308, 5.0, 1e308]),  # was [inf, nan, nan]
        (mk.monotone(2), [-1e308, 1.7e308]),  # was [inf, inf]
        (mk.monotone_nonneg_dual(3), [5.0, 1e308, -1e308]),  # was [inf, inf, inf]
        (mk.lorentz(3), [1.7e308, 1.7e308, 1e307]),  # head + ||rest|| overflows
        (mk.esoc(2, 2), [1.6e308, 1.65e308, 1.7e308, 0.0]),  # the pulled sum overflows
        (mk.esoc_dual(2, 2), [-1.6e308, -1.65e308, -1.7e308, 0.0]),
    ],
)
def test_overflowing_fast_values_are_redone(cone, v):
    y = mk.project(cone, v).point
    assert np.isfinite(y).all()
    assert_allclose(y, _scaled_projection(cone, np.array(v)), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "cone,v", [(mk.mesoc(2, 2), [1e-300, -1.0, -1.0, -1e308]), (mk.lorentz(3), [-1e308, 5.0, 1e308])]
)
def test_overflowed_norm_under_warnings_as_errors(cone, v):
    # under -W error the square sum's overflow warning raises; the norm is
    # then taken as inf and the rescaled branch still gives the finite point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = mk.project(cone, v).point
    assert np.isfinite(y).all()
    assert y.tobytes() == _scaled_projection(cone, np.array(v)).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_input_is_not_rescaled():
    assert not np.isfinite(mk.project(mk.lorentz(2), [0.0, np.inf]).point).all()
    assert not np.isfinite(mk.project(mk.mesoc(1, 1), [np.nan, 1.0]).point).all()
    # the passes: a NaN entry is never pooled and stays in the fit
    v = np.array(_long_overflow(_LONG))
    v[5] = np.nan
    assert np.isnan(mk.project(mk.monotone(_LONG), v).point[5])
    # a non-finite head next to a finite tail whose norm overflows, on both
    # sides of the passes switch: the point stays non-finite, with no rescale
    for p in (2, _LONG):
        for bad in (np.nan, np.inf, -np.inf):
            v = np.zeros(p + 2)
            v[0], v[p:] = bad, 1e308
            assert not np.isfinite(mk.project(mk.mesoc(p, 2), v).point).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3])
def test_esoc_nonfinite_input_is_not_rescaled(p, monkeypatch):
    # the ESOC leaf raises on an overflow of finite values only, so a
    # non-finite head, also beside a tail whose norm overflows, is never
    # rescaled; a finite head beside that tail is rescaled once
    calls = []
    rescaled = projections._rescaled
    monkeypatch.setattr(projections, "_rescaled", lambda leaf, v: calls.append(1) or rescaled(leaf, v))
    esoc = mk.esoc(p, 2)
    for cone, lead in ((esoc, []), (mk.esoc_dual(p, 2), []), (mk.cylinder(1, esoc), [0.5])):
        for head in (np.nan, np.inf, -np.inf, 0.5):
            for tail in (1.0, 1e308):
                v = np.array(lead + [head] + [0.25] * (p - 1) + [tail, tail])
                calls.clear()
                y = mk.project(cone, v).point
                finite = np.isfinite(y).all()
                if head == 0.5:
                    assert finite and calls == [1] * (tail == 1e308), (cone, v)
                    continue
                assert calls == [], (cone, v)
                if head == -np.inf and tail == 1.0 and cone.kind != "esoc_dual":
                    # x_1 -> -inf pulls s below 0: the limit (0, w_2, ..., 0)
                    assert finite and mk.contains(cone, y)
                else:
                    assert not finite, (cone, v, y)


# every kind, as it is and as the base of a cylinder or a dual cylinder
_BASE_KINDS = tuple(k for k in _KINDS if k != "cylinder_dual")


@st.composite
def _any_cones(draw):
    cone = _cone(draw(st.sampled_from(_BASE_KINDS)), draw(st.integers(1, 6)))
    outer = draw(st.sampled_from([None, mk.cylinder, mk.cylinder_dual]))
    return cone if outer is None else outer(draw(st.integers(1, 2)), cone)


def _rel(a, v):
    """``a`` over 1 + the largest magnitude of ``v``: the relative error bound."""
    return np.abs(a).max(initial=0.0) / (1.0 + np.abs(v).max(initial=0.0))


@settings(deadline=None, max_examples=300)
@given(_any_cones(), st.data())
def test_every_kind_projects_idempotently_and_nonexpansively(cone, data):
    a, b = data.draw(arrays(float, (2, cone.dim), elements=MODERATE))
    Pa, Pb = mk.project(cone, a).point, mk.project(cone, b).point
    assert _rel(mk.project(cone, Pa).point - Pa, a) <= 1e-12, (cone, a)
    gap = np.linalg.norm(Pa - Pb) - np.linalg.norm(a - b)
    assert gap <= 1e-12 * (1.0 + np.abs([a, b]).max()), (cone, a, b)


@settings(deadline=None, max_examples=300)
@given(_any_cones(), st.data())
def test_every_kind_meets_moreau(cone, data):
    # v = P_K(v) - P_K*(-v), and the certificate reads only membership
    # slacks of K and K*, no code of the reductions
    v = data.draw(arrays(float, cone.dim, elements=MODERATE))
    y = mk.project(cone, v).point
    w = mk.project(mk.dual_of(cone), -v).point
    assert _rel(v - (y - w), v) <= 1e-12, (cone, v)
    assert projections._moreau_residual(cone, v, y) <= 1e-9, (cone, v)


@settings(deadline=None, max_examples=200)
@given(_any_cones(), st.integers(0, 5), st.data())
def test_batch_rows_equal_project(cone, m, data):
    n = cone.dim
    V = data.draw(arrays(float, (m, n), elements=MODERATE))
    for row in V:
        form = data.draw(st.sampled_from(["drawn", "zero tail", "zero"]))
        if form == "zero tail":
            row[n - n // 2 :] = 0.0
        elif form == "zero":
            row[:] = 0.0
    B = project_batch(cone, V)
    assert B.shape == V.shape
    for v, b in zip(V, B):
        assert _rel(b - mk.project(cone, v).point, v) <= 1e-12, (cone, v)


# isotonic heads just below, at and just above the length where pav_fit
# switches from the sweep to the batch passes
_HEADS = (_kernels.PASSES_MIN - 1, _kernels.PASSES_MIN, _kernels.PASSES_MIN + 1)


def _head_cones(h):
    """The PAV kinds whose isotonic head has h entries, and their heads."""
    return [
        (mk.monotone(h), lambda v: v),
        (mk.monotone_nonneg(h), lambda v: v),
        (mk.mesoc(h - 1, 3), lambda v: np.append(v[: h - 1], np.linalg.norm(v[h - 1 :]))),
    ]


@pytest.mark.parametrize("h", _HEADS)
def test_heads_around_the_passes_switch(h, rng, monkeypatch):
    pools = []
    pool = _kernels._pool
    monkeypatch.setattr(_kernels, "_pool", lambda rows: pools.append(rows.shape) or pool(rows))
    for cone, head in _head_cones(h):
        for v in rng.standard_normal((5, cone.dim)) * 3.0:
            r = mk.project(cone, v)
            assert projections._moreau_residual(cone, v, r.point) <= 1e-12
            # the blocks partition [0, h) and are the sweep's on normal rows
            _, starts, lengths = isotonic_decreasing(head(v))
            assert r.active_blocks == tuple(zip(starts.tolist(), (starts + lengths).tolist()))
            assert r.active_blocks[0][0] == 0 and r.active_blocks[-1][1] == h
            assert all(a[1] == b[0] for a, b in zip(r.active_blocks, r.active_blocks[1:]))
            assert all(type(i) is int for block in r.active_blocks for i in block)
    # only heads of PASSES_MIN entries or more go through the passes
    assert pools == ([(1, h)] * 15 if h >= _kernels.PASSES_MIN else [])


def _clip_heads(n, rng):
    """Heads of n entries for the norm tail's clipped fit: -0.0 among
    negatives, a NaN, only negative values, and strictly decreasing ones,
    some below zero, where no block pools."""
    signed_zero = -np.abs(rng.standard_normal(n))
    signed_zero[rng.choice(n, size=max(1, n // 3), replace=False)] = -0.0
    nan = rng.standard_normal(n)
    nan[rng.integers(n)] = np.nan
    negative = -np.abs(rng.standard_normal(n)) - 1.0
    descending = np.sort(rng.standard_normal(n))[::-1].copy()
    return {"-0.0": signed_zero, "all -0.0": np.full(n, -0.0), "NaN": nan, "negative": negative,
            "no pooling": descending, "mixed": rng.standard_normal(n) * 3.0}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 7, _kernels.PASSES_MIN - 1, _kernels.PASSES_MIN])
def test_clipped_fit_is_np_maximum_bit_for_bit(n, rng):
    for name, head in _clip_heads(n, rng).items():
        fit, counts = _kernels.pav_fit(head)
        clipped, clipped_counts = _kernels.pav_fit(head, nonneg=True)
        assert clipped.dtype == fit.dtype and clipped.shape == (n,)
        assert clipped.tobytes() == np.maximum(fit, 0.0).tobytes(), name
        assert list(clipped_counts) == list(counts), name
        # the unclipped fit is the monotone cone's projection, the clipped
        # one the monotone nonnegative cone's: the norm tail at p = n, which
        # at p = 1 is a closed form instead
        assert mk.project(mk.monotone(n), head).point.tobytes() == fit.tobytes(), name
        if n > 1:
            assert mk.project(mk.monotone_nonneg(n), head).point.tobytes() == clipped.tobytes(), name
    # no block pools: the fit is the head, clipped or not
    descending = _clip_heads(n, rng)["no pooling"]
    assert _kernels.pav_fit(descending)[0].tobytes() == descending.tobytes()
    assert len(_kernels.pav_fit(descending, nonneg=True)[1]) == n




# Row blocks.  With cones.BLOCK_ENTRIES cut to a few entries a batch runs as
# many blocks, down to one row per block; every row keeps the bytes a single
# block gives it.
def _bits(A):
    """The bytes of ``A`` with every NaN made the same NaN.  IEEE 754 gives a
    NaN's sign no meaning, and NumPy's add of two NaNs returns one operand's
    in its vector loop and the other's in the remainder, which a block
    boundary moves; a dual kind adds the NaN rows of V and P(-V)."""
    return np.where(np.isnan(A), np.nan, A).tobytes()


def _block_cones(n):
    """Every kind in R^n, a cylinder and a nested cylinder."""
    return [_cone(kind, n) for kind in _KINDS] + [
        mk.cylinder(1, _cone("mesoc", n - 1)),
        mk.cylinder_dual(1, mk.cylinder(1, _cone("mesoc_dual", n - 2))),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None)
@given(st.integers(3, 8), st.integers(0, 9), st.data())
def test_batch_blocks_keep_every_row(n, m, data):
    V = data.draw(arrays(float, (m, n), elements=MODERATE))
    for row in V:
        form = data.draw(st.sampled_from(["drawn", "zero tail", "nan", "inf", "-inf"]))
        if form == "zero tail":
            row[n - n // 2 :] = 0.0
        elif form != "drawn":
            row[data.draw(st.integers(0, n - 1))] = float(form)
    entries = data.draw(st.integers(1, 3 * n))
    for cone in _block_cones(n):
        got = with_block_entries(entries, project_batch, cone, V)
        assert got.shape == V.shape and _bits(got) == _bits(one_block(project_batch, cone, V)), cone


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cone", _block_cones(5), ids=str)
def test_batch_block_edges(cone, rng):
    V = rng.normal(size=(7, 5)) * 3.0
    clean = one_block(project_batch, cone, V)
    # two rows per block: a NaN row ends the first block and an infinite row
    # opens the second; the other rows keep their bytes
    dirty = V.copy()
    dirty[1], dirty[2, 3] = np.nan, -np.inf
    got = with_block_entries(10, project_batch, cone, dirty)
    assert _bits(got) == _bits(one_block(project_batch, cone, dirty))
    rest = [0, 3, 4, 5, 6]
    assert got[rest].tobytes() == clean[rest].tobytes()
    # no rows, one row, and rows wider than a block
    for rows, entries in ((V[:0], 2), (V[:1], 2), (V, 4), (V, 1)):
        got = with_block_entries(entries, project_batch, cone, rows)
        assert got.shape == rows.shape and got.tobytes() == clean[: len(rows)].tobytes()


@pytest.mark.parametrize("cone", [mk.monotone(30), mk.monotone_nonneg(30), mk.mesoc(29, 1)], ids=str)
def test_batch_blocks_with_cascade_rows(cone, rng):
    # the cascade row pools one pair per pass for 29 passes; in blocks of two
    # rows, the blocks without it stop after a few
    V = rng.normal(size=(7, 30))
    V[[0, 3, 6]] = _cascade(30)
    got = with_block_entries(60, project_batch, cone, V)
    assert got.tobytes() == one_block(project_batch, cone, V).tobytes()


def test_batch_refusals():
    for cone in (mk.mesoc(2, 2), mk.esoc(2, 2), mk.esoc_dual(2, 2)):
        for V in (np.ones((2, 3)), np.ones(4), np.ones((1, 2, 4))):
            with pytest.raises(mk.DimensionError):
                project_batch(cone, V)


@pytest.mark.parametrize("cone", [mk.lorentz(2), mk.nonneg_orthant(2)], ids=str)
def test_oracle_refuses_nan(cone):
    # the apex used to pass a NaN certificate on the Lorentz cone, and the
    # orthant ended in a DimensionError when no face candidate was feasible
    with pytest.raises(mk.OracleError):
        mk.project_oracle(cone, [np.nan, 1.0])
