"""Projections: closed forms and kernels against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import mesoc_kit as mk
from mesoc_kit import projections, sampling
from mesoc_kit._kernels import isotonic_decreasing
from mesoc_kit.projections import (
    project_monotone_batch,
    project_monotone_nonneg_batch,
)


def test_monotone_frozen_cases():
    # merges computed by hand
    r = mk.project_monotone([1.0, 3.0, 2.0])
    assert_allclose(r.point, [2.0, 2.0, 2.0])
    assert r.distance == pytest.approx(np.sqrt(2.0))
    assert r.active_blocks == ((0, 3),)

    r = mk.project_monotone([3.0, 1.0, 2.0])
    assert_allclose(r.point, [3.0, 1.5, 1.5])
    assert r.active_blocks == ((0, 1), (1, 3))

    # already nonincreasing: untouched, singleton blocks
    r = mk.project_monotone([3.0, 2.0, -1.0])
    assert_allclose(r.point, [3.0, 2.0, -1.0])
    assert r.distance == 0.0
    assert r.active_blocks == ((0, 1), (1, 2), (2, 3))


def test_monotone_nonneg_frozen_cases():
    r = mk.project_monotone_nonneg([1.2, 2.4, -0.5, 0.7, 0.1])
    assert_allclose(r.point, [1.8, 1.8, 0.1, 0.1, 0.1])
    r = mk.project_monotone_nonneg([-3.0, -1.0])
    assert_allclose(r.point, [0.0, 0.0])
    assert r.distance == pytest.approx(np.sqrt(10.0))


def test_lorentz_three_cases():
    inside = np.array([5.0, 3.0, 4.0])
    assert_allclose(mk.project_lorentz(inside).point, inside)
    polar = np.array([-5.0, 3.0, 4.0])
    assert_allclose(mk.project_lorentz(polar).point, np.zeros(3))
    between = np.array([0.0, 3.0, 4.0])
    r = mk.project_lorentz(between)
    assert_allclose(r.point, [2.5, 1.5, 2.0])
    assert mk.contains(mk.lorentz(3), r.point)


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
    # inequality <v - Pv, k> <= 0 against sampled cone members
    for cone in [mk.monotone(6), mk.monotone_nonneg(6), mk.lorentz(4)]:
        K = sampling.sample(cone, rng, 200)
        for v in rng.normal(size=(100, cone.dim)) * 2.0:
            y = mk.project(cone, v).point
            assert mk.contains(cone, y, mk.Tolerances(1e-9, 1e-9))
            assert_allclose(mk.project(cone, y).point, y, atol=1e-9)
            assert abs((v - y) @ y) < 1e-9 * (1 + v @ v)
            assert ((K @ (v - y)) < 1e-9).all()


def test_nonexpansive(rng):
    for cone in [mk.monotone(7), mk.monotone_nonneg(7)]:
        A = rng.normal(size=(2000, 7)) * 3
        B = A + rng.normal(size=(2000, 7))
        PA = project_monotone_batch(A) if cone.kind == "monotone" else project_monotone_nonneg_batch(A)
        PB = project_monotone_batch(B) if cone.kind == "monotone" else project_monotone_nonneg_batch(B)
        lhs = np.linalg.norm(PA - PB, axis=1)
        rhs = np.linalg.norm(A - B, axis=1)
        assert (lhs <= rhs + 1e-12).all()


def test_batch_matches_scalar(rng):
    V = rng.normal(size=(300, 9)) * 2
    B = project_monotone_batch(V)
    for i, v in enumerate(V):
        assert_allclose(B[i], mk.project_monotone(v).point, atol=1e-13)
    B = project_monotone_nonneg_batch(V)
    for i, v in enumerate(V):
        assert_allclose(B[i], mk.project_monotone_nonneg(v).point, atol=1e-13)


def test_blocks_partition_and_are_constant(rng):
    for v in rng.normal(size=(100, 8)):
        r = mk.project_monotone(v)
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
    assert_allclose(r.point[3:], mk.project_monotone_nonneg(z[3:]).point)
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
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(mk.esoc(2, 2), [1.0, 1.0, 0.0, 0.0])
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
    _assert_rows_match_sweep(V, project_monotone_batch(V))


# entries of one row spread over 1e-3 to 1e6 in magnitude, so a row's small
# tail sits next to the large head of the row after it
_MIXED_SCALES = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-10.0, 10.0, allow_nan=False),
    st.integers(-3, 5),
)


@settings(deadline=None)
@given(_batches(st.tuples(st.integers(1, 8), st.integers(1, 24)), elements=_MIXED_SCALES))
def test_batch_rows_match_the_sweep_across_scales(V):
    _assert_rows_match_sweep(V, project_monotone_batch(V))


@settings(deadline=None)
@given(_batches())
def test_nonneg_batch_passes_moreau_certificate(V):
    # y in K (nonincreasing, >= 0), y - v in K* (partial sums >= 0) and
    # <v - y, y> = 0: together they characterize the projection of v onto K
    Y = project_monotone_nonneg_batch(V)
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
    B = project_monotone_batch(V)
    _assert_rows_match_sweep(V, B)
    assert_allclose(B[at], np.full(n, _cascade(n).mean()), rtol=1e-14)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (3, 1)])
def test_batch_degenerate_shapes(shape):
    V = np.arange(np.prod(shape), dtype=float).reshape(shape) - 1.0
    for fn, expected in ((project_monotone_batch, V), (project_monotone_nonneg_batch, np.maximum(V, 0.0))):
        out = fn(V)
        assert out.shape == shape and out.dtype == np.float64
        assert not np.shares_memory(out, V)
        assert_allclose(out, expected, atol=0)


@settings(deadline=None)
@given(_batches(), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_nonfinite_entry_stays_in_its_row(V, data, bad):
    i = data.draw(st.integers(0, V.shape[0] - 1))
    j = data.draw(st.integers(0, V.shape[1] - 1))
    W = V.copy()
    W[i, j] = bad
    clean, dirty = project_monotone_batch(V), project_monotone_batch(W)
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


# each projectable kind with its public single-kind wrapper
_WRAPPERS = {
    "monotone": mk.project_monotone,
    "monotone_nonneg": mk.project_monotone_nonneg,
    "nonneg_orthant": mk.project_nonneg_orthant,
    "lorentz": mk.project_lorentz,
}
_PAV_KINDS = ("monotone", "monotone_nonneg")


@settings(deadline=None)
@given(st.sampled_from(sorted(_WRAPPERS)), st.integers(0, 3), _VECTORS, st.data())
def test_project_result_fields(kind, p, v, data):
    # project, the single-kind wrapper and a cylinder give the same point
    # bytes; the distance is np.linalg.norm of the move as a Python float
    # and the blocks are tuples of Python ints
    inner = getattr(mk, kind)(v.size)
    cases = [(inner, v)]
    if p:
        x = data.draw(arrays(float, p, elements=_ENTRIES))
        cases.append((mk.cylinder(p, inner), np.concatenate([x, v])))
    expected = _WRAPPERS[kind](v)
    for cone, z in cases:
        r = mk.project(cone, z)
        assert r.point.tobytes() == np.concatenate([z[: z.size - v.size], expected.point]).tobytes()
        assert type(r.distance) is float and r.distance == float(np.linalg.norm(z - r.point))
        assert r.active_blocks == expected.active_blocks
        if kind in _PAV_KINDS:
            assert type(r.active_blocks) is tuple
            assert all(type(b) is tuple and [type(i) for i in b] == [int, int] for b in r.active_blocks)
        else:
            assert r.active_blocks is None


@pytest.mark.parametrize("kind", sorted(_WRAPPERS))
def test_dimension_errors_of_every_kind(kind):
    cone = getattr(mk, kind)(3)
    for z in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], []):
        with pytest.raises(mk.DimensionError):
            mk.project(cone, z)
        with pytest.raises(mk.DimensionError):
            mk.project(mk.cylinder(2, cone), [0.0, 0.0] + z)
    with pytest.raises(mk.DimensionError):
        projections.project_cylinder(2, cone, [0.0, 0.0, 1.0])
    with pytest.raises(mk.DimensionError, match="empty"):
        _WRAPPERS[kind]([])
    # a wrapper projects whatever length it is given, flattening nested input
    assert _WRAPPERS[kind]([[1.0], [2.0]]).point.shape == (2,)


@pytest.mark.parametrize("cone", [mk.esoc(2, 2), mk.mesoc(2, 2), mk.monotone_dual(4),
                                  mk.cylinder_dual(2, mk.lorentz(2))])
def test_unsupported_kinds(cone):
    z = np.ones(cone.dim)
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(cone, z)
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(mk.cylinder(1, cone), np.ones(1 + cone.dim))
    with pytest.raises(mk.UnsupportedConeError):
        projections.project_cylinder(1, cone, np.ones(1 + cone.dim))
    # an unsupported kind is reported before a wrong length
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(cone, z[:-1])
