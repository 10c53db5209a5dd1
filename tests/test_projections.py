"""Projections: closed forms and kernels against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
            assert mk.contains(cone, y, mk.Tolerances(1e-9, 1e-9))
            assert_allclose(mk.project(cone, y).point, y, atol=1e-9)
            assert abs((v - y) @ y) < 1e-9 * (1 + v @ v)
            assert ((K @ (v - y)) < 1e-9).all()
            assert projections._moreau_residual(cone, v, y) <= 1e-12


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
        assert_allclose(B[i], mk.project(mk.monotone(9), v).point, atol=1e-13)
    B = project_monotone_nonneg_batch(V)
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


# every projectable kind but the cylinder, whose inner cone the tests choose
_KINDS = ("monotone", "monotone_nonneg", "nonneg_orthant", "lorentz", "mesoc", "mesoc_dual",
          "monotone_dual", "monotone_nonneg_dual", "cylinder_dual")
_PAV_KINDS = ("monotone", "monotone_nonneg", "mesoc")


def _cone(kind, n):
    """A cone of ``kind`` in R^n (n >= 2 for cylinder_dual)."""
    if kind in ("mesoc", "mesoc_dual"):
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
def test_unsupported_kinds(cone):
    z = np.ones(cone.dim)
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(cone, z)
    for outer in (mk.cylinder(1, cone), mk.cylinder_dual(1, cone), mk.cylinder(1, mk.cylinder(1, cone))):
        with pytest.raises(mk.UnsupportedConeError):
            mk.project(outer, np.ones(outer.dim))
    # an unsupported kind is reported before a wrong length
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(cone, z[:-1])
    with pytest.raises(mk.UnsupportedConeError):
        mk.project(mk.cylinder(1, cone), z)
