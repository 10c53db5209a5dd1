"""Membership, duality, complementarity and decomposition over the cone zoo."""

import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import mesoc_kit as mk
from mesoc_kit import cones, sampling
from mesoc_kit.cones import ConeSpec, _slacks_batch, row_norms

from _row_blocks import one_block, with_block_entries

SHAPES = [(2, 2), (3, 2), (2, 3), (4, 1), (1, 2)]


def all_cones():
    cones = []
    for p, q in SHAPES:
        cones += [mk.mesoc(p, q), mk.mesoc_dual(p, q), mk.esoc(p, q), mk.esoc_dual(p, q)]
    for n in (1, 2, 4):
        cones += [
            mk.monotone(n),
            mk.monotone_dual(n),
            mk.monotone_nonneg(n),
            mk.monotone_nonneg_dual(n),
            mk.nonneg_orthant(n),
            mk.lorentz(n),
        ]
    cones += [
        mk.cylinder(2, mk.monotone_nonneg(2)),
        mk.cylinder(3, mk.lorentz(3)),
        mk.cylinder_dual(2, mk.monotone_nonneg_dual(2)),
    ]
    return cones


# ---------------------------------------------------------------------------
# specs and vectors


def test_spec_validation():
    with pytest.raises(ValueError):
        mk.mesoc(0, 2)
    with pytest.raises(ValueError):
        ConeSpec("monotone", 3, 0, inner=mk.lorentz(2))
    with pytest.raises(ValueError):
        ConeSpec("no_such_kind", 2)
    with pytest.raises(ValueError):
        ConeSpec("cylinder", 2, 2)  # missing inner
    with pytest.raises(mk.DimensionError):
        ConeSpec("cylinder", 2, 3, inner=mk.lorentz(2))
    # q = 0 degenerates cleanly for the partitioned kinds that allow it
    assert mk.mesoc(3, 0).dim == 3
    with pytest.raises(ValueError):
        ConeSpec("cylinder", 2, 0)
    # a kind without a u block takes no q: its slacks would read only x, and
    # project would clip the tail that contains let through
    for kind in sorted(cones.KINDS - cones.PARTITIONED_KINDS):
        with pytest.raises(ValueError, match="q must be 0"):
            ConeSpec(kind, 2, 1)


def test_spec_str():
    assert str(mk.mesoc(3, 0)) == "mesoc(3, 0)"
    assert str(mk.lorentz(3)) == "lorentz(3)"
    assert str(mk.cylinder_dual(2, mk.mesoc_dual(1, 2))) == "cylinder_dual(p=2, inner=mesoc_dual(1, 2))"


def test_mesoc_q0_matches_monotone_nonneg(rng):
    X = rng.normal(size=(200, 4))
    a = mk.contains_batch(mk.mesoc(4, 0), X)
    b = mk.contains_batch(mk.monotone_nonneg(4), X)
    assert (a == b).all()


def test_mesoc_width_one_matches_second_order_cone(rng):
    # with a single head coordinate the chain collapses to x_1 >= |u|
    narrow, soc = mk.mesoc(1, 3), mk.lorentz(4)
    members = sampling.sample(narrow, rng, 5_000)
    noise = rng.normal(size=(5_000, 4)) * rng.uniform(0.1, 5, (5_000, 1))
    for batch in (members, noise):
        assert (mk.contains_batch(narrow, batch) == mk.contains_batch(soc, batch)).all()


def test_partitioned_vector_roundtrip():
    z = mk.PartitionedVector([3.0, 2.0], [0.5, 1.0])
    assert z.p == 2 and z.q == 2 and z.dim == 4
    assert_allclose(z.concat(), [3.0, 2.0, 0.5, 1.0])
    back = mk.PartitionedVector.from_array(z.concat(), 2, 2)
    assert_allclose(back.x, z.x)
    assert_allclose(np.asarray(z), z.concat())
    assert_allclose(back.concat() - z.concat(), np.zeros(4))
    with pytest.raises(ValueError):
        mk.PartitionedVector([np.nan, 1.0], [0.0])
    with pytest.raises(mk.DimensionError):
        mk.PartitionedVector.from_array([1.0, 2.0], 2, 2)
    # from_array checks the whole vector once, either block may hold the bad entry
    for bad in ([np.nan, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, -np.inf]):
        with pytest.raises(ValueError):
            mk.PartitionedVector.from_array(bad, 2, 2)
    one = mk.PartitionedVector.from_array([[4]], 1, 0)
    assert one.x.tolist() == [4.0] and one.x.dtype == np.float64 and one.u.shape == (0,)


# ---------------------------------------------------------------------------
# membership


def test_membership_frozen_cases():
    cases = [
        (mk.mesoc(3, 2), [3, 2, 1.5, 0.9, 1.2], True),   # 1.5 = ||(0.9,1.2)||
        (mk.mesoc(3, 2), [3, 2, 1.4, 0.9, 1.2], False),
        (mk.mesoc(2, 2), [2, 3, 0, 0], False),           # order violated
        (mk.mesoc_dual(2, 2), [2, -1, 0.6, 0.8], True),  # sums (2, 1), ||v|| = 1
        (mk.mesoc_dual(2, 2), [-0.1, 2, 0, 0], False),
        (mk.esoc(2, 2), [1.5, 1.2, 0.9, 0.5], True),
        (mk.esoc(2, 2), [1.5, 1.0, 0.9, 0.5], False),
        (mk.esoc_dual(2, 1), [0.3, 0.8, 1.1], True),     # sum 1.1 = |u|
        (mk.esoc_dual(2, 1), [0.3, 0.8, -1.2], False),
        (mk.monotone(3), [1.0, 1.0, -5.0], True),
        (mk.monotone(3), [1.0, 1.1, -5.0], False),
        (mk.monotone_dual(3), [1.0, -0.5, -0.5], True),  # partial sums 1, .5, 0
        (mk.monotone_dual(3), [1.0, -0.5, -0.4], False), # total != 0
        (mk.monotone_nonneg(3), [2.0, 1.0, 0.0], True),
        (mk.monotone_nonneg(3), [2.0, 1.0, -0.1], False),
        (mk.monotone_nonneg_dual(3), [1.0, -1.0, 0.5], True),
        (mk.monotone_nonneg_dual(3), [1.0, -1.5, 0.5], False),
        (mk.nonneg_orthant(2), [0.0, 3.0], True),
        (mk.lorentz(3), [5.0, 3.0, 4.0], True),
        (mk.lorentz(3), [4.9, 3.0, 4.0], False),
        (mk.lorentz(1), [0.1], True),
        (mk.cylinder(2, mk.lorentz(2)), [-9.0, 4.0, 1.0, 0.5], True),
        (mk.cylinder(2, mk.lorentz(2)), [-9.0, 4.0, 0.4, 0.5], False),
        (mk.cylinder_dual(2, mk.lorentz(2)), [0.0, 0.0, 1.0, 0.5], True),
        (mk.cylinder_dual(2, mk.lorentz(2)), [0.1, 0.0, 1.0, 0.5], False),
    ]
    for cone, z, expected in cases:
        assert mk.contains(cone, z) == expected, (cone, z)


def test_membership_slack_count_and_sign():
    cone = mk.mesoc(3, 2)
    s = mk.membership_slacks(cone, [3, 2, 1.5, 0.9, 1.2])
    assert s.shape == (3,)
    assert_allclose(s, [1.0, 0.5, 0.0], atol=1e-15)
    # equality kinds expose both one-sided slacks, so min(slacks) works there too
    s = mk.membership_slacks(mk.monotone_dual(3), [1.0, -0.5, -0.5])
    assert s.shape == (4,)
    assert s.min() >= -1e-15


def test_sampled_members_are_members(rng):
    for cone in all_cones():
        Z = sampling.sample(cone, rng, 300)
        assert Z.shape == (300, cone.dim)
        assert mk.contains_batch(cone, Z).all(), cone


def test_contains_batch_matches_scalar(rng):
    cone = mk.mesoc(3, 2)
    Z = rng.normal(size=(100, 5))
    # borderline points: half of them genuine members
    Z[::2] = sampling.sample(cone, rng, 50)
    batch = mk.contains_batch(cone, Z)
    scalar = np.array([mk.contains(cone, z) for z in Z])
    assert (batch == scalar).all()
    with pytest.raises(mk.DimensionError):
        mk.contains_batch(cone, np.zeros((3, 4)))


# Batch membership properties.  Every kind is drawn with random p and q (and
# a random inner cone for cylinders); rows mix small integers, which make
# ties and exact boundary points common, with floats up to 1e6, and half of
# each batch is sampled cone members.
_FLAT_KINDS = ["monotone", "monotone_dual", "monotone_nonneg", "monotone_nonneg_dual",
               "nonneg_orthant", "lorentz"]
_NORM_KINDS = ["mesoc", "mesoc_dual", "esoc", "esoc_dual"]
_ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _draw_cone(data, kind):
    p = data.draw(st.integers(1, 4))
    if kind in _NORM_KINDS:
        return ConeSpec(kind, p, data.draw(st.integers(0, 3)))
    if kind in ("cylinder", "cylinder_dual"):
        inner = _draw_cone(data, data.draw(st.sampled_from(_FLAT_KINDS + _NORM_KINDS)))
        return ConeSpec(kind, p, inner.dim, inner)
    return ConeSpec(kind, p)


def _draw_rows(data, cone):
    m = data.draw(st.integers(0, 6))
    Z = data.draw(arrays(float, (m, cone.dim), elements=_ENTRIES))
    members = sampling.sample(cone, sampling.rng_from_seed(data.draw(st.integers(0, 99))), m)
    Z[::2] = members[::2]
    return Z


def _row_slacks(cone, z):
    """Membership slacks of one vector, written out from the definitions."""
    x, u = z[: cone.p], z[cone.p :]
    kind, S = cone.kind, np.cumsum(x)
    drops = list(x[:-1] - x[1:])
    if kind == "mesoc":
        return drops + [x[-1] - np.linalg.norm(u)]
    if kind == "mesoc_dual":
        return list(S[:-1]) + [S[-1] - np.linalg.norm(u)]
    if kind == "esoc":
        return list(x - np.linalg.norm(u))
    if kind == "esoc_dual":
        return list(x) + [x.sum() - np.linalg.norm(u)]
    if kind == "monotone":
        return drops
    if kind == "monotone_dual":
        return list(S[:-1]) + [S[-1], -S[-1]]
    if kind == "monotone_nonneg":
        return drops + [x[-1]]
    if kind == "monotone_nonneg_dual":
        return list(S)
    if kind == "nonneg_orthant":
        return list(x)
    if kind == "lorentz":
        return [z[0] - np.linalg.norm(z[1:])]
    if kind == "cylinder":
        return _row_slacks(cone.inner, u)
    return list(x) + list(-x) + _row_slacks(cone.inner, u)


@pytest.mark.parametrize("kind", sorted(cones.KINDS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_slacks_batch_matches_row_reference(kind, data):
    cone = _draw_cone(data, kind)
    Z = _draw_rows(data, cone)
    S = _slacks_batch(cone, Z)
    width = len(_row_slacks(cone, np.zeros(cone.dim)))
    ref = np.array([_row_slacks(cone, z) for z in Z], dtype=float).reshape(len(Z), width)
    assert S.shape == ref.shape and S.dtype == np.float64
    assert S.flags.f_contiguous
    # a lone slack block may be returned without a copy, but never a view of Z
    assert not np.shares_memory(S, Z)
    for z in Z[:1]:
        assert not np.shares_memory(mk.membership_slacks(cone, z), z)
    # the norms may differ from np.linalg.norm in the last bits
    assert_allclose(S, ref, rtol=0, atol=1e-14 * (1.0 + np.abs(Z).max(initial=0.0)))


@pytest.mark.parametrize("kind", sorted(cones.KINDS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_contains_batch_agrees_with_contains(kind, data):
    cone = _draw_cone(data, kind)
    Z = _draw_rows(data, cone)
    got = mk.contains_batch(cone, Z)
    assert got.shape == (len(Z),) and got.dtype == bool
    assert got.tolist() == [mk.contains(cone, z) for z in Z]
    S = _slacks_batch(cone, Z)
    for z, row in zip(Z, S):
        s = mk.membership_slacks(cone, z)
        assert s.ndim == 1
        np.testing.assert_array_equal(s, row)


# whole rows set to these after drawing
_SPECIAL_ROWS = st.sampled_from(["drawn", "zero", "nan", "inf", "-inf", "one_nan", "one_inf"])


def _set_special_rows(data, Z):
    """Overwrite some rows of ``Z`` with zeros, NaN or infinities."""
    for row in Z:
        form = data.draw(_SPECIAL_ROWS)
        if form in ("zero", "nan", "inf", "-inf"):
            row[:] = {"zero": 0.0, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[form]
        elif form != "drawn" and len(row):
            row[data.draw(st.integers(0, len(row) - 1))] = np.nan if form == "one_nan" else np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(cones.KINDS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_contains_batch_blocks_keep_every_row(kind, data):
    # blocks of a few entries, down to one row per block when a row is wider
    cone = _draw_cone(data, kind)
    Z = _draw_rows(data, cone)
    _set_special_rows(data, Z)
    entries = data.draw(st.integers(1, 3 * cone.dim))
    got = with_block_entries(entries, mk.contains_batch, cone, Z)
    assert got.dtype == bool and got.tobytes() == one_block(mk.contains_batch, cone, Z).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cone", [mk.mesoc(3, 2), mk.esoc(2, 3), mk.lorentz(5),
                                  mk.cylinder_dual(1, mk.mesoc_dual(2, 2))], ids=str)
def test_contains_batch_block_edges(cone, rng):
    n = cone.dim
    Z = sampling.sample(cone, rng, 7)
    Z[1::2] = rng.normal(size=(3, n))
    # two rows per block: a NaN row ends the first block and an infinite row
    # opens the second, and neither changes another row's result
    dirty = Z.copy()
    dirty[1], dirty[2, 0] = np.nan, np.inf
    clean = one_block(mk.contains_batch, cone, Z)
    got = with_block_entries(2 * n, mk.contains_batch, cone, dirty)
    assert got.tobytes() == one_block(mk.contains_batch, cone, dirty).tobytes()
    assert not got[1] and (got[3:] == clean[3:]).all() and got[0] == clean[0]
    # no rows, one row, and rows wider than a block
    for rows, entries in ((Z[:0], 2), (Z[:1], 2), (Z, n - 1), (Z, 1)):
        got = with_block_entries(entries, mk.contains_batch, cone, rows)
        assert got.shape == (len(rows),) and got.tolist() == clean[: len(rows)].tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_row_norms_keep_the_einsum_bits(n, layout):
    # a block of at most NARROW_MAX columns sums its squared columns, in
    # slices of BLOCK_ENTRIES rows; einsum's one pass gave these bits
    rng = np.random.default_rng(n)
    wide = rng.standard_normal((97, 2 * n + 1)) * 10.0 ** rng.integers(-3, 4, (97, 2 * n + 1))
    A = np.ascontiguousarray(wide[:, :n]) if layout == "contiguous" else wide[:, 1 : n + 1]
    if n:
        # squares that overflow and underflow, non-finite entries, signed zeros
        A[0] = 1e200
        A[1, -1], A[2, 0], A[3, 0] = np.nan, np.inf, -np.inf
        A[4], A[5] = -0.0, 1e-200
        A[6, 0], A[6, -1] = 1e200, -1e200
    want = np.sqrt(np.einsum("ij,ij->i", A, A))
    for entries in (1, 2, 5, 2**16):
        for rows in (A, A[:1], A[:2], A[:0]):
            # einsum warns of no overflow, and neither may the column form
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = with_block_entries(entries, row_norms, rows)
            assert got.dtype == np.float64 and got.tobytes() == want[: len(rows)].tobytes()


_SPECIAL = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 1e308]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 6), st.data())
def test_esoc_slacks_keep_the_bits_of_the_2d_formulas(p, q, m, data):
    # narrow x blocks are worked down their columns, with the bits of the
    # whole-block formulas they replaced
    Z = data.draw(arrays(float, (m, p + q), elements=_SPECIAL))
    X, U = Z[:, :p], Z[:, p:]
    want = {mk.esoc(p, q): X - row_norms(U)[:, None],
            mk.esoc_dual(p, q): np.column_stack([X, X.sum(axis=1) - row_norms(U)])}
    for cone, ref in want.items():
        got = _slacks_batch(cone, Z)
        assert got.flags.f_contiguous and not np.shares_memory(got, Z)
        assert got.tobytes(order="F") == np.asfortranarray(ref).tobytes(order="F"), cone


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_row_norms_match_linalg_norm(data):
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 16))
    A = data.draw(arrays(float, (m, n), elements=st.floats(-1e150, 1e150, allow_nan=False)))
    _set_special_rows(data, A)
    got, ref = row_norms(A), np.linalg.norm(A, axis=1)
    assert got.shape == (m,) and got.dtype == np.float64
    nan = np.isnan(ref)
    assert (np.isnan(got) == nan).all()
    got, ref = got[~nan], ref[~nan]
    if n <= 2:
        # one multiply and at most one add in either form: the same bits
        np.testing.assert_array_equal(got, ref)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(got[~finite], ref[~finite])
    got, ref = got[finite], ref[finite]
    assert (np.abs(got - ref) <= 4 * np.spacing(ref)).all(), (A, got, ref)


# ---------------------------------------------------------------------------
# duality


def test_dual_of_is_an_involution():
    for cone in all_cones():
        assert mk.dual_of(mk.dual_of(cone)) == cone


def test_dual_pairing_nonnegative(rng):
    for cone in all_cones():
        Z = sampling.sample(cone, rng, 400)
        W = sampling.sample(mk.dual_of(cone), rng, 400)
        inner = np.einsum("ij,ij->i", Z, W)
        assert inner.min() >= -1e-10, (cone, inner.min())


def test_complementarity_terms_are_nonnegative_on_members(rng):
    # members of K and K*, not complementary: every term >= 0 up to
    # rounding, and together they are <z, w>
    for cone in all_cones():
        Z = sampling.sample(cone, rng, 200)
        W = sampling.sample(mk.dual_of(cone), rng, 200)
        for z, w in zip(Z, W):
            terms = cones.complementarity_terms(cone, z, w)
            scale = np.linalg.norm(z) * np.linalg.norm(w)
            assert terms.min(initial=0.0) >= -1e-14 * scale, (cone, terms)
            assert abs(terms.sum() - z @ w) <= 1e-14 * scale, (cone, terms)


def test_complementarity_terms_frozen_value():
    # the drops (1, 0.5 | 1.5, u) of z against the partial sums (2, 1 | 1.5, v)
    # of w: two rays, then the Lorentz factor's three terms
    z, w = [3.0, 2.0, 1.5, 0.9, 1.2], [2.0, -1.0, 0.5, 1.0, 1.0]
    terms = cones.complementarity_terms(mk.mesoc(3, 2), z, w)
    assert_allclose(terms, [2.0, 0.5, 0.0, 1.5 * (1.5 - np.sqrt(2.0)), 1.5 * np.sqrt(2.0) + 2.1],
                    atol=1e-15)
    assert terms.sum() == pytest.approx(np.dot(z, w), rel=1e-15)


# ---------------------------------------------------------------------------
# tolerances and the least slack

# one call per public function that takes a tolerance; the check_isotone,
# in_complementarity_set and verify_solution calls passed with a NaN one
_TOL_CALLS = {
    "contains": lambda tol: mk.contains(mk.mesoc(2, 2), [2, 1, 0, 0], tol),
    "contains_batch": lambda tol: mk.contains_batch(mk.mesoc(2, 2), [[2, 1, 0, 0]], tol),
    "in_complementarity_set": lambda tol: mk.in_complementarity_set(
        mk.nonneg_orthant(2), mk.CompPair([1, 1], [1, 1]), tol),
    "decompose": lambda tol: mk.decompose(mk.mesoc(2, 2), [2, 1, 0, 0], tol),
    "cone_leq": lambda tol: mk.cone_leq(mk.mesoc(2, 2), [0, 0, 0, 0], [2, 1, 0, 0], tol),
    "check_isotone": lambda tol: mk.check_isotone(lambda z: -z, mk.mesoc(2, 2), 200, 0, tol),
    "verify_solution": lambda tol: mk.verify_solution(mk.example_instance(), [100, -7, 3, 9], tol),
    "region_membership": lambda tol: mk.region_membership(mk.example_instance(), [0, 0, 0, 0], tol),
    "is_lyapunov_like": lambda tol: mk.is_lyapunov_like(np.eye(2), mk.nonneg_orthant(2), 20, 0, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
def test_every_tolerance_is_checked(name, tol):
    _TOL_CALLS[name](0.0)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        _TOL_CALLS[name](tol)


def test_the_tolerance_list_names_every_public_function_with_a_tol():
    # the public signatures, the calls above and docs/schema.md's list agree
    public = {name for name in mk.__all__ if inspect.isfunction(getattr(mk, name))
              and "tol" in inspect.signature(getattr(mk, name)).parameters}
    text = (Path(__file__).resolve().parent.parent / "docs" / "schema.md").read_text()
    section = text.split("### Tolerances", 1)[1]
    listed = re.search(r"each function that takes one \(([^)]*)\)", section).group(1)
    assert public == set(_TOL_CALLS) == set(re.findall(r"`(\w+)`", listed))


def test_least_slack_of_a_cone_without_inequalities():
    # monotone(1) has no inequality, so it holds every vector of R
    cone = mk.monotone(1)
    assert mk.membership_slacks(cone, [-3.0]).size == 0
    assert cones.least_slack(mk.membership_slacks(cone, [-3.0])) == np.inf
    assert cones.least_slack(np.empty((2, 0))).tolist() == [np.inf, np.inf]
    assert mk.contains(cone, [-3.0]) and mk.contains_batch(cone, [[-3.0], [5.0]]).all()
    assert mk.check_isotone(lambda z: -z, cone, 20, 0).ok
    rep = mk.in_complementarity_set(cone, mk.CompPair([-3.0], [0.0]))
    assert rep.member and rep.residuals["primal_membership"] == np.inf
    inst = mk.MicpInstance(mk.AffineMap(1, 1, np.eye(2), np.zeros(2)), inner=cone)
    assert mk.verify_solution(inst, [0.0, -3.0]).inner_slack == np.inf


def test_nan_slack_fails_every_check():
    nan = float("nan")
    assert np.isnan(cones.least_slack(np.array([1.0, nan])))
    assert not mk.contains(mk.nonneg_orthant(2), [1.0, nan])
    assert not mk.contains_batch(mk.nonneg_orthant(2), [[1.0, nan], [1.0, 1.0]])[0]
    report = mk.check_isotone(lambda z: z * nan, mk.nonneg_orthant(2), 5, 0)
    assert len(report.violations) == report.checked == 5
    rep = mk.in_complementarity_set(mk.lorentz(2), mk.CompPair([1.0, nan], [1.0, -1.0]))
    assert not rep.member and "primal_membership" in rep.failed
    # an infinite entry gives a NaN term: a residual that fails, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mk.in_complementarity_set(mk.lorentz(2), mk.CompPair([np.inf, 1.0], [1.0, 1.0]))
    assert not rep.member and rep.failed == ("orthogonality",)
    # a NaN point used to verify as a solution: every residual was NaN
    rep = mk.verify_solution(mk.example_instance(), [nan] * 4)
    assert not rep.ok and rep.failed == ("g_norm", "inner_membership", "dual_membership", "orthogonality")


# ---------------------------------------------------------------------------
# complementarity


# every kind the Moreau pair sampler projects, past the mesoc shapes
_PAIR_CONES = [
    mk.mesoc_dual(3, 2), mk.monotone(4), mk.monotone_dual(4), mk.monotone_nonneg(4),
    mk.monotone_nonneg_dual(4), mk.nonneg_orthant(4), mk.lorentz(4),
    mk.cylinder(2, mk.mesoc(2, 2)), mk.cylinder_dual(2, mk.lorentz(3)),
    mk.esoc(3, 2), mk.esoc_dual(2, 3), mk.cylinder(1, mk.esoc(2, 2)),
    mk.cylinder_dual(2, mk.esoc(2, 1)),
]


def test_generated_pairs_are_complementary(rng):
    for cone in [mk.mesoc(p, q) for p, q in SHAPES] + _PAIR_CONES:
        Z, W = sampling.complementarity_pairs(cone, rng, 150)
        dual = mk.dual_of(cone)
        assert mk.contains_batch(cone, Z).all()
        assert mk.contains_batch(dual, W).all()
        assert np.abs(np.einsum("ij,ij->i", Z, W)).max() < 1e-12
        for z, w in zip(Z, W):
            assert mk.in_complementarity_set(cone, mk.CompPair(z, w)).member


def test_monotone_nonneg_pairs_are_those_of_mesoc_q0():
    # the monotone nonnegative cone is L(p, 0): same generator, same draws
    p = 3
    Z, W = sampling.complementarity_pairs(mk.monotone_nonneg(p), sampling.rng_from_seed(5), 40)
    Zm, Wm = sampling.complementarity_pairs(mk.mesoc(p, 0), sampling.rng_from_seed(5), 40)
    assert Z.tobytes() == Zm.tobytes() and W.tobytes() == Wm.tobytes()


def test_include_deterministic_is_inert():
    # perfbench/cli_problems.py still passes the flag; it changes no draw
    cone = mk.mesoc(3, 2)
    Z, W = sampling.complementarity_pairs(cone, sampling.rng_from_seed(1), 4)
    Zf, Wf = sampling.complementarity_pairs(
        cone, sampling.rng_from_seed(1), 4, include_deterministic=False
    )
    assert Z.tobytes() == Zf.tobytes() and W.tobytes() == Wf.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_monotone_pairs_are_complementary(rng, n):
    cone = mk.monotone(n)
    Z, W = sampling.complementarity_pairs(cone, rng, 100)
    assert len(Z) >= 100
    assert mk.contains_batch(cone, Z).all()
    assert mk.contains_batch(mk.dual_of(cone), W, 1e-12).all()
    assert np.abs(np.einsum("ij,ij->i", Z, W)).max() < 1e-12


def test_complementarity_report():
    # flat primal against its scaled antipodal dual: every residual tight
    rep = mk.in_complementarity_set(
        mk.mesoc(2, 2), mk.CompPair([1.0, 1.0, 0.6, 0.8], [0.5, 0.5, -0.6, -0.8])
    )
    assert rep.member and list(rep.residuals) == ["primal_membership", "dual_membership",
                                                  "orthogonality"]
    assert max(abs(v) for v in rep.residuals.values()) < 1e-14


def test_complementarity_rejections():
    cone = mk.mesoc(2, 2)
    # v not antiparallel to u; the primal norm not tight; <z, w> = 1 each
    for pair in (mk.CompPair([1, 1, 0.6, 0.8], [0.5, 0.5, 0.8, -0.6]),
                 mk.CompPair([2, 2, 0.6, 0.8], [0.5, 0.5, -0.6, -0.8]),
                 mk.CompPair([1, 1, 0, 0], [1, 0, 0, 0])):
        rep = mk.in_complementarity_set(cone, pair)
        assert not rep.member and rep.failed == ("orthogonality",), rep
    # a vanishing norm block needs no other test
    rep = mk.in_complementarity_set(cone, mk.CompPair([1, 0, 0, 0], [0, 1, 0, 0]))
    assert rep.member and rep.residuals["orthogonality"] == 0.0
    # <z, w> against ||z|| ||w|| where computing either directly would
    # overflow or underflow: ||z|| = 1e200 next to <z, w> = 1e100, and
    # <z, w> = 1e-200, whose square underflows
    for z, w in (([1e200], [1e-100]), ([1e-200], [1.0])):
        rep = mk.in_complementarity_set(mk.nonneg_orthant(1), mk.CompPair(z, w))
        assert rep.failed == ("orthogonality",) and rep.residuals["orthogonality"] == -1.0


def test_complementarity_monotone_nonneg_path(rng):
    cone = mk.monotone_nonneg(4)
    Z, W = sampling.complementarity_pairs(cone, rng, 200)
    for z, w in zip(Z, W):
        assert mk.in_complementarity_set(cone, mk.CompPair(z, w)).member
    bad = mk.in_complementarity_set(cone, mk.CompPair([2, 1, 1, 0], [1, 0, 0, 0]))
    assert not bad.member and bad.failed == ("orthogonality",)
    # only the tail R_+ of the reduction fails: x_p * (y_1 + ... + y_p) = 1
    for c in (cone, mk.mesoc(4, 0)):
        tail = mk.in_complementarity_set(c, mk.CompPair([1, 1, 1, 1], [0, 0, 0, 1]))
        assert not tail.member and tail.failed == ("orthogonality",)
        assert cones.complementarity_terms(c, [1, 1, 1, 1], [0, 0, 0, 1]).tolist() == [0, 0, 0, 1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: orthogonality is judged against "
                   "||z|| ||w||, and z's rounding at eps ||v|| is large against a w of 5e-9")
@pytest.mark.parametrize("cone,v", [
    (mk.lorentz(3), 0.7 * np.array([1.0, 0.6, 0.8]) + 1e-4 * np.array([0.0, 0.8, -0.6])),
    (mk.monotone(3), 0.7 * np.array([1.0, 1.0, 0.5]) + 1e-8 * np.array([0.3, 1.0, 0.0])),
], ids=["lorentz(3)", "monotone(3)"])
def test_the_moreau_split_of_a_point_just_outside_is_complementary(cone, v):
    z = mk.project(cone, v).point
    assert mk.in_complementarity_set(cone, mk.CompPair(z, z - v)).member


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_frozen_case():
    dec = mk.decompose(mk.mesoc(4, 1), [9.0, 6.0, 5.5, 2.0, 1.0])
    assert dec.factors == (("ray", 0, 3, 3), ("lorentz", 3, 4, 5))
    assert_allclose(dec.image, [3.0, 0.5, 3.5, 2.0, 1.0])
    # the staircase of the drops, then the flat x_p carrying u
    assert_allclose(dec.summands, [[7.0, 4.0, 3.5, 0.0, 0.0], [2, 2, 2, 2, 1.0]])
    assert_allclose(dec.reconstruct(), [9.0, 6.0, 5.5, 2.0, 1.0])


def test_decompose_roundtrip_and_summands(rng):
    for p, q in SHAPES:
        cone = mk.mesoc(p, q)
        Z = sampling.sample(cone, rng, 400)
        for z in Z:
            dec = mk.decompose(cone, z)
            assert dec.image[:p].min() >= 0
            assert np.abs(dec.reconstruct() - z).max() <= 1e-12
            # the Lorentz summand: constant x block at least the tail norm
            f = dec.summands[-1]
            assert np.ptp(f[:p]) == 0.0 and mk.contains(cone, f)
            # the ray summand: staircase ending at zero, no tail; L(1, q) has none
            assert len(dec.summands) == (2 if p > 1 else 1)
            if p > 1:
                s = dec.summands[0]
                assert s[p - 1] == 0.0 and not s[p:].any() and mk.contains(cone, s)


def test_decompose_rejects_non_members():
    with pytest.raises(mk.MembershipError):
        mk.decompose(mk.mesoc(2, 2), [1.0, 2.0, 0.0, 0.0])
