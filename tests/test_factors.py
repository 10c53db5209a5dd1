"""The factor table of ``cones.factors`` and what derives from it: the
membership slacks, byte for byte against the per-kind formulas they replace,
the terms of the complementarity test, the decomposition and the Lyapunov
rank rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mesoc_kit as mk
from mesoc_kit import cones, sampling
from mesoc_kit.cones import ConeSpec, _slacks_batch, least_slack

import _reference_slacks as reference
from _strategies import draw_cone as _cone


_ENTRIES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300]),
)


def _rows(data, cone):
    m = data.draw(st.integers(0, 6))
    Z = data.draw(arrays(float, (m, cone.dim), elements=_ENTRIES))
    members = sampling.sample(cone, sampling.rng_from_seed(data.draw(st.integers(0, 99))), m)
    Z[::3] = members[::3]
    return Z


def _pin(cone, Z):
    with np.errstate(all="ignore"):
        ref = reference.slacks_batch(cone, Z)
        got = _slacks_batch(cone, Z)
        assert got.shape == ref.shape and got.flags.f_contiguous
        assert not np.shares_memory(got, Z)
        assert got.tobytes(order="F") == ref.tobytes(order="F"), cone
        for z in Z:  # one row may differ from a block's in the sign of a NaN
            want = reference.slacks_batch(cone, z[None, :])[0]
            assert mk.membership_slacks(cone, z).tobytes() == want.tobytes(), cone
        want = least_slack(ref) >= -cones.DEFAULT_TOL
        assert mk.contains_batch(cone, Z).tobytes() == want.tobytes(), cone


@pytest.mark.parametrize("kind", sorted(cones.KINDS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_slacks_keep_the_bytes_of_the_per_kind_formulas(kind, data):
    cone = _cone(data, kind)
    _pin(cone, _rows(data, cone))


# The four maps of the factor tables: each map, its whole-row formula, and
# whether it works in place.
_MAPS = {
    "drops": (cones._drops, lambda a: np.concatenate([a[:, :-1] - a[:, 1:], a[:, -1:]], 1), False),
    "sums": (cones._sums, lambda a: np.cumsum(a, axis=1), False),
    "rev_cumsum": (cones._rev_cumsum, lambda a: np.cumsum(a[:, ::-1], axis=1)[:, ::-1], True),
    "diff": (cones._diff, lambda a: np.diff(a, axis=1, prepend=0.0), True),
}
_MAP_SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.7e308, -1.7e308])


@pytest.mark.parametrize("name", sorted(_MAPS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_the_maps_keep_the_bytes_of_whole_row_formulas(name, data):
    # blocks of n entries, from one row of n to n rows of one, n up to 1e5:
    # tall ones are worked down their columns, the others along their rows
    n = data.draw(st.one_of(st.integers(1, 64), st.integers(1, 10**5)))
    rows = data.draw(st.one_of(st.sampled_from([1, n]), st.integers(1, n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    a = rng.standard_normal((rows, max(1, n // rows)))
    special = rng.random(a.shape) < data.draw(st.sampled_from([0.0, 0.01, 0.3]))
    a[special] = rng.choice(_MAP_SPECIALS, special.sum())
    a = np.array(a, order=data.draw(st.sampled_from("CF")))
    fn, whole, in_place = _MAPS[name]
    with np.errstate(all="ignore"):
        want = whole(a)
        got = fn(b := a.copy(order="K"))
    if in_place:
        assert got is b
    else:
        assert got.flags.f_contiguous and not np.shares_memory(got, b)
        assert b.tobytes() == a.tobytes()
    # A NaN compares by position: NumPy's contiguous add returns the first
    # or the second operand's NaN by the entry's place in its loop (the tail
    # past a multiple of 8), so the sign of a sum of two NaNs is NumPy's.
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


@pytest.mark.parametrize(
    "cone",
    [mk.esoc(1, 3), mk.esoc_dual(1, 3), mk.esoc(3, 0), mk.esoc_dual(3, 0), mk.esoc(1, 0),
     mk.esoc_dual(1, 0), mk.cylinder(2, mk.cylinder_dual(1, mk.monotone(3))),
     mk.cylinder_dual(2, mk.cylinder(1, mk.esoc_dual(2, 0))),
     mk.cylinder_dual(1, mk.cylinder_dual(2, mk.lorentz(1)))],
    ids=str,
)
def test_slacks_pin_the_edge_shapes(cone):
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -2.5]
    rng = np.random.default_rng(0)
    Z = rng.choice(specials, size=(40, cone.dim))
    _pin(cone, np.vstack([Z, sampling.sample(cone, rng, 5)]))


def test_slacks_keep_their_documented_columns():
    # the redundant sum column of esoc_dual and the (h, -h) of a zero factor
    assert mk.membership_slacks(mk.esoc_dual(2, 0), [1, 1]).tolist() == [1, 1, 2]
    assert mk.membership_slacks(mk.monotone_dual(3), [1, 1, 1]).tolist() == [1, 2, 3, -3]
    got = mk.membership_slacks(mk.cylinder_dual(2, mk.monotone(2)), [1, -2, 5, 3])
    assert got.tolist() == [1, -2, -1, 2, 2]


# ---------------------------------------------------------------------------
# the complementarity chain

_SCALES = st.sampled_from([10.0**k for k in range(-9, 10)])


def _wrapped_cone(data, kind, wrap):
    """A cone of ``kind``, in a cylinder or dual cylinder when ``wrap`` says so."""
    cone = _cone(data, kind, depth=1 if wrap else 2)
    return ConeSpec(wrap, data.draw(st.integers(1, 3)), cone.dim, cone) if wrap else cone


@pytest.mark.parametrize("wrap", [None, cones.CYLINDER, cones.CYLINDER_DUAL])
@pytest.mark.parametrize("kind", sorted(cones.KINDS))
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_the_chain_holds_moreau_pairs_at_every_scale(kind, wrap, data):
    cone = _wrapped_cone(data, kind, wrap)
    scale = data.draw(_SCALES)
    rng = sampling.rng_from_seed(data.draw(st.integers(0, 99)))
    Z, W = sampling.complementarity_pairs(cone, rng, 10)
    Z, W = Z * scale, W * scale
    for z, w in zip(Z, W):
        terms = cones.complementarity_terms(cone, z, w)
        nz, nw = np.linalg.norm(z), np.linalg.norm(w)
        assert abs(terms.sum() - z @ w) <= 1e-15 * nz * nw, (cone, z, w, terms)
        # w = z - v carries the rounding of v, so a term is rounding-sized
        # against (||z|| + ||w||)^2 >= ||v||^2, not always against ||z|| ||w||
        assert np.abs(terms).max(initial=0.0) <= 1e-14 * (nz + nw) ** 2, (cone, z, w, terms)
        rep = mk.in_complementarity_set(cone, mk.CompPair(z, w))
        assert "orthogonality" not in rep.failed, (cone, z, w, rep)
        # above 1e3 the absolute membership tolerance refuses some members
        assert rep.member or scale > 1e3, (cone, z, w, rep)
        # the ratio does not depend on the scale of either point
        apart = mk.in_complementarity_set(cone, mk.CompPair(z * 2.0**300, w * 2.0**-300))
        assert apart.residuals["orthogonality"] == rep.residuals["orthogonality"]
    # a dual half taken from another point is not complementary
    for z, w in zip(Z, np.roll(W, 1, axis=0)):
        if z @ w > 1e-6 * np.linalg.norm(z) * np.linalg.norm(w):
            rep = mk.in_complementarity_set(cone, mk.CompPair(z, w))
            assert "orthogonality" in rep.failed, (cone, z, w, rep)


@pytest.mark.xfail(strict=True, reason="membership compares each slack with an absolute "
                   "tolerance, so rounding at 1e6 refuses members (ROADMAP item 2)")
def test_moreau_pairs_are_members_at_scale_1e6():
    cone = mk.mesoc(3, 2)
    Z, W = sampling.complementarity_pairs(cone, sampling.rng_from_seed(0), 20)
    for z, w in zip(Z * 1e6, W * 1e6):
        assert mk.in_complementarity_set(cone, mk.CompPair(z, w)).member


def test_every_factor_refuses_on_orthogonality():
    # rays: r * s = 1 on the first drop, over ||z|| ||w|| = sqrt(2)
    rep = mk.in_complementarity_set(mk.monotone(3), mk.CompPair([1, 0, 0], [1, -1, 0]))
    assert rep.failed == ("orthogonality",)
    assert rep.residuals["orthogonality"] == pytest.approx(-np.sqrt(0.5), rel=1e-15)
    # a free line against a zero: the zero holds within tol, r * s does not
    for cone, pair in [(mk.monotone(2), mk.CompPair([1e9, 1e9], [0, 5e-11])),
                       (mk.monotone_dual(2), mk.CompPair([0, 5e-11], [1e9, 1e9])),
                       (mk.cylinder_dual(1, mk.nonneg_orthant(1)), mk.CompPair([5e-11, 0], [1e6, 0]))]:
        rep = mk.in_complementarity_set(cone, pair)
        assert rep.failed == ("orthogonality",), (cone, rep)
    # r * s is 5e-11 of ||z|| ||w|| once the zero's point has a unit entry
    rep = mk.in_complementarity_set(mk.cylinder_dual(1, mk.nonneg_orthant(1)),
                                    mk.CompPair([5e-11, 1], [1e6, 0]))
    assert rep.member and rep.residuals["orthogonality"] == pytest.approx(-5e-11, rel=1e-12)
    pair = mk.CompPair([-3, 1, 0.6, 0.8], [0, 1, -0.6, -0.8])
    rep = mk.in_complementarity_set(mk.cylinder(1, mk.lorentz(3)), pair)
    assert rep.member and list(rep.residuals) == ["primal_membership", "dual_membership",
                                                  "orthogonality"]
    # a vanishing norm block needs no other test
    rep = mk.in_complementarity_set(mk.lorentz(3), mk.CompPair([0, 0, 0], [1, 0, 0]))
    assert rep.member and rep.residuals["orthogonality"] == 0.0


# ---------------------------------------------------------------------------
# the decomposition


@pytest.mark.parametrize("wrap", [None, cones.CYLINDER, cones.CYLINDER_DUAL])
@pytest.mark.parametrize("kind", sorted(cones.KINDS))
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_decompose_splits_a_member_into_factor_members(kind, wrap, data):
    cone = _wrapped_cone(data, kind, wrap)
    parts = [part for part in cones.factors(cone)[3] if part[3] > part[1]]
    rng = sampling.rng_from_seed(data.draw(st.integers(0, 99)))
    for z in sampling.sample(cone, rng, 5):
        dec = mk.decompose(cone, z)
        assert list(dec.factors) == parts and len(dec.summands) == len(parts)
        assert mk.contains_batch(cone, dec.summands).all(), (cone, dec)
        gap = np.abs(dec.reconstruct() - z).max() / (1.0 + np.abs(z).max())
        assert gap <= cones.DEFAULT_TOL, (cone, gap)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_decompose_reads_lorentz_as_mesoc(n, rng):
    for z in sampling.sample(mk.lorentz(n), rng, 20):
        a, b = mk.decompose(mk.lorentz(n), z), mk.decompose(mk.mesoc(1, n - 1), z)
        assert a.factors == b.factors == ((cones.LORENTZ, 0, 1, n),)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.summands.tobytes() == b.summands.tobytes()


# ---------------------------------------------------------------------------
# the Lyapunov rank rule


def _each_kind(n):
    """A cone of every kind at size ``n``, the cylinders over ``mesoc``."""
    out = []
    for kind in sorted(cones.KINDS):
        if kind in (cones.CYLINDER, cones.CYLINDER_DUAL):
            out.append(ConeSpec(kind, 1, n, mk.mesoc(n - 1, 1)))
        elif kind in cones.PARTITIONED_KINDS:
            out.append(ConeSpec(kind, n - 1, 1))
        else:
            out.append(ConeSpec(kind, n))
    return out


def _nested(inner):
    yield from (mk.cylinder(1, inner), mk.cylinder_dual(1, inner))
    yield from (mk.cylinder(1, mk.cylinder_dual(1, inner)),
                mk.cylinder_dual(1, mk.cylinder(1, inner)))


_RANK_CONES = _each_kind(3) + _each_kind(4) + [
    c for inner in _each_kind(2) if inner.inner is None for c in _nested(inner)]


@pytest.mark.parametrize("cone", _RANK_CONES, ids=str)
def test_predicted_rank_is_the_numeric_rank(cone):
    assert mk.predicted_rank(cone) == mk.lyapunov_rank_numeric(cone, seed=3).rank


@pytest.mark.parametrize(
    "cone,expect",
    [(mk.esoc(2, 2), 2), (mk.esoc(3, 3), 4), (mk.esoc(4, 2), 2), (mk.esoc(2, 1), 1),
     (mk.esoc(1, 3), 7), (mk.esoc(3, 0), 3), (mk.esoc_dual(2, 2), 2), (mk.esoc_dual(3, 3), 4),
     (mk.cylinder(1, mk.esoc(2, 2)), 7)],
    ids=str,
)
def test_the_esoc_rank_rule(cone, expect):
    # 1 + q(q - 1)/2 for p >= 2 and q >= 1 (Sznajder); esoc(1, q) is
    # lorentz(q + 1) and esoc(p, 0) is the orthant R_+^p
    assert mk.predicted_rank(cone) == expect
    assert mk.lyapunov_rank_numeric(cone, seed=7).rank == expect
