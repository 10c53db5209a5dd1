"""Cone orders, sampled isotonicity falsification, the hyperplane projection."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mesoc_kit as mk
from mesoc_kit import order, sampling

import _reference_order as reference
from _row_blocks import with_block_entries


def test_cone_leq_frozen():
    L = mk.mesoc(2, 2)
    assert mk.cone_leq(L, [0, 0, 0, 0], [2, 1, 0.5, 0.5])
    assert not mk.cone_leq(L, [2, 1, 0.5, 0.5], [0, 0, 0, 0])
    # shift by a non-member difference
    assert not mk.cone_leq(L, [0, 0, 0, 0], [1, 2, 0, 0])


def test_sample_ordered_pairs_are_ordered(rng):
    for cone in [mk.mesoc(3, 2), mk.esoc(2, 2), mk.monotone_nonneg(4)]:
        lo, hi = sampling.sample_ordered_pairs(cone, rng, 300)
        assert mk.contains_batch(cone, hi - lo).all()


def test_linear_maps_isotone_and_not(rng):
    cone = mk.monotone(3)
    ident = lambda z: z
    assert mk.check_isotone(ident, cone, 200, seed=0).ok
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rep = mk.check_isotone(lambda z: swap @ z, cone, 200, seed=0)
    assert not rep.ok
    v = rep.violations[0]
    # the report's witness must itself witness: ordered pair, image diff outside
    assert mk.contains(cone, v.pair.hi - v.pair.lo)
    assert not mk.contains(cone, v.image_diff)
    assert v.margin < 0


def test_worked_map_isotone_for_order_cone():
    inst = mk.example_instance()
    rep = mk.check_isotone(inst.map, mk.mesoc(2, 2), 2000, seed=123)
    assert rep.ok and rep.checked == 2000


def test_worked_map_not_isotone_for_componentwise_cone():
    """The same update map fails once every coordinate must dominate the tail
    norm; the fixed pair below is the canonical counterexample."""
    inst = mk.example_instance()
    witness = order.OrderedPairSample(
        np.array([0.0, 0.0, 2.0, 0.0]), np.array([1.0, 2.0, 1.0, 0.0])
    )
    E = mk.esoc(2, 2)
    assert mk.cone_leq(E, witness.lo, witness.hi)
    rep = mk.check_isotone(inst.map, E, 100, seed=5, extra_pairs=(witness,))
    assert not rep.ok and rep.checked == 101
    first = rep.violations[0]
    assert_allclose(first.pair.lo, witness.lo)
    # image difference worked out by hand: the two field values drop by
    # 1/20 and 3/20, so the image moves by -(1/20) w1 - (3/20) w2
    assert_allclose(first.image_diff, [-0.4, -0.2, -1.0 / 24.0, -7.0 / 120.0], atol=1e-15)
    assert first.failed_inequality == 0
    assert first.margin == pytest.approx(-0.4 - math.sqrt(74.0) / 120.0, rel=1e-12)


def test_cylinder_projections_are_isotone():
    # R^p x C is an isotonic projection set for L(p, q) whatever the closed
    # convex C, because P_C is nonexpansive: every kind of C of dimension 2
    for inner in (mk.monotone(2), mk.monotone_nonneg(2), mk.nonneg_orthant(2), mk.lorentz(2),
                  mk.mesoc(1, 1), mk.mesoc(2, 0), mk.mesoc_dual(1, 1), mk.mesoc_dual(2, 0),
                  mk.esoc(1, 1), mk.esoc(2, 0), mk.esoc_dual(1, 1), mk.esoc_dual(2, 0),
                  mk.monotone_dual(2), mk.monotone_nonneg_dual(2),
                  mk.cylinder(1, mk.lorentz(1)), mk.cylinder_dual(1, mk.nonneg_orthant(1))):
        cyl = mk.cylinder(2, inner)
        proj = lambda z: mk.project(cyl, z).point
        rep = mk.check_isotone(proj, mk.mesoc(2, 2), 3000, seed=9, scale=2.0)
        assert rep.ok and rep.checked == 3000, inner


def test_violation_pattern_ignores_constant_shifts():
    # image differences of an affine map do not see the offset, so the
    # violation pattern must be offset-independent
    swap = np.array(
        [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    cone = mk.mesoc(2, 2)
    reports = [
        mk.check_isotone(mk.AffineMap(p=2, q=2, matrix=np.eye(4) - swap, offset=c), cone, 500, seed=11)
        for c in (np.zeros(4), np.array([3.0, -1.0, 2.0, 0.5]))
    ]
    assert not reports[0].ok
    assert len(reports[0].violations) == len(reports[1].violations)
    for a, b in zip(reports[0].violations, reports[1].violations):
        assert a.failed_inequality == b.failed_inequality
        assert a.margin == pytest.approx(b.margin, rel=1e-12)
        assert_allclose(a.pair.lo, b.pair.lo, atol=0)


def test_map_dimension_guard():
    with pytest.raises(mk.DimensionError):
        mk.check_isotone(lambda z: z[:2], mk.mesoc(2, 2), 10, seed=0)


def test_check_isotone_refuses_an_empty_check():
    # no pair at all: a plain callable failed on the empty image's missing
    # axis and a structured map passed with checked == 0
    cone = mk.mesoc(2, 2)
    for map_ in (lambda z: z, mk.example_instance().map):
        with pytest.raises(ValueError, match="nothing to check"):
            mk.check_isotone(map_, cone, 0, seed=0)
    # extra pairs alone are a check
    witness = order.OrderedPairSample(np.array([0.0, 0.0, 2.0, 0.0]), np.array([1.0, 2.0, 1.0, 0.0]))
    rep = mk.check_isotone(mk.example_instance().map, mk.esoc(2, 2), 0, seed=0, extra_pairs=(witness,))
    assert rep.checked == 1 and not rep.ok
    assert_allclose(rep.violations[0].pair.hi, witness.hi)
    # a negative sample ended in numpy's "negative dimensions are not allowed"
    for extra in ((), (witness,)):
        with pytest.raises(ValueError, match="n_samples"):
            mk.check_isotone(mk.example_instance().map, cone, -1, seed=0, extra_pairs=extra)


@pytest.mark.parametrize("cone", [mk.esoc_dual(2, 0), mk.monotone(2), mk.monotone_dual(2),
                                  mk.mesoc(2, 1), mk.cylinder_dual(1, mk.esoc(1, 1))])
def test_check_isotone_is_silent_at_the_float_limit(cone):
    # an overflow of the images, their difference or the slacks is a value
    # that the report reads, not a NumPy warning
    lim = 1.7e308
    pairs = (order.OrderedPairSample(np.full(cone.dim, -lim), np.full(cone.dim, lim)),
             order.OrderedPairSample(np.zeros(cone.dim), np.r_[lim, -lim, np.zeros(cone.dim - 2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = order.check_isotone(lambda z: 2.0 * z, cone, 0, 0, extra_pairs=pairs)
    assert report.checked == 2


def _hyperplane_map(normal):
    """F(z) = a a^T z, whose update z - <a, z> a projects onto a-perp."""
    a = np.asarray(normal, dtype=float)
    return mk.AffineMap(a.size, 0, np.outer(a, a), np.zeros(a.size))


def test_hyperplane_inequality():
    L = mk.mesoc(2, 2)
    # reflection normal along the first tail coordinate: the projection is isotone
    held = mk.check_isotone(_hyperplane_map([0.0, 0.0, 1.0, 0.0]), L, 2000, seed=21)
    assert held.ok and held.checked == 2000
    # normal along x_1: fails, and the witness's image difference leaves K
    failed = mk.check_isotone(_hyperplane_map([1.0, 0.0, 0.0, 0.0]), L, 2000, seed=22)
    assert not failed.ok
    for v in failed.violations:
        assert mk.cone_leq(L, v.pair.lo, v.pair.hi)
        assert not mk.contains(L, v.image_diff) and v.margin < 0
        z = v.pair.hi - v.pair.lo
        assert_allclose(v.image_diff, z - z[0] * np.array([1.0, 0.0, 0.0, 0.0]), atol=1e-12)


def _each_kind(d):
    """A cone of every kind of dimension ``d``: p = 2 where the kind takes
    a q, and the cylinders over ``lorentz(d - 2)``."""
    out = []
    for kind in sorted(mk.cones.KINDS):
        if kind in (mk.cones.CYLINDER, mk.cones.CYLINDER_DUAL):
            out.append(mk.ConeSpec(kind, 2, d - 2, mk.lorentz(d - 2)))
        elif kind in mk.cones.PARTITIONED_KINDS:
            out.append(mk.ConeSpec(kind, 2, d - 2))
        else:
            out.append(mk.ConeSpec(kind, d))
    return out


def test_map_test_catches_every_hyperplane_violation_of_the_inequality():
    # <x, y> >= <a, x><a, y> over x in K, y in K* holds exactly when z - <a, z> a
    # maps K into K (K** = K); on the same sample sizes the map test is the
    # stronger of the two: it misses no normal the inequality catches
    counts = {"agree": 0, "map_only": 0, "reference_only": 0}
    for d in (4, 5):
        for cone in _each_kind(d):
            g = np.random.default_rng(0).normal(size=(20, d))
            for a in np.vstack([np.eye(d), g / np.linalg.norm(g, axis=1, keepdims=True)]):
                held = mk.check_isotone(_hyperplane_map(a), cone, 200, seed=0).ok
                ref = bool(reference.hyperplane_margins(cone, a, 200, seed=0).min() >= -1e-10)
                key = "agree" if held == ref else "map_only" if ref else "reference_only"
                counts[key] += 1
    assert counts["reference_only"] == 0 and counts["map_only"] > 0, counts


def test_check_isotone_refuses_a_scale_that_is_not_finite_and_positive():
    # with NaN or inf every sampled point, image and difference was NaN, and
    # the identity map was reported as violating every pair
    cone = mk.mesoc(2, 2)
    for scale in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="scale"):
            mk.check_isotone(lambda z: z, cone, 50, seed=0, scale=scale)
    for scale in (1e-3, 1.0, 1e3):
        assert mk.check_isotone(lambda z: z, cone, 50, seed=0, scale=scale).ok


_SWAP = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
_MAPS = {
    "scalar_combo": mk.example_instance().map,
    "affine": mk.AffineMap(p=2, q=2, matrix=np.eye(4) - _SWAP, offset=np.array([3.0, -1.0, 2.0, 0.5])),
    "affine_contraction": mk.AffineMap(
        p=2, q=2, matrix=0.3 * np.random.default_rng(4).standard_normal((4, 4)), offset=np.zeros(4)),
    "callable": lambda z: _SWAP @ z,
}
_ORDER_CONES = [mk.mesoc(2, 2), mk.esoc(2, 2), mk.cylinder(2, mk.monotone_nonneg(2)),
                mk.cylinder(1, mk.lorentz(3))]
_WITNESS = order.OrderedPairSample(np.array([0.0, 0.0, 2.0, 0.0]), np.array([1.0, 2.0, 1.0, 0.0]))


def _assert_same_report(got, want):
    checked, violations = want
    assert got.checked == checked and len(got.violations) == len(violations)
    for a, b in zip(got.violations, violations):
        for x, y in ((a.pair.lo, b.pair.lo), (a.pair.hi, b.pair.hi), (a.image_diff, b.image_diff)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert a.failed_inequality == b.failed_inequality
        assert np.float64(a.margin).tobytes() == np.float64(b.margin).tobytes()


@pytest.mark.parametrize("map_name", sorted(_MAPS))
@pytest.mark.parametrize("cone", _ORDER_CONES, ids=str)
def test_blocked_check_matches_the_whole_array_check(map_name, cone):
    # rows of 4 entries in blocks of 40 entries: 10 rows a block.  57 pairs
    # and the witness end in a partial block of 8 rows; 50 pairs and 51 end
    # in a lone row, which joins the block before it, because NumPy
    # multiplies a one-row matrix as a vector, with other last bits
    map_ = _MAPS[map_name]
    for n, extra in ((57, (_WITNESS,)), (50, (_WITNESS,)), (51, ()), (1, ()), (2, ()), (300, ())):
        for entries, scale in ((40, 1.0), (8, 2.5), (2**16, 1.0)):
            args = (map_, cone, n, n + 7)
            got = with_block_entries(entries, mk.check_isotone, *args, 1e-10, extra, scale)
            _assert_same_report(got, reference.check_isotone(*args, extra_pairs=extra, scale=scale))


def test_blocked_check_reports_the_violations_of_every_block():
    # the update swaps x_1 and x_2, so every sampled pair of mesoc(2, 2),
    # whose x_1 grows more than its x_2, is a violation, in each of 40 blocks
    rep = with_block_entries(40, mk.check_isotone, _MAPS["affine"], mk.mesoc(2, 2), 400, 3)
    assert rep.checked == 400 and len(rep.violations) == 400
    for v in rep.violations:
        assert mk.contains(mk.mesoc(2, 2), v.pair.hi - v.pair.lo)
        assert not mk.contains(mk.mesoc(2, 2), v.image_diff)
        assert not np.shares_memory(v.image_diff, v.pair.hi)


def test_blocked_check_peaks_at_the_sampled_pairs():
    # the whole-array check held both images, their difference and the slack
    # matrix at once; in blocks only the pairs and one block are alive
    map_, cone, n = mk.example_instance().map, mk.mesoc(2, 2), 100_000
    mk.check_isotone(map_, cone, 2, seed=0)  # one-time imports and caches
    peaks = []
    for fn in (lambda: mk.check_isotone(map_, cone, n, seed=1),
               lambda: reference.check_isotone(map_, cone, n, seed=1),
               lambda: sampling.sample_ordered_pairs(cone, sampling.rng_from_seed(1), n)):
        tracemalloc.start()
        try:
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    blocked, whole, pairs = peaks
    assert blocked <= pairs + 2**20 < whole, [p / 2**20 for p in peaks]
