"""Samplers: the same bytes and generator state as the reference formulas,
and members built in one output array."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesoc_kit as mk
from mesoc_kit import sampling
from mesoc_kit.cones import KINDS, PARTITIONED_KINDS, ConeSpec

import _reference_sampling as reference
from _row_blocks import with_block_entries

_CYLINDERS = ("cylinder", "cylinder_dual")
_SIZES = st.one_of(st.sampled_from([0, 1]), st.integers(0, 40).map(lambda k: 2 * k + 1))
_SEEDS = st.integers(0, 2**32 - 1)


def _draw_cone(data, kind, depth=0):
    p = data.draw(st.integers(1, 5))
    if kind in _CYLINDERS:
        inner_kinds = sorted(KINDS) if depth < 1 else sorted(set(KINDS) - set(_CYLINDERS))
        inner = _draw_cone(data, data.draw(st.sampled_from(inner_kinds)), depth + 1)
        return ConeSpec(kind, p, inner.dim, inner)
    if kind in PARTITIONED_KINDS:
        return ConeSpec(kind, p, data.draw(st.integers(0, 4)))
    return ConeSpec(kind, p)


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_sample_matches_the_reference_formulas(kind, data):
    cone = _draw_cone(data, kind)
    if data.draw(st.booleans()):
        cone = mk.dual_of(cone)
    size, seed = data.draw(_SIZES), data.draw(_SEEDS)
    rng, ref_rng = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
    got = sampling.sample(cone, rng, size)
    assert _same(got, reference.sample(cone, ref_rng, size)), cone
    assert got.flags.c_contiguous
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_ordered_pairs_match_the_reference_formulas(kind, data):
    cone = _draw_cone(data, kind)
    size, seed = data.draw(_SIZES), data.draw(_SEEDS)
    scale = data.draw(st.sampled_from([1.0, 2.0, 0.1, -3.5, 0.0]))
    rng, ref_rng = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
    lo, hi = sampling.sample_ordered_pairs(cone, rng, size, scale=scale)
    ref_lo, ref_hi = reference.sample_ordered_pairs(cone, ref_rng, size, scale=scale)
    assert _same(lo, ref_lo) and _same(hi, ref_hi), (cone, scale)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_peak_memory_is_near_its_output():
    # the temporaries-and-hstack formulas peaked at 2.06x the output here;
    # one output plus one block-sized draw at a time stays near 1.6x
    cone, rng = mk.mesoc(8, 8), sampling.rng_from_seed(7)
    sampling.sample(cone, rng, 1)  # one-time imports and caches are not the sampler's
    tracemalloc.start()
    try:
        Z = sampling.sample(cone, rng, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * Z.nbytes, peak / Z.nbytes


def _width_cones(w):
    """Cones whose x and u blocks are ``w`` wide, of every sampled shape."""
    out = [mk.mesoc(w, w), mk.mesoc_dual(w, w), mk.esoc(w, w), mk.esoc_dual(w, w),
           mk.mesoc(w, 0), mk.monotone(w), mk.monotone_dual(w), mk.monotone_nonneg(w),
           mk.monotone_nonneg_dual(w), mk.nonneg_orthant(w), mk.lorentz(w + 1),
           mk.cylinder(w, mk.mesoc(1, w - 1) if w > 1 else mk.lorentz(1)),
           mk.cylinder_dual(w, mk.esoc_dual(w, w))]
    return out + [mk.dual_of(c) for c in out]


@pytest.mark.parametrize("w", [1, 2, 3, 8])
@pytest.mark.parametrize("entries", [4, 2**16])
def test_narrow_and_wide_blocks_match_the_reference_formulas(w, entries):
    # widths up to cones.NARROW_MAX are worked down their columns, wider ones
    # as a whole; the row norms of a narrow block square it in slices of
    # cones.BLOCK_ENTRIES rows, which a small constant cuts to a few rows
    for k, cone in enumerate(_width_cones(w)):
        for size in (1, 2, 301):
            seed = 1000 * w + 10 * k + size
            rng, ref_rng = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
            got = with_block_entries(entries, sampling.sample, cone, rng, size)
            assert _same(got, reference.sample(cone, ref_rng, size)), (cone, size)
            lo, hi = with_block_entries(entries, sampling.sample_ordered_pairs, cone, rng, size, 1.5)
            ref_lo, ref_hi = reference.sample_ordered_pairs(cone, ref_rng, size, 1.5)
            assert _same(lo, ref_lo) and _same(hi, ref_hi), (cone, size)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
