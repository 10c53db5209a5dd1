"""One cone, one answer: lorentz(n) is L(1, n - 1).

The kit reads the Lorentz cone as mesoc(1, n - 1) through
``cones.ordered_form``, so both descriptions give the same bytes, signed
zeros included, and both give the bytes of the Lorentz cone's own closed
forms (``tests/_reference_lorentz.py``).  Only the isotonic blocks differ:
mesoc(1, q) reports those of its fit of (h, ||z||) and lorentz(n) none.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mesoc_kit as mk
from mesoc_kit import sampling
from mesoc_kit._kernels import pav_sweep
from mesoc_kit.cones import DEFAULT_TOL

import _reference_lorentz as reference
import _reference_sampling
from _strategies import MIXED_SCALES, MODERATE, NEAR_LIMIT, NONFINITE

_N = st.integers(1, 9)
# signed zeros, every scale, non-finite values and entries whose square sums overflow
_ENTRIES = st.one_of(MODERATE, MIXED_SCALES, st.just(-0.0), NONFINITE, NEAR_LIMIT)
_FINITE = st.one_of(MODERATE, MIXED_SCALES, st.just(-0.0))


def _twins(n):
    return mk.lorentz(n), mk.mesoc(1, n - 1)


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(_N, st.integers(0, 2), st.data())
def test_project_point(n, k, data):
    v = data.draw(arrays(float, n, elements=_ENTRIES))
    x = data.draw(arrays(float, k, elements=_FINITE))
    want = reference.project(v)
    lorentz, mesoc = _twins(n)
    for inner in (lorentz, mesoc):
        r = mk.project(inner, v)
        assert r.point.tobytes() == want.tobytes(), (inner, v)
        assert _bytes(r.distance) == _bytes(mk.project(lorentz, v).distance)
        if k:
            c = mk.project(mk.cylinder(k, inner), np.concatenate([x, v]))
            assert c.point.tobytes() == np.concatenate([x, want]).tobytes()
            assert c.active_blocks == r.active_blocks
    assert mk.project(lorentz, v).active_blocks is None


@settings(deadline=None, max_examples=200)
@given(_N, st.data())
def test_mesoc_blocks_are_the_fit_of_head_and_norm(n, data):
    # one comparison gives the blocks the sweep gives (h, ||z||)
    v = data.draw(arrays(float, n, elements=_FINITE))
    rest = v[1:]
    head = [float(v[0])] + ([math.sqrt(rest.dot(rest))] if rest.size else [])
    stops = np.cumsum(pav_sweep(head)[1]).tolist()
    want = tuple(zip([0] + stops[:-1], stops))
    assert mk.project(mk.mesoc(1, n - 1), v).active_blocks == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(_N, st.integers(0, 9), st.integers(1, 2), st.data())
def test_project_batch(n, m, k, data):
    V = data.draw(arrays(float, (m, n), elements=_ENTRIES))
    X = data.draw(arrays(float, (m, k), elements=_FINITE))
    want = reference.project_batch(V)
    lorentz, mesoc = _twins(n)
    for inner in (lorentz, mesoc):
        assert mk.project_batch(inner, V).tobytes() == want.tobytes(), inner
    for inner in (lorentz, mesoc):
        got = mk.project_batch(mk.cylinder(k, inner), np.hstack([X, V]))
        assert got.tobytes() == np.hstack([X, want]).tobytes(), inner


@settings(deadline=None, max_examples=60)
@given(_N, st.integers(0, 30), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_sample_and_generator_state(n, size, seed, k):
    lorentz, mesoc = _twins(n)
    ref_rng = sampling.rng_from_seed(seed)
    want = _reference_sampling.sample(lorentz, ref_rng, size)
    for cone in (lorentz, mesoc):
        rng = sampling.rng_from_seed(seed)
        assert sampling.sample(cone, rng, size).tobytes() == want.tobytes(), cone
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    for outer in (mk.cylinder, mk.cylinder_dual):
        rngs = [sampling.rng_from_seed(seed) for _ in range(2)]
        got = [sampling.sample(outer(k, inner), rng, size)
               for inner, rng in zip((lorentz, mesoc), rngs)]
        assert got[0].tobytes() == got[1].tobytes(), outer
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(_N, st.integers(1, 9), st.data())
def test_membership_slacks_and_contains_batch(n, m, data):
    Z = data.draw(arrays(float, (m, n), elements=_ENTRIES))
    want = reference.slacks(Z)
    lorentz, mesoc = _twins(n)
    for cone in (lorentz, mesoc):
        for z, w in zip(Z, want):
            assert mk.membership_slacks(cone, z).tobytes() == w.tobytes(), (cone, z)
        assert mk.contains_batch(cone, Z).tobytes() == (want[:, 0] >= -DEFAULT_TOL).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_predicted_rank(n):
    lorentz, mesoc = _twins(n)
    want = reference.predicted_rank(n)
    assert mk.predicted_rank(lorentz) == mk.predicted_rank(mesoc) == want
    assert mk.predicted_rank(mk.dual_of(lorentz)) == mk.predicted_rank(mk.dual_of(mesoc)) == want
    for k in (1, 3):
        cylinders = mk.cylinder(k, lorentz), mk.cylinder(k, mesoc)
        assert mk.predicted_rank(cylinders[0]) == mk.predicted_rank(cylinders[1])
