"""The ESOC(p, q) = {(x, u) : x_i >= ||u|| for every i} and its dual.

Both project through the norm tail, whose head fit for the ESOC is
(max(w, s), s) with s the clipped root of s - ||z|| + sum_i (s - w_i)_+ = 0.
Two of its shapes are other kinds, and give their bytes: esoc(1, q) is
lorentz(q + 1) = L(1, q), and esoc(p, 0) is the nonnegative orthant.  The
Lyapunov rank, whose complementary pairs are Moreau splits drawn through
``project_batch``, checks the leaf independently: beta(ESOC(p, q)) =
1 + q(q - 1)/2 for p, q >= 2 (Sznajder, J. Global Optim. 66, 2016), and a
dual has the rank of its primal.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mesoc_kit as mk

from _strategies import MIXED_SCALES, MODERATE, NEAR_LIMIT, NONFINITE

# signed zeros, every scale, non-finite values and entries whose square sums overflow
_ENTRIES = st.one_of(MODERATE, MIXED_SCALES, st.just(-0.0), NONFINITE, NEAR_LIMIT)


def _twins():
    """(esoc, the kind it is) for the two shapes that are another kind."""
    return st.one_of(
        st.integers(0, 6).map(lambda q: (mk.esoc(1, q), mk.lorentz(q + 1))),
        # esoc(1, 0) is lorentz(1), which keeps a -0.0 that the orthant's clip drops
        st.integers(2, 7).map(lambda p: (mk.esoc(p, 0), mk.nonneg_orthant(p))),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(_twins(), st.integers(0, 6), st.data())
def test_esoc_shapes_give_the_bytes_of_their_kind(twins, m, data):
    esoc, kind = twins
    V = data.draw(arrays(float, (m, esoc.dim), elements=_ENTRIES))
    for v in V:
        assert mk.project(esoc, v).point.tobytes() == mk.project(kind, v).point.tobytes(), (esoc, v)
        assert mk.project(esoc, v).active_blocks is None
    assert mk.project_batch(esoc, V).tobytes() == mk.project_batch(kind, V).tobytes(), esoc


def test_frozen_cases():
    # (w, ||z||) = (0, 3, 4): s = 4 pulls in w = 0, s = 2 stops below 3, so
    # x = (max(0, 2), max(3, 2)) and u = 2 z/||z||
    r = mk.project(mk.esoc(2, 2), [0.0, 3.0, 0.0, 4.0])
    assert r.point.tolist() == [2.0, 3.0, 0.0, 2.0] and r.active_blocks is None
    # both w below: s = (4 - 1 - 2)/3 = 1/3
    y = mk.project(mk.esoc(2, 1), [-1.0, -2.0, 4.0]).point
    np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    # s below 0 is clipped: the apex of the tail
    assert mk.project(mk.esoc(2, 1), [-5.0, -6.0, 1.0]).point.tolist() == [0.0, 0.0, 0.0]
    # a member is its own projection
    v = [3.0, 2.0, 1.2, 1.6]
    assert mk.project(mk.esoc(2, 2), v).point.tolist() == v
    # the fit's running sums overflow here, past its run and, to -inf, in
    # it: no warning, as when the fit summed Python floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mk.project(mk.esoc(3, 1), [1.7e308] * 3 + [1.0]).point.tolist() == [1.7e308] * 3 + [1.0]
        assert mk.project(mk.esoc(3, 0), [-1e308, -1e308, 1.0]).point.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the Moreau rule v + P_K(-v) turns "
                   "an infinite entry into NaN (inf - inf)")
def test_a_dual_projects_an_infinite_entry_as_its_twin():
    # esoc_dual(2, 0) is R_+^2, which nonneg_orthant(2) projects to [0, 0]
    v = [0.0, -np.inf]
    assert mk.project(mk.nonneg_orthant(2), v).point.tolist() == [0.0, 0.0]
    assert mk.project_batch(mk.esoc_dual(2, 0), [v]).tolist() == [[0.0, 0.0]]
    assert mk.project(mk.esoc_dual(2, 0), v).point.tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "cone,rank",
    [(mk.esoc(2, 2), 2), (mk.esoc(3, 3), 4), (mk.esoc(4, 2), 2), (mk.esoc(2, 3), 4),
     (mk.esoc(3, 2), 2), (mk.esoc(1, 3), 7)],
    ids=str,
)
def test_numeric_lyapunov_rank(cone, rank):
    # esoc(1, 3) is lorentz(4), of rank 1 + 3 * 4/2
    for c in (cone, mk.dual_of(cone)):
        result = mk.lyapunov_rank_numeric(c, seed=0)
        assert result.rank == rank, c
        assert result.singular_gap > 1e8, c
