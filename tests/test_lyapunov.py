"""Structured Lyapunov-like bases against the numeric rank oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mesoc_kit as mk
from mesoc_kit import sampling

MESOC_SHAPES = [(2, 1), (2, 2), (3, 2), (2, 3), (4, 1), (3, 0)]


def test_basis_counts():
    for p in range(1, 6):
        assert len(mk.lyap_basis_mesoc(p, 0)) == p
    for p, q in MESOC_SHAPES:
        expect = p + q * (q + 1) // 2
        assert len(mk.lyap_basis_mesoc(p, q)) == expect
        assert mk.predicted_rank(mk.mesoc(p, q)) == expect


def test_basis_is_linearly_independent():
    for p, q in MESOC_SHAPES:
        basis = mk.lyap_basis_mesoc(p, q)
        stack = np.array([b.entries.ravel() for b in basis])
        assert np.linalg.matrix_rank(stack) == len(basis)


def test_basis_matrices_are_lyapunov_like(rng):
    for p, q in MESOC_SHAPES:
        cone = mk.mesoc(p, q)
        pairs = list(zip(*sampling.complementarity_pairs(cone, rng, 500)))
        for b in mk.lyap_basis_mesoc(p, q):
            chk = mk.is_lyapunov_like(b, cone, pairs=pairs)
            assert chk.ok, (p, q, b.params, chk.max_residual)
    for p in (2, 3, 4):
        cone = mk.monotone_nonneg(p)
        for b in mk.lyap_basis_mesoc(p, 0):
            assert mk.is_lyapunov_like(b, cone, n_pairs=500, seed=3).ok


def test_random_combinations_of_head_basis_stay_lyapunov_like(rng):
    # the property is linear, so any combination of basis elements keeps it
    cone = mk.monotone_nonneg(4)
    basis = mk.lyap_basis_mesoc(4, 0)
    Z, W = sampling.complementarity_pairs(cone, sampling.rng_from_seed(3), 400)
    pairs = list(zip(Z, W))
    for _ in range(5):
        T = sum(c * m.entries for c, m in zip(rng.normal(size=len(basis)), basis))
        assert mk.is_lyapunov_like(T, cone, pairs=pairs).ok


def test_detects_a_non_lyapunov_matrix():
    cone = mk.mesoc(2, 2)
    chk = mk.is_lyapunov_like(np.diag([1.0, 0.0, 0.0, 0.0]), cone, n_pairs=200, seed=0)
    assert not chk.ok and chk.witness is not None
    z, w = chk.witness
    assert abs(w @ np.diag([1.0, 0.0, 0.0, 0.0]) @ z) > 1e-6


def test_numeric_rank_matches_closed_form():
    for p, q in MESOC_SHAPES:
        res = mk.lyapunov_rank_numeric(mk.mesoc(p, q), n_pairs=300, seed=1)
        assert res.rank == mk.predicted_rank(mk.mesoc(p, q)), (p, q)
        assert res.matrix_dim == p + q
        assert res.singular_gap > 1e6  # the spectrum cutoff is unambiguous
    for p in (2, 3, 4):
        assert mk.lyapunov_rank_numeric(mk.monotone_nonneg(p), seed=2).rank == p
    assert mk.lyapunov_rank_numeric(mk.nonneg_orthant(5), seed=3).rank == 5
    assert mk.lyapunov_rank_numeric(mk.lorentz(4), seed=4).rank == 7


def test_single_x_column_matches_second_order_cone():
    # with one ordered coordinate the cone is a plain second order cone, and
    # the two rank routes must agree on that reading
    a = mk.lyapunov_rank_numeric(mk.mesoc(1, 2), seed=5)
    b = mk.lyapunov_rank_numeric(mk.lorentz(3), seed=6)
    assert a.rank == b.rank == 4 == mk.predicted_rank(mk.mesoc(1, 2))


def test_rank_one_dimensional_edge():
    assert mk.lyapunov_rank_numeric(mk.lorentz(1), seed=0).rank == 1


def test_basis_spans_the_numeric_null_space(rng):
    for p, q in MESOC_SHAPES + [(1, 3), (5, 5)]:
        cone = mk.mesoc(p, q)
        Z, W = sampling.complementarity_pairs(cone, rng, 800)
        rows = np.einsum("ik,il->ikl", W, Z).reshape(len(Z), -1)
        basis = mk.lyap_basis_mesoc(p, q)
        # every structured matrix annihilates every sampled constraint row...
        for b in basis:
            assert np.abs(rows @ b.entries.ravel()).max() < 1e-10, (p, q, b.params)
        # ...and the constraint null space has no room for anything else
        null_dim = (p + q) ** 2 - np.linalg.matrix_rank(rows, tol=1e-8)
        assert null_dim == len(basis), (p, q)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_basis_with_one_ordered_coordinate_is_the_lorentz_basis(q):
    # at p = 1 the reduction A is the identity and L(1, q) is lorentz(q + 1)
    cone = mk.lorentz(q + 1)
    basis = mk.lyap_basis_mesoc(1, q)
    assert len(basis) == mk.predicted_rank(cone)
    pairs = list(zip(*sampling.complementarity_pairs(cone, sampling.rng_from_seed(q), 400)))
    for b in basis:
        assert mk.is_lyapunov_like(b, cone, pairs=pairs).ok, b.params


def test_esoc_predictions_follow_sznajders_rule():
    # 1 + q(q - 1)/2 for p >= 2 and q >= 1 (Sznajder); the dual has the rank
    # of its primal, and R^p x C adds p * dim
    for cone, expect in ((mk.esoc(2, 2), 2), (mk.esoc_dual(2, 2), 2),
                         (mk.cylinder(1, mk.esoc(2, 1)), 5)):
        assert mk.predicted_rank(cone) == expect
        assert mk.lyapunov_rank_numeric(cone, n_pairs=100).rank == expect


def test_an_empty_sample_is_refused():
    # argmax of an empty sequence and a failed reshape used to end these
    cone = mk.nonneg_orthant(2)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_pairs"):
            mk.is_lyapunov_like(np.eye(2), cone, n_pairs=n)
        with pytest.raises(ValueError, match="n_pairs"):
            mk.lyapunov_rank_numeric(cone, n_pairs=n)
    for pairs in ([], ()):
        with pytest.raises(ValueError, match="pairs"):
            mk.is_lyapunov_like(np.eye(2), cone, pairs=pairs)


def test_lyap_matrix_container():
    b = mk.lyap_basis_mesoc(2, 2)[0]
    assert b.dim == 4 and b.params == {"diag": 1.0}
    assert_allclose(b.entries, np.eye(4))


@pytest.mark.parametrize("cone", [mk.monotone_nonneg(4), mk.nonneg_orthant(4)], ids=str)
def test_numeric_rank_matches_closed_form_without_a_tail(cone):
    assert mk.lyapunov_rank_numeric(cone, n_pairs=100).rank == mk.predicted_rank(cone) == 4


# a dual has the rank of its primal, and R^k x K' with K' pointed has
# k(k + dim K') + beta(K'): the monotone cone, R x R_+^(n-1), has 2n - 1,
# and a cylinder R^p x C has p(p + q + k) + beta(C), k the lines of C
@pytest.mark.parametrize(
    "cone,expect",
    [
        (mk.mesoc_dual(3, 3), 9),
        (mk.monotone(1), 1),
        (mk.monotone(3), 5),
        (mk.monotone(6), 11),
        (mk.monotone_dual(4), 7),
        (mk.monotone_nonneg_dual(4), 4),
        (mk.cylinder(2, mk.monotone_nonneg(2)), 10),
        (mk.cylinder(2, mk.lorentz(3)), 14),
        (mk.cylinder_dual(2, mk.mesoc(2, 1)), 13),
        # the monotone cone's line joins the cylinder's: p(p + q) + beta(C) gives 15
        (mk.cylinder(2, mk.monotone(3)), 17),
        (mk.cylinder_dual(2, mk.monotone_dual(3)), 17),
        # monotone_dual is pointed, so here the cylinder rule holds
        (mk.cylinder(2, mk.monotone_dual(3)), 15),
        # {0} x monotone(2) keeps the line
        (mk.cylinder(1, mk.cylinder_dual(1, mk.monotone(2))), 11),
    ],
    ids=str,
)
def test_rank_of_duals_and_cylinders(cone, expect):
    assert mk.lyapunov_rank_numeric(cone, seed=7).rank == expect
    assert mk.predicted_rank(cone) == expect
