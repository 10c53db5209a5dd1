"""Fixed-point solver: step algebra, the shipped worked instance, regions.

The expected limit of the worked instance is the exact closed form in
_worked_instance.py.  It is cross-checked through two routes that do not
touch the solver: the root of the scalar quadratic satisfied by the tail
norm, and a general-purpose nonlinear root finder on the raw residual.  Both
agree with it to machine precision.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

import mesoc_kit as mk
from mesoc_kit import cones, micp_solver, projections, sampling

from _worked_instance import worked_solution


def quadratic_route_solution():
    # tail norm solves 258299 s^2 - 7016 s - 22864 = 0; the coordinates are
    # affine in s (derived by eliminating the two zero-residual equations)
    s = (7016.0 + np.sqrt(7016.0**2 + 4 * 258299.0 * 22864.0)) / (2 * 258299.0)
    x2 = s / 6.0 + 2.0 / 3.0
    return np.array([2.0 * x2, x2, 29.0 * s / 720.0 + 53.0 / 180.0, 31.0 * s / 720.0 + 7.0 / 180.0])


# ---------------------------------------------------------------------------
# map containers


def test_scalar_combo_batch_matches_scalar(rng):
    m = mk.example_instance().map
    Z = rng.normal(size=(50, 4)) * 3
    batch = m.update_batch(Z)
    for i, z in enumerate(Z):
        assert_allclose(batch[i], m.update(z), atol=0)
        assert_allclose(m.residual(z), z - m.update(z), atol=0)


def test_affine_map_frozen():
    A = mk.AffineMap(p=1, q=1, matrix=[[2.0, 0.0], [1.0, 1.0]], offset=[1.0, -1.0])
    assert_allclose(A.residual([3.0, 4.0]), [7.0, 6.0])
    assert_allclose(A.update([3.0, 4.0]), [-4.0, -2.0])
    assert_allclose(A.update_batch(np.array([[3.0, 4.0]]))[0], [-4.0, -2.0])
    with pytest.raises(mk.DimensionError):
        mk.AffineMap(p=1, q=1, matrix=[[1.0]], offset=[0.0, 0.0])


def test_affine_identity_evaluates_to_blocks(rng):
    ident = mk.AffineMap(p=2, q=2, matrix=np.eye(4), offset=np.zeros(4))
    z = rng.normal(size=4)
    G, H = mk.evaluate_map(ident, z)
    assert (G == z[:2]).all() and (H == z[2:]).all()


def test_affine_contraction_matches_direct_solve():
    # update U(z) = M z + b with spectral radius < 1 and a positive fixed
    # point, so the inner projection is inactive and the limit is the plain
    # linear-system solution
    M = np.array([[0.5, 0.1], [0.2, 0.3]])
    b = np.array([1.0, 0.5])
    inst = mk.MicpInstance(
        map=mk.AffineMap(p=1, q=1, matrix=np.eye(2) - M, offset=-b),
        inner=mk.nonneg_orthant(1),
    )
    _, trace = mk.picard_solve(inst)
    assert trace.status == "converged"
    direct = np.linalg.solve(np.eye(2) - M, b)
    assert np.abs(trace.final - direct).max() < 1e-9


def test_scalar_combo_validation():
    with pytest.raises(mk.DimensionError):
        mk.ScalarComboMap(
            p=2,
            q=1,
            fields=(mk.ScalarField([1.0], 0.0, 0.0),),
            directions=[[1.0, 0.0, 0.0]],
        )


def test_evaluate_map_at_origin_is_exact():
    inst = mk.example_instance()
    G, H = mk.evaluate_map(inst.map, np.zeros(4))
    # the x residual comes out exactly, the tail norm to an ulp
    assert (-G == np.array([0.8, 0.4])).all()
    assert abs(np.linalg.norm(H) - np.sqrt(2.0) / 6.0) <= 1e-15
    # PartitionedVector input is accepted too
    G2, _ = mk.evaluate_map(inst.map, mk.PartitionedVector([0.0, 0.0], [0.0, 0.0]))
    assert (G2 == G).all()


# ---------------------------------------------------------------------------
# the worked instance, step by step


def test_first_two_steps_frozen():
    inst = mk.example_instance()
    z1 = mk.picard_step(inst, np.zeros(4))
    assert_allclose(z1, [0.8, 0.4, 7.0 / 30.0, 0.0], rtol=1e-15, atol=0)
    assert z1[3] == 0.0  # clipped by the inner projection
    z2 = mk.picard_step(inst, z1)
    assert_allclose(z2, [7.0 / 6.0, 7.0 / 12.0, 331.0 / 1200.0, 19.0 / 1200.0], rtol=1e-14)
    # from the second step on, the tail leaves the clipped face for good
    assert z2[3] > 0


def test_solve_reaches_the_closed_form_limit():
    inst = mk.example_instance()
    sol, trace = mk.picard_solve(inst)
    assert trace.status == "converged"
    assert trace.n_steps < 100
    assert trace.iterates.shape == (trace.n_steps + 1, 4)
    assert trace.step_norms[-1] <= inst.conv_tol
    assert trace.order_certificates.all()

    expected = worked_solution()
    assert np.abs(trace.final - expected).max() < 1e-9
    # fixed-point characterization of the returned point
    residual = np.linalg.norm(mk.picard_step(inst, trace.final) - trace.final)
    assert residual <= 2 * inst.conv_tol

    # independent cross-check of the frozen expectation itself
    res = optimize.root(
        lambda z: np.concatenate(mk.evaluate_map(inst.map, z)), x0=np.ones(4), tol=1e-13
    )
    assert res.success
    assert np.abs(res.x - expected).max() < 1e-10
    assert np.abs(quadratic_route_solution() - expected).max() < 1e-15
    assert abs(np.linalg.norm(expected[2:]) ** 2 * 258299.0
               - 7016.0 * np.linalg.norm(expected[2:]) - 22864.0) < 1e-9


def test_iterate_structure():
    inst = mk.example_instance()
    _, trace = mk.picard_solve(inst)
    it = trace.iterates
    # the two x coordinates stay locked at ratio two after the first step
    assert (it[1:, 0] == 2.0 * it[1:, 1]).all()
    # the tail is strictly inside the inner cone from step two on
    assert (it[2:, 3] > 0).all()


def test_solution_verifies():
    inst = mk.example_instance()
    _, trace = mk.picard_solve(inst)
    rep = mk.verify_solution(inst, trace.final)
    assert rep.ok and rep.failed == ()
    assert rep.g_norm < 1e-11 and rep.orthogonality < 1e-11
    # a non-solution is reported as such, with the culprit named
    bad = mk.verify_solution(inst, [0.8, 0.4, 7.0 / 30.0, 0.0])
    assert not bad.ok and "g_norm" in bad.failed


def test_verify_closed_form_directly():
    inst = mk.example_instance()
    z = worked_solution()
    rep = mk.verify_solution(inst, z, tol=1e-12)
    assert rep.ok, rep
    # a solution is its own step, and it sits in the descent region
    assert np.abs(mk.picard_step(inst, z) - z).max() <= 1e-12
    region = mk.region_membership(inst, z)
    assert region.in_descent and region.in_feasible


# ---------------------------------------------------------------------------
# regions and preconditions


def test_region_membership_witness():
    inst = mk.example_instance()
    rep = mk.region_membership(inst, [30.0, 12.0, 4.0, 3.0])
    assert rep.in_feasible and rep.in_descent and rep.reasons == ()
    G, H = mk.evaluate_map(inst.map, np.array([30.0, 12.0, 4.0, 3.0]))
    assert_allclose(G, [15.0, 4.5], rtol=1e-14)
    assert_allclose(H, [257.0 / 120.0, 133.0 / 120.0], rtol=1e-13)


def test_region_membership_origin():
    inst = mk.example_instance()
    rep = mk.region_membership(inst, np.zeros(4))
    assert not rep.in_feasible and not rep.in_descent
    assert "g_not_nonincreasing" in rep.reasons


def test_feasible_region_inside_descent_region(rng):
    inst = mk.example_instance()
    hits = 0
    for z in rng.normal(size=(3000, 4)) * rng.uniform(0.5, 20, (3000, 1)):
        rep = mk.region_membership(inst, z)
        if rep.in_feasible:
            hits += 1
            assert rep.in_descent
    assert hits > 0  # the sweep actually visited the region


def test_preconditions_report():
    inst = mk.example_instance()
    pre = mk.check_solvability_preconditions(inst, n_samples=300, seed=7)
    assert pre.ok and pre.start_ascending
    assert_allclose(pre.first_step, [0.8, 0.4, 7.0 / 30.0, 0.0], rtol=1e-15)
    assert pre.isotone.ok and pre.isotone.checked == 300


# ---------------------------------------------------------------------------
# failure modes and validation


def test_divergence_is_detected():
    grow = mk.AffineMap(p=2, q=2, matrix=-2.0 * np.eye(4), offset=-np.ones(4))
    inst = mk.MicpInstance(map=grow, inner=mk.monotone_nonneg(2))
    _, trace = mk.picard_solve(inst)
    assert trace.status == "diverged"
    assert np.linalg.norm(trace.final) > micp_solver.DIVERGENCE_LIMIT
    assert trace.n_steps < 100


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowed_norm_of_finite_iterate_is_divergence():
    # ||z||^2 overflows to inf while every entry stays finite
    grow = mk.AffineMap(p=1, q=2, matrix=-1e200 * np.eye(3), offset=-np.ones(3))
    _, trace = mk.picard_solve(mk.MicpInstance(map=grow, inner=mk.nonneg_orthant(2)))
    assert trace.status == "diverged" and trace.n_steps == 2
    assert np.isfinite(trace.final).all() and not np.isfinite(trace.final @ trace.final)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_iterate_stops_the_solve():
    # step 1 is finite, (1, 1, 0); step 2 overflows M z to +inf
    matrix = np.zeros((3, 3))
    matrix[0, :2] = 1e308
    inst = mk.MicpInstance(
        map=mk.AffineMap(p=1, q=2, matrix=matrix, offset=[-1.0, -1.0, 0.0]),
        inner=mk.nonneg_orthant(2),
    )
    assert not np.isfinite(mk.picard_step(inst, [1.0, 1.0, 0.0])).all()
    sol, trace = mk.picard_solve(inst)
    assert trace.status == "nonfinite" and trace.n_steps == 1
    assert trace.iterates.tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    assert trace.order_certificates.shape == (1,)
    assert (trace.final == [1.0, 1.0, 0.0]).all()
    assert sol.x.tolist() == [1.0] and sol.u.tolist() == [1.0, 0.0]
    # the very first update is (0, 0, inf), and its Lorentz projection is
    # not finite
    inst = mk.MicpInstance(
        map=mk.AffineMap(p=1, q=2, matrix=np.diag([1.0, 1.0, -1.0]), offset=[0.0, 0.0, -1e308]),
        inner=mk.lorentz(2),
        start=[0.0, 0.0, 1e308],
    )
    sol, trace = mk.picard_solve(inst)
    assert trace.status == "nonfinite" and trace.n_steps == 0
    assert (trace.final == inst.start).all() and trace.order_certificates.shape == (0,)


def test_identity_residual_converges_immediately():
    # residual F(z) = z has update z - F(z) = 0: one step lands on the origin
    ident = mk.AffineMap(p=2, q=2, matrix=np.eye(4), offset=np.zeros(4))
    inst = mk.MicpInstance(map=ident, inner=mk.monotone_nonneg(2))
    _, trace = mk.picard_solve(inst)
    assert trace.status == "converged" and trace.n_steps == 1
    assert (trace.final == 0).all()


def test_iteration_budget():
    inst = mk.example_instance(max_iter=3)
    _, trace = mk.picard_solve(inst)
    assert trace.status == "max_iter" and trace.n_steps == 3


def test_instance_validation():
    m = mk.example_instance().map
    with pytest.raises(mk.DimensionError):
        mk.MicpInstance(map=m, inner=mk.monotone_nonneg(3))
    with pytest.raises(mk.DimensionError):
        mk.MicpInstance(map=m, inner=mk.monotone_nonneg(2), start=[0.0, 0.0])
    inst = mk.MicpInstance(map=m, inner=mk.monotone_nonneg(2), start=[1.0, 0.5, 0.1, 0.0])
    assert_allclose(inst.start, [1.0, 0.5, 0.1, 0.0])
    assert inst.order_cone == mk.mesoc(2, 2)


@pytest.mark.parametrize("conv_tol", [math.nan, -1e-12, math.inf])
def test_instance_refuses_what_the_cli_refuses(conv_tol):
    # a NaN tolerance passes no step norm, so the solve would run every step
    m = mk.example_instance().map
    with pytest.raises(ValueError, match="tolerance"):
        mk.MicpInstance(map=m, inner=mk.monotone_nonneg(2), conv_tol=conv_tol)
    with pytest.raises(ValueError, match="max_iter"):
        mk.MicpInstance(map=m, inner=mk.monotone_nonneg(2), max_iter=-1)
    assert mk.MicpInstance(map=m, inner=mk.monotone_nonneg(2), max_iter=0, conv_tol=0.0).max_iter == 0


def test_solver_works_from_other_starts():
    # the fixed point is unique for this instance, so any sane start lands
    # on the same limit
    inst = mk.example_instance()
    for start in ([5.0, 2.0, 1.0, 0.5], [0.0, 10.0, 0.0, 3.0]):
        shifted = mk.MicpInstance(map=inst.map, inner=inst.inner, start=start)
        _, trace = mk.picard_solve(shifted)
        assert trace.status == "converged"
        assert np.abs(trace.final - worked_solution()).max() < 1e-9


def test_sampling_cylinder_members_feed_the_solver(rng):
    # the instance's ambient cylinder admits sampling and its dual pairs up
    cyl = mk.cylinder(2, mk.monotone_nonneg(2))
    Z = sampling.sample(cyl, rng, 200)
    W = sampling.sample(mk.dual_of(cyl), rng, 200)
    assert mk.contains_batch(cyl, Z).all()
    assert np.einsum("ij,ij->i", Z, W).min() >= -1e-10


# ---------------------------------------------------------------------------
# the solver loop against a plain reference loop


def _reference_step(instance, z):
    """The half-projected step from the batch map update and the projected
    point, so it shares neither the solver's single-vector update nor its
    write-back into the updated vector."""
    p = instance.map.p
    t = instance.map.update_batch(z[None, :])[0]
    return np.concatenate([t[:p], mk.project(instance.inner, t[p:]).point])


def _reference_solve(instance):
    """picard_solve as a plain loop of _reference_step, np.linalg.norm and a
    per-step order certificate, with every iterate checked for finiteness
    and its norm for divergence."""
    z = instance.start.copy()
    iterates, step_norms, certs, status = [z], [], [], "max_iter"
    for _ in range(instance.max_iter):
        z_new = _reference_step(instance, z)
        if not np.isfinite(z_new).all():
            status = "nonfinite"
            break
        d = z_new - z
        step_norms.append(float(np.linalg.norm(d)))
        certs.append(mk.contains(instance.order_cone, d))
        iterates.append(z_new)
        z = z_new
        if step_norms[-1] <= instance.conv_tol:
            status = "converged"
            break
        if np.linalg.norm(z) > micp_solver.DIVERGENCE_LIMIT:
            status = "diverged"
            break
    return np.array(iterates), np.array(step_norms), np.array(certs, dtype=bool), status


def _assert_matches_reference(instance):
    iterates, step_norms, certs, status = _reference_solve(instance)
    if not np.isfinite(iterates[-1]).all():
        # only the start can be kept without a check, and it is no solution
        assert len(iterates) == 1
        with pytest.raises(ValueError, match="finite"):
            mk.picard_solve(instance)
        return
    sol, trace = mk.picard_solve(instance)
    assert trace.status == status
    assert trace.iterates.shape == iterates.shape
    assert trace.iterates.tobytes() == iterates.tobytes()
    assert trace.step_norms.tobytes() == step_norms.tobytes()
    assert trace.order_certificates.dtype == np.bool_
    assert trace.order_certificates.shape == certs.shape == (trace.n_steps,)
    assert (trace.order_certificates == certs).all()
    assert sol.concat().tobytes() == iterates[-1].tobytes()


def _scalar_combo(rng, p, q):
    """A map sum_i f_i(z) w_i whose update has Lipschitz constant at most 0.8:
    each term is bounded by |w_i| (|linear_i| + |norm_coeff_i|)."""
    k = int(rng.integers(1, 4))
    fields = tuple(
        mk.ScalarField(rng.standard_normal(p), float(rng.standard_normal()), float(rng.standard_normal()))
        for _ in range(k)
    )
    W = rng.standard_normal((k, p + q))
    bound = sum(np.linalg.norm(w) * (np.linalg.norm(f.linear) + abs(f.norm_coeff)) for f, w in zip(fields, W))
    return mk.ScalarComboMap(p=p, q=q, fields=fields, directions=0.8 * W / bound)


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 1000])
@pytest.mark.parametrize("q", [0, 1, 2, 3, 8])
def test_field_values_keep_the_stacked_bytes(rows, q):
    # every field's sum is written into its column of one output; np.stack of
    # the per-field columns, with the norms from one einsum, gave these bytes
    rng = np.random.default_rng(1000 * q + rows)
    p = 2
    map_ = _scalar_combo(rng, p, q)
    Z = 3.0 * rng.standard_normal((rows, p + q))
    X, U = Z[:, :p], Z[:, p:]
    norms = np.sqrt(np.einsum("ij,ij->i", U, U))
    want = np.stack([X @ f.linear + f.norm_coeff * norms + f.offset for f in map_.fields], axis=1)
    got = map_.field_values(Z)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert map_.update_batch(Z).tobytes() == (want @ map_.directions).tobytes()


@settings(deadline=None, max_examples=100)
@given(
    p=st.integers(1, 8),
    q=st.integers(1, 8),
    map_kind=st.sampled_from(["affine", "scalar_combo"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.01, 1.0, 100.0]),
)
def test_update_matches_one_row_batch(p, q, map_kind, seed, scale):
    # the reference loop updates through update_batch(z[None, :]), so the
    # solver's single-vector update must give the bytes of a one-row batch
    # (a row of a larger batch may differ in the last bits)
    rng = np.random.default_rng(seed)
    n = p + q
    if map_kind == "affine":
        map_ = mk.AffineMap(p=p, q=q, matrix=rng.standard_normal((n, n)), offset=rng.standard_normal(n))
    else:
        map_ = _scalar_combo(rng, p, q)
    z = scale * rng.standard_normal(n)
    assert map_.update(z).tobytes() == map_.update_batch(z[None, :])[0].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=400)
@given(q=st.integers(0, 3), data=st.data())
def test_one_row_update_keeps_the_row_norms_bits(q, data):
    # a tail of at most NARROW_MAX entries takes its norm from Python
    # floats; one einsum call (row_norms) gave these bits, for squares that
    # overflow or underflow, NaN, infinities and signed zeros too
    scale = st.sampled_from([1e-160, 1e-5, 1.0, 1e5, 1e155])
    entry = st.one_of(st.floats(), st.builds(lambda a, s: a * s, st.floats(-1.0, 1.0), scale),
                      st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))
    u = np.array(data.draw(st.lists(entry, min_size=q, max_size=q)), dtype=float)
    field = mk.ScalarField([0.0], 1.0, 0.0)
    map_ = mk.ScalarComboMap(p=1, q=q, fields=(field,), directions=np.ones((1, 1 + q)))
    got = map_.update(np.concatenate([[0.0], u]))
    # 0.0 + norm + 0.0, times 1.0: the norm itself in every entry
    want = np.full(1 + q, cones.row_norms(u[None])[0])
    assert got.tobytes() == want.tobytes()


def test_solver_projects_through_the_module_name(monkeypatch):
    # perfbench/selftest.py replaces projections.project by a zero stub and
    # requires the solves to fail, so every step must call it by that name
    inst = mk.MicpInstance(
        map=mk.example_instance().map, inner=mk.monotone_nonneg(2), start=[1.0, 0.5, 0.4, 0.2], max_iter=20
    )
    _, trace = mk.picard_solve(inst)
    assert (trace.iterates[1:, 2:] != 0).any()
    monkeypatch.setattr(
        projections, "project", lambda cone, z: projections.ProjectionResult(np.zeros(cone.dim), 0.0)
    )
    _, trace = mk.picard_solve(inst)
    assert trace.n_steps == 20 and (trace.iterates[0, 2:] != 0).all()
    assert (trace.iterates[1:, 2:] == 0).all()


@settings(deadline=None, max_examples=80)
@given(
    p=st.integers(1, 6),
    q=st.integers(1, 6),
    kind=st.sampled_from(["monotone_nonneg", "monotone", "lorentz", "nonneg_orthant"]),
    map_kind=st.sampled_from(["affine", "scalar_combo"]),
    seed=st.integers(0, 2**32 - 1),
    max_iter=st.sampled_from([0, 1, 7, 2000]),
)
def test_solve_matches_reference_loop(p, q, kind, map_kind, seed, max_iter):
    # affine maps whose update I - M has spectral norm 0.8, and scalar-field
    # combinations with the same bound, so most solves converge; a random
    # start makes the order certificates mixed
    rng = np.random.default_rng(seed)
    n = p + q
    if map_kind == "affine":
        g = rng.standard_normal((n, n))
        M = np.eye(n) - 0.8 * g / np.linalg.norm(g, 2)
        map_ = mk.AffineMap(p=p, q=q, matrix=M, offset=rng.standard_normal(n))
    else:
        map_ = _scalar_combo(rng, p, q)
    inst = mk.MicpInstance(
        map=map_,
        inner=getattr(mk, kind)(q),
        start=rng.standard_normal(n) if seed % 2 else None,
        max_iter=max_iter,
    )
    _assert_matches_reference(inst)


@pytest.mark.parametrize("max_iter", [0, 1, 2000])
def test_worked_instance_matches_reference_loop(max_iter):
    _assert_matches_reference(mk.example_instance(max_iter=max_iter))


def _edge_start(rng, n, start):
    """A start of one of the kinds the solver's shortcuts depend on."""
    z = rng.standard_normal(n)
    if start == "near_limit":  # norms about 1e11 to 1e13, around DIVERGENCE_LIMIT
        return z * (10.0 ** rng.uniform(11.0, 13.0) / np.linalg.norm(z))
    if start == "nonfinite":
        z[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        return z
    # entries near 1e200: the square sums of the iterates and of the steps
    # overflow while every entry stays finite
    return z * 1e200


# the loop computes an iterate's square sum only for a step that is not
# finite or a norm bound past half of DIVERGENCE_LIMIT; these starts and
# expanding updates (||I - M|| up to 3) take every branch of that rule
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("start", ["near_limit", "nonfinite", "overflow"])
@pytest.mark.parametrize("rho", [0.8, 1.5, 3.0])
@pytest.mark.parametrize("map_kind", ["affine", "scalar_combo"])
def test_solve_matches_reference_loop_at_the_edges(start, rho, map_kind):
    rng = np.random.default_rng([int(rho * 10), len(start), len(map_kind)])
    kinds = ("monotone_nonneg", "monotone", "lorentz", "nonneg_orthant", "monotone_nonneg_dual")
    for i in range(10):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        n = p + q
        if map_kind == "affine":
            g = rng.standard_normal((n, n))
            map_ = mk.AffineMap(p=p, q=q, matrix=np.eye(n) - rho * g / np.linalg.norm(g, 2),
                                offset=rng.standard_normal(n))
        else:
            fields = _scalar_combo(rng, p, q)
            map_ = mk.ScalarComboMap(p=p, q=q, fields=fields.fields, directions=rho / 0.8 * fields.directions)
        inst = mk.MicpInstance(map=map_, inner=getattr(mk, kinds[i % len(kinds)])(q),
                               start=_edge_start(rng, n, start), max_iter=(0, 1, 5, 2000)[i % 4])
        _assert_matches_reference(inst)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_edge_starts_reach_every_status():
    # the cases above are no vacuous pass: between them they diverge, from a
    # step whose square sum overflows among others, converge, run out of
    # steps, stop at a non-finite iterate and raise at a non-finite start
    grow = mk.AffineMap(p=2, q=2, matrix=-2.0 * np.eye(4), offset=-np.ones(4))
    shrink = mk.example_instance().map
    cases = {
        "diverged": (grow, [3e11, 2e11, 1e11, 0.0]),
        "converged": (shrink, [8e11, 5e11, 2e11, 0.0]),
        "max_iter": (shrink, [6e11, 5e11, 1e11, 0.0]),
    }
    for status, (map_, start) in cases.items():
        inst = mk.MicpInstance(map=map_, inner=mk.monotone_nonneg(2), start=start,
                               max_iter=5 if status == "max_iter" else 2000)
        assert mk.picard_solve(inst)[1].status == status
        _assert_matches_reference(inst)
    # the first step's square sum overflows, every entry finite
    inst = mk.MicpInstance(map=grow, inner=mk.monotone_nonneg(2), start=[1e200, -1e200, 1e200, 0.0])
    _, trace = mk.picard_solve(inst)
    assert trace.status == "diverged" and trace.n_steps == 1 and trace.step_norms[0] == math.inf
    assert np.isfinite(trace.final).all()
    _assert_matches_reference(inst)
    for bad in (math.nan, math.inf, -math.inf):
        for max_iter in (0, 1):
            inst = mk.MicpInstance(map=shrink, inner=mk.monotone_nonneg(2), start=[bad, 0.0, 0.0, 0.0],
                                   max_iter=max_iter)
            with pytest.raises(ValueError, match="finite"):
                mk.picard_solve(inst)


@pytest.mark.parametrize("inner", [mk.esoc(2, 2), mk.esoc_dual(2, 2), mk.cylinder(1, mk.esoc(2, 1))])
@pytest.mark.parametrize("max_iter", [0, 2000])
def test_solve_on_an_esoc_inner_cone(inner, max_iter):
    # the update 0.5 z - b is a contraction, so the iteration converges on
    # every closed convex inner cone; a budget of no steps returns the start
    n = 2 + inner.dim
    offset = np.random.default_rng(inner.dim).normal(size=n)
    map_ = mk.AffineMap(p=2, q=inner.dim, matrix=0.5 * np.eye(n), offset=offset)
    inst = mk.MicpInstance(map=map_, inner=inner, max_iter=max_iter)
    solution, trace = mk.picard_solve(inst)
    if not max_iter:
        assert trace.status == "max_iter" and trace.n_steps == 0
        assert solution.concat().tolist() == [0.0] * n
        return
    assert trace.status == "converged"
    assert mk.verify_solution(inst, solution.concat()).ok
    assert mk.contains(inner, solution.u)


# ---------------------------------------------------------------------------
# the trace: iterates and order certificates built on first read


def _loop_lists(instance):
    """The iterates, step norms and status of picard_solve's loop, as lists,
    from picard_step."""
    z = instance.start.copy()
    iterates, step_norms, status = [z], [], "max_iter"
    for _ in range(instance.max_iter):
        z_new = mk.picard_step(instance, z)
        if not np.isfinite(z_new).all():
            status = "nonfinite"
            break
        d = z_new - z
        step_norms.append(math.sqrt(d.dot(d)))
        iterates.append(z_new)
        z = z_new
        if step_norms[-1] <= instance.conv_tol:
            status = "converged"
            break
        if math.sqrt(z.dot(z)) > micp_solver.DIVERGENCE_LIMIT:
            status = "diverged"
            break
    return iterates, step_norms, status


def _eager(instance, iterates, step_norms, status):
    """The trace's fields as plain arrays, computed here and not through an
    IterationTrace: the certificates are contains_batch of the order cone on
    the steps between the stacked iterates."""
    iterates = np.array(iterates)
    return types.SimpleNamespace(
        final=iterates[-1],
        status=status,
        iterates=iterates,
        step_norms=np.array(step_norms),
        order_certificates=mk.contains_batch(instance.order_cone, np.diff(iterates, axis=0)),
    )


def _nonfinite_instance():
    matrix = np.zeros((3, 3))
    matrix[0, :2] = 1e308
    return mk.MicpInstance(
        map=mk.AffineMap(p=1, q=2, matrix=matrix, offset=[-1.0, -1.0, 0.0]), inner=mk.nonneg_orthant(2)
    )


_STATUS_CASES = {
    "converged": lambda: mk.example_instance(),
    "max_iter": lambda: mk.example_instance(max_iter=5),
    "max_iter=0": lambda: mk.example_instance(max_iter=0),
    "diverged": lambda: mk.MicpInstance(
        map=mk.AffineMap(p=2, q=2, matrix=-2.0 * np.eye(4), offset=-np.ones(4)), inner=mk.monotone_nonneg(2)
    ),
    "nonfinite": _nonfinite_instance,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(_STATUS_CASES))
def test_lazy_trace_equals_the_eager_one(case):
    instance = _STATUS_CASES[case]()
    lists = _loop_lists(instance)
    eager = _eager(instance, *lists)
    sol, trace = mk.picard_solve(instance)
    assert trace.status == eager.status == case.split("=")[0]
    # final and n_steps first, before anything is stacked
    assert trace.n_steps == len(eager.step_norms) == len(lists[1])
    assert trace.final.tobytes() == eager.final.tobytes()
    for name in ("order_certificates", "iterates", "step_norms"):
        got, want = getattr(trace, name), getattr(eager, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert trace.final.tobytes() == eager.final.tobytes()
    assert sol.concat().tobytes() == eager.final.tobytes()
    for name in ("iterates", "step_norms", "order_certificates", "status"):
        with pytest.raises(AttributeError):
            setattr(trace, name, None)


def test_solution_shares_no_memory_with_the_trace():
    sol, trace = mk.picard_solve(mk.example_instance())
    final = trace.final.copy()
    sol.x[:] = 99.0
    sol.u[:] = 99.0
    assert trace.final.tobytes() == final.tobytes()
    assert trace.iterates[-1].tobytes() == final.tobytes()
    assert not np.shares_memory(trace.iterates, sol.x) and not np.shares_memory(trace.iterates, sol.u)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(_STATUS_CASES))
def test_trace_from_arrays_or_lists_equals_the_solvers(case):
    instance = _STATUS_CASES[case]()
    _, solved = mk.picard_solve(instance)
    iterates, step_norms, status = _loop_lists(instance)
    cone = instance.order_cone
    for trace in (mk.IterationTrace(np.array(iterates), np.array(step_norms), status, cone=cone),
                  mk.IterationTrace(iterates, step_norms, status, cone=cone)):
        assert trace.n_steps == solved.n_steps and trace.status == solved.status
        assert trace.final.tobytes() == solved.final.tobytes()
        for name in ("iterates", "step_norms", "order_certificates"):
            got, want = getattr(trace, name), getattr(solved, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert f"status={status!r}" in repr(trace)
        for name in ("iterates", "step_norms", "order_certificates", "status"):
            with pytest.raises(AttributeError):
                setattr(trace, name, None)


def test_trace_takes_no_certificates():
    # the certificates come from the iterates, so a call that hands them in
    # is refused before anything is built
    iterates, norms, certs = np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([1.25]), np.array([True])
    with pytest.raises(TypeError):
        mk.IterationTrace(iterates=iterates, step_norms=norms, order_certificates=certs, status="max_iter")
    with pytest.raises(TypeError):
        mk.IterationTrace(iterates, norms, certs, "converged")
