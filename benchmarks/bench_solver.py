"""Time per Picard step of ``picard_solve``, by inner cone, checked bit for bit.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_solver.py

The instances are the shipped worked example (a scalar-field map on a
cylinder over ``monotone_nonneg(2)``) and, for each inner cone kind in
``KINDS``, one seeded affine problem F(z) = M z + b per size in ``SIZES``
(dimension 4 to 16), with the update I - M scaled to spectral norm 0.8 as in
the ``solve_sweep`` benchmark workload.  The first four kinds are the ones
``solve_sweep`` runs; ``mesoc`` (inner cone L(q - q//2, q//2)) times the
norm-tail reduction of ``project`` and ``monotone_nonneg_dual`` its Moreau
rule.  Small solves like these are bound by the fixed cost of each step:
one map update and one projection.

Each of ``ROUNDS`` rounds solves every instance once; a group's figure for
the round is its total ``picard_solve`` wall time over its total steps, so
it includes the order certificates and the bookkeeping after the loop.  The
``finish`` column is that bookkeeping alone, per solve: :func:`finish`
repeats what ``picard_solve`` does after its loop (the iterate array, the
order certificates in one ``contains_batch`` and the result) on the loop's
lists.  The script prints the median and quartiles over the rounds.  Before
timing, every solve is replayed with a reference step built from the batch
map update and the projected point, ``map.update_batch(z[None, :])[0]`` and
``project(inner, .).point``, and :func:`finish` is run on the replayed
lists; the script exits 1 when an iterate, step norm, order certificate or
status differs from the solver's in any bit.

A second table times the three products of a step at n = 4, 8 and 16, once
with the ``@`` operator and once with ``ndarray.dot``: the affine update
``M z``, a squared norm ``z z`` and the scalar-field combination ``v W``
(two fields).  ``@`` goes through the matmul ufunc dispatch and ``.dot``
does not; both end in the same BLAS routine, and the script exits 1 unless
the two give the same bytes.  Each figure includes the call of the lambda
that holds the product, about 0.3 µs.

``picard_solve`` does not call ``picard_step``, so the traced
``micp_solver.picard_step.us_per_call`` of ``perfbench`` reads 0; this
script gives the per-step figure instead.

Medians of three alternating runs of this script on a 2-vCPU Xeon (NumPy
2.4), before (``@`` on the solver path, the affine update in three buffers,
the map's ``update`` looked up on every step, and ``contains_batch``
copying a one-block result into a new array) and after (``.dot``, one
buffer, one lookup per solve, no copy).  Every run exited 0:

                              us/step        finish us/solve
    example (scalar_combo)    32.5 -> 27.6   80.1 -> 75.4
    monotone_nonneg           22.8 -> 19.8   69.8 -> 69.5
    monotone                  20.7 -> 17.7   72.4 -> 71.2
    lorentz                   21.1 -> 17.3   68.0 -> 65.8
    nonneg_orthant            17.4 -> 15.0   70.3 -> 70.1
    mesoc                     28.7 -> 25.7   67.2 -> 69.0
    monotone_nonneg_dual      27.9 -> 25.3   67.9 -> 68.6

The finish figure does not resolve the saved copy (about 1 µs per call of
``cones.by_row_blocks`` in isolation); its quartiles within a run were
about a tenth of the median.  Products, medians over the six runs, µs per
call: ``M z`` 2.0 with ``@`` and 1.1 with ``.dot`` at every n, ``z z`` 1.8
and 1.0, ``v W`` 2.0 and 1.1.
"""

import statistics
import sys
import time

import numpy as np

import mesoc_kit as mk

SIZES = ((2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 6), (6, 2), (4, 8), (8, 4), (3, 5), (5, 3), (7, 7))
KINDS = ("monotone_nonneg", "monotone", "lorentz", "nonneg_orthant", "mesoc", "monotone_nonneg_dual")
ROUNDS = 25
SEED = 20240817
PRODUCT_SIZES = (4, 8, 16)
PRODUCT_CALLS = 2000


def instances() -> dict[str, list]:
    """Group name -> instances of that group."""
    rng = np.random.default_rng(SEED)
    groups = {"example (scalar_combo)": [mk.example_instance()]}
    for kind in KINDS:
        groups[kind] = []
        for p, q in SIZES:
            n = p + q
            g = rng.standard_normal((n, n))
            M = np.eye(n) - 0.8 * g / np.linalg.norm(g, 2)
            map_ = mk.AffineMap(p=p, q=q, matrix=M, offset=rng.standard_normal(n))
            inner = mk.mesoc(q - q // 2, q // 2) if kind == "mesoc" else getattr(mk, kind)(q)
            groups[kind].append(mk.MicpInstance(map=map_, inner=inner))
    return groups


def finish(instance, iterates: list, step_norms: list, status: str):
    """What ``picard_solve`` does after its loop, on the loop's lists."""
    iterates = np.array(iterates)
    trace = mk.IterationTrace(
        iterates=iterates,
        step_norms=np.array(step_norms),
        order_certificates=mk.contains_batch(instance.order_cone, np.diff(iterates, axis=0)),
        status=status,
    )
    return mk.PartitionedVector.from_array(iterates[-1], instance.map.p, instance.map.q), trace


def reference_solve(instance):
    """Iterates, step norms and status of the plain loop over the reference
    step, as lists."""
    p = instance.map.p
    z = instance.start.copy()
    iterates, norms, status = [z], [], "max_iter"
    for _ in range(instance.max_iter):
        t = instance.map.update_batch(z[None, :])[0]
        z_new = np.concatenate([t[:p], mk.project(instance.inner, t[p:]).point])
        d = z_new - z
        norms.append(float(np.linalg.norm(d)))
        iterates.append(z_new)
        z = z_new
        if norms[-1] <= instance.conv_tol:
            status = "converged"
            break
    return iterates, norms, status


def _bytes(trace) -> tuple:
    return (trace.status, trace.iterates.tobytes(), trace.step_norms.tobytes(),
            trace.order_certificates.tobytes())


def check(groups: dict[str, list]) -> tuple[int, dict[str, int], dict[str, list]]:
    """Replay every solve with the reference step; return how many differ,
    the total steps of each group and the replayed lists of every solve."""
    bad = 0
    steps, replays = {}, {}
    for name, group in groups.items():
        steps[name], replays[name] = 0, []
        for i, instance in enumerate(group):
            replay = reference_solve(instance)
            sol, trace = mk.picard_solve(instance)
            ref_sol, ref_trace = finish(instance, *replay)
            if _bytes(trace) != _bytes(ref_trace) or sol.concat().tobytes() != ref_sol.concat().tobytes():
                print(f"{name} instance {i}: solver differs from the reference step")
                bad += 1
            steps[name] += trace.n_steps
            replays[name].append(replay)
    return bad, steps, replays


def us_per_step(group: list) -> float:
    seconds = steps = 0
    for instance in group:
        t0 = time.perf_counter()
        _, trace = mk.picard_solve(instance)
        seconds += time.perf_counter() - t0
        steps += trace.n_steps
    return 1e6 * seconds / steps


def us_per_finish(group: list, replays: list) -> float:
    t0 = time.perf_counter()
    for instance, replay in zip(group, replays):
        finish(instance, *replay)
    return 1e6 * (time.perf_counter() - t0) / len(group)


def products() -> tuple[int, dict[tuple[str, int], dict[str, list]]]:
    """µs per call of each step product with ``@`` and with ``.dot``, over
    ``ROUNDS`` interleaved rounds; return how many pairs differ in bytes and
    the samples by (product, n)."""
    rng = np.random.default_rng(SEED)
    cases = {}
    for n in PRODUCT_SIZES:
        M, z, v, W = rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal(2), rng.standard_normal((2, n))
        # default arguments bind this size's arrays to the lambdas
        cases[("M z", n)] = (lambda M=M, z=z: M @ z, lambda M=M, z=z: M.dot(z))
        cases[("z z", n)] = (lambda z=z: z @ z, lambda z=z: z.dot(z))
        cases[("v W", n)] = (lambda v=v, W=W: v @ W, lambda v=v, W=W: v.dot(W))
    bad = sum(np.asarray(at()).tobytes() != np.asarray(dot()).tobytes() for at, dot in cases.values())
    samples = {key: {"@": [], ".dot": []} for key in cases}
    for _ in range(ROUNDS):
        for key, pair in cases.items():
            for label, fn in zip(("@", ".dot"), pair):
                t0 = time.perf_counter()
                for _ in range(PRODUCT_CALLS):
                    fn()
                samples[key][label].append(1e6 * (time.perf_counter() - t0) / PRODUCT_CALLS)
    return bad, samples


def _summary(values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:>9.1f} {q1:>7.1f}-{q3:<7.1f}"


def main() -> int:
    groups = instances()
    bad, steps, replays = check(groups)
    samples = {name: [] for name in groups}
    finishes = {name: [] for name in groups}
    for _ in range(ROUNDS):
        for name, group in groups.items():
            samples[name].append(us_per_step(group))
            finishes[name].append(us_per_finish(group, replays[name]))
    print(f"{'inner cone':>24} {'solves':>7} {'steps':>7} {'us/step':>9} {'quartiles':>15}"
          f" {'finish us/solve':>17} {'quartiles':>15}")
    for name, values in samples.items():
        print(f"{name:>24} {len(groups[name]):>7} {steps[name]:>7} {_summary(values)} "
              f"{_summary(finishes[name]):>17}")
    bad_products, times = products()
    print()
    print(f"{'product':>8} {'n':>3} {'@ us':>9} {'quartiles':>15} {'.dot us':>9} {'quartiles':>15}")
    for (name, n), by_op in times.items():
        print(f"{name:>8} {n:>3} {_summary(by_op['@'])} {_summary(by_op['.dot'])}")
    if bad:
        print(f"{bad} solves differ from the reference step")
    if bad_products:
        print(f"{bad_products} products differ in bytes between @ and .dot")
    return 1 if bad or bad_products else 0


if __name__ == "__main__":
    sys.exit(main())
