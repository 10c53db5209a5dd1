"""Time per Picard step of ``picard_solve``, by inner cone, checked bit for bit.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_solver.py

The instances are the shipped worked example (a scalar-field map on a
cylinder over ``monotone_nonneg(2)``) and, for each of the four projectable
inner cones, one seeded affine problem F(z) = M z + b per size in ``SIZES``
(dimension 4 to 16), with the update I - M scaled to spectral norm 0.8 as in
the ``solve_sweep`` benchmark workload.  Small solves like these are bound
by the fixed cost of each step: one map update and one projection.

Each of ``ROUNDS`` rounds solves every instance once; a group's figure for
the round is its total ``picard_solve`` wall time over its total steps, so
it includes the order certificates and the bookkeeping after the loop.  The
script prints the median and quartiles over the rounds.  Before timing, every
solve is replayed with a reference step built from the batch map update and
the projected point, ``map.update_batch(z[None, :])[0]`` and
``project(inner, .).point``; the script exits 1 when an iterate, step norm
or status differs from the solver's in any bit.

``picard_solve`` does not call ``picard_step``, so the traced
``micp_solver.picard_step.us_per_call`` of ``perfbench`` reads 0; this
script gives the per-step figure instead.

Medians of three alternating runs on a 2-vCPU Xeon (NumPy 2.4), µs per
step, before (``project`` building the distance and the block tuples on
every call, and the maps updating through ``update_batch``) and after (the
point-only ``project`` and the single-vector map updates).  Quartiles within
a run were wide on this shared machine, up to a third of the median:

    example (scalar_combo)    43.8 -> 26.7
    monotone_nonneg           24.1 -> 18.2
    monotone                  22.6 -> 16.5
    lorentz                   20.1 -> 18.9
    nonneg_orthant            15.8 -> 13.9
"""

import statistics
import sys
import time

import numpy as np

import mesoc_kit as mk

SIZES = ((2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 6), (6, 2), (4, 8), (8, 4), (3, 5), (5, 3), (7, 7))
KINDS = ("monotone_nonneg", "monotone", "lorentz", "nonneg_orthant")
ROUNDS = 25
SEED = 20240817


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
            groups[kind].append(mk.MicpInstance(map=map_, inner=getattr(mk, kind)(q)))
    return groups


def reference_solve(instance):
    """Iterates, step norms and status of the plain loop over the reference step."""
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
    return np.array(iterates), np.array(norms), status


def check(groups: dict[str, list]) -> tuple[int, dict[str, int]]:
    """Replay every solve with the reference step; return how many differ
    and the total steps of each group."""
    bad = 0
    steps = {}
    for name, group in groups.items():
        steps[name] = 0
        for i, instance in enumerate(group):
            iterates, norms, status = reference_solve(instance)
            _, trace = mk.picard_solve(instance)
            if (trace.status, trace.iterates.tobytes(), trace.step_norms.tobytes()) != (
                status, iterates.tobytes(), norms.tobytes()
            ):
                print(f"{name} instance {i}: solver differs from the reference step")
                bad += 1
            steps[name] += trace.n_steps
    return bad, steps


def us_per_step(group: list) -> float:
    seconds = steps = 0
    for instance in group:
        t0 = time.perf_counter()
        _, trace = mk.picard_solve(instance)
        seconds += time.perf_counter() - t0
        steps += trace.n_steps
    return 1e6 * seconds / steps


def main() -> int:
    groups = instances()
    bad, steps = check(groups)
    samples = {name: [] for name in groups}
    for _ in range(ROUNDS):
        for name, group in groups.items():
            samples[name].append(us_per_step(group))
    print(f"{'inner cone':>24} {'solves':>7} {'steps':>7} {'us/step':>9} {'quartiles':>15}")
    for name, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:>24} {len(groups[name]):>7} {steps[name]:>7} {med:>9.1f} {q1:>7.1f}-{q3:<7.1f}")
    if bad:
        print(f"{bad} solves differ from the reference step")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
