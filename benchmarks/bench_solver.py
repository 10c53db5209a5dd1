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
rule.  The ``mesoc(1, q - 1)`` group solves the maps of the ``lorentz``
group on mesoc(1, q - 1), which is lorentz(q): the script exits 1 unless
every such solve gives the bytes of its ``lorentz`` twin.  Small solves
like these are bound by the fixed cost of each step: one map update and
one projection.

The ``monotone_nonneg(1000)`` group solves the ``large_pav`` instance of
``perfbench``'s ``solve_sweep`` for seed 1, a 1000 + 1000 affine map whose
1000-entry heads ``project`` fits through the batch passes of
``_kernels.pav_fit``; every other group's heads are shorter than
``_kernels.PASSES_MIN`` and go through the sweep.

Each of ``ROUNDS`` rounds solves every instance once; a group's figure for
the round is its total ``picard_solve`` wall time over its total steps, so
it includes the bookkeeping after the loop.  The ``finish`` column is that
bookkeeping alone, per solve: :func:`finish` runs what ``picard_solve``
does after its loop (the trace of the loop's lists, whose arrays and order
certificates are built on first read, and the solution from views of a
copy of the last iterate) on the loop's lists.  The script prints the
median and quartiles over the rounds.  Before timing, every solve is replayed with a reference
step built from the batch map update and the projected point,
``map.update_batch(z[None, :])[0]`` and ``project(inner, .).point``, and
:func:`eager_trace` computes every field of the trace from the replayed
lists as plain arrays, not through an ``IterationTrace``, the order
certificates as ``contains_batch`` of the order cone on the steps between
the stacked iterates.  The solver's trace is read through its lazy fields,
``final`` first, then the status, iterates, step norms and order
certificates; the script exits 1 when any of them, or the solution,
differs from the eager trace in any bit.

A second table times ``project`` against ``projections._point``, the
dispatch it wraps, per group on the inputs its replayed solves projected
(the u block of each update): µs per call of each, and the median over the
rounds of the per-round gap between them, which is what ``project`` adds
to a step (the argument check, the result object and the copy of the
input it keeps for the distance).

A third table times the three products of a step at n = 4, 8 and 16, once
with the ``@`` operator and once with ``ndarray.dot``: the affine update
``M z``, a squared norm ``z z`` and the scalar-field combination ``v W``
(two fields).  ``@`` goes through the matmul ufunc dispatch and ``.dot``
does not; both end in the same BLAS routine, and the script exits 1 unless
the two give the same bytes.  Each figure includes the call of the lambda
that holds the product, about 0.3 µs.

``picard_solve`` does not call ``picard_step``, so the traced
``micp_solver.picard_step.us_per_call`` of ``perfbench`` reads 0; this
script gives the per-step figure instead.

Medians of six runs of this script on a shared 2-vCPU Xeon (NumPy 2.4),
alternating which side runs first: before (a step that takes both square
sums, ``project`` walking to the cylinder base on every call, the norm
tail clipping its expanded fit, and the parent's ``finish``: the step norm
array, a new order cone and ``PartitionedVector.from_array``) and after
(this script as it is).  Every run exited 0 on both sides:

                            us/step          finish us/solve  project - _point us
    example (scalar_combo)    24.4 -> 21.6     18.4 -> 7.9      1.97 -> 1.33
    monotone_nonneg           15.1 -> 12.9     12.5 -> 4.8      1.78 -> 1.17
    monotone                  13.0 -> 11.5     10.9 -> 4.8      1.75 -> 1.12
    lorentz                   11.2 -> 11.1     11.4 -> 4.3      1.71 -> 1.16
    mesoc(1, q - 1)           12.6 -> 11.3     12.1 -> 4.2      1.77 -> 1.21
    nonneg_orthant             9.7 -> 9.2      10.5 -> 4.0      1.62 -> 1.12
    mesoc                     17.8 -> 16.9     11.3 -> 4.1      1.91 -> 1.21
    monotone_nonneg_dual      18.1 -> 17.2     10.1 -> 3.9      1.96 -> 1.38
    monotone_nonneg(1000)   1029.2 -> 1086.6   27.6 -> 17.8     3.79 -> 1.14

The runs shared the machine with other work: one run of the after side
just before them read 8.4 us per ``monotone_nonneg`` step and 0.98 us of
gap.  ``_point`` itself got faster on the isotonic
kinds: on ``monotone_nonneg`` (5.2 -> 4.0 us) the clip of the block means
spares the ``np.maximum`` pass, and on ``monotone`` (3.7 -> 3.3 us) a fit
in which no block pooled is not expanded.  The large group's step is the
2000 x 2000 product, and its per-run medians spread from 901 to 1076 us
before and from 907 to 1601 us after, with nothing on its path slower.
Products, medians over six runs of an earlier change, µs per call:
``M z`` 2.0 with ``@`` and 1.1 with ``.dot`` at every n, ``z z`` 1.8 and
1.0, ``v W`` 2.0 and 1.1.
"""

import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import mesoc_kit as mk
from mesoc_kit import micp_solver, projections

SIZES = ((2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 6), (6, 2), (4, 8), (8, 4), (3, 5), (5, 3), (7, 7))
KINDS = ("monotone_nonneg", "monotone", "lorentz", "nonneg_orthant", "mesoc", "monotone_nonneg_dual")
# the lorentz group's maps on mesoc(1, q - 1), which is lorentz(q)
TWIN = "mesoc(1, q - 1)"
ROUNDS = 25
SEED = 20240817
PRODUCT_SIZES = (4, 8, 16)
PRODUCT_CALLS = 2000
# the 1000 + 1000 map of perfbench's solve_sweep on monotone_nonneg(1000), seed 1
LARGE = "monotone_nonneg(1000)"


def instances() -> dict[str, list]:
    """Group name -> instances of that group."""
    rng = np.random.default_rng(SEED)
    groups = {"example (scalar_combo)": [mk.example_instance()]}
    for kind in KINDS:
        groups[kind] = []
        if kind == "lorentz":
            groups[TWIN] = []
        for p, q in SIZES:
            n = p + q
            g = rng.standard_normal((n, n))
            M = np.eye(n) - 0.8 * g / np.linalg.norm(g, 2)
            map_ = mk.AffineMap(p=p, q=q, matrix=M, offset=rng.standard_normal(n))
            inner = mk.mesoc(q - q // 2, q // 2) if kind == "mesoc" else getattr(mk, kind)(q)
            groups[kind].append(mk.MicpInstance(map=map_, inner=inner))
            if kind == "lorentz":  # the same map on L(1, q - 1)
                groups[TWIN].append(mk.MicpInstance(map=map_, inner=mk.mesoc(1, q - 1)))
    groups[LARGE] = [large_instance()]
    return groups


def large_instance(seed: int = 1):
    """``perfbench``'s ``large_pav`` instance for ``seed``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import solve_sweep

    return dict(solve_sweep.prepare(types.SimpleNamespace(mk=mk), seed))["large_pav"]


def finish(instance, iterates: list, step_norms: list, status: str):
    """What ``picard_solve`` does after its loop, on the loop's lists: the
    trace of the lists, and the solution from views of a copy of the last
    iterate."""
    return micp_solver._finish(instance, iterates, step_norms, status)


def eager_trace(instance, iterates: list, step_norms: list, status: str):
    """The trace's fields as plain arrays, computed here and not through an
    ``IterationTrace``."""
    iterates = np.array(iterates)
    return types.SimpleNamespace(
        final=iterates[-1],
        status=status,
        iterates=iterates,
        step_norms=np.array(step_norms),
        order_certificates=mk.contains_batch(instance.order_cone, np.diff(iterates, axis=0)),
    )


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
    """The trace's fields as bytes; ``final`` first, so that a lazy trace
    gives it before its iterates are stacked."""
    return (trace.final.tobytes(), trace.status, trace.iterates.tobytes(), trace.step_norms.tobytes(),
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
            ref_trace = eager_trace(instance, *replay)
            if _bytes(trace) != _bytes(ref_trace) or sol.concat().tobytes() != ref_trace.final.tobytes():
                print(f"{name} instance {i}: solver differs from the reference step")
                bad += 1
            steps[name] += trace.n_steps
            replays[name].append(replay)
    # one cone, one answer: the twin group solves as the lorentz group does
    for i, (a, b) in enumerate(zip(groups["lorentz"], groups[TWIN])):
        if _bytes(mk.picard_solve(a)[1]) != _bytes(mk.picard_solve(b)[1]):
            print(f"{TWIN} instance {i}: solve differs from lorentz")
            bad += 1
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


def step_inputs(groups: dict[str, list], replays: dict[str, list]) -> dict[str, list]:
    """Group name -> (inner cone, input) for every projection of the group's
    replayed solves: the u block of the update of each iterate but the last."""
    inputs = {}
    for name, group in groups.items():
        inputs[name] = [
            (instance.inner, instance.map.update_batch(z[None, :])[0][instance.map.p :])
            for instance, (iterates, _, _) in zip(group, replays[name])
            for z in iterates[:-1]
        ]
    return inputs


def project_calls(inputs: dict[str, list]) -> dict[str, dict[str, list]]:
    """µs per call of ``project`` and of its ``_point`` on each group's
    recorded inputs, over ``ROUNDS`` interleaved rounds."""
    fns = {"project": projections.project, "_point": projections._point}
    samples = {name: {label: [] for label in fns} for name in inputs}
    for r in range(ROUNDS):
        for name, calls in inputs.items():
            # alternate which of the two runs first
            for label in (list(fns) if r % 2 else list(fns)[::-1]):
                fn = fns[label]
                t0 = time.perf_counter()
                for inner, u in calls:
                    fn(inner, u)
                samples[name][label].append(1e6 * (time.perf_counter() - t0) / len(calls))
    return samples


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
    inputs = step_inputs(groups, replays)
    calls = project_calls(inputs)
    print()
    print(f"{'inner cone':>24} {'calls':>7} {'project us':>10} {'quartiles':>15} {'_point us':>9}"
          f" {'quartiles':>15} {'gap us':>7}")
    for name, by_fn in calls.items():
        gap = statistics.median(a - b for a, b in zip(by_fn["project"], by_fn["_point"]))
        print(f"{name:>24} {len(inputs[name]):>7} {_summary(by_fn['project'])} "
              f"{_summary(by_fn['_point'])} {gap:>7.2f}")
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
