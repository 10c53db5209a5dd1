"""Workload ``cli_problems``: one-shot ``mesoc-kit`` invocations.

Why: the CLI is one of the two ways the toolkit is used, and a user pays
about a second per call, nearly all of it interpreter start and imports
(``scipy.optimize`` alone, pulled in by ``projections``, is most of it)
while the compute is microseconds.  This workload therefore exercises the
``import`` and ``cli`` layers and hardly touches the PAV kernel or the
solver; it is the no-change control for kernel and solver work.

Every round runs, one child process at a time and in a seeded order, every
shipped ``problems/*.json`` plus one seed-generated file per command.  Each
call is gated on its exit code (5 for ``check_isotone_esoc.json`` by design,
0 otherwise) and on its stdout being byte-identical to an in-process call of
the same file made before timing starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time

import numpy as np

import probes

# shipped files whose documented outcome is a failed check
EXPECTED_EXIT = {"check_isotone_esoc.json": 5}


def _argv(command: str, path: str, seed: int | None) -> list[str]:
    argv = command.split(".") + [path]
    return argv + ["--seed", str(seed)] if seed is not None else argv


def _contraction(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return 0.8 * g / np.linalg.norm(g, 2)


def _affine_json(rng, p: int, q: int) -> dict:
    n = p + q
    return {
        "kind": "affine",
        "p": p,
        "q": q,
        "matrix": (np.eye(n) - _contraction(rng, n)).tolist(),
        "offset": rng.standard_normal(n).tolist(),
    }


def _isotone_map_json(rng) -> dict:
    """A scalar-combination map on R^2 x R^2 that is isotone for mesoc(2, 2)
    by construction: each field has a_1 >= 0 and a_1 + a_2 = c (its norm
    coefficient), and each direction lies in mesoc(2, 2)."""
    fields, directions = [], []
    for _ in range(2):
        c = rng.uniform(0.02, 0.08)
        a1 = rng.uniform(0.0, 0.3)
        fields.append({"linear": [a1, c - a1], "norm_coeff": c, "offset": rng.uniform(-1.0, 1.0)})
        u = rng.standard_normal(2) * 0.3
        x2 = np.linalg.norm(u) + rng.exponential(1.0)
        directions.append([x2 + rng.exponential(1.0), x2, u[0], u[1]])
    return {"kind": "scalar_combo", "p": 2, "q": 2, "fields": fields, "directions": directions}


def _generated(mk, rng) -> dict[str, tuple[dict, bool]]:
    """One problem per command: name -> (document, takes --seed)."""
    cones, sampling, micp = mk.cones, mk.sampling, mk.micp_solver
    mesoc32 = {"kind": "mesoc", "p": 3, "q": 2}
    verify_map = _affine_json(rng, 2, 2)
    instance = micp.MicpInstance(
        map=mk.cli.map_from_json(verify_map), inner=cones.monotone_nonneg(2)
    )
    _, trace = micp.picard_solve(instance)
    z, w = sampling.complementarity_pairs(cones.mesoc(3, 2), rng, 4, include_deterministic=False)
    docs = {
        "contains": (mesoc32, {"point": (2.0 * rng.standard_normal(5)).tolist()}, False),
        "solve": (
            {"kind": "cylinder", "p": 3, "inner": {"kind": "lorentz", "p": 3}},
            {"map": _affine_json(rng, 3, 3)},
            False,
        ),
        "lyap-rank": (mesoc32, {"n_pairs": 300}, True),
        # the Lorentz oracle misses the 1e-8 gate on some points, so this
        # stays polyhedral like the shipped check.project file
        "check.project": (
            {"kind": "cylinder", "p": 2, "inner": {"kind": "monotone_nonneg", "p": 3}},
            {"point": (2.0 * rng.standard_normal(5)).tolist()},
            False,
        ),
        "check.isotone": (
            {"kind": "mesoc", "p": 2, "q": 2},
            {"map": _isotone_map_json(rng)},
            True,
        ),
        # row 2 of the random block has both norm blocks nonzero
        "check.complementarity": (mesoc32, {"primal": z[2].tolist(), "dual": w[2].tolist()}, False),
        "check.verify": (
            {"kind": "cylinder", "p": 2, "inner": {"kind": "monotone_nonneg", "p": 2}},
            {"map": verify_map, "point": trace.final.tolist()},
            False,
        ),
        "check.decompose": (
            mesoc32,
            {"point": sampling.sample(cones.mesoc(3, 2), rng, 1)[0].tolist()},
            False,
        ),
    }
    return {
        command: ({"version": 1, "command": command, "cone": cone, "payload": payload}, seeded)
        for command, (cone, payload, seeded) in docs.items()
    }


def prepare(ctx, seed: int) -> list[dict]:
    """Write the seed's generated files; return every call of a round."""
    rng = np.random.Generator(np.random.PCG64([seed, 11]))
    calls = []
    for path in sorted((ctx.root / "problems").glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            command = json.load(fh)["command"]
        calls.append(
            {
                "name": path.name,
                "argv": _argv(command, str(path.relative_to(ctx.root)), None),
                "expected": EXPECTED_EXIT.get(path.name, 0),
            }
        )
    gen_dir = ctx.out_dir / "problems"
    gen_dir.mkdir(parents=True, exist_ok=True)
    for command, (doc, seeded) in _generated(ctx.mk, rng).items():
        path = gen_dir / f"gen_{command.replace('.', '_')}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        calls.append(
            {
                "name": path.name,
                "argv": _argv(command, str(path.relative_to(ctx.root)), seed if seeded else None),
                "expected": 0,
            }
        )
    return calls


def probe(ctx) -> tuple[float]:
    return (probes.fresh_interpreter(ctx.root, ctx.child_env),)


def reference(cls: str, p: tuple[float]) -> float:
    return p[0]


def start(ctx, calls: list[dict], seed: int, rec) -> dict:
    """Reference reports from in-process calls, made before timing."""
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            call["ref_code"] = ctx.mk.cli.main(call["argv"])
        call["ref_stdout"] = out.getvalue().encode("utf-8")
    return {"calls": calls, "order": np.random.Generator(np.random.PCG64([seed, 12]))}


def run_round(ctx, state: dict, rec, deadline: float | None) -> None:
    calls = state["calls"]
    for i in state["order"].permutation(len(calls)):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        call = calls[i]
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "mesoc_kit", *call["argv"]]
        else:
            spans_path = ctx.out_dir / "child_spans.json"
            cmd = [sys.executable, str(ctx.root / "perfbench" / "cli_child.py"), str(spans_path), *call["argv"]]
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.child_env, capture_output=True)
        wall_ns = time.perf_counter_ns() - t0
        problems = []
        if proc.returncode != call["expected"] or call["ref_code"] != call["expected"]:
            problems.append(f"exit {proc.returncode} (in-process {call['ref_code']}), expected {call['expected']}")
        if proc.stdout != call["ref_stdout"]:
            problems.append("report differs from the in-process reference")
        if ctx.tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            ctx.tracer.extend(spans, rec.attempted)
            main_ns = next(end - start for name, start, end, *_ in spans if name == "cli.main")
            ctx.process_overhead_ns.append(wall_ns - main_ns)
        rec.add(call["name"], wall_ns / 1e9, not problems, "; ".join(problems))


def round_classes(state: dict) -> dict[str, int]:
    return {call["name"]: 1 for call in state["calls"]}


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], f"max of n={n} (fewer than 11 samples)"
    return s[n - 11], f"p{100 * (n - 10) / n:.0f} of n={n}"


def named(rec, state: dict) -> tuple[dict, dict]:
    times = [t for samples in rec.samples.values() for t in samples]
    value, label = tail(times)
    return (
        {"cli_p50_s": statistics.median(times), "cli_tail_s": value},
        {"cli_tail_s": label},
    )
