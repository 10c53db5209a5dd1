"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --seeds 1                      # every workload once
    python3 perfbench/repeat.py --workloads solve_sweep --seeds 1-5 --save a.json
    python3 perfbench/repeat.py --compare a.json b.json

For every workload and metric (the end-to-end metrics of ``BENCHMARK.json``
and the named metrics of ``catalog``) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound is flagged ``wide``, above the bound ``OVER``.
``--compare`` checks that the medians of the second set are not worse than
those of the first by more than each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _bounds(workload: str) -> dict[str, tuple[str, str, float]]:
    """metric -> (unit, better, bound) for one workload."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update(catalog.NAMED[workload])
    return out


def run_set(workloads: list[str], seeds: list[int], seconds: float) -> dict:
    """workload -> metric -> list of values, one per seed, plus failure counts."""
    out = {}
    for wl in workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(ROOT / ".perfbench-out" / f"{wl}-s{seed}" / "result.json", encoding="utf-8") as fh:
                named = json.load(fh)["named"]
            failed += last["failed"]
            attempted += last["attempted"]
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in named.items():
                values.setdefault(name, []).append(v)
            print(f"{wl} seed {seed}: correct={last['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in last["metrics"].items()), flush=True)
        out[wl] = {"seeds": seeds, "values": values, "failed": failed, "attempted": attempted}
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(results: dict) -> bool:
    """Print every metric's spread; True when no op failed and every
    end-to-end metric but setup_s spreads within its bound."""
    gated = set(catalog.END_TO_END) - {"setup_s"}
    ok = True
    for wl, res in results.items():
        bounds = _bounds(wl)
        print(f"\n{wl}: seeds {res['seeds']}, failed {res['failed']} of {res['attempted']} ops "
              f"(fail_ratio {res['failed'] / res['attempted']:.6g})")
        ok &= res["failed"] == 0
        for name, values in res["values"].items():
            unit, better, bound = bounds[name]
            med, q1, q3, sp = spread(values)
            flag = ""
            if bound and name != "setup_s":
                flag = "OVER" if sp > bound else "wide" if sp > bound / 3 else ""
                ok &= sp <= bound or name not in gated
            print(f"  {name:24s} {unit:8s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:6.2%} bound {bound:5.0%} {flag}")
    return ok


def compare(first: dict, second: dict) -> bool:
    """Print every metric's median shift; True when no end-to-end metric's
    second median is worse than the first by more than its bound."""
    ok = True
    for wl in first:
        bounds = _bounds(wl)
        print(f"\n{wl}: {first[wl]['seeds']} vs {second[wl]['seeds']}")
        for name, values in first[wl]["values"].items():
            unit, better, bound = bounds[name]
            a = statistics.median(values)
            b = statistics.median(second[wl]["values"][name])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "WORSE" if bound and worse > bound else ""
            ok &= not flag or name not in catalog.END_TO_END
            print(f"  {name:24s} {unit:8s} {a:<12.6g} -> {b:<12.6g} worse by {worse:7.2%} "
                  f"bound {bound:5.0%} {flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(catalog.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--save", help="write the collected values to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="JSON", help="compare two saved sets")
    args = parser.parse_args()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return 0 if compare(*sets) else 1
    results = run_set(args.workloads.split(","), _seeds(args.seeds), args.seconds)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0 if report(results) else 1


if __name__ == "__main__":
    sys.exit(main())
