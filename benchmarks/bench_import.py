"""Wall time of a ``mesoc-kit`` call, the import cost of each subcommand, and
the cost of a cone record.

Run from the repository root::

    python3 benchmarks/bench_import.py [SRC ...]

Each ``SRC`` is a source directory holding ``mesoc_kit`` (default ``src``);
give two, such as a checkout of the parent commit's ``src`` and this one's,
for a before/after table.  Every figure comes from fresh interpreters
started with ``-B`` (no bytecode written), one per source directory in turn
within each of ``RUNS`` rounds, so the directories share the machine's
state.  A directory with a ``__pycache__`` would be timed from its cached
bytecode, so the script names any it finds.

1. Per shipped ``problems/*.json``, the median wall milliseconds of a whole
   ``python -B -m mesoc_kit <command> <file>`` call, from the start of the
   child to its exit; then, as a reference, of ``python -B -c "import numpy,
   argparse, json"``, the floor of every call.
2. Per subcommand, the median milliseconds of importing the modules it
   loads (``SUBCOMMANDS``), with NumPy, ``argparse`` and ``json`` imported
   before the clock starts, as the CLI imports them; then, as a reference,
   ``numpy.random``, which the sampling subcommands load when they draw.
3. The median ``-X importtime`` self time, in ms, of every ``mesoc_kit``
   module and of ``dataclasses`` when a child imports every module of the
   kit.
4. The median over the rounds of the best of five ``timeit`` runs, in µs,
   of building ``ConeSpec("mesoc", 2, 2)``, of ``cones.mesoc(2, 2)``,
   ``cones.dual_of``, ``hash`` and ``==`` of two equal records.

Each subcommand pays the second table's row on every call: with no
``__pycache__`` (``PYTHONDONTWRITEBYTECODE=1``) every call compiles the
modules it imports and builds their classes.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 15
ROOT = Path(__file__).resolve().parents[1]

# the modules each subcommand imports, the CLI's table (cli.py): a subcommand
# that projects loads projections, and check isotone runs a map
SUBCOMMANDS = {
    "contains, check complementarity/decompose": ("cli",),
    "check project": ("cli", "projections"),
    "solve, check verify": ("cli", "micp_solver", "projections"),
    "check isotone": ("cli", "order", "micp_solver"),
    "lyap-rank": ("cli", "lyapunov", "projections"),
}
# -X importtime does not time a module that ``from . import name`` loads on
# its own (its time lands in the importer's self time), so every module is
# imported by name, each before the modules that import it that way
ALL = ("cones", "projections", "sampling", "cli", "micp_solver", "order", "lyapunov")

TIMED_IMPORT = """\
import argparse, json, time
import numpy
t0 = time.perf_counter()
{imports}
print(1e3 * (time.perf_counter() - t0))
"""

RECORD_OPS = """\
import timeit
from mesoc_kit import cones
a, b = cones.ConeSpec("mesoc", 2, 2), cones.ConeSpec("mesoc", 2, 2)
g = dict(cones=cones, a=a, b=b)
for stmt in {stmts!r}:
    print(1e6 * min(timeit.repeat(stmt, globals=g, number=20000, repeat=5)) / 20000)
"""
STMTS = ('cones.ConeSpec("mesoc", 2, 2)', "cones.mesoc(2, 2)", "cones.dual_of(a)", "hash(a)", "a == b")


def child(src: Path, code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-B", *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)


def call_ms(src: Path, args) -> float:
    """Wall milliseconds of one fresh ``python -B *args`` on ``src``.  No
    timeout: with one, ``subprocess`` polls for the exit in sleeps of up to
    50 ms, and the figure would round up to that step."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return 1e3 * (time.perf_counter() - t0)


def import_ms(src: Path, modules) -> float:
    imports = "\n".join(f"import {m}" for m in modules)
    return float(child(src, TIMED_IMPORT.format(imports=imports)).stdout)


def self_times(src: Path) -> dict:
    """``-X importtime`` self time in ms of each module of interest."""
    imports = "; ".join(f"import mesoc_kit.{m}" for m in ALL)
    err = child(src, "import numpy, argparse, json; " + imports, "-X", "importtime").stderr
    out = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
        if m and (m[2].startswith("mesoc_kit.") or m[2] == "dataclasses"):
            out[m[2]] = int(m[1]) / 1e3
    return out


def main() -> int:
    sources = [Path(s).resolve() for s in sys.argv[1:]] or [ROOT / "src"]
    for src in sources:
        if not (src / "mesoc_kit").is_dir():
            print(f"{src} holds no mesoc_kit")
            return 2
        if any((src / "mesoc_kit").rglob("__pycache__")):
            print(f"note: {src}/mesoc_kit has a __pycache__; its figures are of cached bytecode")
    calls = {}
    for path in sorted((ROOT / "problems").glob("*.json")):
        command = json.loads(path.read_text(encoding="utf-8"))["command"]
        calls[path.name] = ("-m", "mesoc_kit", *command.split("."), str(path.relative_to(ROOT)))
    calls["numpy, argparse, json (reference)"] = ("-c", "import numpy, argparse, json")
    walls = {(name, src): [] for name in calls for src in sources}
    rows = {**{name: tuple(f"mesoc_kit.{m}" for m in mods) for name, mods in SUBCOMMANDS.items()},
            "numpy.random (reference)": ("numpy.random",)}
    imports = {(row, src): [] for row in rows for src in sources}
    selfs = {src: [] for src in sources}
    ops = {src: [] for src in sources}
    for k in range(RUNS):
        # call by call, first source first in even rounds and last in odd
        # ones, so the two sides of a row meet the same load on the machine
        for name, args in calls.items():
            for src in sources[::-1] if k % 2 else sources:
                walls[name, src].append(call_ms(src, args))
        for src in sources:
            for row, modules in rows.items():
                imports[row, src].append(import_ms(src, modules))
            selfs[src].append(self_times(src))
            ops[src].append([float(x) for x in child(src, RECORD_OPS.format(stmts=STMTS)).stdout.split()])
    heads = " ".join(f"{f'src {i + 1}':>9}" for i in range(len(sources)))
    for i, src in enumerate(sources):
        print(f"src {i + 1}: {src}")
    print(f"\nwhole call ms, median of {RUNS} fresh python -B -m mesoc_kit calls")
    print(f"{'problem file':>42} {heads}")
    for name in calls:
        print(f"{name:>42} " + " ".join(f"{statistics.median(walls[name, s]):>9.1f}" for s in sources))
    print(f"\nimport ms, median of {RUNS} fresh interpreters, NumPy preloaded")
    print(f"{'subcommand':>42} {heads}")
    for row in rows:
        print(f"{row:>42} " + " ".join(f"{statistics.median(imports[row, s]):>9.1f}" for s in sources))
    print(f"\n-X importtime self ms, median of {RUNS}, every module of the kit imported")
    names = sorted({name for s in sources for run in selfs[s] for name in run})
    for name in names:
        cells = [statistics.median(run.get(name, 0.0) for run in selfs[s]) for s in sources]
        print(f"{name:>42} " + " ".join(f"{c:>9.2f}" for c in cells))
    print(f"\nConeSpec us per op, median over {RUNS} runs of the best of 5 timeit runs")
    for k, stmt in enumerate(STMTS):
        print(f"{stmt:>42} " + " ".join(f"{statistics.median(r[k] for r in ops[s]):>9.3f}" for s in sources))
    return 0


if __name__ == "__main__":
    sys.exit(main())
