"""Fixed reference workloads timed next to every op.

The benchmark shares its machine, whose speed swings by up to 2x over
seconds to minutes (measured on the reference machine: a 1000x8 batch PAV
call reads 13 ms or 23-30 ms depending on the moment).  Each op is therefore
also reported relative to a probe timed right before and right after it:
code that never changes and that does the same kind of work as the op, so
the machine's swings cancel in the ratio while a change to the program does
not.  The probes depend only on Python, numpy and scipy, never on mesoc_kit.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_ROWS = [[float((7 * i + 3 * j) % 11) for j in range(8)] for i in range(240)]
_MATRIX = np.random.Generator(np.random.PCG64(0)).standard_normal((1000, 1000))
_VECTOR = np.ones(1000)


def _pav_sweeps() -> None:
    """A pool-adjacent-violators sweep over fixed rows, in plain Python."""
    for row in _ROWS:
        means, counts = [], []
        for v in row:
            means.append(v)
            counts.append(1)
            while len(means) > 1 and means[-2] <= means[-1]:
                c = counts[-2] + counts[-1]
                means[-2] += counts[-1] * (means[-1] - means[-2]) / c
                counts[-2] = c
                means.pop()
                counts.pop()


def interpreter(repeats: int = 1) -> float:
    """Seconds for interpreter-bound work (about 1 ms per repeat on the
    reference machine)."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _pav_sweeps()
    return time.perf_counter() - t0


def blas() -> float:
    """Seconds for four dense 1000x1000 matrix-vector products, with numpy's
    default BLAS threads (the dense half of a large Picard step)."""
    t0 = time.perf_counter()
    for _ in range(4):
        _MATRIX @ _VECTOR
    return time.perf_counter() - t0


def fresh_interpreter(cwd, env) -> float:
    """Seconds for a fresh interpreter to import numpy and scipy.optimize:
    the start-up work that dominates a mesoc-kit call."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize"],
                   cwd=cwd, env=env, capture_output=True, check=True)
    return time.perf_counter() - t0
