"""Reference Lorentz formulas: the cone's own closed forms.

These are the projection, membership slack and Lyapunov rank that
``mesoc_kit`` wrote out for ``lorentz(n)`` before it read the cone as
L(1, n - 1).  The ordered-cone path must give their bytes, signed zeros and
the rescale of an overflowed value included.  Its sampler is the Lorentz
branch of ``_reference_sampling.sample``.
"""

import math

import numpy as np

from mesoc_kit.cones import row_norms


def project(v):
    """The projection of the vector ``v`` = (h, r): v itself when h >= ||r||,
    the apex when h <= -||r||, else t = (h + ||r||)/2 and r scaled to t."""
    head, rest = v[0], v[1:]
    try:
        nr = math.sqrt(rest.dot(rest))
    except RuntimeWarning:  # an overflowed square sum under -W error
        nr = math.inf
    if head >= nr:
        return v.copy()
    if head <= -nr:
        return np.zeros_like(v)
    t = (head + nr) / 2.0
    if t == math.inf and np.isfinite(v).all():
        k = math.frexp(float(np.abs(v).max()))[1]
        return np.ldexp(project(np.ldexp(v, -k)), k)
    point = v * (t / nr)
    point[0] = t
    return point


def project_batch(V):
    """:func:`project` on every row of the 2-D ``V``, without the rescale."""
    head = V[:, 0]
    nr = row_norms(V[:, 1:])
    t = (head + nr) / 2.0
    out = V * np.divide(t, nr, out=np.zeros_like(nr), where=nr > 0.0)[:, None]
    out[:, 0] = t
    inside = head >= nr
    out[inside] = V[inside]
    out[head <= -nr] = 0.0
    return out


def slacks(Z):
    """The one membership slack h - ||r|| of every row of ``Z``."""
    return (Z[:, 0] - row_norms(Z[:, 1:]))[:, None]


def predicted_rank(n):
    """The Lyapunov rank of the second order cone in R^n."""
    return n * (n - 1) // 2 + 1
