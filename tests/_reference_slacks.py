"""Reference membership slacks: one branch per cone kind.

These are the formulas ``mesoc_kit.cones`` used before it derived the slacks
from its factor table.  Every slack's bytes and its column order are the
contract: ``contains`` reports print the slacks, and ``check isotone``'s
``failed_inequality`` indexes them.  The helpers (``row_norms``,
``_by_rows``, ``_columns``, ``ordered_form``) are the kit's own, which this
file does not pin.
"""

import numpy as np

from mesoc_kit import cones
from mesoc_kit.cones import _by_rows, _columns, ordered_form, row_norms

FREE, ZERO = "free", "zero"  # R and {0}
_PRIMAL_TAILS = {cones.MESOC: cones.LORENTZ, cones.MONOTONE_NONNEG: cones.LORENTZ,
                 cones.MONOTONE: FREE}
TAILS = {**_PRIMAL_TAILS, cones.MESOC_DUAL: cones.LORENTZ,
         cones.MONOTONE_NONNEG_DUAL: cones.LORENTZ, cones.MONOTONE_DUAL: ZERO}


def reduced_coordinates(kind, X):
    """The drops x_i - x_{i+1} and x_p of the rows of ``X`` (a primal ordered
    kind), or their partial sums (a dual one), in a new column-major array."""
    R = np.empty(X.shape, order="F")
    if kind not in _PRIMAL_TAILS:
        return np.cumsum(X, axis=1, out=R)
    np.subtract(X[:, :-1], X[:, 1:], out=R[:, :-1], order="F")
    R[:, -1] = X[:, -1]
    return R


def _lorentz_tail(R, U):
    if U.shape[1]:
        R[:, -1] -= row_norms(U)
    return R


_TAIL_SLACKS = {
    cones.LORENTZ: _lorentz_tail,
    FREE: lambda R, U: R[:, :-1],
    ZERO: lambda R, U: _columns(R, -R[:, -1]),
}


def slacks_batch(cone, Z):
    """Membership slacks of every row of ``Z``, one column per inequality,
    in a column-major matrix."""
    kind, p, _ = ordered_form(cone)
    X, U = Z[:, :p], Z[:, p:]
    if kind in TAILS:
        return _TAIL_SLACKS[TAILS[kind]](reduced_coordinates(kind, X), U)
    if kind == cones.ESOC:
        return _by_rows(np.subtract, X, row_norms(U), np.empty(X.shape, order="F"))
    if kind == cones.ESOC_DUAL:
        return _columns(X, X.sum(axis=1) - row_norms(U))
    if kind == cones.NONNEG_ORTHANT:
        return _columns(X)
    if kind == cones.CYLINDER:
        return slacks_batch(cone.inner, U)
    return _columns(X, -X, slacks_batch(cone.inner, U))
