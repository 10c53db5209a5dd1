"""Strategies shared by the tests: cones of every kind, and the projection
tests' entries (scales, non-finite values and entries near the float limit)."""

import numpy as np
from hypothesis import strategies as st

from mesoc_kit import cones
from mesoc_kit.cones import ConeSpec

NORM_KINDS = sorted(cones.PARTITIONED_KINDS - {cones.CYLINDER, cones.CYLINDER_DUAL})
BASE_KINDS = sorted(cones.KINDS - {cones.CYLINDER, cones.CYLINDER_DUAL})


def draw_cone(data, kind, depth=2):
    """A cone of ``kind``; a cylinder's inner cone may be a cylinder again,
    ``depth`` cylinders deep at most."""
    p = data.draw(st.integers(1, 4))
    if kind in (cones.CYLINDER, cones.CYLINDER_DUAL):
        kinds = sorted(cones.KINDS) if depth > 1 else BASE_KINDS
        inner = draw_cone(data, data.draw(st.sampled_from(kinds)), depth - 1)
        return ConeSpec(kind, p, inner.dim, inner)
    return ConeSpec(kind, p, data.draw(st.integers(0, 3)) if kind in NORM_KINDS else 0)


# entries of one row spread over 1e-3 to 1e6 in magnitude, so a row's small
# tail sits next to the large head of the row after it
MIXED_SCALES = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-10.0, 10.0, allow_nan=False),
    st.integers(-3, 5),
)

# entries from 1e-3 to 1e3 in magnitude, zeros included
MODERATE = st.one_of(
    st.just(0.0),
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(-10.0, 10.0, allow_nan=False), st.integers(-3, 2)),
)

NONFINITE = st.sampled_from([np.nan, np.inf, -np.inf])

# entries whose square sums, sums and pooled differences overflow
NEAR_LIMIT = st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                       st.floats(-1.7, 1.7, allow_nan=False), st.integers(300, 307))
