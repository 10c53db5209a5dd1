"""Entry strategies shared by the projection tests: scales, non-finite
values and entries near the float limit."""

import numpy as np
from hypothesis import strategies as st

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
