"""``sort_key`` is bitwise ``np.round`` on float64 arrays.

The key scales, ``rint``-s and divides in place of ``np.round``'s
dispatch; every bit must match, signed zeros, infinities, NaN and
values whose scaled form overflows included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms.base import sort_key

# Both sides overflow the same way when scaling values near the float max.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-10, -5e-10, 1.5e-9, 2.5e-9, 1e300, -1e300,
         np.finfo(float).max, np.finfo(float).tiny, 5e-324, 0.1 + 0.2, 1 / 3, 2**53 + 0.0]


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)),
    decimals=st.sampled_from([0, 3, 9]),
)
def test_sort_key_is_bitwise_round(values, decimals):
    np.testing.assert_array_equal(
        _bits(sort_key(values, decimals=decimals)), _bits(np.round(values, decimals))
    )


def test_edge_values():
    values = np.array(EDGES)
    np.testing.assert_array_equal(_bits(sort_key(values)), _bits(np.round(values, 9)))
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 10**6, 10**5) / 7.0 * 10.0 ** rng.integers(-12, 3, 10**5)
    np.testing.assert_array_equal(_bits(sort_key(grid)), _bits(np.round(grid, 9)))
