"""Order statistics against the numpy calls they replay, and the k-subset chunks against `itertools`."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from benchlens.stats import BoxStats, subset_rows  # noqa: E402


def same(a: float, b: float) -> bool:
    """Equal bit for bit up to the NaN payload: -0.0 is not 0.0."""
    return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def same_quantile(a: float, b: float) -> bool:
    """`same`, but either zero for a zero: numpy's partition and a sort may order 0.0 and -0.0 differently."""
    return same(a, b) or a == b == 0.0


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(
        st.floats() | st.sampled_from([0.0, -0.0, 1.0, 2.0]) | st.floats(0.1, 10.0), min_size=1, max_size=40
    )
)
def test_box_stats_are_the_linear_percentiles_of_numpy(values):
    box = BoxStats.of(values)
    arr = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):  # inf - inf and overflowing differences warn in numpy only
        q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear").tolist()
        expected = (float(arr.min()), q1, median, q3, float(arr.max()))
    got = (box.minimum, box.q1, box.median, box.q3, box.maximum)
    both_zeros = len({math.copysign(1.0, v) for v in values if v == 0}) == 2
    assert all(map(same_quantile if both_zeros else same, got, expected)), (got, expected)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 16), k=st.integers(1, 6), chunk=st.integers(1, 80))
def test_subset_rows_are_the_combinations_in_chunks_of_at_least_chunk_and_fewer_than_chunk_plus_n(n, k, chunk):
    parts = list(subset_rows(n, k, chunk))
    assert [row for part in parts for row in part.tolist()] == [list(mix) for mix in combinations(range(n), k)]
    assert all(part.shape[1] == k and part.dtype == np.intp for part in parts)
    assert all(chunk <= len(part) < chunk + n for part in parts[:-1])
    assert not parts or 0 < len(parts[-1]) < chunk + n
