"""Property test: clustering commutes with reordering the score rows."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from benchlens.cluster import LINKAGES, build_dendrogram, cut_to_groups  # noqa: E402


@st.composite
def permuted_points(draw):
    """Random normal points (no exact ties), a reordering of them and a linkage."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, draw(st.integers(1, 4))))
    return points, draw(st.permutations(range(n))), draw(st.sampled_from(LINKAGES))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=permuted_points())
def test_clustering_is_permutation_equivariant(case):
    points, permutation, linkage = case
    labels = [f"w{i:02d}" for i in range(len(points))]
    base = build_dendrogram(points, labels, linkage)
    moved = build_dendrogram(points[list(permutation)], [labels[i] for i in permutation], linkage)
    assert [repr(m.height) for m in moved.merges] == [repr(m.height) for m in base.merges]
    for groups in range(1, len(points) + 1):
        assert cut_to_groups(moved, groups) == cut_to_groups(base, groups)
