from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from benchlens import cluster
from benchlens.cluster import (
    LINKAGES,
    build_dendrogram,
    cut,
    cut_to_groups,
    export_merges_csv,
    medoid,
)
from benchlens.errors import TooFewRows, UnknownWorkload
from benchlens.render import dendrogram_svg
from conftest import write_file
from oracles import exhaustive_medoid, loop_linkage, loop_medoid, naive_linkage

COLLINEAR = np.array([[0.0], [1.0], [10.0]])


def merge_rows(dendrogram):
    return [(m.left, m.right, repr(m.height), m.size) for m in dendrogram.merges]


def replayed_groups(linkage_matrix, labels, merge_count):
    """Groups after the first merge_count rows of a scipy linkage matrix."""
    n = len(labels)
    members = {i: [labels[i]] for i in range(n)}
    for t in range(merge_count):
        left, right = int(linkage_matrix[t, 0]), int(linkage_matrix[t, 1])
        members[n + t] = members.pop(left) + members.pop(right)
    return tuple(sorted(tuple(sorted(group)) for group in members.values()))


class TestBuildDendrogram:
    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_two_leaves_merge_at_their_distance(self, linkage):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        dendrogram = build_dendrogram(points, ["a", "b"], linkage)
        (merge,) = dendrogram.merges
        assert merge.height == pytest.approx(5.0)
        assert (merge.left, merge.right, merge.size) == (0, 1, 2)

    def test_three_collinear_points_single_linkage(self):
        dendrogram = build_dendrogram(COLLINEAR, ["p0", "p1", "p10"], "single")
        first, second = dendrogram.merges
        assert (first.left, first.right) == (0, 1)
        assert first.height == pytest.approx(1.0)
        assert second.height == pytest.approx(9.0)
        assert second.size == 3

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_naive_oracle(self, linkage):
        rng = np.random.default_rng(113)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            points = rng.normal(size=(n, 3))
            dendrogram = build_dendrogram(points, [f"w{i}" for i in range(n)], linkage)
            expected = naive_linkage(points, linkage)
            for merge, (left, right, height, size) in zip(dendrogram.merges, expected):
                assert (merge.left, merge.right, merge.size) == (left, right, size)
                assert merge.height == pytest.approx(height, abs=1e-10)

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_heights_non_decreasing(self, linkage):
        rng = np.random.default_rng(127)
        points = rng.normal(size=(10, 4))
        dendrogram = build_dendrogram(points, [f"w{i}" for i in range(10)], linkage)
        heights = [m.height for m in dendrogram.merges]
        assert heights == sorted(heights)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(131)
        points = rng.normal(size=(8, 3))
        labels = [f"w{i}" for i in range(8)]
        dendrogram = build_dendrogram(points, labels, "ward")
        permutation = rng.permutation(8)
        permuted = build_dendrogram(
            points[permutation], [labels[i] for i in permutation], "ward"
        )
        assert sorted(m.height for m in dendrogram.merges) == pytest.approx(
            sorted(m.height for m in permuted.merges)
        )
        for threshold in (0.5, 1.0, 2.0, 3.0):
            assert cut(dendrogram, threshold) == cut(permuted, threshold)

    def test_tie_break_prefers_lowest_leaf(self):
        # unit square: all four nearest-neighbor edges have length 1
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        dendrogram = build_dendrogram(points, ["a", "b", "c", "d"], "single")
        first = dendrogram.merges[0]
        assert (first.left, first.right) == (0, 1)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            build_dendrogram(np.zeros((1, 2)), ["a"])

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_loop_referee_bit_for_bit(self, linkage):
        # every odd instance lies on a half-unit grid, where many candidate
        # pairs share a height, so the tie order decides merges
        rng = np.random.default_rng(197)
        tied = 0
        for i in range(200):
            n = int(rng.integers(2, 61))
            points = rng.normal(size=(n, int(rng.integers(1, 4))))
            if i % 2:
                points = np.round(points * 2.0) / 2.0
            dendrogram = build_dendrogram(points, [f"w{j}" for j in range(n)], linkage)
            expected = [
                (left, right, repr(height), size)
                for left, right, height, size in loop_linkage(points, linkage)
            ]
            assert merge_rows(dendrogram) == expected
            heights = [m.height for m in dendrogram.merges]
            tied += len(heights) - len(set(heights))
        assert tied > 200

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_blocked_distances_match_loop_referee_bit_for_bit(self, linkage, monkeypatch):
        # 300 cube elements: from one row of the distance matrix per block to all rows, the last block often short
        monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", 300)
        rng = np.random.default_rng(211)
        for i in range(40):
            n = int(rng.integers(2, 61))
            points = rng.normal(size=(n, int(rng.integers(1, 11))))
            if i % 2:
                points = np.round(points * 2.0) / 2.0
            dendrogram = build_dendrogram(points, [f"w{j}" for j in range(n)], linkage)
            assert merge_rows(dendrogram) == [
                (left, right, repr(height), size) for left, right, height, size in loop_linkage(points, linkage)
            ]

    @pytest.mark.parametrize("block_elements", [300, cluster._BLOCK_ELEMENTS])
    def test_distances_sum_squares_in_numpys_order(self, block_elements, monkeypatch):
        # d = 1..300 crosses the 8- and 128-term thresholds of numpy's pairwise
        # sum; if numpy changes that order, this fails before any merge moves
        monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(227)
        for d in range(1, 301):
            points = rng.normal(size=(9, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=d)
            if d % 2:
                points = np.round(points * 2.0) / 2.0
            diffs = points[:, None, :] - points[None, :, :]
            expected = np.sqrt((diffs * diffs).sum(axis=2))
            assert cluster._distances(points).tobytes() == expected.tobytes(), f"d = {d}"

    def test_distances_of_many_rows_take_memory_quadratic_in_rows(self):
        # n x n x d would be 160 MB here; the distance matrix alone is 8 MB
        n, d = 1000, 10
        points = np.random.default_rng(223).normal(size=(n, d))
        tracemalloc.start()
        try:
            dendrogram = build_dendrogram(points, [f"w{j}" for j in range(n)], "ward")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8
        assert len(dendrogram.merges) == n - 1
        # the referee is cubic in Python, so its merges are compared at n = 200, in two blocks of rows
        small = points[:200]
        assert 200 * small.size > cluster._BLOCK_ELEMENTS
        assert merge_rows(build_dendrogram(small, [f"w{j}" for j in range(200)], "ward")) == [
            (left, right, repr(height), size) for left, right, height, size in loop_linkage(small, "ward")
        ]

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_scipy_heights_and_partitions(self, linkage):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(199)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            points = rng.normal(size=(n, 3))
            labels = [f"w{i:02d}" for i in range(n)]
            ours = build_dendrogram(points, labels, linkage)
            theirs = hierarchy.linkage(points, method=linkage, metric="euclidean")
            assert sorted(m.height for m in ours.merges) == pytest.approx(sorted(theirs[:, 2]), rel=1e-12)
            for groups in range(1, n + 1):
                assert cut_to_groups(ours, groups) == replayed_groups(theirs, labels, n - groups)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_are_rejected(self, bad):
        points = np.array([[0.0, 1.0], [2.0, bad], [3.0, 4.0]])
        for linkage in LINKAGES:
            with pytest.raises(ValueError, match="finite"):
                build_dendrogram(points, ["a", "b", "c"], linkage)

    def test_overflowing_distances_are_rejected(self):
        # the first merge is at height 1; every distance to 1e160 overflows
        points = np.array([[0.0], [1.0], [1e160]])
        for linkage in LINKAGES:
            with pytest.raises(ValueError, match="overflow"):
                build_dendrogram(points, ["a", "b", "c"], linkage)


class TestCut:
    def make(self):
        return build_dendrogram(COLLINEAR, ["p0", "p1", "p10"], "single")

    def test_zero_threshold_gives_singletons(self):
        assert cut(self.make(), 0.0) == (("p0",), ("p1",), ("p10",))

    def test_above_root_gives_one_group(self):
        dendrogram = self.make()
        assert cut(dendrogram, dendrogram.root_height + 1.0) == (("p0", "p1", "p10"),)

    def test_mid_threshold(self):
        assert cut(self.make(), 5.0) == (("p0", "p1"), ("p10",))

    def test_cut_to_groups_exact_counts(self):
        dendrogram = self.make()
        assert len(cut_to_groups(dendrogram, 1)) == 1
        assert len(cut_to_groups(dendrogram, 2)) == 2
        assert cut_to_groups(dendrogram, 3) == (("p0",), ("p1",), ("p10",))

    def test_monotone_nesting_over_thresholds(self):
        rng = np.random.default_rng(137)
        points = rng.normal(size=(9, 3))
        dendrogram = build_dendrogram(points, [f"w{i}" for i in range(9)], "average")
        thresholds = np.linspace(0.0, dendrogram.root_height * 1.05, 20)
        previous = None
        for threshold in thresholds:
            groups = cut(dendrogram, float(threshold))
            if previous is not None:
                assert len(groups) <= len(previous)
                for group in previous:
                    assert any(set(group) <= set(larger) for larger in groups)
            previous = groups


class TestMedoid:
    def test_singleton(self):
        assert medoid(["only"], {"only": [1.0, 2.0]}) == "only"

    def test_three_collinear_points(self):
        scores = {"p0": [0.0], "p1": [1.0], "p10": [10.0]}
        # mean distances: p1 -> 5.0, p0 -> 5.5, p10 -> 9.5
        assert medoid(["p0", "p1", "p10"], scores) == "p1"

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            scores = {f"w{i:02d}": list(rng.normal(size=4)) for i in range(12)}
            assert medoid(list(scores), scores) == exhaustive_medoid(list(scores), scores)

    @pytest.mark.parametrize("block_elements", [None, 7])
    def test_matches_loop_referee_bit_for_bit(self, block_elements, monkeypatch):
        # A third of the groups are integer lattice points, where many members share a mean
        # distance, so the first member in id order must win every tie. Another third are the
        # cyclic shifts of one vector: their mean distances are equal in exact arithmetic, so
        # the member chosen depends on the last bit of every distance.
        if block_elements is not None:  # from one row of distances per block to several, the last one short
            monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(223)
        tied = 0
        for i in range(150):
            m, d = int(rng.integers(2, 40)), int(rng.integers(1, 172 if i % 9 == 0 else 6))
            if i % 3 == 0:
                points = rng.normal(size=(m, d)) * 10.0 ** int(rng.integers(-3, 4))
            elif i % 3 == 1:
                points = rng.integers(-2, 3, size=(m, d)).astype(float)
            else:
                vector = rng.normal(size=m + 1)
                points = np.array([np.roll(vector, shift) for shift in range(m)])
            scores = {f"w{j:02d}": list(row) for j, row in enumerate(points.tolist())}
            members = list(rng.permutation(list(scores)))
            assert medoid(members, scores) == loop_medoid(members, scores)
            means = [sum(math.dist(a, b) for b in points.tolist()) for a in points.tolist()]
            tied += len(means) - len(set(means))
        assert tied > 50

    def test_tie_breaks_lexicographically(self):
        scores = {"b": [1.0, 0.0], "a": [-1.0, 0.0], "center": [0.0, 0.0], "z": [0.0, 77.0]}
        # a and b are symmetric around center; restrict to the symmetric pair
        assert medoid(["b", "a"], scores) == "a"

    def test_isometry_invariance(self):
        rng = np.random.default_rng(149)
        points = {f"w{i}": rng.normal(size=3) for i in range(9)}
        base = medoid(list(points), {k: list(v) for k, v in points.items()})
        random_matrix = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(random_matrix)
        shift = rng.normal(size=3)
        moved = {k: list(q @ v + shift) for k, v in points.items()}
        assert medoid(list(points), moved) == base

    def test_unknown_workload(self):
        with pytest.raises(UnknownWorkload):
            medoid(["ghost"], {"w": [0.0]})

    def test_medoids_for_cut(self):
        dendrogram = build_dendrogram(COLLINEAR, ["p0", "p1", "p10"], "single")
        scores = {"p0": [0.0], "p1": [1.0], "p10": [10.0]}
        medoids = tuple(medoid(group, scores) for group in cut(dendrogram, 5.0))
        assert medoids == ("p0", "p10")  # {p0,p1} tie at distance 1 -> lexicographic


class TestExports:
    def test_merges_csv(self, tmp_path):
        dendrogram = build_dendrogram(COLLINEAR, ["p0", "p1", "p10"], "single")
        path = tmp_path / "merges.csv"
        write_file(path, export_merges_csv, dendrogram)
        lines = path.read_text().splitlines()
        assert lines[0] == "left,right,height,size"
        assert lines[1].startswith("0,1,")

    def test_svg_is_deterministic_and_labeled(self):
        rng = np.random.default_rng(151)
        points = rng.normal(size=(6, 2))
        labels = [f"wl{i}" for i in range(6)]
        a = dendrogram_svg(build_dendrogram(points, labels, "ward"))
        b = dendrogram_svg(build_dendrogram(points, labels, "ward"))
        assert a == b
        assert a.startswith("<svg ")
        for label in labels:
            assert label in a

    def test_ward_height_is_euclidean_for_singletons(self):
        points = np.array([[0.0], [2.0]])
        for linkage in LINKAGES:
            dendrogram = build_dendrogram(points, ["a", "b"], linkage)
            assert dendrogram.merges[0].height == pytest.approx(2.0)
        # and the ward closed form for the 3-point second merge
        dendrogram = build_dendrogram(COLLINEAR, ["p0", "p1", "p10"], "ward")
        merged_mean = 0.5
        expected = math.sqrt(2 * 2 * 1 / 3) * abs(10.0 - merged_mean)
        assert dendrogram.merges[1].height == pytest.approx(expected, abs=1e-10)
