"""Agglomerative hierarchical clustering in PCA score space.

The merge tree is built with Lance-Williams distance updates over Euclidean
distances, for ward, average, complete and single linkage. Each merge takes
the pair of active clusters with the smallest key

    (height, low min-leaf, high min-leaf, low node id, high node id)

where a cluster's min-leaf is the lowest leaf index it contains and the two
min-leaves and node ids of a pair are put in ascending order. Two active
clusters never share a min-leaf, so the node ids never decide; the key makes
dendrograms reproducible across platforms.

The algorithm is the generic one (every merge updates the merged cluster's
distances to all others), run without approximation. The distance matrix is
built one score column at a time and summed in numpy's pairwise order, so it
holds the floats of the one-shot difference-cube formula without the cube.
Each row keeps its first minimum, so a merge is found in O(n) and only rows
whose minimum pointed at a merged cluster are searched again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import files
from .errors import TooFewRows, UnknownWorkload

LINKAGES = ("ward", "average", "complete", "single")
# Elements one block of rows may span: rows x n x d, whether as `medoid`'s
# difference cube or as `_distances`'s d passes over rows x n.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree over n leaves; merge t creates node n + t."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]
    linkage: str

    def __post_init__(self):
        n = len(self.leaves)
        if len(self.merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges for {n} leaves, got {len(self.merges)}")
        merged: set[int] = set()
        previous = 0.0
        for t, m in enumerate(self.merges):
            for node in (m.left, m.right):
                if node >= n + t or node in merged:
                    raise ValueError(f"merge {t} references invalid or reused node {node}")
                merged.add(node)
            if m.height < previous - 1e-9 * max(1.0, abs(previous)):
                raise ValueError("merge heights must be non-decreasing")
            previous = max(previous, m.height)

    @property
    def root_height(self) -> float:
        return self.merges[-1].height if self.merges else 0.0


def _lance_williams(linkage: str, d_ik, d_jk, d_ij: float, ni, nj, nk):
    """Distance from the merge of clusters i and j to every cluster k at once.

    The operand order of each formula is fixed: it decides the last bit of
    every later merge height.
    """
    if linkage == "single":
        return np.minimum(d_ik, d_jk)
    if linkage == "complete":
        return np.maximum(d_ik, d_jk)
    if linkage == "average":
        return (ni * d_ik + nj * d_jk) / (ni + nj)
    total = ni + nj + nk
    value = ((ni + nk) * d_ik * d_ik + (nj + nk) * d_jk * d_jk - nk * d_ij * d_ij) / total
    return np.sqrt(np.maximum(value, 0.0))


def _square_sum(square, start: int, stop: int) -> np.ndarray:
    """Sum of square(j) for j in [start, stop), added in numpy's pairwise order.

    This is the order `np.add.reduce` uses along a contiguous axis: one
    running sum below 8 terms, eight strided partial sums up to 128 terms
    (then the remainder one by one), and two halves, cut at a multiple of 8,
    above that. Each sum is therefore the float `(diffs * diffs).sum(axis=-1)`
    gives for the same terms.
    """
    count = stop - start
    if count < 8:
        total = square(start)
        for j in range(start + 1, stop):
            total += square(j)
        return total
    if count <= 128:
        partial = [square(start + j) for j in range(8)]
        end = stop - count % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                partial[j] += square(i + j)
        total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
            (partial[4] + partial[5]) + (partial[6] + partial[7])
        )
        for j in range(end, stop):
            total += square(j)
        return total
    half = count // 2
    half -= half % 8
    return _square_sum(square, start, start + half) + _square_sum(square, start + half, stop)


def _distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows, the floats of
    `np.sqrt((diffs * diffs).sum(axis=2))` over the n x n x d difference cube.

    The cube is never built: each block of rows takes one pass per score
    column, and the squares are summed in the order the cube's sum would use.
    """
    n, d = points.shape
    if d == 0:
        return np.zeros((n, n))
    dist = np.empty((n, n))
    columns = np.ascontiguousarray(points.T)
    rows = max(1, _BLOCK_ELEMENTS // points.size)
    for start in range(0, n, rows):
        block = columns[:, start:start + rows]

        def square(j: int) -> np.ndarray:
            diff = np.subtract.outer(block[j], columns[j])
            return np.multiply(diff, diff, out=diff)

        dist[start:start + rows] = np.sqrt(_square_sum(square, 0, d))
    return dist


def build_dendrogram(
    scores: np.ndarray | Sequence[Sequence[float]],
    labels: Sequence[str],
    linkage: str = "ward",
) -> Dendrogram:
    """Cluster rows of a score matrix under Euclidean distance.

    Raises ValueError on a NaN or infinite score, and on distances that
    overflow float64 (scores of magnitude near 1e154 and above).
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    points = np.asarray(scores, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if n < 2:
        raise TooFewRows("clustering needs at least 2 rows")
    if len(labels) != n:
        raise ValueError("labels must match the score rows")
    if not np.isfinite(points).all():
        raise ValueError("scores must be finite: a row holds NaN or an infinity")

    # Slot s holds the active cluster whose lowest leaf is s, so slots sort by
    # lowest leaf, and the first minimum of `dist` in row-major order is the
    # first pair in tie order. Pairs with an inactive slot, and the diagonal,
    # hold +inf. `nearest[s]` is the first minimum of row s, so that first
    # minimum is row a = argmin(nearest_dist), column nearest[a]. A retired
    # slot has size 0 (its +inf distances stay +inf under every update) and
    # nearest -1 (never refreshed). Overflow shows up as a non-finite merge
    # height, not a warning: a NaN in a new row is that row's first minimum.
    node = list(range(n))
    size = np.ones(n)  # float64 sizes: the same values the formulas saw as integers
    merges: list[Merge] = []
    with np.errstate(over="ignore", invalid="ignore"):
        dist = _distances(points)
        np.fill_diagonal(dist, np.inf)
        nearest = dist.argmin(axis=1)
        nearest_dist = dist[np.arange(n), nearest]
        for t in range(n - 1):
            a = int(nearest_dist.argmin())
            b = int(nearest[a])
            height = float(nearest_dist[a])
            if not math.isfinite(height):
                raise ValueError("merge distances overflow float64; scale the scores down")
            ni, nj = size[a], size[b]
            row = _lance_williams(linkage, dist[a], dist[b], height, ni, nj, size)
            row[a] = row[b] = np.inf
            dist[a] = dist[:, a] = row
            dist[b] = dist[:, b] = np.inf
            size[a], size[b] = ni + nj, 0.0
            left, right = sorted((node[a], node[b]))
            merges.append(Merge(left=left, right=right, height=height, size=int(ni + nj)))
            node[a] = n + t

            # Column a changed and column b is +inf in every row: a row whose
            # first minimum was at a or b is searched again, any other row
            # only compares its old minimum with its new entry at column a.
            stale = (nearest == a) | (nearest == b)
            closer = (row < nearest_dist) | ((row == nearest_dist) & (a < nearest))
            nearest[closer] = a
            nearest_dist[closer] = row[closer]
            nearest[b], nearest_dist[b] = -1, np.inf
            stale[b] = False
            stale = np.flatnonzero(stale)
            nearest[stale] = columns = dist[stale].argmin(axis=1)
            nearest_dist[stale] = dist[stale, columns]

    return Dendrogram(leaves=tuple(labels), merges=tuple(merges), linkage=linkage)


def _groups_from_merges(dendrogram: Dendrogram, merge_count: int) -> tuple[tuple[str, ...], ...]:
    n = len(dendrogram.leaves)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for t in range(merge_count):
        m = dendrogram.merges[t]
        members[n + t] = members.pop(m.left) + members.pop(m.right)
    groups = [tuple(sorted(dendrogram.leaves[i] for i in leaf_ids)) for leaf_ids in members.values()]
    return tuple(sorted(groups))


def cut(dendrogram: Dendrogram, threshold: float) -> tuple[tuple[str, ...], ...]:
    """Groups formed by the merges strictly below the threshold, each a sorted
    tuple of workload ids, in sorted order.

    Threshold 0 yields singletons; anything above the root height yields one
    group.
    """
    if not threshold >= 0:  # NaN too: it would cut below no merge
        raise ValueError("threshold must be >= 0")
    below = takewhile(lambda m: m.height < threshold, dendrogram.merges)
    return _groups_from_merges(dendrogram, sum(1 for _ in below))


def cut_to_groups(dendrogram: Dendrogram, target_groups: int) -> tuple[tuple[str, ...], ...]:
    """The groups of the cut that leaves exactly target_groups, as `cut` gives them."""
    n = len(dendrogram.leaves)
    if not 1 <= target_groups <= n:
        raise ValueError(f"target_groups must be in [1, {n}], got {target_groups}")
    return _groups_from_merges(dendrogram, n - target_groups)


def medoid(group: Iterable[str], scores: Mapping[str, Sequence[float]]) -> str:
    """The member with minimum mean distance to the rest; ties go to the
    lexicographically smallest workload id."""
    members = sorted(group)
    if not members:
        raise ValueError("medoid of an empty group")
    for w in members:
        if w not in scores:
            raise UnknownWorkload(f"no score row for workload {w!r}")
    if len(members) == 1:
        return members[0]
    points = np.array([scores[w] for w in members], dtype=float).reshape(len(members), -1)
    best_workload = members[0]
    best_mean = math.inf
    rows = max(1, _BLOCK_ELEMENTS // max(1, points.size))
    for start in range(0, len(members), rows):
        # each distance is np.linalg.norm's: the square root of one dot product of the difference row
        diffs = points[start:start + rows, None, :] - points[None, :, :]
        block = np.sqrt(np.matmul(diffs[..., None, :], diffs[..., :, None])[..., 0, 0])
        for w, row in zip(members[start:start + rows], block.tolist()):
            mean = sum(row) / (len(members) - 1)  # the distance to itself is 0.0 and leaves the sum as it is
            if mean < best_mean:
                best_mean = mean
                best_workload = w
    return best_workload


def export_merges_csv(dendrogram: Dendrogram, fh: TextIO) -> None:
    files.write_csv(
        fh,
        ["left", "right", "height", "size"],
        (f"{m.left},{m.right},{m.height!r},{m.size}\n" for m in dendrogram.merges),
    )
