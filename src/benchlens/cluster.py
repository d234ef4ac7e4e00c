"""Agglomerative hierarchical clustering in PCA score space.

The merge tree is built with Lance-Williams distance updates over Euclidean
distances, for ward, average, complete and single linkage. Each merge takes
the pair of active clusters with the smallest key

    (height, low min-leaf, high min-leaf, low node id, high node id)

where a cluster's min-leaf is the lowest leaf index it contains and the two
min-leaves and node ids of a pair are put in ascending order. Two active
clusters never share a min-leaf, so the node ids never decide; the key makes
dendrograms reproducible across platforms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import TooFewRows, UnknownWorkload

LINKAGES = ("ward", "average", "complete", "single")
_BLOCK_ELEMENTS = 1 << 18  # size of the difference cube of one block of rows of the distance matrix


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


@dataclass(frozen=True)
class ClusterCut:
    threshold: float | None
    groups: tuple[tuple[str, ...], ...]
    medoids: tuple[str, ...] | None = None

    def __post_init__(self):
        seen: set[str] = set()
        for group in self.groups:
            for w in group:
                if w in seen:
                    raise ValueError(f"workload {w!r} appears in two groups")
                seen.add(w)
        if self.medoids is not None:
            for medoid, group in zip(self.medoids, self.groups):
                if medoid not in group:
                    raise ValueError(f"medoid {medoid!r} is not a member of its group")


def _lance_williams(linkage: str, d_ik, d_jk, d_ij: float, ni: int, nj: int, nk):
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
    # hold +inf. Overflow shows up as a non-finite merge height, not a warning.
    node = list(range(n))
    size = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    merges: list[Merge] = []
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.empty((n, n))
        rows = max(1, _BLOCK_ELEMENTS // max(1, points.size))
        for start in range(0, n, rows):  # each distance is reduced over the same length-d axis
            diffs = points[start:start + rows, None, :] - points[None, :, :]
            dist[start:start + rows] = np.sqrt((diffs * diffs).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        for t in range(n - 1):
            a, b = divmod(int(np.argmin(dist)), n)
            height = float(dist[a, b])
            if not math.isfinite(height):
                raise ValueError("merge distances overflow float64; scale the scores down")
            ni, nj = int(size[a]), int(size[b])
            active[a] = active[b] = False
            others = np.flatnonzero(active)
            row = _lance_williams(linkage, dist[a, others], dist[b, others], height, ni, nj, size[others])
            dist[b, :] = dist[:, b] = np.inf
            dist[a, others] = dist[others, a] = row
            active[a] = True
            left, right = sorted((node[a], node[b]))
            merges.append(Merge(left=left, right=right, height=height, size=ni + nj))
            node[a] = n + t
            size[a] = ni + nj

    return Dendrogram(leaves=tuple(labels), merges=tuple(merges), linkage=linkage)


def _groups_from_merges(dendrogram: Dendrogram, merge_count: int) -> tuple[tuple[str, ...], ...]:
    n = len(dendrogram.leaves)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for t in range(merge_count):
        m = dendrogram.merges[t]
        members[n + t] = members.pop(m.left) + members.pop(m.right)
    groups = [tuple(sorted(dendrogram.leaves[i] for i in leaf_ids)) for leaf_ids in members.values()]
    return tuple(sorted(groups))


def cut(dendrogram: Dendrogram, threshold: float) -> ClusterCut:
    """Groups formed by the merges strictly below the threshold.

    Threshold 0 yields singletons; anything above the root height yields one
    group.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    count = 0
    for m in dendrogram.merges:
        if m.height < threshold:
            count += 1
        else:
            break
    return ClusterCut(threshold=threshold, groups=_groups_from_merges(dendrogram, count))


def cut_to_groups(dendrogram: Dendrogram, target_groups: int) -> ClusterCut:
    """Cut so that exactly target_groups groups remain."""
    n = len(dendrogram.leaves)
    if not 1 <= target_groups <= n:
        raise ValueError(f"target_groups must be in [1, {n}], got {target_groups}")
    return ClusterCut(threshold=None, groups=_groups_from_merges(dendrogram, n - target_groups))


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
    points = {w: np.asarray(scores[w], dtype=float) for w in members}
    best_workload = members[0]
    best_mean = math.inf
    for w in members:
        distances = [float(np.linalg.norm(points[w] - points[other])) for other in members if other != w]
        mean = sum(distances) / len(distances)
        if mean < best_mean:
            best_mean = mean
            best_workload = w
    return best_workload


def medoids_for(cut_result: ClusterCut, scores: Mapping[str, Sequence[float]]) -> ClusterCut:
    meds = tuple(medoid(group, scores) for group in cut_result.groups)
    return ClusterCut(threshold=cut_result.threshold, groups=cut_result.groups, medoids=meds)


def export_merges_csv(dendrogram: Dendrogram, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["left", "right", "height", "size"])
        for m in dendrogram.merges:
            writer.writerow([m.left, m.right, repr(m.height), m.size])
