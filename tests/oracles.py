"""Independent reference implementations used only to check the library.

Each oracle recomputes a result through a different route than the library
(raw-definition cluster distances instead of Lance-Williams updates, a
per-pair Python scan instead of one array minimum per merge,
covariance eigendecomposition instead of SVD, plain-loop moments, log-domain
geometric means, one RRR simulation per proxy mix instead of arrays over all
mixes, per-event and per-metric loops instead of one array pass per law,
a lexsort over every key of a ranking instead of a stable sort that repairs ties,
per-row counter objects instead of a columnar store, one MetricVector per
run read back one metric at a time instead of one metric array, a per-field
loop of the metric bounds instead of one array pass, one constructor over
the cells of both stores instead of an array join, csv.writer rows instead
of joined lines, one norm per pair instead of one array pass per group, one
repr per float instead of one orjson call per chunk of rows), so agreement
is meaningful.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, combinations
from math import comb

import numpy as np

from benchlens import files
from benchlens.compare import MetricComparison, SuiteComparison
from benchlens.dataset import SCORES_HEADER, STORE_HEADER, Store, _csv_rows, read_store
from benchlens.errors import (
    BudgetExceeded, DuplicateKey, EmptyInput, EmptySuite, MissingCell, MissingDenominator, NoCommonMetrics,
    SchemaMismatch, UnknownWorkload, ZeroHorizon,
)
from benchlens.events import METRIC_DEFS, METRIC_NAMES
from benchlens.features import FeatureMatrix
from benchlens.metrics import BOUNDED_SHARES, MetricVector
from benchlens.stats import BoxStats, positive_geomean
from benchlens.proxy import BlendProfile, DistanceReport, RankedMixes, RrrSchedule, WorkloadProfile
from benchlens.subset import _accuracies, _suite_geomeans


def naive_linkage(points: np.ndarray, linkage: str):
    """O(n^3) agglomerative clustering computing every inter-cluster distance
    directly from the raw points per the linkage definition.

    Returns a list of (left_node, right_node, height, size) with the same node
    numbering and tie-breaking convention as the library: ties on height go to
    the pair containing the lowest leaf index, then the lowest on the other
    side.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []

    def distance(a: list[int], b: list[int]) -> float:
        pair_dists = [
            float(np.linalg.norm(points[i] - points[j])) for i in a for j in b
        ]
        if linkage == "single":
            return min(pair_dists)
        if linkage == "complete":
            return max(pair_dists)
        if linkage == "average":
            return sum(pair_dists) / len(pair_dists)
        if linkage == "ward":
            mean_a = points[a].mean(axis=0)
            mean_b = points[b].mean(axis=0)
            factor = 2.0 * len(a) * len(b) / (len(a) + len(b))
            return math.sqrt(factor) * float(np.linalg.norm(mean_a - mean_b))
        raise ValueError(linkage)

    for t in range(n - 1):
        best = None
        for ida, idb in combinations(sorted(clusters), 2):
            low, high = sorted((min(clusters[ida]), min(clusters[idb])))
            key = (distance(clusters[ida], clusters[idb]), low, high, min(ida, idb), max(ida, idb))
            if best is None or key < best[0]:
                best = (key, ida, idb)
        key, ida, idb = best
        new_id = n + t
        clusters[new_id] = clusters.pop(min(ida, idb)) + clusters.pop(max(ida, idb))
        merges.append((min(ida, idb), max(ida, idb), key[0], len(clusters[new_id])))
    return merges


def loop_linkage(points: np.ndarray, linkage: str):
    """The per-pair loop that `cluster.build_dendrogram` replaced.

    Lance-Williams updates over a (2n-1)^2 distance matrix, one Python
    comparison of (height, low min-leaf, high min-leaf, low node id, high
    node id) tuples per active pair and merge, and scalar updates with the
    same operand order. Returns (left, right, height, size) per merge.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    total_nodes = 2 * n - 1
    dist = np.zeros((total_nodes, total_nodes))
    diffs = points[:, None, :] - points[None, :, :]
    dist[:n, :n] = np.sqrt((diffs * diffs).sum(axis=2))
    size = [1] * n + [0] * (n - 1)
    min_leaf = list(range(n)) + [0] * (n - 1)
    active = list(range(n))
    merges = []

    def update(d_ik, d_jk, d_ij, ni, nj, nk):
        if linkage == "single":
            return min(d_ik, d_jk)
        if linkage == "complete":
            return max(d_ik, d_jk)
        if linkage == "average":
            return (ni * d_ik + nj * d_jk) / (ni + nj)
        total = ni + nj + nk
        value = ((ni + nk) * d_ik * d_ik + (nj + nk) * d_jk * d_jk - nk * d_ij * d_ij) / total
        return math.sqrt(max(value, 0.0))

    for t in range(n - 1):
        best = None
        for a_pos in range(len(active)):
            for b_pos in range(a_pos + 1, len(active)):
                a, b = active[a_pos], active[b_pos]
                low, high = sorted((min_leaf[a], min_leaf[b]))
                candidate = (dist[a, b], low, high, min(a, b), max(a, b))
                if best is None or candidate < best:
                    best = candidate
        height, _, _, left, right = best
        new = n + t
        size[new] = size[left] + size[right]
        min_leaf[new] = min(min_leaf[left], min_leaf[right])
        active.remove(left)
        active.remove(right)
        for other in active:
            dist[new, other] = dist[other, new] = update(
                dist[left, other], dist[right, other], dist[left, right],
                size[left], size[right], size[other],
            )
        active.append(new)
        merges.append((left, right, float(height), size[new]))
    return merges


def covariance_eig_pca(values: np.ndarray):
    """PCA by eigendecomposition of the (n-1)-denominator covariance matrix.

    Returns eigenvalues sorted descending and the matching eigenvectors as
    rows (sign not normalized).
    """
    values = np.asarray(values, dtype=float)
    cov = np.cov(values, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], eigenvectors[:, order].T


def reconstruct(model, scores: np.ndarray) -> np.ndarray:
    """The normalized rows whose PCA scores are `scores`: exact when the model keeps every component."""
    return np.asarray(scores, dtype=float) @ model.components + model.mean


def loop_moments(column) -> tuple[float, float]:
    """Mean and population standard deviation via plain accumulation loops."""
    total = 0.0
    for v in column:
        total += v
    mean = total / len(column)
    squares = 0.0
    for v in column:
        squares += (v - mean) ** 2
    return mean, math.sqrt(squares / len(column))


def log_geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def accuracy_of(scores_one_machine: dict[str, float], chosen) -> float:
    gm_suite = log_geomean(list(scores_one_machine.values()))
    gm_subset = log_geomean([scores_one_machine[w] for w in chosen])
    return 1.0 - abs(gm_subset - gm_suite) / gm_suite


def best_subset_recursive(scores_one_machine: dict[str, float], k: int):
    """Second, independently coded exhaustive subset search (single machine).

    Recursion instead of itertools, log-domain geometric means, same
    lexicographic tie-breaking.
    """
    workloads = sorted(scores_one_machine)
    best = {"subset": None, "accuracy": -math.inf}

    def recurse(start: int, chosen: list[str]) -> None:
        if len(chosen) == k:
            acc = accuracy_of(scores_one_machine, chosen)
            if acc > best["accuracy"]:
                best["subset"] = tuple(chosen)
                best["accuracy"] = acc
            return
        for i in range(start, len(workloads)):
            if len(workloads) - i < k - len(chosen):
                break
            chosen.append(workloads[i])
            recurse(i + 1, chosen)
            chosen.pop()

    recurse(0, [])
    return best["subset"], best["accuracy"]


def loop_best_subset(scores: dict[str, dict[str, float]], k: int):
    """The per-candidate loop that `subset.oracle_best_subset` replaced.

    One `_accuracies` call per size-k subset in lexicographic order, keeping
    the first maximum. Returns (None, -inf) when no subset has a defined
    aggregate.
    """
    workloads = sorted(next(iter(scores.values())))
    suite_geomeans = _suite_geomeans(scores)
    best_subset, best_value = None, -math.inf
    for candidate in combinations(workloads, k):
        _, aggregate = _accuracies(scores, candidate, suite_geomeans)
        value = aggregate if aggregate is not None else -math.inf
        if value > best_value:
            best_subset, best_value = candidate, value
    return best_subset, best_value


def exhaustive_medoid(group, scores: dict[str, list[float]]) -> str:
    """Argmin over full pairwise-distance sums, lexicographic tie-break."""
    members = sorted(group)
    best_w, best_total = None, math.inf
    for w in members:
        total = 0.0
        for other in members:
            if other == w:
                continue
            total += math.dist(scores[w], scores[other])
        if total < best_total:
            best_w, best_total = w, total
    return best_w


# The per-event and per-metric loops that `proxy` replaced with one array pass
# per law, and the per-mix search built on them.


def metric_bounds(values: Mapping[str, float | None]) -> None:
    """The per-field loop `MetricVector.__post_init__` ran before `metrics._first_broken`.

    Raises the ValueError of the first bound `values` (metric -> value, None
    for unavailable) breaks: a metric not finite and >= 0, a bounded share
    above 100, then kernel_pct + user_pct off 100 by more than 1e-6.
    """
    for name in METRIC_NAMES:
        v = values.get(name)
        if v is None:
            continue
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if name in BOUNDED_SHARES and v > 100.0:
            raise ValueError(f"{name} must be <= 100, got {v!r}")
    kernel, user = values.get("kernel_pct"), values.get("user_pct")
    if kernel is not None and user is not None and abs(kernel + user - 100.0) > 1e-6:
        raise ValueError(f"kernel_pct + user_pct must equal 100, got {kernel + user!r}")


def metric_values(key, counts: Mapping[str, float]) -> dict[str, float | None]:
    """Metric -> value (None for unavailable) of one run's or blend's supported event counts, one metric at a time.

    Fails as `metrics.derive_rows` does: on an infinite count, then without
    positive instructions and cycles, then by `metric_bounds`.
    """
    for _, value in sorted(counts.items()):
        if not 0 <= value < math.inf:
            raise ValueError(f"counter value must be finite and >= 0, got {value!r}")
    if not (counts.get("instructions", 0.0) > 0 and counts.get("cycles", 0.0) > 0):
        raise MissingDenominator(f"run {key} lacks positive instructions/cycles counts")
    values = {}
    for metric, (num_event, den_event, scale) in METRIC_DEFS.items():
        num, den = counts.get(num_event), counts.get(den_event)
        values[metric] = None if num is None or den is None or not den > 0 else scale * num / den
    metric_bounds(values)
    return values


def loop_simulate_rrr(profiles: Sequence[WorkloadProfile], schedule: RrrSchedule) -> BlendProfile:
    """The per-event dict loop that `proxy.simulate_rrr` replaced.

    Accumulate event totals of the staggered mix over the horizon.

    Only events present in every scheduled profile contribute; a partial sum
    over a subset of constituents would misstate the blend.
    """
    by_name = {p.workload: p for p in profiles}
    missing = [w for w in schedule.order if w not in by_name]
    if missing:
        raise UnknownWorkload(f"schedule references unknown workloads: {missing}")
    sequence = [by_name[w] for w in schedule.order]
    period = sum(p.duration for p in sequence)

    horizon = schedule.horizon if schedule.horizon is not None else period
    if horizon <= 0:
        raise ZeroHorizon(f"horizon must be positive, got {horizon!r}")
    if horizon < period * (1 - 1e-12):
        raise ValueError(f"horizon {horizon} is shorter than one full period {period}")

    if schedule.offsets is not None:
        offsets = schedule.offsets
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if any(o < 0 or o >= period for o in offsets):
            raise ValueError(f"offsets must lie in [0, period={period})")
    else:
        offsets = tuple(i * period / schedule.copies for i in range(schedule.copies))

    events = set(sequence[0].rates)
    for p in sequence[1:]:
        events &= set(p.rates)
    boundaries = []
    start = 0.0
    for p in sequence:
        boundaries.append((start, start + p.duration, p))
        start += p.duration

    totals = {event: 0.0 for event in sorted(events)}
    busy_time = {p.workload: 0.0 for p in sequence}
    for offset in offsets:
        elapsed = 0.0
        position = offset % period
        while elapsed < horizon - 1e-12 * horizon:
            for seg_start, seg_end, profile in boundaries:
                if seg_start - 1e-12 <= position < seg_end:
                    step = min(seg_end - position, horizon - elapsed)
                    for event in totals:
                        totals[event] += profile.rates[event] * step
                    busy_time[profile.workload] += step
                    elapsed += step
                    position += step
                    break
            else:
                raise AssertionError(f"position {position} fell outside the period")
            if position >= period - 1e-12 * max(period, 1.0):
                position = 0.0

    total_time = schedule.copies * horizon
    shares = {w: t / total_time for w, t in sorted(busy_time.items())}
    return BlendProfile(
        metrics=MetricVector(**metric_values(("rrr", "+".join(schedule.order), "blend"), totals)),
        time_shares=shares,
        totals=totals,
        copies=schedule.copies,
        horizon=horizon,
    )


def loop_blend_distance(
    blend: BlendProfile | MetricVector,
    target: MetricVector,
    weights: Mapping[str, float],
    *,
    scales: Mapping[str, tuple[float, float]] | None = None,
) -> DistanceReport:
    """The scalar loop that `proxy.blend_distance` replaced.

    Weighted L2 distance over z-scored metric differences.

    `scales` supplies per-metric (mean, stdev) normalization state, such as a
    pool's population moments; without it raw differences are used. Metrics
    with zero weight, missing on either side, or z-scaled by a zero stdev are
    excluded; a NaN or infinite stdev raises ValueError.
    """
    blend_metrics = blend.metrics if isinstance(blend, BlendProfile) else blend
    squared = 0.0
    gaps: dict[str, float] = {}
    used: list[str] = []
    for metric in METRIC_NAMES:
        weight = weights.get(metric, 0.0)
        if not 0 <= weight < math.inf:  # a NaN distance would leave the ranking undefined
            raise ValueError(f"weight for {metric!r} must be finite and >= 0, got {weight!r}")
        if scales is not None and metric in scales and not math.isfinite(scales[metric][1]):
            raise ValueError(f"stdev for {metric!r} must be finite, got {scales[metric][1]!r}")
        if weight == 0:
            continue
        b = blend_metrics.get(metric)
        t = target.get(metric)
        if b is None or t is None:
            continue
        stdev = 1.0
        if scales is not None and metric in scales:
            stdev = scales[metric][1]
            if stdev <= 0:
                continue  # constant over the pool: no discriminating power
        diff = (b - t) / stdev
        squared += weight * diff * diff
        if t != 0:
            gaps[metric] = abs(b - t) / abs(t)
        used.append(metric)
    if not used:
        raise NoCommonMetrics("no weighted metric is available on both sides")
    return DistanceReport(distance=math.sqrt(squared), relative_gaps=gaps, metrics_used=tuple(used))


def search_mix_by_simulation(profiles, target, max_constituents, weights, *, scales=None, budget=2_000_000):
    """`proxy.search_mix` as one loop_simulate_rrr + loop_blend_distance per candidate mix.

    Same checks, same equal-duration schedule and the same (distance, order)
    ranking, returned as a list of (order, BlendProfile).
    """
    if max_constituents < 1:
        raise ValueError("max_constituents must be >= 1")
    if max_constituents > len(profiles):
        raise ValueError(
            f"max_constituents {max_constituents} exceeds pool size {len(profiles)}"
        )
    pool = sorted(profiles, key=lambda p: p.workload)
    names = [p.workload for p in pool]
    if len(set(names)) != len(names):
        raise ValueError("profile pool contains duplicate workload ids")
    total = sum(comb(len(pool), size) for size in range(1, max_constituents + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} candidate mixes exceed budget {budget}")

    equal = [replace(p, duration=1.0) for p in pool]
    ranked = []
    for size in range(1, max_constituents + 1):
        for mix in combinations(range(len(pool)), size):
            order = tuple(names[i] for i in mix)
            schedule = RrrSchedule(order=order, copies=size)
            blend = loop_simulate_rrr([equal[i] for i in mix], schedule)
            report = loop_blend_distance(blend, target, weights, scales=scales)
            blend = replace(blend, distance_to_target=report.distance)
            ranked.append((report.distance, order, blend))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [(order, blend) for _, order, blend in ranked]


# The per-metric loop and the 4-key lexsort that `proxy._distances` and
# `proxy.search_mix` replaced with one array pass over all counted metrics and
# a stable distance sort whose ties are put in order.


def loop_distances(values: np.ndarray, target: MetricVector, weights, scales) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distance to the target and which of its metrics count, one metric column at a time."""
    squared = np.zeros(len(values))
    used = np.zeros(values.shape, dtype=bool)
    for j, metric in enumerate(METRIC_NAMES):
        weight = weights.get(metric, 0.0)
        if not 0 <= weight < math.inf:
            raise ValueError(f"weight for {metric!r} must be finite and >= 0, got {weight!r}")
        stdev = scales[metric][1] if scales is not None and metric in scales else 1.0
        if not math.isfinite(stdev):
            raise ValueError(f"stdev for {metric!r} must be finite, got {stdev!r}")
        t = target.get(metric)
        if weight == 0 or t is None or stdev <= 0:
            continue
        used[:, j] = ~np.isnan(values[:, j])
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (values[:, j] - t) / stdev
            squared = np.where(used[:, j], squared + weight * diff * diff, squared)
    return np.sqrt(squared), used


def lexsort_rank(mixes: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """The rows of `mixes` (pool indices padded with -1) by distance, then by their order tuple: the
    indices compare as the names of the sorted pool do, and the -1 padding puts a shorter prefix first."""
    return np.lexsort((*mixes.T[::-1], distances))


# What a `proxy.RankedMixes` holds, read from its arrays without simulating a
# blend; only the tests read a ranking this way.


def ranked_distances(ranked: RankedMixes) -> np.ndarray:
    """Every ranked mix's distance, closest first."""
    return ranked.rows(0, len(ranked))[1][:, 0]


def ranked_metrics(ranked: RankedMixes) -> np.ndarray:
    """Every ranked mix's metric values, closest first, NaN where unavailable."""
    return ranked.rows(0, len(ranked))[1][:, 1:]


def ranked_order(ranked: RankedMixes, i: int) -> tuple[str, ...]:
    """The workloads of the i-th ranked mix, without simulating its blend."""
    mix = ranked.rows(i, i + 1)[0][0]
    return tuple(ranked._pool[j].workload for j in mix.tolist() if j >= 0)


# The per-row store that `dataset.Store` replaced: one object per counter row,
# grouped into one object per run, and its loader, merge and metric derivation.


@dataclass(frozen=True)
class CounterSample:
    suite: str
    workload: str
    machine: str
    event: str
    value: float
    supported: bool = True

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"counter value must be finite and >= 0, got {self.value!r}")

    @property
    def key(self):
        return (self.suite, self.workload, self.machine, self.event)


@dataclass(frozen=True)
class RunRecord:
    suite: str
    workload: str
    machine: str
    samples: tuple
    wallclock_seconds: float = 1.0
    score: float | None = None

    def __post_init__(self):
        if self.wallclock_seconds <= 0 or not math.isfinite(self.wallclock_seconds):
            raise ValueError("wallclock_seconds must be positive and finite")
        if self.score is not None and self.score <= 0:
            raise ValueError("score must be positive when present")
        seen = set()
        for s in self.samples:
            if (s.suite, s.workload, s.machine) != (self.suite, self.workload, self.machine):
                raise ValueError(f"sample {s.key} does not belong to run {self.key}")
            if s.event in seen:
                raise DuplicateKey(f"duplicate event {s.event!r} in run {self.key}")
            seen.add(s.event)

    @property
    def key(self):
        return (self.suite, self.workload, self.machine)

    def event_values(self):
        return {s.event: s.value for s in self.samples if s.supported}


def build_records(samples, *, wallclock=None, scores=None):
    grouped = {}
    seen = set()
    for s in samples:
        if s.key in seen:
            raise DuplicateKey(f"duplicate sample key {s.key}")
        seen.add(s.key)
        grouped.setdefault((s.suite, s.workload, s.machine), []).append(s)
    return [
        RunRecord(
            suite=key[0],
            workload=key[1],
            machine=key[2],
            samples=tuple(sorted(grouped[key], key=lambda s: s.event)),
            wallclock_seconds=(wallclock or {}).get(key, 1.0),
            score=(scores or {}).get(key),
        )
        for key in sorted(grouped)
    ]


def load_canonical(path, scores_path=None):
    samples = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != STORE_HEADER:
            raise SchemaMismatch(f"{path}: expected header {STORE_HEADER}, got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(STORE_HEADER):
                raise SchemaMismatch(f"{path}:{row_no}: expected {len(STORE_HEADER)} columns, got {len(row)}")
            suite, workload, machine, event, value, supported = row
            if supported.lower() not in ("true", "false"):
                raise SchemaMismatch(f"{path}:{row_no}: supported must be true/false, got {supported!r}")
            try:
                parsed = float(value)
            except ValueError as exc:
                raise SchemaMismatch(f"{path}:{row_no}: bad value field {value!r}") from exc
            samples.append(CounterSample(suite, workload, machine, event, parsed, supported.lower() == "true"))
    wallclock, scores = {}, {}
    if scores_path is not None:
        run_keys = {(s.suite, s.workload, s.machine) for s in samples}
        with open(scores_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCORES_HEADER:
                raise SchemaMismatch(f"{scores_path}: expected header {SCORES_HEADER}, got {header}")
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(SCORES_HEADER):
                    raise SchemaMismatch(f"{scores_path}:{row_no}: expected {len(SCORES_HEADER)} columns")
                key = (row[0], row[1], row[2])
                if key not in run_keys:
                    raise SchemaMismatch(f"{scores_path}:{row_no}: score for unknown run {key}")
                if key in scores:
                    raise DuplicateKey(f"{scores_path}:{row_no}: duplicate score row for {key}")
                try:
                    scores[key] = float(row[3])
                    wallclock[key] = float(row[4])
                except ValueError as exc:
                    raise SchemaMismatch(f"{scores_path}:{row_no}: bad numeric field") from exc
    return build_records(samples, wallclock=wallclock, scores=scores)


def loop_scored_store(store_path, scores_path):
    """`dataset.read_store(store_path, scores_path)` with the scores joined one row at a time through dicts, as
    `read_store` joined them before its column join, then checked one run at a time, as `Store.from_codes` did."""
    store = read_store(store_path)
    wallclock, scores = {}, {}
    run_keys = set(store.runs)
    for row_no, row in _csv_rows(scores_path, SCORES_HEADER):
        if len(row) != len(SCORES_HEADER):
            raise SchemaMismatch(f"{scores_path}:{row_no}: expected {len(SCORES_HEADER)} columns")
        key = (row[0], row[1], row[2])
        if key not in run_keys:
            raise SchemaMismatch(f"{scores_path}:{row_no}: score for unknown run {key}")
        if key in scores:
            raise DuplicateKey(f"{scores_path}:{row_no}: duplicate score row for {key}")
        try:
            scores[key] = float(row[3])
            wallclock[key] = float(row[4])
        except ValueError as exc:
            raise SchemaMismatch(f"{scores_path}:{row_no}: bad numeric field") from exc
    for key in store.runs:
        if not 0 < wallclock.get(key, 1.0) < math.inf:
            raise ValueError("wallclock_seconds must be positive and finite")
        if key in scores and scores[key] <= 0:
            raise ValueError("score must be positive when present")
        if key in scores and not scores[key] < math.inf:
            raise ValueError(f"score must be finite when present, got {float(scores[key])!r}")
    return replace(
        store,
        wallclock=np.array([wallclock.get(key, 1.0) for key in store.runs], dtype=float),
        scores=np.array([scores.get(key, math.nan) for key in store.runs], dtype=float),
    )


def merge_records(existing, new):
    samples, wallclock, scores = [], {}, {}
    for rec in list(existing) + list(new):
        samples.extend(rec.samples)
        wallclock[rec.key] = rec.wallclock_seconds
        if rec.score is not None:
            scores[rec.key] = rec.score
    return build_records(samples, wallclock=wallclock, scores=scores)


def derive_metrics(record):
    return MetricVector(**metric_values(record.key, record.event_values()))


def columns(store):
    """A store's cells as six columns (suite, workload, machine, event, value, supported).

    Cells are sorted by run and then by event name, the order of the store CSV.
    """
    order = sorted(range(len(store.events)), key=store.events.__getitem__)
    values = store.values[:, order]
    present = ~np.isnan(values)
    rows, cols = np.nonzero(present)
    keys = [store.runs[i] for i in rows.tolist()]
    return (
        [k[0] for k in keys],
        [k[1] for k in keys],
        [k[2] for k in keys],
        [store.events[order[j]] for j in cols.tolist()],
        values[present].tolist(),
        store.supported[:, order][present].tolist(),
    )


def cells(store):
    """Every (run, event) cell of a store as (suite, workload, machine, event, value, supported), in the order
    of `columns`."""
    return zip(*columns(store))


def records_of(store):
    """A store as the oracle's records, to hand the same data to both sides."""
    samples = [CounterSample(*cell) for cell in cells(store)]
    wallclock = dict(zip(store.runs, store.wallclock.tolist()))
    scores = {key: s for key, s in zip(store.runs, store.scores.tolist()) if s == s}
    return build_records(samples, wallclock=wallclock, scores=scores)


def assert_same_runs(store, records):
    """The store holds exactly the records' cells, wallclocks and scores, in run order."""
    assert list(store.runs) == [rec.key for rec in records]
    assert [(*cell[:4], repr(cell[4]), cell[5]) for cell in cells(store)] == [
        (*rec.key, s.event, repr(s.value), s.supported) for rec in records for s in rec.samples
    ]
    assert [repr(v) for v in store.wallclock.tolist()] == [repr(rec.wallclock_seconds) for rec in records]
    assert [None if v != v else repr(v) for v in store.scores.tolist()] == [
        None if rec.score is None else repr(rec.score) for rec in records
    ]


def cell_merge_stores(existing, new):
    """Both stores' cells through one constructor, the new store's wallclocks and scores over the existing's:
    the reference for `dataset.merge_into`, which writes a store file and so keeps neither (see `untimed`)."""
    wallclock = dict(zip(existing.runs, existing.wallclock.tolist()))
    wallclock.update(zip(new.runs, new.wallclock.tolist()))
    scores = {
        run: score
        for store in (existing, new)
        for run, score in zip(store.runs, store.scores.tolist())
        if score == score
    }
    return Store.from_cells(chain(cells(existing), cells(new)), wallclock=wallclock, scores=scores)


def untimed(store):
    """`store` as a store file holds it: every run's wallclock 1.0 and no score."""
    return replace(store, wallclock=np.ones(len(store)), scores=np.full(len(store), np.nan))


# The per-cell repr that `files.float_rows` replaced with one orjson call per
# chunk, and the per-row export law that formatted every float of
# `proxy_mixes.csv` through it.


def repr_rows(values) -> list[str]:
    """Each row of a 2-D float array as its cells' repr joined by ","."""
    return [",".join(map(repr, row)) for row in np.asarray(values, dtype=float).tolist()]


def _distance_cell(distance) -> str:
    return "" if distance is None or distance != distance else repr(distance)


def repr_export_mixes(ranked, path):
    """`export_mixes_csv` as one line per row, each float its repr: NaN or None blank, the distance too."""
    text = files.CsvText()
    if isinstance(ranked, RankedMixes):
        names = [p.workload for p in ranked._pool]
        bare = all(text[name] == name for name in names)
        rows = (
            ("+".join([names[j] for j in mix if j >= 0]), bare, _distance_cell(distance), values)
            for mix, distance, values in zip(
                ranked._mixes[ranked._rank].tolist(),
                ranked_distances(ranked).tolist(),
                ranked_metrics(ranked).tolist(),
            )
        )
    else:
        rows = (
            (
                "+".join(order),
                all(text[name] == name for name in order),
                _distance_cell(blend.distance_to_target),
                [math.nan if (v := blend.metrics.get(m)) is None else v for m in METRIC_NAMES],
            )
            for order, blend in ranked
        )
    lines = (
        f"{rank},{mix if bare else text[mix]},{distance},{','.join(map(repr, values)).replace('nan', '')}\n"
        for rank, (mix, bare, distance, values) in enumerate(rows, start=1)
    )
    files.commit([(path, partial(files.write_csv, header=["rank", "mix", "distance", *METRIC_NAMES], lines=lines))])


# The csv.writer row writers that `files.write_csv` replaced, and the
# per-pair medoid scan that one array pass per group replaced.


def _csv_write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def csv_save_canonical(store, path):
    suites, workloads, machines, events, values, supported = columns(store)
    flags = ["true" if flag else "false" for flag in supported]
    _csv_write_rows(path, STORE_HEADER, zip(suites, workloads, machines, events, map(repr, values), flags))


def csv_save_scores(store, path):
    _csv_write_rows(
        path,
        SCORES_HEADER,
        (
            (*run, repr(score), repr(clock))
            for run, score, clock in zip(store.runs, store.scores.tolist(), store.wallclock.tolist())
            if score == score
        ),
    )


def csv_export_mixes(ranked, path):
    if isinstance(ranked, RankedMixes):
        rows = zip(
            (ranked_order(ranked, i) for i in range(len(ranked))),
            ranked_distances(ranked).tolist(),
            np.where(np.isnan(ranked_metrics(ranked)), None, ranked_metrics(ranked)).tolist(),
        )
    else:
        rows = (
            (order, blend.distance_to_target, [blend.metrics.get(m) for m in METRIC_NAMES])
            for order, blend in ranked
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "mix", "distance", *METRIC_NAMES])
        for rank, (order, distance, values) in enumerate(rows, start=1):
            row = [rank, "+".join(order), _distance_cell(distance)]
            row += ["" if v is None else repr(v) for v in values]
            writer.writerow(row)


def loop_medoid(group, scores) -> str:
    """One np.linalg.norm per ordered pair, ties to the lowest id: the bits `cluster.medoid` must match."""
    members = sorted(group)
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


# The per-vector featurize and compare that read one MetricVector per run, one
# metric at a time, before `derive_store` returned one `Metrics` array.


def vector_build_matrix(
    vectors: Mapping[tuple[str, str, str], MetricVector],
    workloads: Sequence[str],
    machines: Sequence[str],
) -> FeatureMatrix:
    """One row per workload and one column per (metric, machine) of the vectors of every run.

    A workload id in two suites on one machine raises DuplicateKey; a column
    is kept only when its metric is available for every workload on that
    machine.
    """
    cells = {}
    for (_, workload, machine), vec in vectors.items():
        if (workload, machine) in cells:
            raise DuplicateKey(f"workload {workload!r} on {machine!r} appears in more than one suite")
        cells[workload, machine] = vec
    if not workloads or not machines:
        raise EmptyInput("workloads and machines must be non-empty")
    for workload in workloads:
        for machine in machines:
            if (workload, machine) not in cells:
                raise MissingCell(workload, machine)
    kept, dropped, columns = [], [], []
    for metric in METRIC_NAMES:
        for machine in machines:
            column = [cells[(w, machine)].get(metric) for w in workloads]
            if any(c is None for c in column):
                dropped.append((metric, machine))
            else:
                kept.append((metric, machine))
                columns.append(column)
    if not kept:
        raise EmptyInput("every (metric, machine) column was dropped")
    return FeatureMatrix(
        rows=tuple(workloads), cols=tuple(kept), values=np.array(columns, dtype=float).T, dropped=tuple(dropped)
    )


def vector_compare_suites(
    suite_a: str,
    vectors_a: Sequence[MetricVector],
    suite_b: str,
    vectors_b: Sequence[MetricVector],
    machine: str,
) -> SuiteComparison:
    """Per-metric geomean ratio of suite_a over suite_b, each metric's values read vector by vector."""
    if not vectors_a:
        raise EmptySuite(f"suite {suite_a!r} has no runs on {machine!r}")
    if not vectors_b:
        raise EmptySuite(f"suite {suite_b!r} has no runs on {machine!r}")
    comparisons, no_positive, skipped = [], [], []
    for metric in METRIC_NAMES:
        values_a = [v for vec in vectors_a if (v := vec.get(metric)) is not None]
        values_b = [v for vec in vectors_b if (v := vec.get(metric)) is not None]
        if not values_a or not values_b:
            skipped.append(metric)
            continue
        geomean_a, zeros_a = positive_geomean(values_a)
        geomean_b, zeros_b = positive_geomean(values_b)
        if geomean_a is None or geomean_b is None:
            no_positive.append(metric)
            continue
        comparisons.append(
            MetricComparison(
                metric=metric,
                geomean_a=geomean_a,
                geomean_b=geomean_b,
                ratio=geomean_a / geomean_b,
                excluded_zeros_a=zeros_a,
                excluded_zeros_b=zeros_b,
                box_a=BoxStats.of(values_a),
                box_b=BoxStats.of(values_b),
            )
        )
    return SuiteComparison(suite_a, suite_b, machine, tuple(comparisons), tuple(no_positive), tuple(skipped))
