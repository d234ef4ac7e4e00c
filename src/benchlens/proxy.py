"""Rolling round-robin proxy mixes.

Each of M copies runs the same fixed benchmark sequence cyclically, phase
shifted by its stagger offset, and every workload emits events at its
measured average rate while running. The model is deliberately
interference-free: blended counters are exact time-weighted sums of the
constituent rates, so per-instruction metrics of a mix are convex
combinations of the constituents' values. Measured blends on real hardware
additionally contain co-run contention that this simulator does not model.

Two laws, each computed once, over rows of mixes (`_blend`, `_distances`):
- blend: a schedule is a list of (slot, step) pairs in the order its copies
  run. Each adds `rate * step` of the workload in that slot to one running
  total per event, shared by all copies and starting from 0.0. An event
  missing from any constituent is missing from the blend. The metrics are
  `metrics.metric_array` of the totals. A blend fails on an infinite total
  ("counter value must be finite and >= 0"), then as a store run would:
  MissingDenominator without positive instructions and cycles, else
  MetricVector's ValueError.
- distance: `weight * diff * diff` summed from 0.0 in METRIC_NAMES order,
  then the square root, where `diff = (blend - target) / stdev` and the
  stdev is 1.0 unless `scales` has one. A metric counts unless its weight is
  zero, it is missing on either side, or its stdev is not positive. A weight
  that is negative or not finite raises ValueError (the first in
  METRIC_NAMES order); a blend with no metric that counts raises
  NoCommonMetrics.

`simulate_rrr` walks any schedule segment by segment to get its steps, and
`blend_markdown` blends each constituent over one pass. `search_mix` blends
every mix of a pool at once on the equal-duration schedule, where copy c
runs slots c, c+1, ..., c-1 for one unit each, so its values are
bit-identical to simulating each mix.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import chain, combinations
from math import comb
from pathlib import Path

import numpy as np

from .dataset import Store
from .errors import BudgetExceeded, NoCommonMetrics, UnknownWorkload, ZeroHorizon
from .events import CANONICAL_EVENTS, METRIC_NAMES
from .metrics import MetricVector, derive_rows, metric_array


@dataclass(frozen=True)
class WorkloadProfile:
    """Average event rates (counts per second) of one workload."""

    workload: str
    rates: Mapping[str, float]
    duration: float  # seconds per pass

    def __post_init__(self):
        if self.duration <= 0 or not math.isfinite(self.duration):
            raise ValueError("duration must be positive and finite")
        for event, rate in self.rates.items():
            if rate < 0 or not math.isfinite(rate):
                raise ValueError(f"rate for {event!r} must be finite and >= 0")

    @classmethod
    def from_store(cls, store: Store, row: int) -> "WorkloadProfile":
        """The profile of one run of a store: its supported counts over its wallclock."""
        wallclock = float(store.wallclock[row])
        values, supported = store.values[row].tolist(), store.supported[row].tolist()
        rates = {event: value / wallclock for event, value, ok in zip(store.events, values, supported) if ok}
        return cls(workload=store.runs[row][1], rates=rates, duration=wallclock)


def _rate_array(profiles: Sequence[WorkloadProfile]) -> tuple[np.ndarray, tuple[str, ...]]:
    """One row of rates per profile (NaN for an event it lacks) and its events: canonical, then sorted."""
    extra = sorted({event for p in profiles for event in p.rates} - set(CANONICAL_EVENTS))
    events = CANONICAL_EVENTS + tuple(extra)
    rates = [[p.rates.get(event, np.nan) for event in events] for p in profiles]
    return np.array(rates, dtype=float).reshape(len(profiles), len(events)), events


def _blend(rates: np.ndarray, mixes: np.ndarray, steps, events: Sequence[str], key=None):
    """Each mix's event totals, metric values and whether it fails; a mix is a row of `rates` indices.

    Each (slot, step) of `steps`, in order, adds the rates of every mix's
    workload in that slot times the step to totals that start from 0.0.
    With a `key`, a failing first mix raises its error, named by the key.
    """
    totals = np.zeros((len(mixes), rates.shape[1]))
    with np.errstate(over="ignore"):
        for slot, step in steps:
            totals += rates[mixes[:, slot]] * step
    values, failed = metric_array(totals, events)
    failed |= np.isinf(totals).any(axis=1)
    if key is not None and failed[0]:
        if np.isinf(totals[0]).any():
            raise ValueError("counter value must be finite and >= 0, got inf")
        derive_rows(totals[:1], events, [key])
    return totals, values, failed


@dataclass(frozen=True)
class RrrSchedule:
    order: tuple[str, ...]
    copies: int
    offsets: tuple[float, ...] | None = None  # None: copy i starts at i * period / copies
    horizon: float | None = None              # None: one full period

    def __post_init__(self):
        if not self.order:
            raise ValueError("schedule order must be non-empty")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if self.offsets is not None and len(self.offsets) != self.copies:
            raise ValueError("offsets must have one entry per copy")


@dataclass(frozen=True)
class BlendProfile:
    metrics: MetricVector
    time_shares: Mapping[str, float]   # fraction of total copy-time per workload
    totals: Mapping[str, float]        # accumulated event counts over all copies
    copies: int
    horizon: float
    distance_to_target: float | None = None
    target: str | None = None


def simulate_rrr(profiles: Sequence[WorkloadProfile], schedule: RrrSchedule) -> BlendProfile:
    """Accumulate event totals of the staggered mix over the horizon.

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

    boundaries = []
    start = 0.0
    for p in sequence:
        boundaries.append((start, start + p.duration))
        start += p.duration

    steps = []  # (slot in the sequence, seconds) in the order the copies run
    busy_time = {p.workload: 0.0 for p in sequence}
    for offset in offsets:
        elapsed = 0.0
        position = offset % period
        while elapsed < horizon - 1e-12 * horizon:
            for slot, (seg_start, seg_end) in enumerate(boundaries):
                if seg_start - 1e-12 <= position < seg_end:
                    step = min(seg_end - position, horizon - elapsed)
                    steps.append((slot, step))
                    busy_time[sequence[slot].workload] += step
                    elapsed += step
                    position += step
                    break
            else:
                raise AssertionError(f"position {position} fell outside the period")
            if position >= period - 1e-12 * max(period, 1.0):
                position = 0.0

    rates, events = _rate_array(sequence)
    key = ("rrr", "+".join(schedule.order), "blend")
    totals, values, _ = _blend(rates, np.arange(len(sequence))[None], steps, events, key)
    total_time = schedule.copies * horizon
    shares = {w: t / total_time for w, t in sorted(busy_time.items())}
    return BlendProfile(
        metrics=MetricVector.from_row(values[0].tolist()),
        time_shares=shares,
        totals={event: total for event, total in sorted(zip(events, totals[0].tolist())) if total == total},
        copies=schedule.copies,
        horizon=horizon,
    )


@dataclass(frozen=True)
class DistanceReport:
    distance: float
    relative_gaps: Mapping[str, float]  # metric -> |blend - target| / target
    metrics_used: tuple[str, ...]


def _distances(values: np.ndarray, target: MetricVector, weights, scales) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distance to the target and which of its metrics count.

    `values` holds one blend's metrics per row, NaN where unavailable.
    """
    squared = np.zeros(len(values))
    used = np.zeros(values.shape, dtype=bool)
    for j, metric in enumerate(METRIC_NAMES):
        weight = weights.get(metric, 0.0)
        if not 0 <= weight < math.inf:  # a NaN distance would leave the ranking undefined
            raise ValueError(f"weight for {metric!r} must be finite and >= 0, got {weight!r}")
        t = target.get(metric)
        stdev = scales[metric][1] if scales is not None and metric in scales else 1.0
        if weight == 0 or t is None or stdev <= 0:  # stdev 0: constant over the pool
            continue
        used[:, j] = ~np.isnan(values[:, j])
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (values[:, j] - t) / stdev
            squared = np.where(used[:, j], squared + weight * diff * diff, squared)
    return np.sqrt(squared), used


def blend_distance(
    blend: BlendProfile | MetricVector,
    target: MetricVector,
    weights: Mapping[str, float],
    *,
    scales: Mapping[str, tuple[float, float]] | None = None,
) -> DistanceReport:
    """Weighted L2 distance over z-scored metric differences.

    `scales` supplies per-metric (mean, stdev) normalization state, typically
    from FeatureMatrix.scales_for_machine(); without it raw differences are
    used. Metrics with zero weight, missing on either side, or z-scaled by a
    zero stdev are excluded.
    """
    blend_metrics = blend.metrics if isinstance(blend, BlendProfile) else blend
    row = [np.nan if (v := blend_metrics.get(m)) is None else v for m in METRIC_NAMES]
    distances, used = _distances(np.array([row], dtype=float), target, weights, scales)
    metrics_used = tuple(m for m, counts in zip(METRIC_NAMES, used[0].tolist()) if counts)
    if not metrics_used:
        raise NoCommonMetrics("no weighted metric is available on both sides")
    gaps = {}
    for metric in metrics_used:
        b, t = blend_metrics.get(metric), target.get(metric)
        if t != 0:
            gaps[metric] = abs(b - t) / abs(t)
    return DistanceReport(distance=float(distances[0]), relative_gaps=gaps, metrics_used=metrics_used)


class RankedMixes(Sequence):
    """The ranking `search_mix` returns: `(order, BlendProfile)` pairs, closest first.

    Each mix is one row of arrays: its pool indices (padded with -1), its
    distance and its metric values (NaN where unavailable). A BlendProfile is
    simulated only when its item is read, so ranking builds none.
    """

    def __init__(self, pool, mixes, distances, metrics, target_name):
        self._pool = pool  # equal-duration profiles, sorted by workload id
        self._mixes = mixes
        self.distances = distances
        self.metrics = metrics
        self._target_name = target_name

    def __len__(self) -> int:
        return len(self.distances)

    def order(self, i: int) -> tuple[str, ...]:
        return tuple(self._pool[j].workload for j in self._mixes[i] if j >= 0)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        members = [self._pool[j] for j in self._mixes[i] if j >= 0]
        order = tuple(p.workload for p in members)
        blend = simulate_rrr(members, RrrSchedule(order=order, copies=len(order)))
        return order, replace(blend, distance_to_target=float(self.distances[i]), target=self._target_name)


def search_mix(
    profiles: Sequence[WorkloadProfile],
    target: MetricVector,
    max_constituents: int,
    weights: Mapping[str, float],
    *,
    scales: Mapping[str, tuple[float, float]] | None = None,
    target_name: str | None = None,
    budget: int = 2_000_000,
) -> RankedMixes:
    """Rank all mixes of 1..max_constituents profiles by distance to the target.

    Every candidate mix is scored on an equal-duration schedule (one pass
    per workload per period, one copy per constituent) so that ranking
    reflects the blend composition rather than measured pass lengths. Ties
    on distance go to the lower order tuple.

    Mixes are blended and measured as rows of arrays, size by size. The first
    mix that fails, in enumeration order, raises what simulating it would:
    its blend's error, else a bad weight's, else NoCommonMetrics.
    """
    if max_constituents < 1:
        raise ValueError("max_constituents must be >= 1")
    if max_constituents > len(profiles):
        raise ValueError(f"max_constituents {max_constituents} exceeds pool size {len(profiles)}")
    pool = sorted(profiles, key=lambda p: p.workload)
    names = [p.workload for p in pool]
    if len(set(names)) != len(names):
        raise ValueError("profile pool contains duplicate workload ids")
    total = sum(comb(len(pool), size) for size in range(1, max_constituents + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} candidate mixes exceed budget {budget}")

    rates, events = _rate_array(pool)
    blocks = []
    for size in range(1, max_constituents + 1):
        mixes = np.fromiter(
            chain.from_iterable(combinations(range(len(pool)), size)),
            dtype=np.intp,
            count=comb(len(pool), size) * size,
        ).reshape(-1, size)
        steps = [((copy + step) % size, 1.0) for copy in range(size) for step in range(size)]
        _, values, failed = _blend(rates, mixes, steps, events)
        if not failed[0]:  # else the first mix raises before a weight is read
            distances, used = _distances(values, target, weights, scales)
            failed |= ~used.any(axis=1)
        if failed.any():  # the first failing mix raises its blend's error, else NoCommonMetrics
            mix = mixes[np.argmax(failed)]
            _blend(rates, mix[None], steps, events, ("rrr", "+".join(names[j] for j in mix), "blend"))
            raise NoCommonMetrics("no weighted metric is available on both sides")
        padded = np.full((len(mixes), max_constituents), -1, dtype=np.intp)
        padded[:, :size] = mixes
        blocks.append((padded, distances, values))

    mixes, distances, values = (np.concatenate(parts) for parts in zip(*blocks))
    # order tuples compare like their pool indices, a shorter prefix (-1 padding) first
    rank = np.lexsort((*mixes.T[::-1], distances))
    equal = [replace(p, duration=1.0) for p in pool]
    return RankedMixes(equal, mixes[rank], distances[rank], values[rank], target_name)


def read_mix_file(path: str | Path) -> list[tuple[str, float | None]]:
    """Parse a mix specification: one `workload[,duration_seconds]` per line.

    A duration overrides the profile's measured pass length; `#` starts a
    comment.
    """
    entries: list[tuple[str, float | None]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            workload, _, duration_field = line.partition(",")
            workload = workload.strip()
            if not workload:
                raise ValueError(f"{path}:{line_no}: missing workload id")
            duration: float | None = None
            if duration_field.strip():
                duration = float(duration_field)
                if duration <= 0:
                    raise ValueError(f"{path}:{line_no}: duration must be positive")
            entries.append((workload, duration))
    if not entries:
        raise ValueError(f"{path}: mix file lists no workloads")
    return entries


def apply_mix_spec(
    profiles: Sequence[WorkloadProfile],
    entries: Sequence[tuple[str, float | None]],
) -> tuple[list[WorkloadProfile], RrrSchedule]:
    """Resolve a mix spec against a profile pool, honoring duration overrides."""
    by_name = {p.workload: p for p in profiles}
    chosen = []
    for workload, duration in entries:
        if workload not in by_name:
            raise UnknownWorkload(f"mix references unknown workload {workload!r}")
        profile = by_name[workload]
        if duration is not None:
            profile = replace(profile, duration=duration)
        chosen.append(profile)
    order = tuple(p.workload for p in chosen)
    if len(set(order)) != len(order):
        raise ValueError("mix lists a workload twice")
    return chosen, RrrSchedule(order=order, copies=len(order))


def export_mixes_csv(
    ranked: Sequence[tuple[tuple[str, ...], BlendProfile]],
    path: str | Path,
) -> None:
    """Write "rank,mix,distance,<metrics...>" with empty cells for unavailable.

    A `RankedMixes` is written straight from its arrays, without simulating
    a blend; any other sequence from its BlendProfiles.
    """
    if isinstance(ranked, RankedMixes):
        rows = zip(
            (ranked.order(i) for i in range(len(ranked))),
            ranked.distances.tolist(),
            np.where(np.isnan(ranked.metrics), None, ranked.metrics).tolist(),
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
            row = [rank, "+".join(order), "" if distance is None else repr(distance)]
            row += ["" if v is None else repr(v) for v in values]
            writer.writerow(row)


def blend_markdown(
    blend: BlendProfile,
    target: MetricVector | None,
    constituents: Sequence[WorkloadProfile],
) -> str:
    """Per-metric blend vs target vs constituents table."""
    rates, events = _rate_array(constituents)
    constituent_metrics = {}
    for i, p in enumerate(constituents):  # each constituent over one pass
        key = ("constituent", p.workload, "blend")
        _, values, _ = _blend(rates, np.array([[i]]), [(0, p.duration)], events, key)
        constituent_metrics[p.workload] = MetricVector.from_row(values[0].tolist())
    names = sorted(constituent_metrics)
    header = "| Metric | Blend |" + (" Target |" if target is not None else "") + "".join(
        f" {n} |" for n in names
    )
    divider = "| --- | --- |" + (" --- |" if target is not None else "") + " --- |" * len(names)
    lines = [header, divider]
    for metric in METRIC_NAMES:
        blend_value = blend.metrics.get(metric)
        if blend_value is None:
            continue
        cells = [f"| {metric} | {blend_value:.4f} |"]
        if target is not None:
            t = target.get(metric)
            cells.append(" - |" if t is None else f" {t:.4f} |")
        for n in names:
            v = constituent_metrics[n].get(metric)
            cells.append(" - |" if v is None else f" {v:.4f} |")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"
