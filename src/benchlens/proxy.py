"""Rolling round-robin proxy mixes.

Each of M copies runs the same fixed benchmark sequence cyclically, phase
shifted by its stagger offset, and every workload emits events at its
measured average rate while running. The model is deliberately
interference-free: blended counters are exact time-weighted sums of the
constituent rates, so per-instruction metrics of a mix are convex
combinations of the constituents' values. Measured blends on real hardware
additionally contain co-run contention that this simulator does not model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import CounterSample, RunRecord
from .errors import BudgetExceeded, NoCommonMetrics, UnknownWorkload, ZeroHorizon
from .events import METRIC_NAMES
from .metrics import MetricVector, derive_metrics


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
    def from_record(cls, record: RunRecord) -> "WorkloadProfile":
        rates = {
            event: value / record.wallclock_seconds
            for event, value in record.event_values().items()
        }
        return cls(workload=record.workload, rates=rates, duration=record.wallclock_seconds)


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
    record = RunRecord(
        suite="rrr",
        workload="+".join(schedule.order),
        machine="blend",
        samples=tuple(
            CounterSample(
                suite="rrr",
                workload="+".join(schedule.order),
                machine="blend",
                event=event,
                value=value,
            )
            for event, value in sorted(totals.items())
        ),
        wallclock_seconds=total_time,
    )
    return BlendProfile(
        metrics=derive_metrics(record),
        time_shares=shares,
        totals=totals,
        copies=schedule.copies,
        horizon=horizon,
    )


@dataclass(frozen=True)
class DistanceReport:
    distance: float
    relative_gaps: Mapping[str, float]  # metric -> |blend - target| / target
    metrics_used: tuple[str, ...]


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
    squared = 0.0
    gaps: dict[str, float] = {}
    used: list[str] = []
    for metric in METRIC_NAMES:
        weight = weights.get(metric, 0.0)
        if weight < 0:
            raise ValueError(f"weight for {metric!r} must be >= 0")
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


def search_mix(
    profiles: Sequence[WorkloadProfile],
    target: MetricVector,
    max_constituents: int,
    weights: Mapping[str, float],
    *,
    scales: Mapping[str, tuple[float, float]] | None = None,
    target_name: str | None = None,
    budget: int = 2_000_000,
) -> list[tuple[tuple[str, ...], BlendProfile]]:
    """Rank all mixes of 1..max_constituents profiles by distance to the target.

    Every candidate mix is simulated on an equal-duration schedule (one pass
    per workload per period, one copy per constituent) so that ranking
    reflects the blend composition rather than measured pass lengths.
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
    ranked: list[tuple[float, tuple[str, ...], BlendProfile]] = []
    for size in range(1, max_constituents + 1):
        for mix in combinations(range(len(pool)), size):
            order = tuple(names[i] for i in mix)
            schedule = RrrSchedule(order=order, copies=size)
            blend = simulate_rrr([equal[i] for i in mix], schedule)
            report = blend_distance(blend, target, weights, scales=scales)
            blend = replace(blend, distance_to_target=report.distance, target=target_name)
            ranked.append((report.distance, order, blend))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [(order, blend) for _, order, blend in ranked]


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "mix", "distance", *METRIC_NAMES])
        for rank, (order, blend) in enumerate(ranked, start=1):
            distance = "" if blend.distance_to_target is None else repr(blend.distance_to_target)
            row = [rank, "+".join(order), distance]
            row += ["" if (v := blend.metrics.get(m)) is None else repr(v) for m in METRIC_NAMES]
            writer.writerow(row)


def blend_markdown(
    blend: BlendProfile,
    target: MetricVector | None,
    constituents: Sequence[WorkloadProfile],
) -> str:
    """Per-metric blend vs target vs constituents table."""
    constituent_metrics: dict[str, MetricVector] = {}
    for p in constituents:
        record = RunRecord(
            suite="constituent",
            workload=p.workload,
            machine="blend",
            samples=tuple(
                CounterSample(
                    suite="constituent",
                    workload=p.workload,
                    machine="blend",
                    event=event,
                    value=rate * p.duration,
                )
                for event, rate in sorted(p.rates.items())
            ),
            wallclock_seconds=p.duration,
        )
        constituent_metrics[p.workload] = derive_metrics(record)
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
