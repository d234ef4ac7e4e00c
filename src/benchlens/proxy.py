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
  missing from any constituent is missing from the blend. Its metrics are
  `metrics.metric_array` of the totals, and it fails as a store run does
  (`metrics._first_broken` states the bounds): on an infinite total, then
  without positive instructions and cycles, then on a broken metric bound.
- distance: `weight * diff * diff` summed from 0.0 in METRIC_NAMES order,
  then the square root, where `diff = (blend - target) / stdev` and the
  stdev is 1.0 unless `scales` has one. A metric counts unless its weight is
  zero, it is missing on either side, or its stdev is not positive. A weight
  that is negative or not finite, or a stdev that is NaN or infinite, raises
  ValueError (the first metric in METRIC_NAMES order, its weight checked
  before its stdev); a blend with no metric that counts raises
  NoCommonMetrics. Each term that counts lies in [0, inf], so a distance is
  never NaN; it is inf where a difference overflows.

A ranking puts mixes closest first: by distance, then by order tuple (names
in sorted order, a shorter prefix first). `search_mix` sorts stably by
distance, then puts each run of equal distances in order tuple order.

`simulate_rrr` walks any schedule segment by segment to get its steps, and
`blend_markdown` blends each constituent over one pass. `search_mix` blends
a pool's mixes as rows of arrays, one `stats.subset_rows` chunk at a time, on
the equal-duration schedule (copy c runs slots c, c+1, ..., c-1 for one unit
each), so its values are bit-identical to simulating each mix. It keeps only
each mix's distance; `RankedMixes.rows` blends a chunk of ranked mixes again
on the same schedule for `export_mixes_csv`, whose one input is a ranking.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import accumulate
from math import comb
from pathlib import Path
from typing import TextIO

import numpy as np

from . import files
from .dataset import Store
from .errors import BudgetExceeded, NoCommonMetrics, UnknownWorkload, ZeroHorizon
from .events import METRIC_NAMES, event_vocabulary
from .metrics import MetricVector, derive_rows, metric_array, row_error
from .stats import subset_rows

MIXES_HEADER = ("rank", "mix", "distance", *METRIC_NAMES)  # of proxy_mixes.csv and proxy_blend.csv


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
    events = event_vocabulary(event for p in profiles for event in p.rates)
    rates = [[p.rates.get(event, np.nan) for event in events] for p in profiles]
    return np.array(rates, dtype=float).reshape(len(profiles), len(events)), events


def _blend(rates: np.ndarray, mixes: np.ndarray, steps) -> np.ndarray:
    """Each mix's event totals; a mix is a row of `rates` indices.

    Each (slot, step) of `steps`, in order, adds the rates of every mix's
    workload in that slot times the step to totals that start from 0.0; each
    slot's rates are gathered once, and a step of 1.0 adds them as they are,
    which is exact.
    """
    slots = [rates.take(column, axis=0) for column in mixes.T]
    totals = np.zeros((len(mixes), rates.shape[1]))
    with np.errstate(over="ignore"):
        for slot, step in steps:
            totals += slots[slot] if step == 1.0 else slots[slot] * step
    return totals


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
    if not math.isfinite(period):  # finite durations whose sum overflows
        raise ValueError(f"mix period must be finite, got {period!r}")

    horizon = schedule.horizon if schedule.horizon is not None else period
    if horizon <= 0:
        raise ZeroHorizon(f"horizon must be positive, got {horizon!r}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
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

    edges = [0.0, *accumulate(p.duration for p in sequence)]
    boundaries = list(zip(edges, edges[1:]))

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
    totals = _blend(rates, np.arange(len(sequence))[None], steps)
    values = derive_rows(totals, events, [("rrr", "+".join(schedule.order), "blend")])
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


def _factors(target: MetricVector, weights, scales) -> np.ndarray:
    """Each metric's target, stdev and weight in `_distances`, or a weight of 0 where the metric does not count;
    a bad weight or stdev raises ValueError (see the module docstring)."""
    factors = np.zeros((len(METRIC_NAMES), 3))
    for j, metric in enumerate(METRIC_NAMES):
        weight = weights.get(metric, 0.0)
        if not 0 <= weight < math.inf:  # a NaN distance would leave the ranking undefined
            raise ValueError(f"weight for {metric!r} must be finite and >= 0, got {weight!r}")
        stdev = scales[metric][1] if scales is not None and metric in scales else 1.0
        if not math.isfinite(stdev):  # as with a weight
            raise ValueError(f"stdev for {metric!r} must be finite, got {stdev!r}")
        t = target.get(metric)
        if weight != 0 and t is not None and stdev > 0:  # stdev 0: constant over the pool
            factors[j] = t, stdev, weight
    return factors


def _distances(values: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distance to the target of `factors` (`_factors`) and which of its metrics count; a row holds
    one blend's metrics."""
    t, stdev, weight = factors.T
    used = ~np.isnan(values) & (weight != 0)
    with np.errstate(all="ignore"):
        diff = (values - t) / stdev
        terms = weight * diff
        terms *= diff  # in place, so a block holds no more than two temporaries
    terms[~used] = 0.0
    squared = np.zeros(len(values))
    for term in terms.T:  # in METRIC_NAMES order, as the per-metric loop adds (a sum would add pairwise);
        squared += term   # a 0.0 term leaves a sum of nonnegative terms as it was
    return np.sqrt(squared), used


def blend_distance(
    blend: BlendProfile | MetricVector,
    target: MetricVector,
    weights: Mapping[str, float],
    *,
    scales: Mapping[str, tuple[float, float]] | None = None,
) -> DistanceReport:
    """Weighted L2 distance over z-scored metric differences.

    `scales` supplies per-metric (mean, stdev) normalization state, such as a
    pool's population moments; without it raw differences are used. Metrics
    with zero weight, missing on either side, or z-scaled by a stdev <= 0 are
    excluded; a NaN or infinite stdev raises ValueError.
    """
    blend_metrics = blend.metrics if isinstance(blend, BlendProfile) else blend
    row = [np.nan if (v := blend_metrics.get(m)) is None else v for m in METRIC_NAMES]
    distances, used = _distances(np.array([row], dtype=float), _factors(target, weights, scales))
    metrics_used = tuple(m for m, counts in zip(METRIC_NAMES, used[0].tolist()) if counts)
    if not metrics_used:
        raise NoCommonMetrics("no weighted metric is available on both sides")
    gaps = {m: abs(blend_metrics.get(m) - t) / abs(t) for m in metrics_used if (t := target.get(m)) != 0}
    return DistanceReport(distance=float(distances[0]), relative_gaps=gaps, metrics_used=metrics_used)


def _equal_steps(size: int) -> list[tuple[int, float]]:
    """The (slot, step) pairs of the equal-duration schedule of `size` workloads: copy c runs slots c, c+1, ...,
    c-1 for one unit each."""
    return [((copy + step) % size, 1.0) for copy in range(size) for step in range(size)]


class RankedMixes(Sequence):
    """The ranking `search_mix` returns: `(order, BlendProfile)` pairs, closest first.

    Each mix is one row of two arrays, in the order the search blended it:
    `mixes` holds its pool indices (padded with -1), and `distances` its
    distance. `rank` holds those rows closest first. `rows` gathers the ranked
    rows a slice at a time and blends their metrics again from the pool's
    `rates` over `events`, by the law and in the order the search used, so
    they are the floats of their `export_mixes_csv` lines. A BlendProfile is
    simulated only when its item is read, so ranking builds none.
    """

    def __init__(self, pool, rates, events, mixes, distances, rank):
        self._pool = pool  # equal-duration profiles, sorted by workload id
        self._rates = rates
        self._events = events
        self._mixes = mixes
        self._distances = distances
        self._rank = rank

    def __len__(self) -> int:
        return len(self._rank)

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The `mixes` rows of the ranked mixes lo to hi, and each one's distance followed by its metric values
        (NaN where unavailable).

        The rows of each mix size are blended on that size's equal-duration
        schedule, as `search_mix` blended them, into one array of totals that
        one `metrics.metric_array` call derives; each operation is row by row.
        """
        rows = self._rank[lo:hi]
        mixes = self._mixes[rows]
        sizes = (mixes >= 0).sum(axis=1)
        totals = np.empty((len(rows), len(self._events)))
        for size in range(1, mixes.shape[1] + 1):
            group = sizes == size
            if group.any():
                totals[group] = _blend(self._rates, mixes[group, :size], _equal_steps(size))
        scored = np.empty((len(rows), 1 + len(METRIC_NAMES)))
        scored[:, 0] = self._distances[rows]
        scored[:, 1:] = metric_array(totals, self._events)[0]
        return mixes, scored

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        row = self._rank[i]
        members = [self._pool[j] for j in self._mixes[row] if j >= 0]
        order = tuple(p.workload for p in members)
        blend = simulate_rrr(members, RrrSchedule(order=order, copies=len(order)))
        return order, replace(blend, distance_to_target=float(self._distances[row]))


def search_mix(
    profiles: Sequence[WorkloadProfile],
    target: MetricVector,
    max_constituents: int,
    weights: Mapping[str, float],
    *,
    scales: Mapping[str, tuple[float, float]] | None = None,
    budget: int = 2_000_000,
) -> RankedMixes:
    """Rank all mixes of 1..max_constituents profiles by distance to the target.

    Every candidate mix is scored on an equal-duration schedule (one pass
    per workload per period, one copy per constituent) so that ranking
    reflects the blend composition rather than measured pass lengths. Mixes
    are ranked as the module docstring states.

    Mixes are blended, derived and measured as rows of arrays, size by size and
    one `stats.subset_rows` chunk (`files.CHUNK` mixes, or fewer than a pool
    size more) at a time, into temporaries. The ranking keeps only what it
    needs of each mix: its distance as one float, its pool indices in the
    narrowest signed dtype that holds -1 and the pool size (int8 up to 128
    workloads) and its place in the rank, 8 + k + 8 bytes; `RankedMixes.rows`
    blends a ranked chunk's metrics again. The first mix that fails, in
    enumeration order, raises what simulating it would: its blend's error,
    else a bad weight's or stdev's, else NoCommonMetrics.
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
    mixes = np.full((total, max_constituents), -1, dtype=np.min_scalar_type(-len(pool)))
    distances = np.empty(total)
    lo, factors = 0, None  # built at the first block whose first mix blends, where a bad weight raises
    for size in range(1, max_constituents + 1):
        steps = _equal_steps(size)
        for rows in subset_rows(len(pool), size, files.CHUNK):
            block = slice(lo, lo + len(rows))
            lo = block.stop
            mixes[block, :size] = rows
            values, failure = metric_array(_blend(rates, rows, steps), events)
            failed = failure >= 0
            if not failed[0]:  # else the block's first mix raises before a weight is read
                if factors is None:
                    factors = _factors(target, weights, scales)
                distances[block], used = _distances(values, factors)
                failed |= ~used.any(axis=1)
            if failed.any():  # the first failing mix raises its blend's error, else NoCommonMetrics
                i = np.argmax(failed)
                if failure[i] >= 0:
                    key = ("rrr", "+".join(names[j] for j in rows[i]), "blend")
                    raise row_error(key, values[i].tolist(), failure[i])
                raise NoCommonMetrics("no weighted metric is available on both sides")
    rank = np.argsort(distances, kind="stable")
    ordered = distances[rank]
    tied = np.append(ordered[1:] == ordered[:-1], False)  # rank[i] ties with rank[i + 1]
    tied = np.flatnonzero(tied | np.roll(tied, 1))  # the runs of equal distances, each put in order tuple order
    rank[tied] = rank[tied][np.lexsort((*mixes[rank[tied]].T[::-1], ordered[tied]))]
    return RankedMixes([replace(p, duration=1.0) for p in pool], rates, events, mixes, distances, rank)


def read_mix_file(path: str | Path) -> list[tuple[str, float | None]]:
    """Parse a mix specification: one `workload[,duration_seconds]` per line.

    Each line is one CSV row, so a workload id holding a comma or a quote is
    written csv-quoted, as the store and `proxy_mixes.csv` write it. A
    duration, finite and positive, overrides the profile's measured pass
    length; `#` starts a comment.
    """
    entries: list[tuple[str, float | None]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                fields = next(csv.reader([line]))
            except csv.Error as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if len(fields) > 2:
                raise ValueError(f"{path}:{line_no}: expected workload[,duration_seconds], got {len(fields)} fields")
            workload, duration_field = (*fields, "")[:2]
            workload = workload.strip()
            if not workload:
                raise ValueError(f"{path}:{line_no}: missing workload id")
            duration: float | None = None
            if duration_field.strip():
                try:
                    duration = float(duration_field)
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: bad duration {duration_field!r}") from None
                if not math.isfinite(duration):
                    raise ValueError(f"{path}:{line_no}: duration must be finite, got {duration!r}")
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


def export_mixes_csv(ranked: RankedMixes, fh: TextIO) -> None:
    """Write "rank,mix,distance,<metrics...>" with empty cells for unavailable.

    Lines follow the one CSV line law (see `files`): the rank, the mix cell,
    then `repr` of the distance and of each metric, blank where NaN. Each
    `files.CHUNK` (512) ranked rows are one byte template filled by one `%`:
    `RankedMixes.rows` gives their pool indices and floats, `files.float_json`
    writes the floats `[[d,m,...],...]`, NaN blank, and a row it writes unlike
    `repr` is spliced in from `files.float_rows`. Each `]` becomes a line end
    and the next `%d` rank, each `[` the `%b` pieces of a mix cell, so names
    never enter the template. The a+b+c cell is csv's quoting of the joined
    text. A mix of bare names is bare, so its pieces are the first name, then
    `+name` each, `b""` for padding; only a mix that holds a name csv quotes
    asks csv, and its first piece is the whole cell.
    """
    text = files.CsvText()
    names = [p.workload for p in ranked._pool]
    quoted = np.array([text[name] != name for name in names] + [False])  # last: the -1 padding
    first, later = (np.array([*(name.encode() for name in cells), b""], dtype=object)
                    for cells in (names, [f"+{name}" for name in names]))
    fh.write(",".join(MIXES_HEADER) + "\n")
    fh.flush()  # the chunks go to the bytes below it
    for lo in range(0, len(ranked), files.CHUNK):
        mixes, scored = ranked.rows(lo, lo + files.CHUNK)
        # a -1 of the padding picks the last piece, b""
        pieces = [first[mixes[:, 0]], *(later[mixes[:, c]] for c in range(1, mixes.shape[1]))]
        for i in np.flatnonzero(quoted[mixes].any(axis=1)).tolist():  # csv quotes the whole cell, in one piece
            pieces[0][i] = text["+".join(names[j] for j in mixes[i].tolist() if j >= 0)].encode()
            for piece in pieces[1:]:
                piece[i] = b""
        ranks = range(lo + 2, lo + len(mixes) + 2)  # each row's pieces are followed by the next row's rank
        args = np.array([*pieces, ranks], dtype=object).T.ravel()[:-1].tolist()
        body, unlike = files.float_json(scored, "")
        rows = np.flatnonzero(unlike).tolist()
        if rows:  # row i's text lies between the "]" of row i - 1 and its own
            ends, parts, at = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("]")).tolist(), [], 0
            for i, line in zip(rows, files.float_rows(scored[rows], "")):
                parts += [body[at:ends[i - 1] + 3 if i else 2], line.encode()]
                at = ends[i]
            body = b"".join([*parts, body[at:]])
        body = body[1:-2]  # one statement per copy, so no more than two copies are alive
        body = body.replace(b"]", b"\n%d")
        body = body.replace(b"[", b"%b" * len(pieces) + b",")
        fh.buffer.writelines([b"%d," % (lo + 1), body % tuple(args), b"\n"])


def blend_markdown(
    blend: BlendProfile,
    target: MetricVector | None,
    constituents: Sequence[WorkloadProfile],
) -> str:
    """Per-metric blend vs target vs constituents table."""
    rates, events = _rate_array(constituents)  # each constituent over one pass
    totals = np.concatenate([_blend(rates, np.array([[i]]), [(0, p.duration)]) for i, p in enumerate(constituents)])
    values = derive_rows(totals, events, [("constituent", p.workload, "blend") for p in constituents])
    constituent_metrics = {p.workload: MetricVector.from_row(row) for p, row in zip(constituents, values.tolist())}
    names = sorted(constituent_metrics)
    header = "| Metric | Blend |" + (" Target |" if target is not None else "") + "".join(f" {n} |" for n in names)
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
