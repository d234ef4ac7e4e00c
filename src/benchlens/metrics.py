"""Derived per-run metrics and per-suite distribution summaries.

The metric set covers IPC, cache MPKI (L1I/L1D/L2/L3), TLB MPMI
(iTLB/dTLB/L2 TLB), branch MPKI, frontend/backend stall percentages, the
instruction-mix shares (kernel/user/load/store/branch/fp/vector) and DRAM
bytes per cycle. A metric whose input events are unsupported or absent is
unavailable (None), never zero-filled.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .dataset import RunRecord
from .errors import EmptyGroup, MissingDenominator
from .events import METRIC_DEFS, METRIC_NAMES
from .stats import BoxStats, positive_geomean

BOUNDED_SHARES = ("load_pct", "store_pct", "branch_pct", "frontend_stall_pct", "backend_stall_pct")


@dataclass(frozen=True)
class MetricVector:
    """The derived metrics of one (workload, machine); None marks unavailable."""

    ipc: float | None = None
    l1i_mpki: float | None = None
    l1d_mpki: float | None = None
    l2_mpki: float | None = None
    l3_mpki: float | None = None
    l1_itlb_mpmi: float | None = None
    l1_dtlb_mpmi: float | None = None
    l2_tlb_mpmi: float | None = None
    branch_mpki: float | None = None
    frontend_stall_pct: float | None = None
    backend_stall_pct: float | None = None
    kernel_pct: float | None = None
    user_pct: float | None = None
    load_pct: float | None = None
    store_pct: float | None = None
    branch_pct: float | None = None
    fp_pct: float | None = None
    vector_pct: float | None = None
    mem_bytes_per_cycle: float | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {v!r}")
            if f.name in BOUNDED_SHARES and v > 100.0:
                raise ValueError(f"{f.name} must be <= 100, got {v!r}")
        if self.kernel_pct is not None and self.user_pct is not None:
            if abs(self.kernel_pct + self.user_pct - 100.0) > 1e-6:
                raise ValueError(
                    f"kernel_pct + user_pct must equal 100, got {self.kernel_pct + self.user_pct!r}"
                )

    def get(self, metric: str) -> float | None:
        return getattr(self, metric)

    def as_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in METRIC_NAMES}

    def available(self) -> tuple[str, ...]:
        return tuple(name for name in METRIC_NAMES if getattr(self, name) is not None)


def derive_metrics(record: RunRecord) -> MetricVector:
    """Derive the full metric vector from one run's counters.

    Raises MissingDenominator unless the run carries positive instruction and
    cycle counts; everything else degrades to per-metric unavailability.
    """
    events = record.event_values()
    if not events.get("instructions") or not events.get("cycles"):
        raise MissingDenominator(f"run {record.key} lacks positive instructions/cycles counts")
    values: dict[str, float | None] = {}
    for metric, (num_event, den_event, scale) in METRIC_DEFS.items():
        num = events.get(num_event)
        den = events.get(den_event)
        if num is None or den is None or den == 0:
            values[metric] = None
        else:
            # scale first: keeps shares exact for integer counters at table precision
            values[metric] = scale * num / den
    return MetricVector(**values)


def derive_store(records: Iterable[RunRecord]) -> dict[tuple[str, str, str], MetricVector]:
    """Metric vectors for every run, keyed by (suite, workload, machine)."""
    return {rec.key: derive_metrics(rec) for rec in sorted(records, key=lambda r: r.key)}


@dataclass(frozen=True)
class MetricSummary:
    geomean: float | None
    excluded_zeros: int
    box: BoxStats
    n: int


def suite_summary(
    groups: Mapping[str, Sequence[MetricVector]],
) -> dict[str, dict[str, MetricSummary]]:
    """Per-suite, per-metric distribution summary.

    Geomeans cover strictly positive available values (zero count reported);
    the box statistics cover all available values with linearly interpolated
    quartiles. Metrics unavailable across a whole group are omitted for it.
    """
    out: dict[str, dict[str, MetricSummary]] = {}
    for suite in sorted(groups):
        vectors = groups[suite]
        if not vectors:
            raise EmptyGroup(f"suite {suite!r} has no metric vectors")
        per_metric: dict[str, MetricSummary] = {}
        for metric in METRIC_NAMES:
            values = [v for vec in vectors if (v := vec.get(metric)) is not None]
            if not values:
                continue
            geomean, excluded = positive_geomean(values)
            per_metric[metric] = MetricSummary(
                geomean=geomean,
                excluded_zeros=excluded,
                box=BoxStats.of(values),
                n=len(values),
            )
        out[suite] = per_metric
    return out


def export_metrics_csv(
    vectors: Mapping[tuple[str, str, str], MetricVector],
    path: str | Path,
) -> None:
    """Write "suite,workload,machine,<metrics...>" with empty cells for unavailable."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["suite", "workload", "machine", *METRIC_NAMES])
        for key in sorted(vectors):
            vec = vectors[key]
            row = list(key) + ["" if (v := vec.get(m)) is None else repr(v) for m in METRIC_NAMES]
            writer.writerow(row)
