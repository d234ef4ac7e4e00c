"""Derived per-run metrics.

The metric set covers IPC, cache MPKI (L1I/L1D/L2/L3), TLB MPMI
(iTLB/dTLB/L2 TLB), branch MPKI, frontend/backend stall percentages, the
instruction-mix shares (kernel/user/load/store/branch/fp/vector) and DRAM
bytes per cycle. A metric whose input events are unsupported or absent is
unavailable (None), never zero-filled.

`metric_array` is the one place the metrics are computed from counts: over
a store's runs (`derive_store`) and over RRR blends (`proxy`'s blend law,
which `simulate_rrr`, `search_mix` and `blend_markdown` share).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import RunKey, Store
from .errors import MissingDenominator
from .events import METRIC_DEFS, METRIC_NAMES

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

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "MetricVector":
        """The vector of one row of metric values in METRIC_NAMES order, NaN for unavailable."""
        return cls(**{name: None if v != v else v for name, v in zip(METRIC_NAMES, row)})

    def get(self, metric: str) -> float | None:
        return getattr(self, metric)

    def as_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in METRIC_NAMES}

    def available(self) -> tuple[str, ...]:
        return tuple(name for name in METRIC_NAMES if getattr(self, name) is not None)


def metric_array(counts: np.ndarray, events: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The metrics of each row of `counts`, NaN where unavailable, and the rows that fail.

    `counts` holds one run or blend per row and one event of `events` per
    column, NaN where the event is unsupported or absent. Each metric is
    `scale * num / den` per METRIC_DEFS, unavailable when its numerator is
    NaN or its denominator is not positive. A row fails when its instructions
    or cycles are not positive, or when its values break a MetricVector bound.
    """
    column = {event: j for j, event in enumerate(events)}
    absent = np.full(len(counts), np.nan)

    def count(event: str) -> np.ndarray:
        return counts[:, column[event]] if event in column else absent

    num = np.stack([count(n) for n, _, _ in METRIC_DEFS.values()], axis=1)
    den = np.stack([count(d) for _, d, _ in METRIC_DEFS.values()], axis=1)
    scale = np.array([s for _, _, s in METRIC_DEFS.values()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        available = ~np.isnan(num) & (den > 0)
        # scale first: keeps shares exact for integer counters at table precision
        values = np.where(available, scale * num / den, np.nan)
        failed = ~(count("instructions") > 0) | ~(count("cycles") > 0)
        failed |= (available & ~(np.isfinite(values) & (values >= 0))).any(axis=1)
        failed |= (values[:, [METRIC_NAMES.index(m) for m in BOUNDED_SHARES]] > 100.0).any(axis=1)
        kernel, user = values[:, METRIC_NAMES.index("kernel_pct")], values[:, METRIC_NAMES.index("user_pct")]
        failed |= np.abs(kernel + user - 100.0) > 1e-6
    return values, failed


def derive_rows(counts: np.ndarray, events: Sequence[str], keys: Sequence) -> np.ndarray:
    """`metric_array`'s values; the first failing row raises its error.

    That row raises MissingDenominator (named by its entry in `keys`) unless
    it has positive instruction and cycle counts, else MetricVector's
    ValueError for its values.
    """
    values, failed = metric_array(counts, events)
    if failed.any():
        i = int(np.argmax(failed))
        row = dict(zip(events, counts[i].tolist()))
        if not (row.get("instructions", math.nan) > 0 and row.get("cycles", math.nan) > 0):
            raise MissingDenominator(f"run {keys[i]} lacks positive instructions/cycles counts")
        MetricVector.from_row(values[i].tolist())
        raise AssertionError(f"run {keys[i]} failed the array checks but not MetricVector's")
    return values


def derive_store(store: Store) -> dict[RunKey, MetricVector]:
    """Metric vectors for every run, keyed by (suite, workload, machine).

    Raises MissingDenominator unless every run carries positive instruction
    and cycle counts; everything else degrades to per-metric unavailability.
    """
    values = derive_rows(store.counts(), store.events, store.runs)
    return {key: MetricVector.from_row(row) for key, row in zip(store.runs, values.tolist())}


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
