"""Derived per-run metrics.

The metric set covers IPC, cache MPKI (L1I/L1D/L2/L3), TLB MPMI
(iTLB/dTLB/L2 TLB), branch MPKI, frontend/backend stall percentages, the
instruction-mix shares (kernel/user/load/store/branch/fp/vector) and DRAM
bytes per cycle. A metric whose input events are unsupported or absent is
unavailable: NaN in an array, None in a MetricVector, never zero-filled.

`metric_array` is the one place the metrics are computed from counts: over
a store's runs (`derive_store`) and over RRR blends (`proxy`'s blend law,
which `simulate_rrr`, `search_mix` and `blend_markdown` share).
`derive_store` returns every run's metrics as one `Metrics` array; a
`MetricVector` is one row, such as a proxy target or a blend's metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence, TextIO

import numpy as np

from . import files
from .dataset import RunKey, Store
from .errors import MissingDenominator
from .events import METRIC_DEFS, METRIC_NAMES

BOUNDED_SHARES = ("load_pct", "store_pct", "branch_pct", "frontend_stall_pct", "backend_stall_pct")
_NUMERATORS, _DENOMINATORS, _SCALES = zip(*METRIC_DEFS.values())  # in METRIC_NAMES order


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
    column = {event: j for j, event in enumerate(events)}  # an event not in `events` is the NaN column
    inputs = [column.get(event, len(events)) for event in (*_NUMERATORS, *_DENOMINATORS, "instructions", "cycles")]
    padded = np.concatenate([counts, np.full((len(counts), 1), np.nan)], axis=1)
    gathered = padded[:, inputs]
    num, den = gathered[:, :len(METRIC_NAMES)], gathered[:, len(METRIC_NAMES):-2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        available = ~np.isnan(num) & (den > 0)
        # scale first: keeps shares exact for integer counters at table precision
        values = np.where(available, np.array(_SCALES) * num / den, np.nan)
        failed = ~(gathered[:, -2] > 0) | ~(gathered[:, -1] > 0)
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


@dataclass(frozen=True)
class Metrics:
    """The derived metrics of a store's runs: `values[i]` holds run `runs[i]`'s
    metrics in METRIC_NAMES order, NaN where unavailable. `values` is read-only."""

    runs: tuple[RunKey, ...]  # sorted
    values: np.ndarray  # (len(runs), len(METRIC_NAMES))

    def __post_init__(self):
        self.values.setflags(write=False)

    def row(self, key: RunKey) -> MetricVector:
        """The metrics of run `key`."""
        return MetricVector.from_row(self.values[self.runs.index(key)].tolist())

    def select(self, *, suite: str, machine: str) -> "Metrics":
        """The runs of `suite` on `machine`."""
        rows = [i for i, (s, _, m) in enumerate(self.runs) if s == suite and m == machine]
        return Metrics(tuple(self.runs[i] for i in rows), self.values[rows])


def derive_store(store: Store) -> Metrics:
    """The metrics of every run of `store`, in its sorted run order.

    Raises MissingDenominator unless every run carries positive instruction
    and cycle counts; everything else degrades to per-metric unavailability.
    """
    return Metrics(store.runs, derive_rows(store.counts(), store.events, store.runs))


def export_metrics_csv(metrics: Metrics, fh: TextIO) -> None:
    """Write "suite,workload,machine,<metrics...>" with empty cells for unavailable."""
    text = files.CsvText()
    files.write_csv(
        fh,
        ["suite", "workload", "machine", *METRIC_NAMES],
        (
            f"{text[s]},{text[w]},{text[m]},{row}\n"
            for (s, w, m), row in zip(metrics.runs, files.float_rows(metrics.values, nan=""))
        ),
    )
