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

`_first_broken` states the metric bounds once, for `metric_array` and
`MetricVector`. A row fails on an infinite count, then without positive
instructions and cycles (MissingDenominator), then on its first broken
bound (ValueError); `row_error` makes the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from . import files
from .dataset import RunKey, Store
from .errors import MissingDenominator
from .events import METRIC_DEFS, METRIC_NAMES

BOUNDED_SHARES = ("load_pct", "store_pct", "branch_pct", "frontend_stall_pct", "backend_stall_pct")
_NUMERATORS, _DENOMINATORS, _SCALES = zip(*METRIC_DEFS.values())  # in METRIC_NAMES order
_SHARES = np.array([METRIC_NAMES.index(m) for m in BOUNDED_SHARES])
_KERNEL, _USER = METRIC_NAMES.index("kernel_pct"), METRIC_NAMES.index("user_pct")
# the bounds by code, in the order they are checked: metric j's are 2j and 2j + 1, then the sum
_BOUNDS = (*(f"{name} must be {bound}" for name in METRIC_NAMES for bound in ("finite and >= 0", "<= 100")),
           "kernel_pct + user_pct must equal 100")
_NO_DENOMINATOR, _INFINITE = len(_BOUNDS), len(_BOUNDS) + 1


def _first_broken(values: np.ndarray, available: np.ndarray) -> np.ndarray:
    """Each row's first broken bound, its code in `_BOUNDS`, or -1 where it breaks none.

    `values` holds rows in METRIC_NAMES order and `available` which of them
    count. Metric by metric, an available value is finite and >= 0, and a
    BOUNDED_SHARES one <= 100; then kernel_pct + user_pct is within 1e-6 of 100.
    """
    v, a = values.T, available.T  # bounds as rows, runs as columns: `any` over a run's bounds ORs whole rows
    broken = np.zeros((len(_BOUNDS), len(values)), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        broken[0:-1:2] = a & ~(np.isfinite(v) & (v >= 0))
        broken[1 + 2 * _SHARES] = a[_SHARES] & (v[_SHARES] > 100.0)
        broken[-1] = a[_KERNEL] & a[_USER] & (np.abs(v[_KERNEL] + v[_USER] - 100.0) > 1e-6)
    failure, failed = np.full(len(values), -1), broken.any(axis=0)
    failure[failed] = broken[:, failed].argmax(axis=0)  # only a failing run is searched for its first bound
    return failure


def row_error(key, row: Sequence[float], failure: int) -> Exception:
    """The error of a row failing with code `failure`: `row` holds its metric values, and `key` names its run."""
    if failure == _INFINITE:
        return ValueError("counter value must be finite and >= 0, got inf")
    if failure == _NO_DENOMINATOR:
        return MissingDenominator(f"run {key} lacks positive instructions/cycles counts")
    got = row[_KERNEL] + row[_USER] if failure == len(_BOUNDS) - 1 else row[failure // 2]
    return ValueError(f"{_BOUNDS[failure]}, got {got!r}")


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
        row = [getattr(self, name) for name in METRIC_NAMES]
        values = np.array([[math.nan if v is None else v for v in row]], dtype=float)
        failure = _first_broken(values, np.array([[v is not None for v in row]]))[0]
        if failure >= 0:
            raise row_error(None, row, failure)

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "MetricVector":
        """The vector of one row of metric values in METRIC_NAMES order, NaN for unavailable."""
        return cls(**{name: None if v != v else v for name, v in zip(METRIC_NAMES, row)})

    def get(self, metric: str) -> float | None:
        return getattr(self, metric)

    def available(self) -> tuple[str, ...]:
        return tuple(name for name in METRIC_NAMES if getattr(self, name) is not None)


def metric_array(counts: np.ndarray, events: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The metrics of each row of `counts`, NaN where unavailable, and each row's `row_error` code, -1 if it passes.

    `counts` holds one run or blend per row and one event of `events` per
    column, NaN where the event is unsupported or absent. Each metric is
    `scale * num / den` per METRIC_DEFS, unavailable when its numerator is
    NaN or its denominator is not positive. A row fails as the module docstring says.
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
    failure = _first_broken(values, available)  # a later line wins: it names an earlier failure
    failure[~(gathered[:, -2] > 0) | ~(gathered[:, -1] > 0)] = _NO_DENOMINATOR
    if np.isinf(counts).any():  # a blend's totals may overflow; a store's counts never do
        failure[np.isinf(counts).any(axis=1)] = _INFINITE
    return values, failure


def derive_rows(counts: np.ndarray, events: Sequence[str], keys: Sequence) -> np.ndarray:
    """`metric_array`'s values; the first failing row raises its `row_error`, named by its entry in `keys`."""
    values, failure = metric_array(counts, events)
    if (failure >= 0).any():
        i = np.argmax(failure >= 0)
        raise row_error(keys[i], values[i].tolist(), failure[i])
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
