"""Cross-machine feature matrix assembly and z-score normalization.

`build_matrix` gathers the rows of a `metrics.Metrics` array. Each (metric,
machine) pair is a distinct column, so a full store with 19 metrics on 9
machines yields 171 features per workload. Columns where a metric is
unavailable (NaN) for any workload on a machine are dropped, never imputed.
`normalize` returns the z-scored matrix and keeps no moments: a caller that
needs a column's mean or stdev, as `proxy` does, takes it from the raw matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, TextIO

import numpy as np

from . import files
from .errors import AlreadyNormalized, DuplicateKey, EmptyInput, MissingCell, TooFewRows
from .events import METRIC_NAMES
from .metrics import Metrics

Column = tuple[str, str]  # (metric, machine)


@dataclass(frozen=True)
class FeatureMatrix:
    rows: tuple[str, ...]
    cols: tuple[Column, ...]
    values: np.ndarray  # shape (len(rows), len(cols)), read-only
    normalized: bool = False
    dropped: tuple[Column, ...] = ()

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.values.shape != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.rows)} rows x {len(self.cols)} cols"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains NaN/Inf cells")


def build_matrix(metrics: Metrics, workloads: Sequence[str], machines: Sequence[str]) -> FeatureMatrix:
    """Assemble one row per workload and one column per (metric, machine).

    Rows are keyed by workload id alone, so an id may appear in one suite
    only (DuplicateKey). A column is kept only when its metric is available
    for every workload on that machine; dropped columns are reported on the
    result.
    """
    row_of: dict[tuple[str, str], int] = {}
    for i, (_, workload, machine) in enumerate(metrics.runs):
        if row_of.setdefault((workload, machine), i) != i:
            raise DuplicateKey(f"workload {workload!r} on {machine!r} appears in more than one suite")
    if not workloads or not machines:
        raise EmptyInput("workloads and machines must be non-empty")
    for workload in workloads:
        for machine in machines:
            if (workload, machine) not in row_of:
                raise MissingCell(workload, machine)
    rows = [[row_of[workload, machine] for machine in machines] for workload in workloads]
    # (workload, machine, metric) cells, laid out as one (metric, machine) column each
    cells = metrics.values[rows].transpose(0, 2, 1).reshape(len(workloads), -1)
    cols = [(metric, machine) for metric in METRIC_NAMES for machine in machines]
    keep = ~np.isnan(cells).any(axis=0)
    if not keep.any():
        raise EmptyInput("every (metric, machine) column was dropped")
    return FeatureMatrix(
        rows=tuple(workloads),
        cols=tuple(c for c, k in zip(cols, keep.tolist()) if k),
        values=cells[:, keep],
        dropped=tuple(c for c, k in zip(cols, keep.tolist()) if not k),
    )


def normalize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Z-score each column with the population standard deviation.

    Constant columns become zero columns rather than being dropped, which
    keeps column indexing stable across suites.
    """
    if matrix.normalized:
        raise AlreadyNormalized("matrix is already normalized")
    if len(matrix.rows) < 2:
        raise TooFewRows("normalization needs at least 2 rows")
    stdevs = matrix.values.std(axis=0)  # population (n denominator)
    values = (matrix.values - matrix.values.mean(axis=0)) / np.where(stdevs == 0.0, 1.0, stdevs)
    return replace(matrix, values=values, normalized=True)


def export_csv(matrix: FeatureMatrix, fh: TextIO) -> None:
    """Write the matrix with a two-level "metric:machine" header."""
    text, rows = files.CsvText(), zip(matrix.rows, files.float_rows(matrix.values))
    header = ["workload", *(f"{metric}:{machine}" for metric, machine in matrix.cols)]
    sep = "," if matrix.cols else ""
    files.write_csv(fh, header, (f"{text[workload]}{sep}{row}\n" for workload, row in rows))
