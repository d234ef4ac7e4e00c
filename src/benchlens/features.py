"""Cross-machine feature matrix assembly and z-score normalization.

Each (metric, machine) pair is a distinct column, so a full store with 19
metrics on 9 machines yields 171 features per workload. Columns where a
metric is unavailable for any workload on a machine are dropped, never
imputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AlreadyNormalized,
    EmptyInput,
    MissingCell,
    NotNormalized,
    SchemaMismatch,
    TooFewRows,
)
from .events import METRIC_NAMES
from .metrics import MetricVector

Column = tuple[str, str]  # (metric, machine)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    rows: tuple[str, ...]
    cols: tuple[Column, ...]
    values: np.ndarray  # shape (len(rows), len(cols)), read-only
    normalized: bool = False
    col_means: np.ndarray | None = None
    col_stdevs: np.ndarray | None = None
    constant_cols: tuple[int, ...] = ()
    dropped: tuple[Column, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.shape != (len(self.rows), len(self.cols)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.rows)} rows x {len(self.cols)} cols"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains NaN/Inf cells")

    def scales_for_machine(self, machine: str) -> dict[str, tuple[float, float]]:
        """Per-metric (mean, population stdev) of this machine's columns."""
        if self.col_means is None or self.col_stdevs is None:
            raise NotNormalized("normalization state is only recorded by normalize()")
        return {
            metric: (float(self.col_means[i]), float(self.col_stdevs[i]))
            for i, (metric, m) in enumerate(self.cols)
            if m == machine
        }


def build_matrix(
    vectors: Mapping[tuple[str, str], MetricVector],
    workloads: Sequence[str],
    machines: Sequence[str],
) -> FeatureMatrix:
    """Assemble one row per workload and one column per (metric, machine).

    A column is kept only when its metric is available for every workload on
    that machine; dropped columns are reported on the result.
    """
    if not workloads or not machines:
        raise EmptyInput("workloads and machines must be non-empty")
    for workload in workloads:
        for machine in machines:
            if (workload, machine) not in vectors:
                raise MissingCell(workload, machine)
    kept: list[Column] = []
    dropped: list[Column] = []
    columns: list[list[float]] = []
    for metric in METRIC_NAMES:
        for machine in machines:
            cells = [vectors[(w, machine)].get(metric) for w in workloads]
            if any(c is None for c in cells):
                dropped.append((metric, machine))
            else:
                kept.append((metric, machine))
                columns.append(cells)  # type: ignore[arg-type]
    if not kept:
        raise EmptyInput("every (metric, machine) column was dropped")
    values = np.array(columns, dtype=float).T
    return FeatureMatrix(
        rows=tuple(workloads),
        cols=tuple(kept),
        values=values,
        dropped=tuple(dropped),
    )


def normalize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Z-score each column with the population standard deviation.

    Constant columns become zero columns and are flagged rather than dropped,
    which keeps column indexing stable across suites. The original values are
    recoverable through denormalize().
    """
    if matrix.normalized:
        raise AlreadyNormalized("matrix is already normalized")
    if len(matrix.rows) < 2:
        raise TooFewRows("normalization needs at least 2 rows")
    means = matrix.values.mean(axis=0)
    stdevs = matrix.values.std(axis=0)  # population (n denominator)
    constant = tuple(int(i) for i in np.flatnonzero(stdevs == 0.0))
    safe = np.where(stdevs == 0.0, 1.0, stdevs)
    values = (matrix.values - means) / safe
    return replace(
        matrix,
        values=values,
        normalized=True,
        col_means=_frozen(means),
        col_stdevs=_frozen(stdevs),
        constant_cols=constant,
    )


def denormalize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Invert normalize(), reconstructing the raw cell values."""
    if not matrix.normalized or matrix.col_means is None or matrix.col_stdevs is None:
        raise NotNormalized("matrix is not normalized")
    safe = np.where(matrix.col_stdevs == 0.0, 1.0, matrix.col_stdevs)
    values = matrix.values * safe + matrix.col_means
    return replace(
        matrix,
        values=values,
        normalized=False,
        col_means=None,
        col_stdevs=None,
        constant_cols=(),
    )


def _norm_sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".norm.csv")


def export_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    """Write the matrix with a two-level "metric:machine" header.

    Normalized matrices additionally get a ``<stem>.norm.csv`` sidecar holding
    the per-column normalization state so import_csv can restore it.
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["workload", *(f"{metric}:{machine}" for metric, machine in matrix.cols)])
        for i, workload in enumerate(matrix.rows):
            writer.writerow([workload, *(repr(float(v)) for v in matrix.values[i])])
    if matrix.normalized:
        assert matrix.col_means is not None and matrix.col_stdevs is not None
        with open(_norm_sidecar(path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric", "machine", "mean", "stdev", "constant"])
            for i, (metric, machine) in enumerate(matrix.cols):
                writer.writerow(
                    [
                        metric,
                        machine,
                        repr(float(matrix.col_means[i])),
                        repr(float(matrix.col_stdevs[i])),
                        "true" if i in matrix.constant_cols else "false",
                    ]
                )


def import_csv(path: str | Path) -> FeatureMatrix:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "workload":
            raise SchemaMismatch(f"{path}: expected feature header starting with 'workload'")
        cols: list[Column] = []
        for label in header[1:]:
            metric, sep, machine = label.partition(":")
            if not sep or metric not in METRIC_NAMES:
                raise SchemaMismatch(f"{path}: bad column label {label!r}")
            cols.append((metric, machine))
        rows: list[str] = []
        data: list[list[float]] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(cols) + 1:
                raise SchemaMismatch(f"{path}: row for {row[0]!r} has wrong arity")
            rows.append(row[0])
            data.append([float(v) for v in row[1:]])
    if not rows:
        raise EmptyInput(f"{path}: no data rows")
    matrix = FeatureMatrix(rows=tuple(rows), cols=tuple(cols), values=np.array(data))
    sidecar = _norm_sidecar(path)
    if sidecar.exists():
        means, stdevs, constant = [], [], []
        with open(sidecar, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for i, row in enumerate(reader):
                if (row[0], row[1]) != cols[i]:
                    raise SchemaMismatch(f"{sidecar}: column order does not match {path}")
                means.append(float(row[2]))
                stdevs.append(float(row[3]))
                if row[4] == "true":
                    constant.append(i)
        matrix = replace(
            matrix,
            normalized=True,
            col_means=_frozen(np.array(means)),
            col_stdevs=_frozen(np.array(stdevs)),
            constant_cols=tuple(constant),
        )
    return matrix
