"""Principal component analysis over the normalized feature matrix.

Components come from an SVD of the centered data matrix (better conditioned
than eigendecomposing the covariance, which the test suite keeps only as an
oracle). A fixed sign convention makes fits bitwise-reproducible: each
component is flipped so its largest-magnitude coordinate is positive, with
ties broken by the lowest column index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, TextIO

import numpy as np

from . import files
from .errors import DimensionMismatch, TargetUnreachable, TooFewRows
from .features import Column, FeatureMatrix


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                 # (d,)
    components: np.ndarray           # (k, d), orthonormal rows
    explained_variance: np.ndarray   # (k,), non-increasing
    explained_ratio: np.ndarray      # (k,), fractions of total_variance
    total_variance: float
    k: int
    col_labels: tuple[Column, ...]  # (metric, machine) of each of the d columns

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def _apply_sign_convention(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for i in range(out.shape[0]):
        pivot = int(np.argmax(np.abs(out[i])))  # argmax takes the lowest index on ties
        if out[i, pivot] < 0:
            out[i] = -out[i]
    return out


def fit_pca(
    matrix: FeatureMatrix,
    *,
    variance_target: float | None = None,
    fixed_k: int | None = None,
) -> PcaModel:
    """Fit PCA, retaining either enough components for variance_target or fixed_k.

    With neither given, 8 components are retained (capped at the number the
    matrix can supply). Variances use the n-1 sample convention.
    """
    if not matrix.normalized:
        raise ValueError("fit_pca expects a normalized feature matrix")
    n, d = matrix.values.shape
    if n < 2:
        raise TooFewRows("PCA needs at least 2 rows")
    if variance_target is not None and fixed_k is not None:
        raise ValueError("pass either variance_target or fixed_k, not both")

    mean = matrix.values.mean(axis=0)
    centered = matrix.values - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = (s * s) / (n - 1)
    total = float(variances.sum())
    ratios = variances / total if total > 0 else np.zeros_like(variances)

    available = len(variances)
    if variance_target is not None:
        if variance_target > 1.0:
            raise TargetUnreachable(f"variance_target {variance_target} exceeds 1.0")
        if not variance_target > 0.0:  # NaN too: no cumulative share would reach it
            raise ValueError("variance_target must be in (0, 1]")
        cumulative = np.cumsum(ratios)
        reached = np.flatnonzero(cumulative >= variance_target - 1e-12)
        k = int(reached[0]) + 1 if reached.size else available
    else:
        if fixed_k is None:
            fixed_k = 8
        if fixed_k <= 0:
            raise ValueError("fixed_k must be positive")
        k = min(fixed_k, available)

    components = _apply_sign_convention(vt[:k])
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=variances[:k].copy(),
        explained_ratio=ratios[:k].copy(),
        total_variance=total,
        k=k,
        col_labels=matrix.cols,
    )


def project(model: PcaModel, matrix: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Scores of each row in the model's component space (rows x k)."""
    values = matrix.values if isinstance(matrix, FeatureMatrix) else np.asarray(matrix, dtype=float)
    if values.ndim != 2 or values.shape[1] != model.d:
        raise DimensionMismatch(f"matrix has {values.shape[-1]} columns, model expects {model.d}")
    return (values - model.mean) @ model.components.T


def loading_table(model: PcaModel, top_n: int) -> tuple[tuple[tuple[str, float], ...], ...]:
    """Per PC, the top_n (metric, mean loading) pairs by |mean|, each loading
    averaged (signed) over the metric's machines."""
    if top_n <= 0:
        raise ValueError("top_n must be positive")
    metric_cols: dict[str, list[int]] = {}
    for i, (metric, _machine) in enumerate(model.col_labels):
        metric_cols.setdefault(metric, []).append(i)
    table = []
    for loadings in model.components:
        means = [(metric, float(np.mean(loadings[cols]))) for metric, cols in metric_cols.items()]
        means.sort(key=lambda item: (-abs(item[1]), item[0]))
        table.append(tuple(means[:top_n]))
    return tuple(table)


def loading_markdown(model: PcaModel, top_n: int) -> str:
    lines = [f"| PC | Top {top_n} metrics (mean loading over machines) |", "| --- | --- |"]
    for pc, entries in enumerate(loading_table(model, top_n), start=1):
        cells = ", ".join(f"{metric} ({value:+.2f})" for metric, value in entries)
        lines.append(f"| PC{pc} | {cells} |")
    return "\n".join(lines) + "\n"


def export_scores_csv(labels: Sequence[str], scores: np.ndarray, fh: TextIO) -> None:
    text, sep = files.CsvText(), "," if scores.shape[1] else ""
    files.write_csv(
        fh,
        ["workload", *(f"pc{i + 1}" for i in range(scores.shape[1]))],
        (f"{text[label]}{sep}{row}\n" for label, row in zip(labels, files.float_rows(scores))),
    )


def export_variance_csv(model: PcaModel, fh: TextIO) -> None:
    variances, ratios = model.explained_variance.tolist(), model.explained_ratio.tolist()
    cumulative = list(accumulate(ratios, initial=0.0))[1:]  # summed from 0.0 in pc order
    files.write_csv(
        fh,
        ["pc", "explained_variance", "explained_ratio", "cumulative_ratio"],
        (f"pc{i + 1},{variances[i]!r},{ratios[i]!r},{cumulative[i]!r}\n" for i in range(model.k)),
    )
