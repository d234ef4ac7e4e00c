"""Cross-suite comparison statistics.

Metric comparisons use geometric means over positive values (excluded zeros
are counted, not epsilon-substituted); instruction-volume comparisons use
arithmetic means, which is what reproduces published speed-vs-rate factors.
Box statistics keep min/max whiskers so outliers stay part of the range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from . import files
from .errors import EmptySuite
from .events import METRIC_NAMES
from .stats import BoxStats, positive_geomean


@dataclass(frozen=True)
class MetricComparison:
    metric: str
    geomean_a: float
    geomean_b: float
    ratio: float  # geomean_a / geomean_b
    excluded_zeros_a: int
    excluded_zeros_b: int
    box_a: BoxStats
    box_b: BoxStats


@dataclass(frozen=True)
class SuiteComparison:
    suite_a: str
    suite_b: str
    machine: str
    metrics: tuple[MetricComparison, ...]
    no_positive: tuple[str, ...]  # metrics with values but nothing positive on a side
    skipped: tuple[str, ...]      # metrics unavailable on a side


def compare_suites(
    suite_a: str, values_a: np.ndarray, suite_b: str, values_b: np.ndarray, machine: str
) -> SuiteComparison:
    """Per-metric geomean ratio of suite_a over suite_b on one machine.

    Each side holds one run per row of METRIC_NAMES values, NaN where
    unavailable, such as `Metrics.select(...).values`; geomeans multiply in
    row order. Metrics that cannot be compared are collected instead of
    aborting the whole comparison: 'skipped' when a side has no available
    values at all, 'no_positive' when a side has values but none positive.
    """
    if not len(values_a):
        raise EmptySuite(f"suite {suite_a!r} has no runs on {machine!r}")
    if not len(values_b):
        raise EmptySuite(f"suite {suite_b!r} has no runs on {machine!r}")
    comparisons = []
    no_positive: list[str] = []
    skipped: list[str] = []
    for metric, col_a, col_b in zip(METRIC_NAMES, np.transpose(values_a), np.transpose(values_b)):
        a, b = col_a[~np.isnan(col_a)].tolist(), col_b[~np.isnan(col_b)].tolist()
        if not a or not b:
            skipped.append(metric)
            continue
        geomean_a, zeros_a = positive_geomean(a)
        geomean_b, zeros_b = positive_geomean(b)
        if geomean_a is None or geomean_b is None:
            no_positive.append(metric)
            continue
        comparisons.append(
            MetricComparison(
                metric=metric,
                geomean_a=geomean_a,
                geomean_b=geomean_b,
                ratio=geomean_a / geomean_b,
                excluded_zeros_a=zeros_a,
                excluded_zeros_b=zeros_b,
                box_a=BoxStats.of(a),
                box_b=BoxStats.of(b),
            )
        )
    return SuiteComparison(
        suite_a=suite_a,
        suite_b=suite_b,
        machine=machine,
        metrics=tuple(comparisons),
        no_positive=tuple(no_positive),
        skipped=tuple(skipped),
    )


def instruction_volume_ratio(
    speed_icounts: Sequence[float],
    rate_icounts: Sequence[float],
) -> float:
    """Ratio of mean dynamic instruction counts, speed over rate."""
    if not speed_icounts or not rate_icounts:
        raise EmptySuite("instruction counts must be non-empty on both sides")
    mean_speed = sum(speed_icounts) / len(speed_icounts)
    mean_rate = sum(rate_icounts) / len(rate_icounts)
    return mean_speed / mean_rate


def comparison_markdown(cmp: SuiteComparison) -> str:
    lines = [
        f"Machine: {cmp.machine}",
        "",
        f"| Metric | {cmp.suite_a} geomean | {cmp.suite_b} geomean | Ratio | Zeros excluded |",
        "| --- | --- | --- | --- | --- |",
    ]
    for m in cmp.metrics:
        lines.append(
            f"| {m.metric} | {m.geomean_a:.4f} | {m.geomean_b:.4f} | {m.ratio:.2f}x "
            f"| {m.excluded_zeros_a}/{m.excluded_zeros_b} |"
        )
    if cmp.no_positive:
        lines.append("")
        lines.append(f"No positive values: {', '.join(cmp.no_positive)}")
    if cmp.skipped:
        lines.append("")
        lines.append(f"Unavailable: {', '.join(cmp.skipped)}")
    return "\n".join(lines) + "\n"


def export_comparison_csv(cmp: SuiteComparison, fh: TextIO) -> None:
    text = files.CsvText()
    stats = {"min": "minimum", "q1": "q1", "median": "median", "q3": "q3", "max": "maximum"}  # column: BoxStats field
    files.write_csv(
        fh,
        ["metric", "geomean_a", "geomean_b", "ratio", "excluded_zeros_a", "excluded_zeros_b",
         *(f"{stat}_{side}" for side in "ab" for stat in stats)],
        (
            f"{text[m.metric]},{m.geomean_a!r},{m.geomean_b!r},{m.ratio!r},{m.excluded_zeros_a},{m.excluded_zeros_b},"
            + ",".join(repr(getattr(box, field)) for box in (m.box_a, m.box_b) for field in stats.values())
            + "\n"
            for m in cmp.metrics
        ),
    )
