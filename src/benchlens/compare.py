"""Cross-suite comparison statistics.

Metric comparisons use geometric means over positive values (excluded zeros
are counted, not epsilon-substituted); instruction-volume comparisons use
arithmetic means, which is what reproduces published speed-vs-rate factors.
Box statistics keep min/max whiskers so outliers stay part of the range.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import files
from .errors import EmptySuite
from .events import METRIC_NAMES
from .metrics import MetricVector
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
    suite_a: str,
    vectors_a: Sequence[MetricVector],
    suite_b: str,
    vectors_b: Sequence[MetricVector],
    machine: str,
) -> SuiteComparison:
    """Per-metric geomean ratio of suite_a over suite_b on one machine.

    Metrics that cannot be compared are collected instead of aborting the
    whole comparison: 'skipped' when a side has no available values at all,
    'no_positive' when a side has values but none positive.
    """
    if not vectors_a:
        raise EmptySuite(f"suite {suite_a!r} has no metric vectors on {machine!r}")
    if not vectors_b:
        raise EmptySuite(f"suite {suite_b!r} has no metric vectors on {machine!r}")
    comparisons = []
    no_positive: list[str] = []
    skipped: list[str] = []
    for metric in METRIC_NAMES:
        values_a = [v for vec in vectors_a if (v := vec.get(metric)) is not None]
        values_b = [v for vec in vectors_b if (v := vec.get(metric)) is not None]
        if not values_a or not values_b:
            skipped.append(metric)
            continue
        geomean_a, zeros_a = positive_geomean(values_a)
        geomean_b, zeros_b = positive_geomean(values_b)
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
                box_a=BoxStats.of(values_a),
                box_b=BoxStats.of(values_b),
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


def export_comparison_csv(cmp: SuiteComparison, path: str | Path) -> None:
    text = files.CsvText()
    stats = {"min": "minimum", "q1": "q1", "median": "median", "q3": "q3", "max": "maximum"}  # column: BoxStats field
    files.write_csv(
        path,
        ["metric", "geomean_a", "geomean_b", "ratio", "excluded_zeros_a", "excluded_zeros_b",
         *(f"{stat}_{side}" for side in "ab" for stat in stats)],
        (
            f"{text[m.metric]},{m.geomean_a!r},{m.geomean_b!r},{m.ratio!r},{m.excluded_zeros_a},{m.excluded_zeros_b},"
            + ",".join(repr(getattr(box, field)) for box in (m.box_a, m.box_b) for field in stats.values())
            + "\n"
            for m in cmp.metrics
        ),
    )
