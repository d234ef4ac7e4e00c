"""Representative subset evaluation and selection.

A subset's fidelity is scored against the full suite through the ratio of
geometric-mean running scores: err = |GM(subset) - GM(suite)| / GM(suite)
and accuracy = 1 - err. Selection follows the clustering route (cut the
dendrogram, take each group's medoid); exhaustive search is available as an
opt-in optimality check, never as the selector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf
from pathlib import Path
from typing import Mapping, Sequence

from .cluster import ClusterCut, Dendrogram, cut_to_groups, medoids_for
from .errors import (
    BudgetExceeded,
    EmptySubset,
    EmptySuite,
    NonPositiveScore,
    UnknownWorkload,
)
from .stats import geometric_mean

# machine -> workload -> positive running score
ScoreTable = Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class SubsetReport:
    suite: str
    subset: tuple[str, ...]
    per_machine_accuracy: Mapping[str, float]
    aggregate_accuracy: float | None
    oracle_best: tuple[tuple[str, ...], float] | None = None
    runtime_fraction: float | None = None
    groups: tuple[tuple[str, ...], ...] | None = None


def _validate_scores(scores: ScoreTable) -> tuple[str, ...]:
    if not scores:
        raise EmptySuite("no machines in score table")
    machines = sorted(scores)
    workloads = sorted(scores[machines[0]])
    if not workloads:
        raise EmptySuite("no workloads in score table")
    for machine in machines:
        if sorted(scores[machine]) != workloads:
            raise UnknownWorkload(f"machine {machine!r} scores a different workload set")
        for workload, value in scores[machine].items():
            if not value > 0:
                raise NonPositiveScore(f"score for {workload!r} on {machine!r} must be > 0, got {value!r}")
    return tuple(workloads)


def _suite_geomeans(scores: ScoreTable) -> dict[str, float]:
    """Geomean of every machine's whole-suite scores."""
    return {
        machine: geometric_mean([table[w] for w in sorted(table)])
        for machine, table in sorted(scores.items())
    }


def _accuracies(
    scores: ScoreTable, subset: Sequence[str], suite_geomeans: Mapping[str, float]
) -> tuple[dict[str, float], float | None]:
    """Per-machine accuracy plus the cross-machine geomean aggregate.

    The aggregate is only defined when every per-machine accuracy is positive
    (accuracy can go negative when the subset misses the suite geomean by
    more than 100%).
    """
    per_machine: dict[str, float] = {}
    for machine in sorted(scores):
        table = scores[machine]
        gm_suite = suite_geomeans[machine]
        gm_subset = geometric_mean([table[w] for w in sorted(subset)])
        err = abs(gm_subset - gm_suite) / gm_suite
        per_machine[machine] = 1.0 - err
    values = list(per_machine.values())
    aggregate = geometric_mean(values) if all(v > 0 for v in values) else None
    return per_machine, aggregate


def evaluate_subset(
    scores: ScoreTable,
    subset: Sequence[str],
    *,
    suite: str = "",
    wallclock: Mapping[str, float] | None = None,
) -> SubsetReport:
    """Score a subset against the full suite on every machine."""
    workloads = _validate_scores(scores)
    chosen = tuple(sorted(set(subset)))
    if not chosen:
        raise EmptySubset("subset must be non-empty")
    unknown = [w for w in chosen if w not in workloads]
    if unknown:
        raise UnknownWorkload(f"subset workloads not in suite: {unknown}")
    per_machine, aggregate = _accuracies(scores, chosen, _suite_geomeans(scores))
    runtime_fraction = None
    if wallclock is not None and all(w in wallclock for w in workloads):
        runtime_fraction = sum(wallclock[w] for w in chosen) / sum(wallclock[w] for w in workloads)
    return SubsetReport(
        suite=suite,
        subset=chosen,
        per_machine_accuracy=per_machine,
        aggregate_accuracy=aggregate,
        runtime_fraction=runtime_fraction,
    )


def select_representatives(
    dendrogram: Dendrogram,
    pca_scores: Mapping[str, Sequence[float]],
    scores: ScoreTable,
    target_groups: int,
    *,
    suite: str = "",
    wallclock: Mapping[str, float] | None = None,
) -> SubsetReport:
    """Cut to target_groups groups, take each medoid, evaluate the subset."""
    if target_groups > len(dendrogram.leaves):
        raise ValueError(
            f"target_groups {target_groups} exceeds the {len(dendrogram.leaves)} leaves"
        )
    cut_result: ClusterCut = medoids_for(cut_to_groups(dendrogram, target_groups), pca_scores)
    assert cut_result.medoids is not None
    report = evaluate_subset(scores, cut_result.medoids, suite=suite, wallclock=wallclock)
    return SubsetReport(
        suite=report.suite,
        subset=report.subset,
        per_machine_accuracy=report.per_machine_accuracy,
        aggregate_accuracy=report.aggregate_accuracy,
        runtime_fraction=report.runtime_fraction,
        groups=cut_result.groups,
    )


def oracle_best_subset(
    scores: ScoreTable,
    k: int,
    *,
    budget: int = 2_000_000,
) -> tuple[tuple[str, ...], float]:
    """Exact argmax of aggregate accuracy over all size-k subsets.

    Enumeration order is lexicographic, so ties resolve to the first subset
    in that order. Raises BudgetExceeded when C(n, k) blows the budget.
    """
    workloads = _validate_scores(scores)
    if not 1 <= k <= len(workloads):
        raise ValueError(f"k must be in [1, {len(workloads)}], got {k}")
    if comb(len(workloads), k) > budget:
        raise BudgetExceeded(f"C({len(workloads)}, {k}) exceeds budget {budget}")
    suite_geomeans = _suite_geomeans(scores)
    best_subset: tuple[str, ...] | None = None
    best_value = -inf
    for candidate in combinations(workloads, k):
        _, aggregate = _accuracies(scores, candidate, suite_geomeans)
        value = aggregate if aggregate is not None else -inf
        if value > best_value:
            best_value = value
            best_subset = candidate
    assert best_subset is not None
    return best_subset, best_value


def subset_markdown(reports: Sequence[SubsetReport]) -> str:
    lines = [
        "| Group | Subset workloads | Accuracy |",
        "| --- | --- | --- |",
    ]
    for report in reports:
        accuracy = (
            f"{100.0 * report.aggregate_accuracy:.2f}%"
            if report.aggregate_accuracy is not None
            else "; ".join(
                f"{m}: {100.0 * a:.2f}%" for m, a in sorted(report.per_machine_accuracy.items())
            )
        )
        lines.append(f"| {report.suite} | {', '.join(report.subset)} | {accuracy} |")
    return "\n".join(lines) + "\n"


def export_subset_csv(reports: Sequence[SubsetReport], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["suite", "subset", "machine", "accuracy", "aggregate_accuracy", "runtime_fraction"]
        )
        for report in reports:
            aggregate = "" if report.aggregate_accuracy is None else repr(report.aggregate_accuracy)
            fraction = "" if report.runtime_fraction is None else repr(report.runtime_fraction)
            for machine in sorted(report.per_machine_accuracy):
                writer.writerow(
                    [
                        report.suite,
                        " ".join(report.subset),
                        machine,
                        repr(report.per_machine_accuracy[machine]),
                        aggregate,
                        fraction,
                    ]
                )
