"""Representative subset evaluation and selection.

A subset's fidelity is scored against the full suite through the ratio of
geometric-mean running scores: err = |GM(subset) - GM(suite)| / GM(suite)
and accuracy = 1 - err. Selection follows the clustering route (cut the
dendrogram, take each group's medoid); exhaustive search is available as an
opt-in optimality check, never as the selector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, inf
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import files
from .cluster import ClusterCut, Dendrogram, cut_to_groups, medoids_for
from .errors import (
    BudgetExceeded,
    EmptySubset,
    EmptySuite,
    NoDefinedSubset,
    NonPositiveScore,
    UnknownWorkload,
)
from .stats import geometric_mean

# machine -> workload -> positive running score
ScoreTable = Mapping[str, Mapping[str, float]]

# Candidates per array pass of oracle_best_subset; bounds its memory.
_ORACLE_CHUNK = 8192


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
    in that order. Raises BudgetExceeded when C(n, k) blows the budget, and
    NoDefinedSubset when every subset leaves some machine at accuracy <= 0.

    Candidates are scored in chunks of index arrays with the float operations
    of `_accuracies`, in its order: products from the first member in sorted
    order, roots by Python's float power (the same libm call as
    `geometric_mean`; numpy's SIMD power can differ in the last bit). A
    candidate whose product falls outside (0, inf) takes the log-domain
    branch, so `_accuracies` itself scores it. Every value is therefore the
    one `_accuracies` gives.
    """
    workloads = _validate_scores(scores)
    n = len(workloads)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if comb(n, k) > budget:
        raise BudgetExceeded(f"C({n}, {k}) exceeds budget {budget}")
    suite_geomeans = _suite_geomeans(scores)
    machines = sorted(scores)
    table = np.array([[scores[m][w] for w in workloads] for m in machines])
    gm_suite = np.array([[suite_geomeans[m]] for m in machines])
    best_subset: tuple[str, ...] | None = None
    best_value = -inf
    candidates = combinations(range(n), k)
    while True:
        members = np.fromiter(
            chain.from_iterable(islice(candidates, _ORACLE_CHUNK)), dtype=np.intp
        ).reshape(-1, k)
        if not len(members):
            break
        with np.errstate(over="ignore", invalid="ignore"):
            product = table[:, members[:, 0]]
            for j in range(1, k):
                product = product * table[:, members[:, j]]
            gm_subset = _powers(product, 1.0 / k)
            accuracy = 1.0 - np.abs(gm_subset - gm_suite) / gm_suite
            aggregate = accuracy[0]
            for row in accuracy[1:]:
                aggregate = aggregate * row
        defined = (accuracy > 0).all(axis=0)
        value = np.full(len(members), -inf)
        value[defined] = _powers(aggregate[defined], 1.0 / len(machines))
        in_range = ((product > 0) & (product < inf)).all(axis=0)
        log_domain = ~in_range | (defined & (aggregate == 0))
        for c in np.flatnonzero(log_domain):
            _, exact = _accuracies(scores, [workloads[i] for i in members[c]], suite_geomeans)
            value[c] = exact if exact is not None else -inf
        c = int(np.argmax(value))
        if value[c] > best_value:
            best_value = float(value[c])
            best_subset = tuple(workloads[i] for i in members[c])
    if best_subset is None:
        raise NoDefinedSubset(
            f"no size-{k} subset of the {n} workloads has a defined aggregate accuracy: "
            "each leaves some machine at accuracy <= 0"
        )
    return best_subset, best_value


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """`values ** exponent` elementwise by Python's float power."""
    return np.array([v**exponent for v in values.ravel().tolist()]).reshape(values.shape)


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
    text = files.CsvText()
    files.write_csv(
        path,
        ["suite", "subset", "machine", "accuracy", "aggregate_accuracy", "runtime_fraction"],
        (
            f"{text[report.suite]},{text[' '.join(report.subset)]},{text[machine]},{accuracy!r},"
            f"{'' if report.aggregate_accuracy is None else repr(report.aggregate_accuracy)},"
            f"{'' if report.runtime_fraction is None else repr(report.runtime_fraction)}\n"
            for report in reports
            for machine, accuracy in sorted(report.per_machine_accuracy.items())
        ),
    )
