"""Representative subset evaluation and selection.

A subset's fidelity is scored against the full suite through the ratio of
geometric-mean running scores: err = |GM(subset) - GM(suite)| / GM(suite)
and accuracy = 1 - err. Selection follows the clustering route (cut the
dendrogram, take each group's medoid); exhaustive search is available as an
opt-in optimality check, never as the selector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, inf
from typing import Mapping, Sequence, TextIO

import numpy as np

from . import files
from .cluster import Dendrogram, cut_to_groups, medoid
from .errors import (
    BudgetExceeded,
    EmptySubset,
    EmptySuite,
    NoDefinedSubset,
    NonPositiveScore,
    UnknownWorkload,
)
from .stats import geometric_mean, subset_rows

# machine -> workload -> positive running score
ScoreTable = Mapping[str, Mapping[str, float]]

# Candidates per array pass of oracle_best_subset; bounds its memory.
_ORACLE_CHUNK = 8192
# Screening margin of oracle_best_subset. numpy's and libm's power agree to a
# few units in the last place (about 1e-15 relative), which moves an accuracy
# in (0, 1] by less than 1e-14, so 1e-12 is a wide margin both on each
# accuracy (absolute) and on the root of a bound product (relative).
_SLACK = 1e-12
_TINY = np.finfo(float).tiny  # the smallest normal float


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
    groups = cut_to_groups(dendrogram, target_groups)
    medoids = [medoid(group, pca_scores) for group in groups]
    return replace(evaluate_subset(scores, medoids, suite=suite, wallclock=wallclock), groups=groups)


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

    Candidates come in chunks of index rows. Each chunk is screened first:
    numpy's power gives every machine's accuracy to within _SLACK, so each
    candidate gets an interval that holds its exact aggregate (the product of
    the machines' bounds, then the root, widened by _SLACK). A candidate
    whose upper bound falls below the best lower bound, or below the best
    exact value of an earlier chunk, cannot be the first maximum and is
    dropped. Candidates whose bounds cannot be trusted (a subset product
    outside the normal floats, a bound product that is subnormal or 0) are
    always kept. The kept ones are then scored exactly by `_exact_values`.
    Every value is therefore the one `_accuracies` gives, and the first
    maximum is the one the full enumeration finds.
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
    root = 1.0 / len(machines)
    best_subset: tuple[str, ...] | None = None
    best_value = -inf
    for members in subset_rows(n, k, _ORACLE_CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):
            product = table[:, members[:, 0]]  # from the first member in sorted order, as `_accuracies`
            for j in range(1, k):
                product = product * table[:, members[:, j]]
            accuracy = 1.0 - np.abs(np.power(product, 1.0 / k) - gm_suite) / gm_suite
            high, low = accuracy + _SLACK, accuracy - _SLACK
            high_product, low_product = _row_products(high), _row_products(low)
            trusted = ((product >= _TINY) & (product < inf)).all(axis=0)
            possible = (high > 0).all(axis=0)  # else some machine is surely at accuracy <= 0
            upper = np.where(possible, np.power(high_product, root) * (1.0 + _SLACK), -inf)
            upper[~trusted | possible & (high_product < _TINY)] = inf
            lower = np.where(
                trusted & (low > 0).all(axis=0) & (low_product >= _TINY),
                np.power(low_product, root) * (1.0 - _SLACK),
                -inf,
            )
        keep = np.flatnonzero(~(upper < max(best_value, lower.max())) & (upper != -inf))
        if not len(keep):
            continue
        value = _exact_values(scores, workloads, suite_geomeans, gm_suite, members[keep], product[:, keep])
        c = int(np.argmax(value))
        if value[c] > best_value:
            best_value = float(value[c])
            best_subset = tuple(workloads[i] for i in members[keep[c]])
    if best_subset is None:
        raise NoDefinedSubset(
            f"no size-{k} subset of the {n} workloads has a defined aggregate accuracy: "
            "each leaves some machine at accuracy <= 0"
        )
    return best_subset, best_value


def _row_products(values: np.ndarray) -> np.ndarray:
    """Product down the machine axis, from the first machine on."""
    total = values[0]
    for row in values[1:]:
        total = total * row
    return total


def _exact_values(
    scores: ScoreTable,
    workloads: Sequence[str],
    suite_geomeans: Mapping[str, float],
    gm_suite: np.ndarray,
    members: np.ndarray,
    product: np.ndarray,
) -> np.ndarray:
    """Aggregate accuracy of each candidate, -inf where it is undefined.

    `product` holds the machines x candidates products of the members'
    scores, multiplied from the first member in sorted order. The rest
    follows `_accuracies` operation by operation: roots by Python's float
    power (the same libm call as `geometric_mean`; numpy's SIMD power can
    differ in the last bit), then the product over machines in order. A
    candidate whose product falls outside (0, inf) takes the log-domain
    branch, so `_accuracies` itself scores it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        accuracy = 1.0 - np.abs(_powers(product, 1.0 / members.shape[1]) - gm_suite) / gm_suite
        aggregate = _row_products(accuracy)
    defined = (accuracy > 0).all(axis=0)
    value = np.full(len(members), -inf)
    value[defined] = _powers(aggregate[defined], 1.0 / len(gm_suite))
    in_range = ((product > 0) & (product < inf)).all(axis=0)
    log_domain = ~in_range | (defined & (aggregate == 0))
    for c in np.flatnonzero(log_domain):
        _, exact = _accuracies(scores, [workloads[i] for i in members[c]], suite_geomeans)
        value[c] = exact if exact is not None else -inf
    return value


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """`values ** exponent` elementwise by Python's float power."""
    return np.array([v**exponent for v in values.ravel().tolist()]).reshape(values.shape)


def subset_markdown(reports: Sequence[SubsetReport]) -> str:
    """One row per suite, with oracle columns when the reports carry the oracle's best subset."""
    oracle_k = next((len(r.oracle_best[0]) for r in reports if r.oracle_best is not None), None)
    header = ["Group", "Subset workloads", "Accuracy"]
    if oracle_k is not None:
        header += [f"Oracle best (k={oracle_k})", "Oracle accuracy"]
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    for report in reports:
        accuracy = (
            f"{100.0 * report.aggregate_accuracy:.2f}%"
            if report.aggregate_accuracy is not None
            else "; ".join(
                f"{m}: {100.0 * a:.2f}%" for m, a in sorted(report.per_machine_accuracy.items())
            )
        )
        cells = [report.suite, ", ".join(report.subset), accuracy]
        if oracle_k is not None:
            best, value = report.oracle_best or ((), None)
            cells += [", ".join(best), "" if value is None else f"{100.0 * value:.2f}%"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def export_subset_csv(reports: Sequence[SubsetReport], fh: TextIO) -> None:
    text = files.CsvText()
    files.write_csv(
        fh,
        ["suite", "subset", "machine", "accuracy", "aggregate_accuracy", "runtime_fraction"],
        (
            f"{text[report.suite]},{text[' '.join(report.subset)]},{text[machine]},{accuracy!r},"
            f"{'' if report.aggregate_accuracy is None else repr(report.aggregate_accuracy)},"
            f"{'' if report.runtime_fraction is None else repr(report.runtime_fraction)}\n"
            for report in reports
            for machine, accuracy in sorted(report.per_machine_accuracy.items())
        ),
    )
