"""Correctness checks of one operation's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the outputs are
right. Expected values are recomputed from the generated counts, never read
back from the program's own intermediate files.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from gen import (
    EVENTS,
    INGEST_SUITE,
    INGEST_WORKLOAD,
    MACHINES,
    METRICS,
    SUITE_WORKLOADS,
    SUITES,
    UNSUPPORTED_EVENT,
    Inputs,
)

REPORT_ARTIFACTS = {
    "out/metrics.csv",
    "out/metric_availability.csv",
    "out/features.csv",
    "out/dropped_columns.csv",
    "out/pca_scores.csv",
    "out/pca_variance.csv",
    "out/pca_loadings.md",
    "out/subsets.csv",
    "out/subsets.md",
    "out/volume_ratios.csv",
    *(f"out/dendrogram_{suite}.{ext}" for suite in SUITES for ext in ("csv", "svg")),
    *(
        f"out/compare_{kind}_rate_vs_{kind}_speed.{ext}"
        for kind in ("fp", "int")
        for ext in ("csv", "md", "svg")
    ),
}
ARTIFACTS = {
    "report_200x9": REPORT_ARTIFACTS,
    "proxy_k3": {"out/proxy_mixes.csv", "out/proxy_best.md"},
    "subset_240": {"out/subsets.csv", "out/subsets.md"},
    "ingest_9m": {"store.csv"},
}
PROXY_MIXES = sum(math.comb(SUITE_WORKLOADS, k) for k in (1, 2, 3))
PROXY_MACHINE = "M0"
SUBSET_GROUPS = 8
REL_TOL = 1e-9


def artifacts(work: Path) -> list[str]:
    return sorted(str(p.relative_to(work)) for p in work.rglob("*") if p.is_file())


def metric_values(counts: dict[str, float]) -> dict[str, float]:
    return {name: scale * counts[num] / counts[den] for name, (num, den, scale) in METRICS.items()}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_report(inputs: Inputs, work: Path) -> list[str]:
    rows = _rows(work / "out/metrics.csv")
    problems = []
    if len(rows) != len(SUITES) * SUITE_WORKLOADS:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {len(SUITES) * SUITE_WORKLOADS}")
    for row in rows:
        key = (row["suite"], row["workload"], row["machine"])
        if key not in inputs.store.counts or row["machine"] != "M0":
            problems.append(f"metrics.csv has an unexpected run {key}")
            continue
        expected = metric_values(inputs.store.counts[key])
        wrong = [m for m, v in expected.items() if row[m] == "" or float(row[m]) != v]
        if wrong:
            problems.append(f"metrics.csv {key}: {wrong} differ from scale * num / den")
    return problems


def check_proxy(inputs: Inputs, work: Path) -> list[str]:
    """Row count and order, every distance against the closed form, the top one via simulate_rrr.

    On the equal-duration schedule search_mix ranks by, a blend's counts are
    the sum of its constituents' rates, so each metric is
    scale * sum(num rates) / sum(den rates).
    """
    from benchlens import metrics, proxy

    rows = _rows(work / "out/proxy_mixes.csv")
    if len(rows) != PROXY_MIXES:
        return [f"proxy_mixes.csv has {len(rows)} rows, expected {PROXY_MIXES}"]
    problems = []
    distances = np.array([float(row["distance"]) for row in rows])
    if np.any(np.diff(distances) < 0):
        problems.append("proxy_mixes.csv is not in non-decreasing distance order")

    keys = sorted(k for k in inputs.store.counts if k[0] == "fp_rate" and k[2] == PROXY_MACHINE)
    pool = [w for _, w, _ in keys]
    rates = np.array([[inputs.store.counts[k][e] / inputs.store.wallclock[k] for e in EVENTS] for k in keys])
    num = [EVENTS.index(n) for n, _, _ in METRICS.values()]
    den = [EVENTS.index(d) for _, d, _ in METRICS.values()]
    scale = np.array([s for _, _, s in METRICS.values()])
    pool_metrics = scale * rates[:, num] / rates[:, den]
    target = metric_values(inputs.store.counts[("int_rate", inputs.target, PROXY_MACHINE)])
    target_row = np.array(list(target.values()))
    sd = pool_metrics.std(axis=0)
    index = {w: i for i, w in enumerate(pool)}
    sums = np.array([rates[[index[w] for w in row["mix"].split("+")]].sum(axis=0) for row in rows])
    blend = scale * sums[:, num] / sums[:, den]
    closed = np.sqrt((((blend - target_row) / np.where(sd > 0, sd, np.inf)) ** 2).sum(axis=1))
    worst = int(np.argmax(np.abs(distances - closed) / closed))
    if abs(distances[worst] - closed[worst]) > REL_TOL * closed[worst]:
        problems.append(
            f"mix {rows[worst]['mix']} distance {float(distances[worst])!r} "
            f"!= closed form {float(closed[worst])!r}"
        )

    order = tuple(rows[0]["mix"].split("+"))
    profiles = [
        proxy.WorkloadProfile(workload=w, rates=dict(zip(EVENTS, rates[i])), duration=1.0)
        for i, w in enumerate(pool)
    ]
    simulated = proxy.simulate_rrr(profiles, proxy.RrrSchedule(order=order, copies=len(order)))
    scales = {m: (float(pool_metrics[:, i].mean()), float(sd[i])) for i, m in enumerate(METRICS)}
    weights = {m: 1.0 for m in METRICS}
    expected = proxy.blend_distance(simulated, metrics.MetricVector(**target), weights, scales=scales).distance
    if not math.isclose(distances[0], expected, rel_tol=REL_TOL):
        problems.append(f"top mix {order} distance {float(distances[0])!r} != simulate_rrr's {expected!r}")
    return problems


def _accuracy(scores: np.ndarray, suite_log_gm: float) -> float:
    gm_suite = math.exp(suite_log_gm)
    return 1.0 - abs(math.exp(np.log(scores).mean()) - gm_suite) / gm_suite


def check_subset(inputs: Inputs, work: Path) -> list[str]:
    rows = _rows(work / "out/subsets.csv")
    if len(rows) != 1:
        return [f"subsets.csv has {len(rows)} rows, expected 1"]
    by_workload = {w: score for (_, w, _), score in inputs.subset.scores.items()}
    chosen = rows[0]["subset"].split()
    if len(set(chosen)) != SUBSET_GROUPS or not set(chosen) <= set(by_workload):
        return [f"medoid subset {chosen} is not {SUBSET_GROUPS} distinct suite workloads"]
    names = sorted(by_workload)
    scores = np.array([by_workload[w] for w in names])
    log_gm = float(np.log(scores).mean())
    problems = []
    medoid = float(rows[0]["accuracy"])
    expected = _accuracy(np.array([by_workload[w] for w in chosen]), log_gm)
    if not math.isclose(medoid, expected, rel_tol=REL_TOL):
        problems.append(f"medoid subset accuracy {medoid!r} != recomputed {expected!r}")
    pairs = np.array(list(combinations(range(len(names)), 2)))
    pair_gm = np.sqrt(scores[pairs[:, 0]] * scores[pairs[:, 1]])
    gm = math.exp(log_gm)
    oracle = float((1.0 - np.abs(pair_gm - gm) / gm).max())
    if oracle < medoid:
        problems.append(f"oracle accuracy {oracle!r} at k=2 is below the medoid subset's {medoid!r}")
    return problems


def check_ingest(inputs: Inputs, work: Path) -> list[str]:
    with open(work / "store.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    runs = {tuple(row[:3]) for row in rows}
    expected_runs = len(inputs.store.counts) + len(MACHINES)
    problems = []
    if len(runs) != expected_runs:
        problems.append(f"store holds {len(runs)} runs, expected {expected_runs}")
    ingested: dict[tuple[str, str], tuple[float, str]] = {
        (row[2], row[3]): (float(row[4]), row[5])
        for row in rows
        if (row[0], row[1]) == (INGEST_SUITE, INGEST_WORKLOAD)
    }
    for machine, values in inputs.ingest.items():
        for event in EVENTS:
            got = ingested.get((machine, event))
            if event == UNSUPPORTED_EVENT:
                want = (0.0, "false")
            else:
                want = (values[event], "true")  # dram_bytes: lines x cache line, in bytes
            if got != want:
                problems.append(f"ingested {machine}/{event} is {got}, expected {want}")
    return problems


CHECKS = {
    "report_200x9": check_report,
    "proxy_k3": check_proxy,
    "subset_240": check_subset,
    "ingest_9m": check_ingest,
}


def check(workload: str, inputs: Inputs, work: Path) -> list[str]:
    found, expected = set(artifacts(work)), ARTIFACTS[workload]
    if found != expected:
        return [f"artifacts missing {sorted(expected - found)}, unexpected {sorted(found - expected)}"]
    try:
        return CHECKS[workload](inputs, work)
    except (KeyError, IndexError, ValueError) as exc:  # a malformed artifact
        return [f"outputs do not parse: {exc!r}"]
