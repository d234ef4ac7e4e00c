from __future__ import annotations

import numpy as np
import pytest

import benchlens.subset as subset_module
from benchlens.cluster import build_dendrogram
from benchlens.errors import (
    BudgetExceeded,
    EmptySubset,
    NoDefinedSubset,
    NonPositiveScore,
    UnknownWorkload,
)
from benchlens.subset import (
    evaluate_subset,
    oracle_best_subset,
    select_representatives,
    subset_markdown,
)
from oracles import accuracy_of, best_subset_recursive, loop_best_subset

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def one_machine(scores: dict[str, float]) -> dict[str, dict[str, float]]:
    return {"m0": scores}


def near_tie_tables(rng, count: int = 40):
    """Score tables of 1-9 workloads on 1-4 machines whose subsets nearly or
    exactly tie, or whose products leave the float range."""
    for i in range(count):
        n, machines = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        base = rng.uniform(1.0, 10.0, size=n)
        table = {}
        for m in range(machines):
            if i % 3 == 0:
                values = base * (m + 1) * (1.0 + 1e-13 * rng.uniform(size=n))
            elif i % 3 == 1:
                values = np.round(rng.uniform(1.0, 4.0, size=n))
            else:
                values = 10.0 ** rng.uniform(-300.0, 300.0, size=n)
            table[f"m{m}"] = {f"w{j}": float(v) for j, v in enumerate(values)}
        yield table


class TestEvaluateSubset:
    def test_hand_case_two_eight(self):
        report = evaluate_subset(one_machine({"a": 2.0, "b": 8.0}), ["a"])
        assert report.per_machine_accuracy["m0"] == 0.5  # GM 4 vs 2, err exactly 0.5
        assert report.aggregate_accuracy == 0.5

    def test_full_suite_is_exactly_one(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            scores = {f"w{i}": float(rng.uniform(0.1, 100.0)) for i in range(n)}
            report = evaluate_subset(one_machine(scores), list(scores))
            assert report.per_machine_accuracy["m0"] == 1.0
            assert report.aggregate_accuracy == 1.0

    def test_uniform_scaling_invariance(self):
        rng = np.random.default_rng(163)
        scores = {f"w{i}": float(rng.uniform(0.5, 50.0)) for i in range(12)}
        subset = [f"w{i}" for i in range(0, 12, 3)]
        base = evaluate_subset(one_machine(scores), subset).per_machine_accuracy["m0"]
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled = {w: c * v for w, v in scores.items()}
            acc = evaluate_subset(one_machine(scaled), subset).per_machine_accuracy["m0"]
            assert acc == pytest.approx(base, abs=1e-12)

    def test_matches_log_domain_oracle(self):
        rng = np.random.default_rng(167)
        scores = {f"w{i}": float(rng.uniform(1.0, 30.0)) for i in range(9)}
        subset = ["w1", "w4", "w8"]
        report = evaluate_subset(one_machine(scores), subset)
        assert report.per_machine_accuracy["m0"] == pytest.approx(
            accuracy_of(scores, subset), abs=1e-12
        )

    def test_multi_machine_aggregate_is_geomean(self):
        scores = {
            "m0": {"a": 2.0, "b": 8.0},
            "m1": {"a": 4.0, "b": 4.0},
        }
        report = evaluate_subset(scores, ["a"])
        assert report.per_machine_accuracy["m0"] == 0.5
        assert report.per_machine_accuracy["m1"] == 1.0
        assert report.aggregate_accuracy == pytest.approx((0.5 * 1.0) ** 0.5)

    def test_negative_accuracy_disables_aggregate(self):
        # subset geomean 100 vs suite geomean ~4.6: err > 1
        scores = {"m0": {"a": 1.0, "b": 100.0, "c": 1.0}, "m1": {"a": 1.0, "b": 1.0, "c": 1.0}}
        report = evaluate_subset(scores, ["b"])
        assert report.per_machine_accuracy["m0"] < 0
        assert report.aggregate_accuracy is None

    def test_runtime_fraction(self):
        scores = one_machine({"a": 1.0, "b": 2.0, "c": 3.0})
        wallclock = {"a": 10.0, "b": 30.0, "c": 60.0}
        report = evaluate_subset(scores, ["a", "c"], wallclock=wallclock)
        assert report.runtime_fraction == pytest.approx(0.7)
        full = evaluate_subset(scores, ["a", "b", "c"], wallclock=wallclock)
        assert full.runtime_fraction == 1.0

    def test_errors(self):
        with pytest.raises(NonPositiveScore):
            evaluate_subset(one_machine({"a": 0.0, "b": 1.0}), ["a"])
        with pytest.raises(EmptySubset):
            evaluate_subset(one_machine({"a": 1.0}), [])
        with pytest.raises(UnknownWorkload):
            evaluate_subset(one_machine({"a": 1.0}), ["ghost"])


class TestOracleBestSubset:
    def test_full_size_returns_everything(self):
        scores = one_machine({"a": 3.0, "b": 5.0, "c": 7.0})
        subset, accuracy = oracle_best_subset(scores, 3)
        assert subset == ("a", "b", "c")
        assert accuracy == 1.0

    def test_symmetric_tie_resolves_lexicographically(self):
        subset, accuracy = oracle_best_subset(one_machine({"a": 2.0, "b": 8.0}), 1)
        assert subset == ("a",)  # both give 50%, a enumerates first
        assert accuracy == 0.5

    def test_matches_recursive_enumerator(self, monkeypatch):
        rng = np.random.default_rng(173)
        scores = {f"w{i}": float(rng.uniform(5.0, 10.0)) for i in range(10)}
        ours = oracle_best_subset(one_machine(scores), 4)
        theirs = best_subset_recursive(scores, 4)
        assert ours[0] == theirs[0]
        assert ours[1] == pytest.approx(theirs[1], abs=1e-12)

        # bit for bit against the per-candidate loop, for every k, with
        # chunks that split the enumeration
        for chunk in (1, 3, subset_module._ORACLE_CHUNK):
            monkeypatch.setattr(subset_module, "_ORACLE_CHUNK", chunk)
            for table in near_tie_tables(np.random.default_rng(211)):
                for k in range(1, len(table["m0"]) + 1):
                    expected = loop_best_subset(table, k)
                    if expected[0] is None:
                        with pytest.raises(NoDefinedSubset):
                            oracle_best_subset(table, k)
                    else:
                        subset, value = oracle_best_subset(table, k)
                        assert (subset, repr(value)) == (expected[0], repr(expected[1]))

    def test_no_defined_subset_names_n_and_k(self):
        # each single workload misses one machine's suite geomean by 900%
        scores = {"m0": {"a": 1.0, "b": 100.0}, "m1": {"a": 100.0, "b": 1.0}}
        with pytest.raises(NoDefinedSubset, match="size-1 subset of the 2 workloads"):
            oracle_best_subset(scores, 1)
        assert oracle_best_subset(scores, 2) == (("a", "b"), 1.0)

    def test_budget(self):
        scores = one_machine({f"w{i}": 1.0 + i for i in range(30)})
        with pytest.raises(BudgetExceeded):
            oracle_best_subset(scores, 15, budget=1000)


@st.composite
def adversarial_tables(draw):
    """(table, k) on 1-60 machines whose subsets tie, sit within about 1e-12
    of accuracy 0, leave the float range, or are all undefined.

    - ties: scores 1-4, so many subsets share a value;
    - near_zero: some workloads score about 1e-24 of the rest on every
      machine, so subsets holding more of them than the suite's share score
      accuracies near 1e-12 and their aggregate underflows;
    - near_two: machine m scores one workload so high that every subset
      holding it has a geomean just under twice the suite's, an accuracy
      within 3e-12 of 0 whose last bits the root decides;
    - ulps: scores within 8 units in the last place of 1, so subsets tie or
      differ in the last bits, where numpy's and libm's power disagree;
    - range: scores from 1e-300 to 1e300, so subset products overflow or
      underflow;
    - undefined: machine j puts workload j at 1e200, so every subset short of
      the whole suite misses some machine's geomean by more than 100%.
    """
    kind = draw(st.sampled_from(("ties", "ulps", "near_zero", "near_two", "range", "undefined")))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    machines = n if kind == "undefined" else draw(st.integers(1, 60))
    tiny = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    exponent = draw(st.sampled_from((23, 24, 25, 26, 200)))
    table = {}
    for m in range(machines):
        jitter = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        if kind == "near_zero":
            values = [j * 10.0 ** -exponent if t else float(j) for j, t in zip(jitter, tiny)]
        elif kind == "near_two" and k < n:
            high = draw(st.integers(0, n - 1))
            gap = draw(st.integers(1, 30)) * 1e-13
            peak = (2.0 * (1.0 - gap)) ** (1.0 / (1.0 / k - 1.0 / n))
            values = [peak if w == high else 1.0 for w in range(n)]
        elif kind in ("ties", "near_two"):
            values = [float(j) for j in jitter]
        elif kind == "ulps":
            offsets = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
            values = [1.0 + j * 2.0**-52 for j in offsets]
        elif kind == "range":
            values = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
            values = [j * 10.0 ** e for j, e in zip(jitter, values)]
        else:
            values = [1e200 if w == m else float(j) for w, j in enumerate(jitter)]
        table[f"m{m:02d}"] = {f"w{w}": v for w, v in enumerate(values)}
    return table, k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=adversarial_tables(), chunk=st.sampled_from((1, 3, subset_module._ORACLE_CHUNK)))
def test_screened_oracle_matches_the_per_candidate_loop(case, chunk):
    table, k = case
    expected = loop_best_subset(table, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subset_module, "_ORACLE_CHUNK", chunk)
        if expected[0] is None:
            with pytest.raises(NoDefinedSubset):
                oracle_best_subset(table, k)
        else:
            subset, value = oracle_best_subset(table, k)
            assert (subset, repr(value)) == (expected[0], repr(expected[1]))


def planted_suite(rng, groups: int, per_group: int, spread: float = 0.05):
    """Clusters with unit-scale separation and tiny intra-cluster spread."""
    centers = rng.normal(0.0, 10.0, size=(groups, 3))
    pca_scores = {}
    labels = {}
    for g in range(groups):
        for i in range(per_group):
            workload = f"g{g}w{i}"
            pca_scores[workload] = list(centers[g] + rng.normal(0.0, spread, size=3))
            labels[workload] = g
    running = {w: float(rng.uniform(5.0, 10.0)) for w in pca_scores}
    return pca_scores, labels, running


class TestSelectRepresentatives:
    def test_target_groups_equal_to_n_returns_full_suite(self):
        rng = np.random.default_rng(179)
        pca_scores, _, running = planted_suite(rng, 2, 2)
        workloads = sorted(pca_scores)
        dendrogram = build_dendrogram(
            np.array([pca_scores[w] for w in workloads]), workloads, "ward"
        )
        report = select_representatives(dendrogram, pca_scores, one_machine(running), len(workloads))
        assert report.subset == tuple(workloads)
        assert report.aggregate_accuracy == 1.0

    def test_planted_clusters_yield_one_representative_each(self):
        rng = np.random.default_rng(181)
        pca_scores, labels, running = planted_suite(rng, 3, 4)
        workloads = sorted(pca_scores)
        dendrogram = build_dendrogram(
            np.array([pca_scores[w] for w in workloads]), workloads, "ward"
        )
        report = select_representatives(dendrogram, pca_scores, one_machine(running), 3)
        assert len(report.subset) == 3
        assert {labels[w] for w in report.subset} == {0, 1, 2}
        assert report.groups is not None and len(report.groups) == 3

    def test_never_beats_exhaustive_oracle(self):
        rng = np.random.default_rng(191)
        pca_scores, _, running = planted_suite(rng, 3, 3)
        workloads = sorted(pca_scores)
        dendrogram = build_dendrogram(
            np.array([pca_scores[w] for w in workloads]), workloads, "ward"
        )
        report = select_representatives(dendrogram, pca_scores, one_machine(running), 3)
        _, best = oracle_best_subset(one_machine(running), 3)
        assert report.aggregate_accuracy <= best + 1e-15

    def test_markdown_table(self):
        report = evaluate_subset(one_machine({"a": 2.0, "b": 8.0}), ["a"], suite="demo")
        text = subset_markdown([report])
        assert "| demo | a | 50.00% |" in text
