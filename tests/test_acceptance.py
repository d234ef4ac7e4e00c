"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
each test also enforces its runtime budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from benchlens import bundled
from benchlens.cli import main
from benchlens.cluster import build_dendrogram, cut
from benchlens.compare import instruction_volume_ratio
from benchlens.dataset import Store, read_store
from benchlens.features import FeatureMatrix, normalize
from benchlens.metrics import MetricVector, derive_store
from benchlens.pca import fit_pca, project
from benchlens.proxy import RrrSchedule, blend_distance, simulate_rrr
from benchlens.subset import evaluate_subset, oracle_best_subset, select_representatives
from conftest import (
    BLEND_TARGET_IPC,
    CACTUS_L1I_MPKI,
    FOTONIK_L1I_MPKI,
    STATED_IPC_GAP,
    derive_one,
    icache_stress_pair,
)
from oracles import covariance_eig_pca, naive_linkage, reconstruct
from reference_table import REFERENCE_ROWS


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.2f}s >= {seconds}s"


def passed(criterion: int, note: str) -> None:
    print(f"PASS criterion {criterion}: {note}")


@pytest.fixture(scope="module")
def store():
    return read_store(bundled.sample_store_path(), bundled.sample_scores_path())


def test_criterion_1_instruction_volume_ratios(store):
    with budget(1.0):
        def icounts(suite):
            return store.select(suite=suite).column("instructions").tolist()

        int_ratio = instruction_volume_ratio(icounts("int_speed"), icounts("int_rate"))
        fp_ratio = instruction_volume_ratio(icounts("fp_speed"), icounts("fp_rate"))
        assert abs(int_ratio - 29.0) <= 0.05 * 29.0, int_ratio
        assert abs(fp_ratio - 19.0) <= 0.05 * 19.0, fp_ratio
    passed(1, f"speed/rate icount ratios INT {int_ratio:.1f}x, FP {fp_ratio:.1f}x")


def test_criterion_2_metric_derivation_fidelity(store):
    with budget(1.0):
        metrics = derive_store(store)
        cells = 0
        for suite, rows in REFERENCE_ROWS.items():
            for workload, (_icount, loads, stores, branches, ipc) in rows.items():
                vec = metrics.row((suite, workload, "CPU-C"))
                assert vec.load_pct == loads, (workload, vec.load_pct)
                assert vec.store_pct == stores
                assert vec.branch_pct == branches
                assert round(vec.ipc, 3) == ipc
                cells += 4
        rng = np.random.default_rng(2)
        for _ in range(200):
            instructions = float(rng.integers(10**6, 10**13))
            misses = float(rng.integers(0, 10**8))
            vec = derive_one(
                Store.from_cells(
                    ("s", "w", "m", e, v, True)
                    for e, v in {
                        "instructions": instructions,
                        "cycles": instructions,
                        "l1d_misses": misses,
                        "l1_dtlb_misses": misses,
                    }.items()
                )
            )
            if misses:
                assert abs(vec.l1_dtlb_mpmi - 1000.0 * vec.l1d_mpki) <= 1e-12 * vec.l1_dtlb_mpmi
            else:
                assert vec.l1_dtlb_mpmi == 0.0 == vec.l1d_mpki
    passed(2, f"{cells} published cells reproduced; MPMI = 1000 x MPKI within 1e-12")


def test_criterion_3_pca_against_eigendecomposition_oracle():
    with budget(30.0):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(5, 21))
            d = int(rng.integers(3, 172))
            values = rng.uniform(0.0, 10.0, size=(n, d))
            cols = tuple((f"metric{j}", "m0") for j in range(d))
            matrix = normalize(
                FeatureMatrix(rows=tuple(f"w{i}" for i in range(n)), cols=cols, values=values)
            )
            k = min(n, d)
            model = fit_pca(matrix, fixed_k=k)
            eigenvalues, _ = covariance_eig_pca(matrix.values)
            assert np.max(np.abs(model.explained_variance - eigenvalues[: model.k])) < 1e-8
            gram = model.components @ model.components.T
            assert np.max(np.abs(gram - np.eye(model.k))) < 1e-8
            scores = project(model, matrix)
            assert np.max(np.abs(reconstruct(model, scores) - matrix.values)) < 1e-8
    passed(3, "50 random fits match the covariance oracle within 1e-8")


def test_criterion_4_clustering_matches_naive_oracle():
    with budget(60.0):
        rng = np.random.default_rng(4)
        for trial in range(100):
            n = int(rng.integers(3, 13))
            points = rng.normal(size=(n, int(rng.integers(1, 5))))
            labels = [f"w{i}" for i in range(n)]
            for linkage in ("ward", "average", "complete", "single"):
                dendrogram = build_dendrogram(points, labels, linkage)
                for merge, (left, right, height, size) in zip(
                    dendrogram.merges, naive_linkage(points, linkage)
                ):
                    assert (merge.left, merge.right, merge.size) == (left, right, size)
                    assert abs(merge.height - height) <= 1e-10
            dendrogram = build_dendrogram(points, labels, "ward")
            previous = None
            for threshold in np.linspace(0.0, dendrogram.root_height * 1.05, 20):
                groups = cut(dendrogram, float(threshold))
                if previous is not None:
                    assert len(groups) <= len(previous)
                    for group in previous:
                        assert any(set(group) <= set(larger) for larger in groups)
                previous = groups
    passed(4, "100 instances x 4 linkages equal the naive oracle; cuts are monotone")


def test_criterion_5_subset_accuracy_formula():
    with budget(5.0):
        hand = evaluate_subset({"m0": {"a": 2.0, "b": 8.0}}, ["a"])
        assert hand.per_machine_accuracy["m0"] == 0.5
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            scores = {f"w{i}": float(rng.uniform(0.1, 100.0)) for i in range(n)}
            full = evaluate_subset({"m0": scores}, list(scores))
            assert full.per_machine_accuracy["m0"] == 1.0
        scores = {f"w{i}": float(rng.uniform(0.5, 50.0)) for i in range(10)}
        subset = ["w0", "w3", "w7"]
        base = evaluate_subset({"m0": scores}, subset).per_machine_accuracy["m0"]
        for c in (1e-6, 0.123, 45.0, 1e6):
            scaled = {w: c * v for w, v in scores.items()}
            acc = evaluate_subset({"m0": scaled}, subset).per_machine_accuracy["m0"]
            assert abs(acc - base) <= 1e-12
    passed(5, "hand case exactly 50%; 1000 full-suite cases exactly 100%; scale-invariant")


def test_criterion_6_representative_selection_sanity():
    with budget(60.0):
        rng = np.random.default_rng(6)
        for trial in range(100):
            g = int(rng.integers(2, 6))
            per_group = int(rng.integers(2, 5))
            # separation >= 10x intra-cluster spread
            spread = 0.05
            centers = rng.normal(0.0, 1.0, size=(g, 3))
            while True:
                gaps = [
                    np.linalg.norm(centers[i] - centers[j])
                    for i in range(g)
                    for j in range(i + 1, g)
                ]
                if min(gaps) >= 10 * spread * 2:
                    break
                centers = rng.normal(0.0, 1.0, size=(g, 3))
            pca_scores = {}
            label_of = {}
            for gi in range(g):
                for i in range(per_group):
                    w = f"g{gi}w{i}"
                    pca_scores[w] = list(centers[gi] + rng.normal(0.0, spread, size=3))
                    label_of[w] = gi
            running = {"m0": {w: float(rng.uniform(5.0, 10.0)) for w in pca_scores}}
            workloads = sorted(pca_scores)
            dendrogram = build_dendrogram(
                np.array([pca_scores[w] for w in workloads]), workloads, "ward"
            )
            report = select_representatives(dendrogram, pca_scores, running, g)
            assert {label_of[w] for w in report.subset} == set(range(g)), trial
            _, best = oracle_best_subset(running, g)
            assert report.aggregate_accuracy <= best + 1e-12
    passed(6, "100/100 planted-cluster trials pick one representative per cluster")


def test_criterion_7_rrr_blend_properties():
    with budget(5.0):
        cactus, fotonik = icache_stress_pair()
        order = (cactus.workload, fotonik.workload)
        blend = simulate_rrr([cactus, fotonik], RrrSchedule(order=order, copies=2))
        assert FOTONIK_L1I_MPKI < blend.metrics.l1i_mpki < CACTUS_L1I_MPKI

        from conftest import make_profile

        equal_a = make_profile("a", ipc=2.0, instr_rate=1e9, l1i_mpki=30.0)
        equal_b = make_profile("b", ipc=2.0, instr_rate=1e9, l1i_mpki=10.0)
        mean_blend = simulate_rrr([equal_a, equal_b], RrrSchedule(order=("a", "b"), copies=2))
        assert abs(mean_blend.metrics.l1i_mpki - 20.0) <= 1e-9

        period = cactus.duration + fotonik.duration
        totals = blend.totals
        by_name = {p.workload: p for p in (cactus, fotonik)}
        expected_instructions = sum(
            by_name[w].rates["instructions"] * share * blend.copies * blend.horizon
            for w, share in blend.time_shares.items()
        )
        assert abs(totals["instructions"] - expected_instructions) <= 1e-9 * expected_instructions

        skewed = simulate_rrr(
            [cactus, fotonik],
            RrrSchedule(order=order, copies=2, offsets=(0.0, 0.77), horizon=2 * period),
        )
        reference = simulate_rrr(
            [cactus, fotonik], RrrSchedule(order=order, copies=2, horizon=2 * period)
        )
        for event, value in reference.totals.items():
            assert abs(skewed.totals[event] - value) <= 1e-9 * max(value, 1.0)

        target = MetricVector(ipc=BLEND_TARGET_IPC / (1.0 - STATED_IPC_GAP))
        report = blend_distance(blend, target, {"ipc": 1.0})
        assert abs(report.relative_gaps["ipc"] - STATED_IPC_GAP) <= 1e-9
    passed(7, "blend between endpoints, mean/conservation/offset laws hold, IPC gap 13.7%")


def test_criterion_8_report_determinism(tmp_path, capsys):
    with budget(30.0):
        args = [
            "--store", str(bundled.sample_store_path()),
            "--scores", str(bundled.sample_scores_path()),
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["report", *args, "--out", str(out_a)]) == 0
        assert main(["report", *args, "--out", str(out_b)]) == 0
        capsys.readouterr()
        files_a = {p.relative_to(out_a): p.read_bytes() for p in sorted(out_a.rglob("*")) if p.is_file()}
        files_b = {p.relative_to(out_b): p.read_bytes() for p in sorted(out_b.rglob("*")) if p.is_file()}
        assert files_a.keys() == files_b.keys()
        assert all(files_a[name] == files_b[name] for name in files_a)
        assert len(files_a) >= 15
    passed(8, f"two report runs produced {len(files_a)} byte-identical artifacts")
