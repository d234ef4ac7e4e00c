from __future__ import annotations

import numpy as np
import pytest

from benchlens.errors import DimensionMismatch, TargetUnreachable, TooFewRows
from benchlens.features import FeatureMatrix, normalize
from benchlens.pca import fit_pca, loading_markdown, loading_table, project
from oracles import covariance_eig_pca, reconstruct


def matrix_from(values: np.ndarray, normalized=False) -> FeatureMatrix:
    n, d = values.shape
    cols = tuple((f"metric{i}", "m0") for i in range(d))
    m = FeatureMatrix(rows=tuple(f"w{i}" for i in range(n)), cols=cols, values=values)
    return normalize(m) if normalized else m


def labeled_matrix(values: np.ndarray, metrics: list[str], machines: list[str]) -> FeatureMatrix:
    cols = tuple((metric, machine) for metric in metrics for machine in machines)
    assert len(cols) == values.shape[1]
    m = FeatureMatrix(rows=tuple(f"w{i}" for i in range(values.shape[0])), cols=cols, values=values)
    return normalize(m)


def random_normalized(rng, n, d) -> FeatureMatrix:
    return matrix_from(rng.uniform(0.0, 10.0, size=(n, d)), normalized=True)


class TestFitPca:
    def test_duplicated_rows_are_rank_one(self):
        row = np.array([1.0, 2.0, 3.0])
        values = np.vstack([row, row + 1.0, row, row + 1.0])
        model = fit_pca(matrix_from(values, normalized=True), fixed_k=1)
        assert model.k == 1
        assert model.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_line_has_symmetric_first_component(self):
        t = np.linspace(0.0, 5.0, 8)
        values = np.column_stack([t, t])
        model = fit_pca(matrix_from(values, normalized=True), fixed_k=2)
        expected = 1.0 / np.sqrt(2.0)
        assert model.components[0] == pytest.approx([expected, expected], abs=1e-12)
        assert model.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_variances_match_covariance_eigendecomposition(self):
        rng = np.random.default_rng(29)
        matrix = random_normalized(rng, 10, 6)
        model = fit_pca(matrix, fixed_k=6)
        eigenvalues, _ = covariance_eig_pca(matrix.values)
        assert np.max(np.abs(model.explained_variance - eigenvalues[:6])) < 1e-8

    def test_orthonormal_components(self):
        rng = np.random.default_rng(31)
        matrix = random_normalized(rng, 12, 7)
        model = fit_pca(matrix, fixed_k=7)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(model.k))) < 1e-8

    def test_variance_sorted_and_ratios_sum_to_one(self):
        rng = np.random.default_rng(37)
        matrix = random_normalized(rng, 9, 5)
        model = fit_pca(matrix, fixed_k=5)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        assert float(np.sum(model.explained_ratio)) == pytest.approx(1.0, abs=1e-8)

    def test_variance_target_selects_min_k(self):
        rng = np.random.default_rng(41)
        matrix = random_normalized(rng, 10, 6)
        model = fit_pca(matrix, variance_target=0.8)
        assert float(np.sum(model.explained_ratio)) >= 0.8
        if model.k > 1:
            assert float(np.sum(model.explained_ratio[: model.k - 1])) < 0.8

    def test_default_is_eight_components_capped(self):
        rng = np.random.default_rng(43)
        wide = fit_pca(random_normalized(rng, 12, 20))
        assert wide.k == 8
        narrow = fit_pca(random_normalized(rng, 12, 3))
        assert narrow.k == 3

    def test_errors(self):
        rng = np.random.default_rng(47)
        matrix = random_normalized(rng, 6, 4)
        with pytest.raises(TargetUnreachable):
            fit_pca(matrix, variance_target=1.5)
        with pytest.raises(TooFewRows):
            fit_pca(
                FeatureMatrix(
                    rows=("a",), cols=(("ipc", "m"),), values=np.array([[1.0]]),
                    normalized=True,
                )
            )
        with pytest.raises(ValueError):
            fit_pca(matrix_from(np.ones((3, 2))))  # not normalized

    def test_deterministic_and_sign_convention(self):
        rng = np.random.default_rng(53)
        values = rng.normal(size=(10, 6))
        a = fit_pca(matrix_from(values.copy(), normalized=True), fixed_k=6)
        b = fit_pca(matrix_from(values.copy(), normalized=True), fixed_k=6)
        assert np.array_equal(a.components, b.components)
        for component in a.components:
            assert component[int(np.argmax(np.abs(component)))] > 0


class TestProject:
    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(59)
        matrix = random_normalized(rng, 10, 6)
        model = fit_pca(matrix, fixed_k=6)
        scores = project(model, matrix)
        assert np.max(np.abs(reconstruct(model, scores) - matrix.values)) < 1e-8

    def test_mean_row_projects_to_zero(self):
        rng = np.random.default_rng(61)
        matrix = random_normalized(rng, 8, 5)
        model = fit_pca(matrix, fixed_k=5)
        scores = project(model, matrix.values.mean(axis=0, keepdims=True))
        assert np.max(np.abs(scores)) < 1e-12

    def test_score_variance_equals_explained_variance(self):
        rng = np.random.default_rng(67)
        matrix = random_normalized(rng, 12, 6)
        model = fit_pca(matrix, fixed_k=6)
        scores = project(model, matrix)
        for j in range(model.k):
            assert float(np.var(scores[:, j], ddof=1)) == pytest.approx(
                float(model.explained_variance[j]), abs=1e-8
            )

    def test_row_permutation_permutes_scores(self):
        rng = np.random.default_rng(71)
        matrix = random_normalized(rng, 9, 4)
        model = fit_pca(matrix, fixed_k=4)
        permutation = rng.permutation(9)
        scores = project(model, matrix)
        permuted_scores = project(model, matrix.values[permutation])
        assert np.array_equal(scores[permutation], permuted_scores)
        # refitting on the permuted rows changes nothing but the row order
        permuted = matrix_from(matrix.values[permutation], normalized=True)
        refit = fit_pca(permuted, fixed_k=4)
        assert np.max(np.abs(refit.components - model.components)) < 1e-10
        assert np.max(np.abs(refit.explained_variance - model.explained_variance)) < 1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(73)
        model = fit_pca(random_normalized(rng, 6, 4), fixed_k=2)
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros((3, 5)))


class TestLoadingTable:
    def test_single_machine_mean_equals_raw_loading(self):
        rng = np.random.default_rng(79)
        matrix = labeled_matrix(rng.uniform(size=(8, 4)), ["ipc", "l2_mpki", "l3_mpki", "branch_mpki"], ["m0"])
        model = fit_pca(matrix, fixed_k=2)
        pc1 = dict(loading_table(model, top_n=4)[0])
        for j, (metric, _machine) in enumerate(model.col_labels):
            assert pc1[metric] == pytest.approx(float(model.components[0, j]), abs=1e-15)

    def test_top_n_all_metrics_is_total_order(self):
        rng = np.random.default_rng(83)
        matrix = labeled_matrix(rng.uniform(size=(8, 6)), ["ipc", "l2_mpki", "l3_mpki"], ["m0", "m1"])
        model = fit_pca(matrix, fixed_k=3)
        for entries in loading_table(model, top_n=3):
            magnitudes = [abs(v) for _, v in entries]
            assert magnitudes == sorted(magnitudes, reverse=True)
            assert len(entries) == 3

    def test_dominant_variance_metric_leads_pc1(self):
        rng = np.random.default_rng(89)
        n = 12
        quiet = rng.normal(0.0, 1.0, size=(n, 4))
        loud = rng.normal(0.0, 10.0, size=(n, 2))
        values = np.column_stack([loud[:, 0], quiet[:, 0], quiet[:, 1], loud[:, 1], quiet[:, 2], quiet[:, 3]])
        cols = (  # l3_mpki carries the 10x-variance columns
            ("l3_mpki", "m0"), ("ipc", "m0"), ("l2_mpki", "m0"),
            ("l3_mpki", "m1"), ("ipc", "m1"), ("l2_mpki", "m1"),
        )
        matrix = FeatureMatrix(rows=tuple(f"w{i}" for i in range(n)), cols=cols, values=values)
        # deliberately not z-scored: variance dominance must survive centering only
        centered = FeatureMatrix(
            rows=matrix.rows, cols=matrix.cols,
            values=values - values.mean(axis=0), normalized=True,
        )
        model = fit_pca(centered, fixed_k=2)
        eigenvalues, eigenvectors = covariance_eig_pca(values)
        assert abs(model.explained_variance[0] - eigenvalues[0]) < 1e-8
        lead_col = int(np.argmax(np.abs(eigenvectors[0])))
        assert cols[lead_col][0] == "l3_mpki"
        assert loading_table(model, top_n=1)[0][0][0] == "l3_mpki"

    def test_mean_loading_bounded_by_max_column_loading(self):
        rng = np.random.default_rng(97)
        matrix = labeled_matrix(rng.uniform(size=(10, 9)), ["ipc", "l2_mpki", "l3_mpki"], ["m0", "m1", "m2"])
        model = fit_pca(matrix, fixed_k=4)
        for pc_index, entries in enumerate(loading_table(model, top_n=3)):
            for metric, mean_loading in entries:
                cols = [j for j, (m, _) in enumerate(model.col_labels) if m == metric]
                assert abs(mean_loading) <= max(abs(model.components[pc_index, j]) for j in cols) + 1e-15

    def test_markdown_shape(self):
        rng = np.random.default_rng(103)
        matrix = labeled_matrix(rng.uniform(size=(8, 4)), ["ipc", "l2_mpki"], ["m0", "m1"])
        model = fit_pca(matrix, fixed_k=2)
        text = loading_markdown(model, top_n=2)
        lines = text.strip().splitlines()
        assert lines[0].startswith("| PC |")
        assert len(lines) == 2 + model.k
        assert "(" in lines[2] and ")" in lines[2]
