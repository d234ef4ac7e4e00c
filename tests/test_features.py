from __future__ import annotations

import csv
from unittest import mock

import numpy as np
import pytest

from benchlens import cli, proxy
from benchlens.errors import AlreadyNormalized, EmptyInput, MissingCell, TooFewRows
from benchlens.events import METRIC_NAMES
from benchlens.features import FeatureMatrix, build_matrix, export_csv, normalize
from benchlens.metrics import Metrics, derive_store
from conftest import make_full_store, write_file
from oracles import loop_moments


def full_metrics(workloads, machines, seed=7):
    return derive_store(make_full_store(workloads, machines, seed=seed))


WORKLOADS4 = [f"w{i}" for i in range(4)]
MACHINES9 = [f"M{i}" for i in range(9)]


class TestBuildMatrix:
    def test_full_store_yields_19_by_9_columns(self):
        metrics = full_metrics(WORKLOADS4, MACHINES9)
        matrix = build_matrix(metrics, WORKLOADS4, MACHINES9)
        assert matrix.values.shape == (4, 171)
        assert matrix.dropped == ()

    def test_single_machine_single_workload(self):
        metrics = full_metrics(["w0"], ["M0"])
        matrix = build_matrix(metrics, ["w0"], ["M0"])
        assert matrix.values.shape == (1, 19)

    def test_unavailable_metric_drops_column_with_report(self):
        metrics = full_metrics(WORKLOADS4, MACHINES9)
        values = metrics.values.copy()
        victim = metrics.runs.index(("synthetic", "w2", "M3"))
        values[victim, METRIC_NAMES.index("mem_bytes_per_cycle")] = np.nan
        crippled = Metrics(metrics.runs, values)
        matrix = build_matrix(crippled, WORKLOADS4, MACHINES9)
        assert matrix.values.shape == (4, 170)
        assert matrix.dropped == (("mem_bytes_per_cycle", "M3"),)

    def test_missing_cell_and_empty_input(self):
        metrics = full_metrics(["w0"], ["M0"])
        with pytest.raises(MissingCell):
            build_matrix(metrics, ["w0", "ghost"], ["M0"])
        with pytest.raises(EmptyInput):
            build_matrix(metrics, [], ["M0"])

    def test_order_is_input_order_not_hash_order(self):
        metrics = full_metrics(WORKLOADS4, ["M0", "M1"])
        forward = build_matrix(metrics, WORKLOADS4, ["M0", "M1"])
        reversed_rows = build_matrix(metrics, list(reversed(WORKLOADS4)), ["M0", "M1"])
        assert forward.rows == tuple(WORKLOADS4)
        assert reversed_rows.rows == tuple(reversed(WORKLOADS4))
        assert np.array_equal(forward.values[::-1], reversed_rows.values)

    def test_dropping_a_row_leaves_other_cells_unchanged(self):
        metrics = full_metrics(WORKLOADS4, ["M0", "M1"])
        full = build_matrix(metrics, WORKLOADS4, ["M0", "M1"])
        partial = build_matrix(metrics, WORKLOADS4[1:], ["M0", "M1"])
        assert np.array_equal(full.values[1:], partial.values)


class TestNormalize:
    def test_two_point_column(self):
        matrix = FeatureMatrix(rows=("a", "b"), cols=(("ipc", "m"),), values=np.array([[1.0], [3.0]]))
        normalized = normalize(matrix)
        assert normalized.values.tolist() == [[-1.0], [1.0]]  # mean 2, population stdev 1

    def test_constant_column_becomes_flagged_zeros(self):
        matrix = FeatureMatrix(
            rows=("a", "b", "c"),
            cols=(("ipc", "m"), ("l2_mpki", "m")),
            values=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
        )
        normalized = normalize(matrix)
        assert np.all(normalized.values[:, 0] == 0.0)
        assert len(normalized.cols) == 2  # kept, not dropped

    def test_moments_against_loop_oracle(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(0.0, 50.0, size=(4, 3))
        matrix = FeatureMatrix(
            rows=tuple("abcd"),
            cols=(("ipc", "m0"), ("ipc", "m1"), ("ipc", "m2")),
            values=values,
        )
        normalized = normalize(matrix)
        for j in range(3):
            mean, stdev = loop_moments(list(values[:, j]))
            assert normalized.values[:, j] == pytest.approx((values[:, j] - mean) / stdev, abs=1e-12)
            out_mean, out_std = loop_moments(list(normalized.values[:, j]))
            assert abs(out_mean) < 1e-9
            assert abs(out_std - 1.0) < 1e-9

    def test_guards(self):
        matrix = FeatureMatrix(rows=("a", "b"), cols=(("ipc", "m"),), values=np.array([[1.0], [3.0]]))
        normalized = normalize(matrix)
        with pytest.raises(AlreadyNormalized):
            normalize(normalized)
        with pytest.raises(TooFewRows):
            normalize(FeatureMatrix(rows=("a",), cols=(("ipc", "m"),), values=np.array([[1.0]])))

    def test_proxy_scales_are_the_pool_moments_that_normalize_divides_by(self):
        # the pool is every workload but the target; its moments against the loop, and the z-scores they give
        run = cli.Run(cli.PipelineConfig(target="target", mix_k=1))
        run.store = make_full_store([*WORKLOADS4, "target"], ["M0"])
        with mock.patch.object(proxy, "search_mix", wraps=proxy.search_mix) as search:
            cli.cmd_proxy(run)
        scales = search.call_args.kwargs["scales"]
        pool = build_matrix(run.metrics, WORKLOADS4, ["M0"])
        assert list(scales) == [metric for metric, _ in pool.cols]
        for j, (metric, _) in enumerate(pool.cols):
            assert scales[metric] == pytest.approx(loop_moments(list(pool.values[:, j])), abs=1e-12)
        means, stdevs = np.array(list(scales.values())).T
        assert normalize(pool).values.tobytes() == ((pool.values - means) / stdevs).tobytes()


class TestCsvRoundTrip:
    def test_raw_round_trip(self, tmp_path):
        metrics = full_metrics(WORKLOADS4, ["M0", "M1"])
        matrix = build_matrix(metrics, WORKLOADS4, ["M0", "M1"])
        path = tmp_path / "features.csv"
        write_file(path, export_csv, matrix)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["workload", *(f"{metric}:{machine}" for metric, machine in matrix.cols)]
        assert tuple(row[0] for row in rows) == matrix.rows
        assert [row[1:] for row in rows] == [[repr(v) for v in row] for row in matrix.values.tolist()]
        assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
