from __future__ import annotations

import csv

import numpy as np
import pytest

from benchlens.compare import compare_suites
from benchlens.dataset import Store
from benchlens.errors import EmptySuite, MissingDenominator
from benchlens.events import METRIC_NAMES
from benchlens.metrics import MetricVector, derive_store, export_metrics_csv
from conftest import derive_one, make_full_record, metric_rows, write_file
from oracles import cells, log_geomean
from reference_table import INT_RATE_IPC_GEOMEAN, REFERENCE_ROWS


def record_with(events: dict[str, float], unsupported: tuple[str, ...] = ()) -> Store:
    return Store.from_cells(
        ("s", "w", "m", e, 0.0 if e in unsupported else v, e not in unsupported) for e, v in events.items()
    )


def summary_of(values, metric):
    """compare_suites' per-suite summary of one metric: (geomean, excluded zeros, box)."""
    (m,) = [m for m in compare_suites("s", values, "s", values, "any").metrics if m.metric == metric]
    return m.geomean_a, m.excluded_zeros_a, m.box_a


class TestDeriveMetrics:
    def test_one_read_only_array_in_run_order(self, sample_store):
        metrics = derive_store(sample_store)
        assert metrics.runs == sample_store.runs
        assert metrics.values.shape == (len(sample_store.runs), len(METRIC_NAMES))
        assert not metrics.values.flags.writeable
        key = ("fp_rate", "709.cactus_r", "CPU-C")
        row = metrics.values[metrics.runs.index(key)].tolist()
        assert [None if v != v else v for v in row] == [metrics.row(key).get(name) for name in METRIC_NAMES]
        int_rate = metrics.select(suite="int_rate", machine="CPU-C")
        assert int_rate.runs == tuple(k for k in sample_store.runs if k[0] == "int_rate")
        assert int_rate.values.tobytes() == metrics.values[[metrics.runs.index(k) for k in int_rate.runs]].tobytes()

    def test_summary_row_passthrough(self, sample_store):
        vec = derive_store(sample_store).row(("int_rate", "706.stockfish_r", "CPU-C"))
        assert vec.load_pct == 22.0
        assert vec.store_pct == 9.9
        assert vec.branch_pct == 10.4
        assert round(vec.ipc, 3) == 3.625

    def test_zero_misses_give_zero_mpki(self):
        vec = derive_one(
            record_with({"instructions": 1e9, "cycles": 1e9, "branch_misses": 0.0})
        )
        assert vec.branch_mpki == 0.0

    def test_mpki_and_mpmi_factors(self):
        vec = derive_one(
            record_with(
                {
                    "instructions": 2e6,
                    "cycles": 1e6,
                    "l1d_misses": 5000.0,
                    "l1_dtlb_misses": 5000.0,
                }
            )
        )
        assert vec.l1d_mpki == 2.5
        assert vec.l1_dtlb_mpmi == 2500.0

    def test_missing_denominator(self):
        with pytest.raises(MissingDenominator):
            derive_one(record_with({"instructions": 1e9}))
        with pytest.raises(MissingDenominator):
            derive_one(record_with({"instructions": 0.0, "cycles": 1e9}))

    def test_unsupported_event_means_unavailable_not_zero(self):
        vec = derive_one(
            record_with(
                {"instructions": 1e9, "cycles": 1e9, "l3_misses": 1000.0},
                unsupported=("l3_misses",),
            )
        )
        assert vec.l3_mpki is None
        assert "l3_mpki" not in vec.available()

    def test_absent_event_means_unavailable(self):
        vec = derive_one(record_with({"instructions": 1e9, "cycles": 2e9}))
        assert vec.available() == ("ipc",)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            record = make_full_record("s", "w", "m", rng)
            base = derive_one(record)
            k = float(rng.uniform(0.25, 8.0))
            scaled = derive_one(
                Store.from_cells((*cell[:4], cell[4] * k, cell[5]) for cell in cells(record))
            )
            for metric in METRIC_NAMES:
                assert scaled.get(metric) == pytest.approx(base.get(metric), rel=1e-12)

    def test_mpmi_is_thousand_times_mpki_for_same_count(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            instructions = float(rng.integers(1e6, 1e13))
            misses = float(rng.integers(0, 1e7))
            vec = derive_one(
                record_with(
                    {
                        "instructions": instructions,
                        "cycles": instructions,
                        "l1_dtlb_misses": misses,
                        "l1d_misses": misses,
                    }
                )
            )
            # same count viewed per-mega vs per-kilo instruction
            assert vec.l1_dtlb_mpmi == pytest.approx(1000.0 * vec.l1d_mpki, rel=1e-12, abs=0.0)

    def test_kernel_user_must_sum_to_hundred(self):
        with pytest.raises(ValueError):
            MetricVector(kernel_pct=10.0, user_pct=80.0)
        MetricVector(kernel_pct=10.0, user_pct=90.0)

    def test_share_bounds_enforced(self):
        with pytest.raises(ValueError):
            MetricVector(load_pct=105.0)
        with pytest.raises(ValueError):
            MetricVector(ipc=float("nan"))


class TestSuiteSummary:
    """The per-suite summary of compare.compare_suites: geomean, excluded zeros and box."""

    def test_single_workload_geomean_is_the_value(self):
        geomean, _, box = summary_of(metric_rows([MetricVector(ipc=2.5)]), "ipc")
        assert geomean == box.minimum == box.maximum == 2.5

    def test_int_rate_ipc_column(self, sample_store):
        values = derive_store(sample_store.select(suite="int_rate")).values
        geomean, excluded, box = summary_of(values, "ipc")
        assert geomean == pytest.approx(INT_RATE_IPC_GEOMEAN, abs=1e-12)
        assert box.minimum == pytest.approx(0.551, abs=1e-9)
        assert box.maximum == pytest.approx(4.961, abs=1e-9)
        assert excluded == 0

    def test_identical_suites_summarize_identically(self):
        vecs = metric_rows([MetricVector(ipc=1.0, l3_mpki=2.0), MetricVector(ipc=3.0, l3_mpki=0.5)])
        cmp = compare_suites("a", vecs, "b", vecs.copy(), "m")
        for m in cmp.metrics:
            assert (m.geomean_a, m.excluded_zeros_a, m.box_a) == (m.geomean_b, m.excluded_zeros_b, m.box_b)
        assert [m.metric for m in cmp.metrics] == ["ipc", "l3_mpki"]

    def test_zeros_excluded_from_geomean_and_counted(self):
        vecs = metric_rows([MetricVector(l3_mpki=0.0), MetricVector(l3_mpki=4.0), MetricVector(l3_mpki=1.0)])
        geomean, excluded, box = summary_of(vecs, "l3_mpki")
        assert excluded == 1
        assert geomean == pytest.approx(2.0)
        assert box.minimum == 0.0

    def test_geomean_within_min_max(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = metric_rows(
                derive_one(make_full_record("s", f"w{i}", "m", rng)) for i in range(6)
            )
            for m in compare_suites("s", values, "s", values, "m").metrics:
                assert m.box_a.minimum <= m.geomean_a <= m.box_a.maximum

    def test_geomean_matches_log_oracle(self, sample_store):
        values = derive_store(sample_store.select(suite="fp_rate")).values
        geomean, _, _ = summary_of(values, "load_pct")
        load_pct = values[:, METRIC_NAMES.index("load_pct")].tolist()
        assert geomean == pytest.approx(log_geomean(load_pct), rel=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(EmptySuite):
            compare_suites("s", metric_rows([]), "t", metric_rows([MetricVector(ipc=1.0)]), "m")


class TestExport:
    def test_metrics_csv_has_empty_cells_for_unavailable(self, tmp_path, sample_store):
        path = tmp_path / "metrics.csv"
        write_file(path, export_metrics_csv, derive_store(sample_store))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 52
        stockfish = next(r for r in rows if r["workload"] == "706.stockfish_r")
        assert float(stockfish["load_pct"]) == 22.0
        assert stockfish["l3_mpki"] == ""

    def test_full_reference_table_passthrough(self, sample_store):
        metrics = derive_store(sample_store)
        instructions = dict(zip(sample_store.runs, sample_store.column("instructions").tolist()))
        for suite, rows in REFERENCE_ROWS.items():
            for workload, (icount_b, loads, stores, branches, ipc) in rows.items():
                key = (suite, workload, "CPU-C")
                assert instructions[key] == icount_b * 1e9
                vec = metrics.row(key)
                assert vec.load_pct == loads
                assert vec.store_pct == stores
                assert vec.branch_pct == branches
                assert round(vec.ipc, 3) == ipc
