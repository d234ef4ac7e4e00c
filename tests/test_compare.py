from __future__ import annotations

import numpy as np
import pytest

from benchlens.compare import (
    compare_suites,
    comparison_markdown,
    export_comparison_csv,
    instruction_volume_ratio,
)
from benchlens.errors import EmptySuite
from benchlens.metrics import MetricVector
from benchlens.render import boxplot_svg
from conftest import derive_one, make_full_record, metric_rows, write_file


def vectors_for(rng, count: int) -> np.ndarray:
    return metric_rows(derive_one(make_full_record("s", f"w{i}", "m", rng)) for i in range(count))


class TestCompareSuites:
    def test_suite_against_itself_has_unit_ratios(self):
        rng = np.random.default_rng(193)
        vecs = vectors_for(rng, 8)
        cmp = compare_suites("a", vecs, "a", vecs.copy(), "m")
        assert cmp.metrics  # every metric present on this store
        for m in cmp.metrics:
            assert m.ratio == 1.0
            assert m.box_a == m.box_b

    def test_published_style_dtlb_ratio(self):
        # single-vector suites make the geomean the value itself
        old = metric_rows([MetricVector(l1_dtlb_mpmi=49.32)])
        new = metric_rows([MetricVector(l1_dtlb_mpmi=61.23)])
        cmp = compare_suites("new", new, "old", old, "m")
        (m,) = cmp.metrics
        assert m.metric == "l1_dtlb_mpmi"
        assert round(m.ratio, 2) == 1.24

    def test_hand_geomeans(self):
        a = metric_rows([MetricVector(ipc=1.0), MetricVector(ipc=4.0)])
        b = metric_rows([MetricVector(ipc=2.0), MetricVector(ipc=2.0)])
        cmp = compare_suites("a", a, "b", b, "m")
        (m,) = cmp.metrics
        assert m.geomean_a == pytest.approx(2.0)
        assert m.geomean_b == pytest.approx(2.0)
        assert m.ratio == pytest.approx(1.0)

    def test_ratio_composition(self):
        rng = np.random.default_rng(197)
        a, b, c = (vectors_for(rng, 5) for _ in range(3))
        ab = {m.metric: m.ratio for m in compare_suites("a", a, "b", b, "m").metrics}
        bc = {m.metric: m.ratio for m in compare_suites("b", b, "c", c, "m").metrics}
        ac = {m.metric: m.ratio for m in compare_suites("a", a, "c", c, "m").metrics}
        for metric in ac:
            assert ab[metric] * bc[metric] == pytest.approx(ac[metric], rel=1e-12)

    def test_box_stats_are_permutation_invariant(self):
        rng = np.random.default_rng(199)
        vecs = vectors_for(rng, 7)
        shuffled = vecs.copy()
        rng.shuffle(shuffled)
        cmp_a = compare_suites("a", vecs, "b", vecs, "m")
        cmp_b = compare_suites("a", shuffled, "b", shuffled, "m")
        for ma, mb in zip(cmp_a.metrics, cmp_b.metrics):
            assert ma.box_a == mb.box_a

    def test_zero_only_metric_collected_not_fatal(self):
        a = metric_rows([MetricVector(ipc=1.0, l3_mpki=0.0)])
        b = metric_rows([MetricVector(ipc=2.0, l3_mpki=3.0)])
        cmp = compare_suites("a", a, "b", b, "m")
        assert "l3_mpki" in cmp.no_positive
        assert [m.metric for m in cmp.metrics] == ["ipc"]

    def test_unavailable_metric_skipped(self):
        a = metric_rows([MetricVector(ipc=1.0)])
        b = metric_rows([MetricVector(ipc=2.0, l3_mpki=3.0)])
        cmp = compare_suites("a", a, "b", b, "m")
        assert "l3_mpki" in cmp.skipped

    def test_empty_suite(self):
        with pytest.raises(EmptySuite):
            compare_suites("a", metric_rows([]), "b", metric_rows([MetricVector(ipc=1.0)]), "m")

    def test_excluded_zero_counts_reported(self):
        a = metric_rows([MetricVector(l3_mpki=0.0), MetricVector(l3_mpki=2.0)])
        b = metric_rows([MetricVector(l3_mpki=4.0)])
        (m,) = compare_suites("a", a, "b", b, "m").metrics
        assert (m.excluded_zeros_a, m.excluded_zeros_b) == (1, 0)
        assert m.geomean_a == pytest.approx(2.0)


class TestInstructionVolumeRatio:
    def test_identical_collections(self):
        assert instruction_volume_ratio([5.0, 7.0], [5.0, 7.0]) == 1.0

    def test_sample_store_int_and_fp(self, sample_store):
        def icounts(suite):
            return sample_store.select(suite=suite).column("instructions").tolist()

        int_ratio = instruction_volume_ratio(icounts("int_speed"), icounts("int_rate"))
        fp_ratio = instruction_volume_ratio(icounts("fp_speed"), icounts("fp_rate"))
        # frozen from the mean-of-icounts oracle over the reference table
        assert int_ratio == pytest.approx(28.73496932188444, rel=1e-12)
        assert fp_ratio == pytest.approx(19.11766732707382, rel=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(EmptySuite):
            instruction_volume_ratio([], [1.0])


class TestExports:
    def test_markdown_and_csv_and_svg(self, tmp_path):
        rng = np.random.default_rng(211)
        cmp = compare_suites("suite_a", vectors_for(rng, 6), "suite_b", vectors_for(rng, 5), "m")
        text = comparison_markdown(cmp)
        assert text.splitlines()[0] == "Machine: m"
        assert "| ipc |" in text
        path = tmp_path / "cmp.csv"
        write_file(path, export_comparison_csv, cmp)
        header = path.read_text().splitlines()[0]
        assert header.startswith("metric,geomean_a,geomean_b,ratio")
        svg_a = boxplot_svg(cmp)
        svg_b = boxplot_svg(cmp)
        assert svg_a == svg_b
        assert svg_a.startswith("<svg ") and "suite_a" in svg_a
