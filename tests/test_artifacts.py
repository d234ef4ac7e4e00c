"""What a command writes: the files of each --format, and a command's files replaced together or not at all.

Each command returns its artifacts, and `cli.main` writes those whose suffix
is in --format through one `files.commit`. `WRITTEN` holds the files each run
on the bundled sample wrote into an empty `out/` before that step, when each
command chose its files with one `if "<format>" in cfg.format` branch each.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil

import pytest

from benchlens import bundled, dataset, files
from benchlens.cli import main

STORE = ["--store", str(bundled.sample_store_path()), "--scores", str(bundled.sample_scores_path())]
FORMATS = [",".join(chosen) for n in (1, 2, 3) for chosen in itertools.combinations(("csv", "md", "svg"), n)]
ARGS = {
    "derive": ["derive"],
    "featurize": ["featurize"],
    "pca": ["pca"],
    "cluster": ["cluster"],
    "subset_k2": ["subset", "--subset-k", "2"],
    "compare": ["compare", "--suite-a", "int_rate", "--suite-b", "int_speed", "--machine", "CPU-C"],
    "proxy_target": ["proxy", "--suite", "fp_rate", "--target", "710.omnetpp_r", "--mix-k", "2"],
    "proxy_mix": ["proxy", "--suite", "fp_rate", "--mix", "MIX"],
    "report": ["report"],
}
# the files each run wrote into an empty out/, by --format
WRITTEN = {
    "derive": {
        "csv": "metric_availability.csv metrics.csv",
        "md": "",
        "svg": "",
        "csv,md": "metric_availability.csv metrics.csv",
        "csv,svg": "metric_availability.csv metrics.csv",
        "md,svg": "",
        "csv,md,svg": "metric_availability.csv metrics.csv",
    },
    "featurize": {
        "csv": "dropped_columns.csv features.csv",
        "md": "",
        "svg": "",
        "csv,md": "dropped_columns.csv features.csv",
        "csv,svg": "dropped_columns.csv features.csv",
        "md,svg": "",
        "csv,md,svg": "dropped_columns.csv features.csv",
    },
    "pca": {
        "csv": "pca_scores.csv pca_variance.csv",
        "md": "pca_loadings.md",
        "svg": "",
        "csv,md": "pca_loadings.md pca_scores.csv pca_variance.csv",
        "csv,svg": "pca_scores.csv pca_variance.csv",
        "md,svg": "pca_loadings.md",
        "csv,md,svg": "pca_loadings.md pca_scores.csv pca_variance.csv",
    },
    "cluster": {
        "csv": (
            "dendrogram_fp_rate.csv dendrogram_fp_speed.csv dendrogram_int_rate.csv "
            "dendrogram_int_speed.csv"
        ),
        "md": "",
        "svg": (
            "dendrogram_fp_rate.svg dendrogram_fp_speed.svg dendrogram_int_rate.svg "
            "dendrogram_int_speed.svg"
        ),
        "csv,md": (
            "dendrogram_fp_rate.csv dendrogram_fp_speed.csv dendrogram_int_rate.csv "
            "dendrogram_int_speed.csv"
        ),
        "csv,svg": (
            "dendrogram_fp_rate.csv dendrogram_fp_rate.svg dendrogram_fp_speed.csv "
            "dendrogram_fp_speed.svg dendrogram_int_rate.csv dendrogram_int_rate.svg "
            "dendrogram_int_speed.csv dendrogram_int_speed.svg"
        ),
        "md,svg": (
            "dendrogram_fp_rate.svg dendrogram_fp_speed.svg dendrogram_int_rate.svg "
            "dendrogram_int_speed.svg"
        ),
        "csv,md,svg": (
            "dendrogram_fp_rate.csv dendrogram_fp_rate.svg dendrogram_fp_speed.csv "
            "dendrogram_fp_speed.svg dendrogram_int_rate.csv dendrogram_int_rate.svg "
            "dendrogram_int_speed.csv dendrogram_int_speed.svg"
        ),
    },
    "subset_k2": {
        "csv": "subsets.csv",
        "md": "subsets.md",
        "svg": "",
        "csv,md": "subsets.csv subsets.md",
        "csv,svg": "subsets.csv",
        "md,svg": "subsets.md",
        "csv,md,svg": "subsets.csv subsets.md",
    },
    "compare": {
        "csv": "compare_int_rate_vs_int_speed.csv volume_ratios.csv",
        "md": "compare_int_rate_vs_int_speed.md",
        "svg": "compare_int_rate_vs_int_speed.svg",
        "csv,md": "compare_int_rate_vs_int_speed.csv compare_int_rate_vs_int_speed.md volume_ratios.csv",
        "csv,svg": "compare_int_rate_vs_int_speed.csv compare_int_rate_vs_int_speed.svg volume_ratios.csv",
        "md,svg": "compare_int_rate_vs_int_speed.md compare_int_rate_vs_int_speed.svg",
        "csv,md,svg": (
            "compare_int_rate_vs_int_speed.csv compare_int_rate_vs_int_speed.md "
            "compare_int_rate_vs_int_speed.svg volume_ratios.csv"
        ),
    },
    "proxy_target": {
        "csv": "proxy_mixes.csv",
        "md": "proxy_best.md",
        "svg": "",
        "csv,md": "proxy_best.md proxy_mixes.csv",
        "csv,svg": "proxy_mixes.csv",
        "md,svg": "proxy_best.md",
        "csv,md,svg": "proxy_best.md proxy_mixes.csv",
    },
    "proxy_mix": {
        "csv": "proxy_blend.csv",
        "md": "proxy_blend.md",
        "svg": "",
        "csv,md": "proxy_blend.csv proxy_blend.md",
        "csv,svg": "proxy_blend.csv",
        "md,svg": "proxy_blend.md",
        "csv,md,svg": "proxy_blend.csv proxy_blend.md",
    },
    "report": {
        "csv": (
            "compare_fp_rate_vs_fp_speed.csv compare_int_rate_vs_int_speed.csv dendrogram_fp_rate.csv "
            "dendrogram_fp_speed.csv dendrogram_int_rate.csv dendrogram_int_speed.csv "
            "dropped_columns.csv features.csv metric_availability.csv metrics.csv pca_scores.csv "
            "pca_variance.csv subsets.csv volume_ratios.csv"
        ),
        "md": "compare_fp_rate_vs_fp_speed.md compare_int_rate_vs_int_speed.md pca_loadings.md subsets.md",
        "svg": (
            "compare_fp_rate_vs_fp_speed.svg compare_int_rate_vs_int_speed.svg dendrogram_fp_rate.svg "
            "dendrogram_fp_speed.svg dendrogram_int_rate.svg dendrogram_int_speed.svg"
        ),
        "csv,md": (
            "compare_fp_rate_vs_fp_speed.csv compare_fp_rate_vs_fp_speed.md "
            "compare_int_rate_vs_int_speed.csv compare_int_rate_vs_int_speed.md "
            "dendrogram_fp_rate.csv dendrogram_fp_speed.csv dendrogram_int_rate.csv "
            "dendrogram_int_speed.csv dropped_columns.csv features.csv metric_availability.csv "
            "metrics.csv pca_loadings.md pca_scores.csv pca_variance.csv subsets.csv subsets.md "
            "volume_ratios.csv"
        ),
        "csv,svg": (
            "compare_fp_rate_vs_fp_speed.csv compare_fp_rate_vs_fp_speed.svg "
            "compare_int_rate_vs_int_speed.csv compare_int_rate_vs_int_speed.svg "
            "dendrogram_fp_rate.csv dendrogram_fp_rate.svg dendrogram_fp_speed.csv "
            "dendrogram_fp_speed.svg dendrogram_int_rate.csv dendrogram_int_rate.svg "
            "dendrogram_int_speed.csv dendrogram_int_speed.svg dropped_columns.csv features.csv "
            "metric_availability.csv metrics.csv pca_scores.csv pca_variance.csv subsets.csv "
            "volume_ratios.csv"
        ),
        "md,svg": (
            "compare_fp_rate_vs_fp_speed.md compare_fp_rate_vs_fp_speed.svg "
            "compare_int_rate_vs_int_speed.md compare_int_rate_vs_int_speed.svg "
            "dendrogram_fp_rate.svg dendrogram_fp_speed.svg dendrogram_int_rate.svg "
            "dendrogram_int_speed.svg pca_loadings.md subsets.md"
        ),
        "csv,md,svg": (
            "compare_fp_rate_vs_fp_speed.csv compare_fp_rate_vs_fp_speed.md "
            "compare_fp_rate_vs_fp_speed.svg compare_int_rate_vs_int_speed.csv "
            "compare_int_rate_vs_int_speed.md compare_int_rate_vs_int_speed.svg "
            "dendrogram_fp_rate.csv dendrogram_fp_rate.svg dendrogram_fp_speed.csv "
            "dendrogram_fp_speed.svg dendrogram_int_rate.csv dendrogram_int_rate.svg "
            "dendrogram_int_speed.csv dendrogram_int_speed.svg dropped_columns.csv features.csv "
            "metric_availability.csv metrics.csv pca_loadings.md pca_scores.csv pca_variance.csv "
            "subsets.csv subsets.md volume_ratios.csv"
        ),
    },
}


def tree(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", list(WRITTEN))
def test_each_format_writes_the_files_its_branches_wrote(tmp_path, capsys, case):
    mix = tmp_path / "mix.txt"
    mix.write_text("709.cactus_r,2.5\n749.fotonik3d_r\n", encoding="utf-8")
    args = [str(mix) if arg == "MIX" else arg for arg in ARGS[case]]
    for fmt in FORMATS:
        out = tmp_path / fmt
        assert main([*args, *STORE, "--out", str(out), "--format", fmt]) == 0, capsys.readouterr().err
        assert sorted(tree(out)) == WRITTEN[case][fmt].split(), fmt
        assert out.exists() == bool(WRITTEN[case][fmt])  # no files, no directory


def test_ingest_writes_its_store_and_nothing_in_out_whatever_the_format(tmp_path, capsys):
    store = tmp_path / "store.csv"
    for i, fmt in enumerate(FORMATS):
        args = [
            "ingest", "--raw", str(bundled.sample_raw_dump_path()),
            "--countermap", str(bundled.sample_countermap_path()),
            "--suite", "int_rate", "--workload", f"90{i}.format_r",
            "--machine", "CPU-C", "--store", str(store), "--out", str(tmp_path / "out"), "--format", fmt,
        ]
        assert main(args) == 0, capsys.readouterr().err
    assert len(dataset.read_store(store).runs) == len(FORMATS)
    assert sorted(os.listdir(tmp_path)) == ["store.csv"]


def test_a_report_that_fails_at_subset_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(bundled.sample_store_path().parent, out)
    (out / "metrics.csv").write_text("kept\n", encoding="utf-8")
    before = tree(out)
    code = main(["report", *STORE, "--subset-k", "3", "--budget", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"] == "BudgetExceeded"
    assert tree(out) == before  # every file byte-identical, and no temporary file


class TestCommit:
    @pytest.mark.parametrize("error", [OSError("no space left on device"), KeyboardInterrupt()])
    def test_a_failing_writer_replaces_no_target_and_leaves_no_temporary_file(self, tmp_path, error):
        first, second = tmp_path / "a.csv", tmp_path / "b.md"
        first.write_text("old\n", encoding="utf-8")

        def failing(fh):
            fh.write("partial")
            raise error

        with pytest.raises(type(error)):
            files.commit([(first, lambda fh: fh.write("new\n")), (second, failing)])
        assert tree(tmp_path) == {"a.csv": b"old\n"}

    def test_targets_are_replaced_only_after_every_writer_returned(self, tmp_path):
        first, second = tmp_path / "out" / "a.csv", tmp_path / "out" / "b.md"
        first.parent.mkdir()
        first.write_text("old\n", encoding="utf-8")
        seen = []

        def second_writer(fh):
            seen.append(first.read_text(encoding="utf-8"))
            fh.write("b\n")

        files.commit([(first, lambda fh: fh.write("new\n")), (second, second_writer)])
        assert seen == ["old\n"]
        assert tree(tmp_path / "out") == {"a.csv": b"new\n", "b.md": b"b\n"}
