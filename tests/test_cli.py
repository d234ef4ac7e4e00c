from __future__ import annotations

import csv
import filecmp
import glob
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import oracles
from conftest import combine, make_full_record, with_score

from benchlens import bundled, cli, dataset
from benchlens.cli import main
from benchlens.subset import evaluate_subset, oracle_best_subset


def run(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_args(out_dir: Path) -> list[str]:
    return [
        "--store", str(bundled.sample_store_path()),
        "--scores", str(bundled.sample_scores_path()),
        "--out", str(out_dir),
    ]


def two_machine_store(tmp_path: Path, drop=None, strip_cycles=None) -> list[str]:
    """--store/--scores args of five scored int_rate workloads on M0 and M1.

    The run keyed `drop` is left out; the run keyed `strip_cycles` has no cycles event.
    """
    rng = np.random.default_rng(0)
    records = []
    for i in range(5):
        for machine in ("M0", "M1"):
            rec = make_full_record("int_rate", f"int_rate_{i}", machine, rng)
            rec = with_score(rec, float(rng.uniform(1.0, 10.0)))
            if rec.runs[0] != drop:
                records.append(rec)
    records = combine(records, keep=lambda cell: (cell[:3], cell[3]) != (strip_cycles, "cycles"))
    store, scores = tmp_path / "store.csv", tmp_path / "scores.csv"
    dataset.save_canonical(records, store)
    dataset.save_scores(records, scores)
    return ["--store", str(store), "--scores", str(scores)]


def shared_id_store(tmp_path: Path) -> list[str]:
    """--store/--scores args of one machine whose workload `shared` is in int_rate and int_speed."""
    rng = np.random.default_rng(1)
    suites = {"int_rate": ["shared", "i1", "i2"], "int_speed": ["shared", "s1"], "fp_rate": ["f0", "f1", "f2"]}
    records = combine(
        with_score(make_full_record(suite, workload, "M0", rng), float(rng.uniform(1.0, 10.0)))
        for suite, workloads in suites.items()
        for workload in workloads
    )
    store, scores = tmp_path / "store.csv", tmp_path / "scores.csv"
    dataset.save_canonical(records, store)
    dataset.save_scores(records, scores)
    return ["--store", str(store), "--scores", str(scores)]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestDerive:
    def test_metrics_csv_has_expected_stockfish_row(self, tmp_path, capsys):
        code, out, _ = run(["derive", *base_args(tmp_path / "out")], capsys)
        assert code == 0
        assert "52 metric rows" in out
        with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
            rows = {r["workload"]: r for r in csv.DictReader(fh)}
        assert round(float(rows["706.stockfish_r"]["ipc"]), 3) == 3.625
        assert float(rows["706.stockfish_r"]["load_pct"]) == 22.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(["derive", *base_args(out)], capsys)
        first = (out / "metrics.csv").read_bytes()
        run(["derive", *base_args(out)], capsys)
        assert (out / "metrics.csv").read_bytes() == first


class TestLoudClamps:
    """A given --groups, --pcs or --mix-k that the data cannot honour is capped, and one `warning:` line per cap
    names the value used; the defaults (4 groups, 8 components) are capped quietly, and the default of 2
    constituents fits every pool proxy searches (it refuses a pool of one). Exit codes and artifacts are those of
    the capped value."""

    def test_pcs_above_the_components_pca_can_give_warns_and_fits_as_many_as_it_can(self, tmp_path, capsys):
        code, out, err = run(["pca", *base_args(tmp_path / "asked"), "--pcs", "1000"], capsys)
        assert (code, err.splitlines()) == (0, ["warning: --pcs 1000 is above the 4 components PCA can give; using 4"])
        assert run(["pca", *base_args(tmp_path / "capped"), "--pcs", "4"], capsys) == (0, out.replace("asked", "capped"), "")
        assert tree_bytes(tmp_path / "asked") == tree_bytes(tmp_path / "capped")

    def test_groups_above_a_suites_workload_count_warn_once_per_suite(self, tmp_path, capsys):
        code, out, err = run(["subset", *base_args(tmp_path / "asked"), "--groups", "14"], capsys)
        assert (code, err.splitlines()) == (0, [
            "warning: --groups 14 is above the 12 workloads of suite fp_rate; using 12",
            "warning: --groups 14 is above the 13 workloads of suite fp_speed; using 13",
            "warning: --groups 14 is above the 13 workloads of suite int_speed; using 13",
        ])  # int_rate has 14 workloads
        assert run(["subset", *base_args(tmp_path / "capped"), "--groups", "90"], capsys)[0] == 0
        assert tree_bytes(tmp_path / "asked") == tree_bytes(tmp_path / "capped")

    def test_mix_k_above_the_pool_warns_and_ranks_every_mix_of_the_pool(self, tmp_path, capsys):
        code, out, err = run([*PROXY_SEARCH, *base_args(tmp_path / "asked"), "--mix-k", "13"], capsys)
        assert (code, err.splitlines()) == (0, ["warning: --mix-k 13 is above the 12 workloads of the pool; using 12"])
        capped = run([*PROXY_SEARCH, *base_args(tmp_path / "capped"), "--mix-k", "12"], capsys)
        assert capped == (0, out.replace("asked", "capped"), "")
        assert tree_bytes(tmp_path / "asked") == tree_bytes(tmp_path / "capped")

    def test_the_defaults_are_capped_quietly(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        records = combine(with_score(make_full_record("int_rate", f"i{i}", "M0", rng), 1.0 + i) for i in range(3))
        store, scores = tmp_path / "store.csv", tmp_path / "scores.csv"
        dataset.save_canonical(records, store)
        dataset.save_scores(records, scores)
        code, out, err = run(["subset", "--store", str(store), "--scores", str(scores), "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")  # 3 workloads against 4 groups, and 3 components at most against 8


class TestSubset:
    def test_groups_4_produces_four_representatives_with_accuracy(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            ["subset", *base_args(out), "--suite", "int_rate", "--groups", "4"], capsys
        )
        assert code == 0
        text = (out / "subsets.md").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "| Group | Subset workloads | Accuracy |"
        row = next(line for line in lines if line.startswith("| int_rate |"))
        _, _, workloads_cell, accuracy_cell, _ = row.split("|")
        subset_workloads = [w.strip() for w in workloads_cell.split(",")]
        assert len(subset_workloads) == 4
        match = re.search(r"(\d+\.\d+)%", accuracy_cell)
        assert match is not None

        # the reported accuracy must equal a fresh evaluation of that subset,
        # and can never beat the exhaustive oracle at the same size
        import benchlens.dataset as dataset

        store = dataset.read_store(bundled.sample_store_path(), bundled.sample_scores_path())
        int_rate = store.select(suite="int_rate")
        scores = {
            "CPU-C": {
                workload: score
                for (_, workload, _), score in zip(int_rate.runs, int_rate.scores.tolist())
            }
        }
        report = evaluate_subset(scores, subset_workloads)
        assert float(match.group(1)) == pytest.approx(100 * report.aggregate_accuracy, abs=5e-3)
        _, best = oracle_best_subset(scores, 4)
        assert report.aggregate_accuracy <= best + 1e-12

    def test_oracle_flag_runs_within_budget(self, tmp_path, capsys):
        code, out, _ = run(
            ["subset", *base_args(tmp_path / "out"), "--suite", "int_rate", "--groups", "4",
             "--subset-k", "4"],
            capsys,
        )
        assert code == 0
        assert "1 suite reports" in out

    def test_oracle_flag_adds_the_oracle_best_to_the_markdown(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["subset", *base_args(out), "--groups", "4", "--subset-k", "3"], capsys)
        assert code == 0, err
        lines = (out / "subsets.md").read_text().splitlines()
        assert lines[:2] == [
            "| Group | Subset workloads | Accuracy | Oracle best (k=3) | Oracle accuracy |",
            "| --- | --- | --- | --- | --- |",
        ]
        store = dataset.read_store(bundled.sample_store_path(), bundled.sample_scores_path())
        for line in lines[2:]:
            suite, _, _, oracle_cell, accuracy_cell = (cell.strip() for cell in line.strip("|").split("|"))
            runs = store.select(suite=suite)
            scores = {"CPU-C": {w: s for (_, w, _), s in zip(runs.runs, runs.scores.tolist())}}
            best, value = oracle_best_subset(scores, 3)
            assert oracle_cell == ", ".join(best)
            assert accuracy_cell == f"{100.0 * value:.2f}%"
        # the csv and the markdown without the flag keep their bytes
        plain = tmp_path / "plain"
        assert run(["subset", *base_args(plain), "--groups", "4"], capsys)[0] == 0
        assert filecmp.cmp(out / "subsets.csv", plain / "subsets.csv", shallow=False)
        assert (plain / "subsets.md").read_text().splitlines()[0] == "| Group | Subset workloads | Accuracy |"

    def test_workload_without_a_run_on_the_machine_is_left_out(self, tmp_path, capsys):
        store = two_machine_store(tmp_path, drop=("int_rate", "int_rate_3", "M0"))
        out = tmp_path / "out"
        code, _, err = run(
            ["subset", *store, "--machine", "M0", "--suite", "int_rate", "--groups", "4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        with open(out / "subsets.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["machine"] == "M0"
        assert row["subset"].split() == ["int_rate_0", "int_rate_1", "int_rate_2", "int_rate_4"]

    def test_oracle_without_a_defined_subset_is_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        table = {"M0": {"a": 1.0, "b": 100.0}, "M1": {"a": 100.0, "b": 1.0}}
        records = combine(
            with_score(make_full_record("int_rate", workload, machine, rng), score)
            for machine, row in table.items()
            for workload, score in row.items()
        )
        store, scores = tmp_path / "store.csv", tmp_path / "scores.csv"
        dataset.save_canonical(records, store)
        dataset.save_scores(records, scores)
        code, _, err = run(
            ["subset", "--store", str(store), "--scores", str(scores), "--groups", "1",
             "--subset-k", "1", "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 2
        (line,) = err.splitlines()
        error = json.loads(line)
        assert (error["stage"], error["error"]) == ("subset", "NoDefinedSubset")
        assert "size-1 subset of the 2 workloads" in error["message"]


class TestCompareAndProxy:
    def test_compare_emits_artifacts_and_volume_ratios(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            ["compare", *base_args(out), "--suite-a", "int_rate", "--suite-b", "int_speed",
             "--machine", "CPU-C"],
            capsys,
        )
        assert code == 0
        assert (out / "compare_int_rate_vs_int_speed.csv").exists()
        assert (out / "compare_int_rate_vs_int_speed.svg").exists()
        ratios = (out / "volume_ratios.csv").read_text().splitlines()
        int_row = next(line for line in ratios if line.startswith("int,"))
        assert float(int_row.split(",")[3]) == pytest.approx(28.735, abs=1e-3)

    def test_compare_requires_machine(self, tmp_path, capsys):
        code, _, err = run(
            ["compare", *base_args(tmp_path / "out"), "--suite-a", "int_rate", "--suite-b", "fp_rate"],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_proxy_ranks_mixes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(
            ["proxy", *base_args(out), "--suite", "fp_rate", "--target", "710.omnetpp_r",
             "--mix-k", "2"],
            capsys,
        )
        assert code == 0
        assert "mixes ranked" in stdout
        lines = (out / "proxy_mixes.csv").read_text().splitlines()
        assert len(lines) == 1 + 12 + 66  # singletons + pairs of the 12-workload pool
        assert (out / "proxy_best.md").exists()

    def test_a_proxy_search_never_normalizes(self, tmp_path, capsys, monkeypatch):
        calls = []
        normalize = cli.features.normalize
        monkeypatch.setattr(cli.features, "normalize", lambda *args: calls.append(args) or normalize(*args))
        assert run([*PROXY_SEARCH, *base_args(tmp_path / "out"), "--mix-k", "2"], capsys)[0] == 0
        assert (tmp_path / "out" / "proxy_mixes.csv").exists() and calls == []

    def test_a_pool_of_one_workload_is_refused_naming_it_and_a_mix_still_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        dataset.save_canonical(
            combine(make_full_record("int_rate", workload, "M0", rng) for workload in ("i0", "i1")),
            tmp_path / "store.csv",
        )
        args = ["proxy", "--store", str(tmp_path / "store.csv"), "--target", "i0", "--out", str(tmp_path / "out")]
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "kept.txt").write_text("kept", encoding="utf-8")
        before = tree_bytes(tmp_path / "out")
        code, stdout, err = run(args, capsys)
        assert (code, stdout, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err) == {
            "stage": "proxy", "error": "TooFewRows",
            "message": "proxy pool of suite 'int_rate' on 'M0' holds 1 workload besides target 'i0'; "
                       "scaling needs at least 2",
        }
        assert tree_bytes(tmp_path / "out") == before
        (tmp_path / "mix.txt").write_text("i1\n", encoding="utf-8")
        code, stdout, _ = run([*args, "--mix", str(tmp_path / "mix.txt")], capsys)
        assert code == 0 and "simulated mix i1" in stdout
        rank, mix, distance, *_ = (tmp_path / "out" / "proxy_blend.csv").read_text().splitlines()[1].split(",")
        assert (rank, mix) == ("1", "i1") and float(distance) > 0

    def test_proxy_target_in_two_suites_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(
            ["proxy", *shared_id_store(tmp_path), "--suite", "fp_rate", "--target", "shared",
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "int_rate" in payload["message"] and "int_speed" in payload["message"]

    def test_proxy_simulates_explicit_mix_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        mix = tmp_path / "mix.txt"
        mix.write_text("709.cactus_r\n749.fotonik3d_r,100\n", encoding="utf-8")
        code, stdout, _ = run(
            ["proxy", *base_args(out), "--suite", "fp_rate", "--mix", str(mix)], capsys
        )
        assert code == 0
        assert "simulated mix 709.cactus_r+749.fotonik3d_r" in stdout
        lines = (out / "proxy_blend.csv").read_text().splitlines()
        assert len(lines) == 2
        assert (out / "proxy_blend.md").exists()

    def test_mix_file_names_a_csv_quoted_workload_id(self, tmp_path, capsys):
        odd = '709,cactus "r"'
        sample = dataset.read_store(bundled.sample_store_path(), bundled.sample_scores_path())
        suites, workloads, *columns = oracles.columns(sample)
        renamed = {"709.cactus_r": odd}
        store = dataset.Store.from_cells(
            zip(suites, [renamed.get(w, w) for w in workloads], *columns),
            wallclock={(s, renamed.get(w, w), m): v for (s, w, m), v in zip(sample.runs, sample.wallclock)},
            scores={(s, renamed.get(w, w), m): v for (s, w, m), v in zip(sample.runs, sample.scores) if v == v},
        )
        args = ["--store", str(tmp_path / "store.csv"), "--scores", str(tmp_path / "scores.csv")]
        dataset.save_canonical(store, tmp_path / "store.csv")
        dataset.save_scores(store, tmp_path / "scores.csv")
        mix = tmp_path / "mix.txt"
        mix.write_text('"709,cactus ""r""",2.5\n749.fotonik3d_r\n', encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, _ = run(["proxy", *args, "--suite", "fp_rate", "--mix", str(mix), "--out", str(out)], capsys)
        assert code == 0
        assert f"simulated mix {odd}+749.fotonik3d_r" in stdout
        with open(out / "proxy_blend.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1][1] == f"{odd}+749.fotonik3d_r"

        for line in ('709,cactus "r",2.5', '709,cactus "r"'):  # unquoted: three fields, or a bad duration
            mix.write_text(f"749.fotonik3d_r\n{line}\n", encoding="utf-8")
            code, _, err = run(["proxy", *args, "--suite", "fp_rate", "--mix", str(mix), "--out", str(out)], capsys)
            assert code == 2
            payload = json.loads(err)
            assert payload["error"] == "ValueError"
            assert payload["message"].startswith(f"{mix}:2: ")


    @pytest.mark.parametrize("text, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
    def test_proxy_mix_with_a_duration_that_is_not_finite_names_its_line(self, tmp_path, capsys, text, shown):
        out = tmp_path / "out"
        mix = tmp_path / "mix.txt"
        mix.write_text(f"709.cactus_r,{text}\n", encoding="utf-8")
        code, stdout, err = run(
            ["proxy", *base_args(out), "--machine", "CPU-C", "--suite", "fp_rate", "--mix", str(mix)], capsys
        )
        assert (code, stdout) == (2, "")
        assert json.loads(err) == {
            "stage": "proxy", "error": "ValueError", "message": f"{mix}:1: duration must be finite, got {shown}",
        }
        assert not out.exists()

    def test_proxy_mix_whose_period_overflows_names_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        mix = tmp_path / "mix.txt"
        mix.write_text("709.cactus_r,1e308\n722.palm_r,1e308\n", encoding="utf-8")  # each finite, not their sum
        code, stdout, err = run(
            ["proxy", *base_args(out), "--machine", "CPU-C", "--suite", "fp_rate", "--mix", str(mix)], capsys
        )
        assert (code, stdout) == (2, "")
        assert json.loads(err) == {
            "stage": "proxy", "error": "ValueError", "message": "mix period must be finite, got inf",
        }
        assert not out.exists()


class TestSummaries:
    @pytest.mark.parametrize(
        "args",
        [
            ["proxy", "--suite", "fp_rate", "--target", "710.omnetpp_r", "--mix-k", "1", "--format", "md"],
            ["proxy", "--suite", "fp_rate", "--mix", "MIX", "--format", "md"],
            ["subset", "--format", "csv"],
            ["report", "--format", "md"],
        ],
    )
    def test_a_summary_names_only_paths_that_were_written(self, tmp_path, capsys, args):
        mix = tmp_path / "mix.txt"
        mix.write_text("709.cactus_r\n749.fotonik3d_r\n", encoding="utf-8")
        args = [str(mix) if arg == "MIX" else arg for arg in args]
        code, stdout, err = run([*args, *base_args(tmp_path / "out")], capsys)
        assert (code, err) == (0, "")
        named = re.findall(r"-> (\S+)", stdout)
        assert named
        assert [path for path in named if not glob.glob(path)] == []


class TestIngest:
    def test_ingest_of_a_dram_count_that_overflows_once_scaled_warns_and_keeps_the_other_samples(
        self, tmp_path, capsys
    ):
        def ingest(raw: Path, store: Path) -> tuple[int, str, str]:
            return run(
                ["ingest", "--raw", str(raw), "--countermap", str(bundled.sample_countermap_path()),
                 "--suite", "int_rate", "--workload", "706.stockfish_r", "--machine", "CPU-C", "--store", str(store)],
                capsys,
            )

        dump = bundled.sample_raw_dump_path().read_text(encoding="utf-8")
        raw = tmp_path / "dump.txt"
        raw.write_text(dump.replace("<not supported>,,unc_m_cas", "1e307,,unc_m_cas"), encoding="utf-8")
        code, out, err = ingest(raw, tmp_path / "store.csv")  # CPU-C counts dram in lines of 64 bytes
        assert code == 0
        assert err.splitlines() == [
            "warning: NonNumericValue at line 7: 1e307,,unc_m_cas_count.all,598344827586,100.00,,",
        ]
        assert "5 samples (1 bad lines)" in out
        assert ingest(bundled.sample_raw_dump_path(), tmp_path / "bundled.csv")[0] == 0
        kept = [line for line in (tmp_path / "bundled.csv").read_text().splitlines() if ",dram_bytes," not in line]
        assert (tmp_path / "store.csv").read_text().splitlines() == kept

    def test_ingest_then_derive_round_trip(self, tmp_path, capsys):
        store = tmp_path / "store.csv"
        code, out, err = run(
            [
                "ingest",
                "--raw", str(bundled.sample_raw_dump_path()),
                "--countermap", str(bundled.sample_countermap_path()),
                "--suite", "int_rate",
                "--workload", "706.stockfish_r",
                "--machine", "CPU-C",
                "--store", str(store),
                "--out", str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0, err
        assert "6 samples (0 bad lines)" in out
        code, _, _ = run(
            ["derive", "--store", str(store), "--out", str(tmp_path / "out")], capsys
        )
        assert code == 0
        with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert round(float(row["ipc"]), 3) == 3.625
        assert row["mem_bytes_per_cycle"] == ""  # dram event ingested as unsupported


class TestFeaturize:
    def test_runs_on_unselected_machines_are_not_derived(self, tmp_path, capsys):
        store = two_machine_store(tmp_path, strip_cycles=("int_rate", "int_rate_2", "M1"))
        out = tmp_path / "out"
        code, stdout, err = run(["featurize", *store, "--machine", "M0", "--out", str(out)], capsys)
        assert code == 0, err
        assert "5x19 matrix" in stdout
        code, _, err = run(["featurize", *store, "--out", str(out)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "MissingDenominator"


    def test_workload_id_in_two_suites_is_duplicate_key(self, tmp_path, capsys):
        code, _, err = run(["featurize", *shared_id_store(tmp_path), "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "DuplicateKey" and "'shared'" in payload["message"]


class TestReport:
    def test_each_stage_runs_once(self, tmp_path, capsys, monkeypatch):
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli.dataset, "read_store")
        counted(cli.metrics, "derive_store")
        counted(cli.features, "normalize")
        counted(cli.pca, "fit_pca")
        counted(cli.cluster_mod, "build_dendrogram")
        assert run(["report", *base_args(tmp_path / "out")], capsys)[0] == 0
        assert calls == {
            "read_store": 1,
            "derive_store": 1,
            "normalize": 1,
            "fit_pca": 1,
            "build_dendrogram": 4,
        }

    def test_format_md_writes_only_markdown(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", *base_args(out), "--format", "md"], capsys)[0] == 0
        names = set(tree_bytes(out))
        assert "pca_loadings.md" in names
        assert {name for name in names if not name.endswith(".md")} == set()

    def test_multi_machine_store_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run(["report", *two_machine_store(tmp_path), "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert not out.exists() or not any(out.iterdir())

    def test_a_store_without_scores_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.csv").write_text("kept\n", encoding="utf-8")
        before = tree_bytes(out)
        code, stdout, err = run(["report", "--store", str(bundled.sample_store_path()), "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "stage": "report",
            "error": "ConfigError",
            "message": "run ('fp_rate', '709.cactus_r', 'CPU-C') has no running score; pass a scores CSV with --scores",
        }
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("command", ["subset", "report"])
    def test_a_scores_csv_without_a_run_is_a_data_error_naming_it(self, tmp_path, capsys, command):
        scores = tmp_path / "scores.csv"
        lines = bundled.sample_scores_path().read_text(encoding="utf-8").splitlines(keepends=True)
        scores.write_text("".join(line for line in lines if ",709.cactus_r," not in line), encoding="utf-8")
        out = tmp_path / "out"
        args = [command, "--store", str(bundled.sample_store_path()), "--scores", str(scores), "--out", str(out)]
        code, stdout, err = run(args, capsys)
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "stage": command,
            "error": "SchemaMismatch",
            "message": f"{scores}: no score row for run ('fp_rate', '709.cactus_r', 'CPU-C')",
        }
        assert not out.exists()

    def test_report_does_not_import_numpy_ma(self, tmp_path):
        script = (
            "import sys\n"
            "from benchlens import cli\n"
            f"assert cli.main(['report', *{base_args(tmp_path / 'out')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["report", *base_args(out_a)], capsys)[0] == 0
        assert run(["report", *base_args(out_b)], capsys)[0] == 0
        files_a, files_b = tree_bytes(out_a), tree_bytes(out_b)
        assert files_a.keys() == files_b.keys()
        assert files_a == files_b

    def test_report_equals_stage_composition(self, tmp_path, capsys):
        report_out, stage_out = tmp_path / "report", tmp_path / "stages"
        assert run(["report", *base_args(report_out)], capsys)[0] == 0
        for stage in ("derive", "featurize", "pca", "cluster", "subset"):
            assert run([stage, *base_args(stage_out)], capsys)[0] == 0
        for pair in (("int_rate", "int_speed"), ("fp_rate", "fp_speed")):
            assert (
                run(
                    ["compare", *base_args(stage_out), "--suite-a", pair[0],
                     "--suite-b", pair[1], "--machine", "CPU-C"],
                    capsys,
                )[0]
                == 0
            )
        report_files = tree_bytes(report_out)
        stage_files = tree_bytes(stage_out)
        assert report_files.keys() == stage_files.keys()
        mismatches = [name for name in report_files if report_files[name] != stage_files[name]]
        assert mismatches == []

    def test_expected_artifact_set(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", *base_args(out)], capsys)[0] == 0
        names = set(tree_bytes(out))
        assert {
            "metrics.csv",
            "metric_availability.csv",
            "features.csv",
            "dropped_columns.csv",
            "pca_loadings.md",
            "pca_scores.csv",
            "pca_variance.csv",
            "subsets.md",
            "subsets.csv",
            "volume_ratios.csv",
        } <= names
        for suite in ("int_rate", "int_speed", "fp_rate", "fp_speed"):
            assert f"dendrogram_{suite}.svg" in names
            assert f"dendrogram_{suite}.csv" in names
        assert "compare_int_rate_vs_int_speed.svg" in names


def appended(path: Path, line: str, directory: Path) -> Path:
    """A copy of `path` in `directory` with one more line."""
    copy = directory / path.name
    copy.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    return copy


class TestCsvFieldLimit:
    @pytest.mark.parametrize("where", ["store", "scores", "mix"])
    def test_a_field_over_the_limit_is_one_json_line_naming_its_row(self, tmp_path, capsys, where):
        long = "w" * 150
        store, scores = bundled.sample_store_path(), bundled.sample_scores_path()
        args = ["derive"]
        if where == "store":
            store = bad = appended(store, f"int_rate,{long},CPU-C,cycles,1.0,true", tmp_path)
            expected = ("SchemaMismatch", f"{bad}:262: field larger than field limit (100)")
        elif where == "scores":
            scores = bad = appended(scores, f"int_rate,{long},CPU-C,1.0,1.0", tmp_path)
            expected = ("SchemaMismatch", f"{bad}:54: field larger than field limit (100)")
        else:
            bad = tmp_path / "mix.txt"
            bad.write_text(f"709.cactus_r\n{long}\n", encoding="utf-8")
            args = ["proxy", "--suite", "fp_rate", "--mix", str(bad)]
            expected = ("ValueError", f"{bad}:2: field larger than field limit (100)")
        limit = csv.field_size_limit(100)
        try:
            code, stdout, err = run(
                [*args, "--store", str(store), "--scores", str(scores), "--out", str(tmp_path / "out")], capsys
            )
        finally:
            csv.field_size_limit(limit)
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {"stage": args[0], "error": expected[0], "message": expected[1]}


SUITES = "['fp_rate', 'fp_speed', 'int_rate', 'int_speed']"
UNKNOWN_CHOICE = [
    *((command, "--machine", "NOPE", "['CPU-C']") for command in cli.COMMANDS if command != "ingest"),
    *((command, "--suite", "nosuch", SUITES) for command in cli.COMMANDS if command != "ingest"),
    *((command, flag, "nosuch", SUITES) for command in ("compare", "report") for flag in ("--suite-a", "--suite-b")),
]


class TestErrorPaths:
    @pytest.mark.parametrize("command,flag,value,held", UNKNOWN_CHOICE)
    def test_a_machine_or_suite_the_store_lacks_fails_before_writing(self, tmp_path, capsys, command, flag,
                                                                     value, held):
        extra = {
            "compare": ["--suite-a", "int_rate", "--suite-b", "int_speed", "--machine", "CPU-C"],
            "report": ["--suite-a", "int_rate", "--suite-b", "int_speed"],
            "proxy": ["--target", "709.cactus_r"],
        }.get(command, [])
        out = tmp_path / "out"
        code, stdout, err = run([command, *base_args(out), *extra, flag, value], capsys)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "stage": command,
            "error": "ConfigError",
            "message": f"{flag} {value!r} is not in the store, which holds {held}",
        }
        assert not out.exists()

    def test_unknown_command_exits_one_with_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("score", ["inf", "nan"])
    def test_non_finite_score_fails_at_load(self, tmp_path, capsys, score):
        lines = bundled.sample_scores_path().read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1].startswith("fp_rate,709.cactus_r,CPU-C,16.96,")
        lines[1] = lines[1].replace(",16.96,", f",{score},")
        scores = tmp_path / "scores.csv"
        scores.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run(
            ["subset", "--store", str(bundled.sample_store_path()), "--scores", str(scores),
             "--suite", "fp_rate", "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "stage": "subset",
            "error": "ValueError",
            "message": f"score must be finite when present, got {float(score)!r}",
        }
        assert not out.exists()

    def test_malformed_countermap_yaml_is_one_json_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("machines:\n  CPU-C: [unclosed\n", encoding="utf-8")
        store = tmp_path / "store.csv"
        code, stdout, err = run(
            ["ingest", "--raw", str(bundled.sample_raw_dump_path()), "--countermap", str(bad),
             "--suite", "int_rate", "--workload", "706.stockfish_r", "--machine", "CPU-C",
             "--store", str(store)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["stage"] == "ingest" and payload["error"] == "SchemaMismatch"
        assert payload["message"].startswith(f"{bad}: ")
        assert not store.exists()

    def test_malformed_config_yaml_is_one_json_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text('out: "unclosed\n', encoding="utf-8")
        code, stdout, err = run(
            ["derive", "--config", str(bad), "--store", str(bundled.sample_store_path()),
             "--out", str(tmp_path / "out")],
            capsys,
        )
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["stage"] == "derive" and payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"{bad}: ")

    def test_missing_store_is_config_error(self, tmp_path, capsys):
        code, _, err = run(["derive", "--out", str(tmp_path)], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["stage"] == "derive" and payload["error"] == "ConfigError"

    def test_nonexistent_store_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["derive", "--store", str(tmp_path / "nope.csv"), "--out", str(tmp_path)], capsys
        )
        assert code == 2

    def test_compare_refuses_a_suite_the_store_holds(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run(
            ["compare", *base_args(out), "--suite-a", "int_rate", "--suite-b", "int_speed", "--machine", "CPU-C",
             "--suite", "int_rate"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "stage": "compare",
            "error": "ConfigError",
            "message": "compare refuses --suite: it takes --suite-a and --suite-b",
        }
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_negative_budget_is_a_config_error(self, tmp_path, capsys, source):
        config = tmp_path / "config.yaml"
        config.write_text("budget: -1\n", encoding="utf-8")
        given = ["--budget", "-1"] if source == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        code, stdout, err = run([*PROXY_SEARCH, *base_args(out), *given], capsys)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {"stage": "proxy", "error": "ConfigError", "message": "budget must be >= 0, got -1"}
        assert not out.exists()

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            ["subset", *base_args(tmp_path / "out"), "--suite", "int_rate", "--groups", "4",
             "--subset-k", "7", "--budget", "10"],
            capsys,
        )
        assert code == 3
        assert json.loads(err)["error"] == "BudgetExceeded"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("store: x\nfrobnication_level: 11\n", encoding="utf-8")
        code, _, err = run(["derive", "--config", str(config)], capsys)
        assert code == 1
        assert "frobnication_level" in json.loads(err)["message"]

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(
            f"store: {bundled.sample_store_path()}\n"
            f"scores: {bundled.sample_scores_path()}\n"
            f"out: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        code, out, _ = run(["derive", "--config", str(config)], capsys)
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_env_var_default_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BENCHLENS_OUT", str(tmp_path / "env_out"))
        code, _, _ = run(
            ["derive", "--store", str(bundled.sample_store_path())], capsys
        )
        assert code == 0
        assert (tmp_path / "env_out" / "metrics.csv").exists()

    def test_metric_weights_from_config_reach_proxy_search(self, tmp_path, capsys):
        target = "710.omnetpp_r"

        def ranked_singletons(name: str, weights_yaml: str) -> list[dict[str, str]]:
            config = tmp_path / f"{name}.yaml"
            config.write_text(
                f"store: {bundled.sample_store_path()}\n"
                f"scores: {bundled.sample_scores_path()}\n"
                f"out: {tmp_path / name}\n"
                "suite: fp_rate\n"
                f"target: {target}\n"
                "mix_k: 1\n" + weights_yaml,
                encoding="utf-8",
            )
            code, _, _ = run(["proxy", "--config", str(config)], capsys)
            assert code == 0
            lines = (tmp_path / name / "proxy_mixes.csv").read_text().splitlines()
            assert len(lines) == 1 + 12
            return list(csv.DictReader(lines))

        # |ipc - ipc(target)| over the fp_rate pool, from the derived metrics of the sample
        code, _, _ = run(
            ["derive", "--store", str(bundled.sample_store_path()),
             "--out", str(tmp_path / "derived")],
            capsys,
        )
        assert code == 0
        with open(tmp_path / "derived" / "metrics.csv", newline="") as fh:
            derived = list(csv.DictReader(fh))
        target_ipc = next(float(r["ipc"]) for r in derived if r["workload"] == target)
        ipc_gap = {
            r["workload"]: abs(float(r["ipc"]) - target_ipc)
            for r in derived
            if r["suite"] == "fp_rate" and r["workload"] != target
        }

        ipc_only = ranked_singletons("ipc_only", "weights:\n  ipc: 1.0\n")
        # with an ipc-only weighting the best singleton is the ipc-closest workload
        # (765.roms_r: ipc 1.830 vs target 2.103)
        assert ipc_only[0]["mix"] == min(ipc_gap, key=ipc_gap.get)
        # and the distance rises with the ipc gap all the way down the ranking
        gaps = [ipc_gap[row["mix"]] for row in ipc_only]
        distances = [float(row["distance"]) for row in ipc_only]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert all(a < b for a, b in zip(distances, distances[1:]))

        # without `weights:` every available metric counts, so the best singleton changes
        default = ranked_singletons("default_weights", "")
        assert default[0]["mix"] != ipc_only[0]["mix"]


def renamed_sample(tmp_path: Path, suites: dict[str, str], machine: str, workloads: dict | None = None) -> list[str]:
    """--store/--scores args of the bundled sample with suites and workloads renamed and its one machine `machine`."""
    workloads = workloads or {}
    sample = dataset.read_store(bundled.sample_store_path(), bundled.sample_scores_path())

    def key(run_key):
        suite, workload, _ = run_key
        return suites.get(suite, suite), workloads.get(workload, workload), machine

    suite_col, workload_col, machines, *columns = oracles.columns(sample)
    store = dataset.Store.from_cells(
        zip([suites.get(s, s) for s in suite_col], [workloads.get(w, w) for w in workload_col], [machine] * len(machines),
            *columns),
        wallclock={key(k): v for k, v in zip(sample.runs, sample.wallclock.tolist())},
        scores={key(k): v for k, v in zip(sample.runs, sample.scores.tolist()) if v == v},
    )
    dataset.save_canonical(store, tmp_path / "store.csv")
    dataset.save_scores(store, tmp_path / "scores.csv")
    return ["--store", str(tmp_path / "store.csv"), "--scores", str(tmp_path / "scores.csv")]


class TestNamesThatCsvQuotes:
    def test_every_report_csv_reads_back_at_its_header_width_with_the_names_intact(self, tmp_path, capsys):
        machine = 'CPU,"C"'
        args = renamed_sample(tmp_path, {"int_rate": "x,y_rate", "int_speed": "x,y_speed"}, machine)
        out = tmp_path / "out"
        code, _, err = run(["report", *args, "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        headers, tables = {}, {}
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert [len(row) for row in rows] == [len(header)] * len(rows), path.name
            headers[path.name], tables[path.name] = header, [dict(zip(header, row)) for row in rows]
        suites = {"x,y_rate", "x,y_speed", "fp_rate", "fp_speed"}
        assert {row["suite"] for row in tables["metrics.csv"]} == suites
        for name in ("metrics.csv", "metric_availability.csv", "dropped_columns.csv", "subsets.csv"):
            assert tables[name] and {row["machine"] for row in tables[name]} == {machine}, name
        assert f"ipc:{machine}" in headers["features.csv"]
        assert {row["suite"] for row in tables["subsets.csv"]} == suites
        assert [row["pair"] for row in tables["volume_ratios.csv"]] == ["fp", "x,y"]
        assert {"dendrogram_x,y_rate.csv", "compare_x,y_rate_vs_x,y_speed.csv"} <= set(tables)


PROXY_SEARCH = ["proxy", "--suite", "fp_rate", "--target", "710.omnetpp_r"]
# each document with a command that reads the field
CONFIG_TYPE_ERRORS = [
    ("pcs: 2.5", ["report"]),
    ('groups: "4"', ["report"]),
    ('variance: "0.9"', ["report"]),
    ('threshold: "1"', ["report"]),
    ("subset_k: true", ["report"]),
    ('mix_k: "2"', PROXY_SEARCH),
    ("budget: abc", PROXY_SEARCH),
    ("weights: [1, 2]", PROXY_SEARCH),
    ("weights: {ipcc: 1.0, ipc: 1.0}", PROXY_SEARCH),  # a misspelled metric would count for nothing
]


class TestConfigTypes:
    @pytest.mark.parametrize("document, command", CONFIG_TYPE_ERRORS)
    def test_a_value_of_the_wrong_type_is_one_config_error_line(self, tmp_path, capsys, document, command):
        config = tmp_path / "config.yaml"
        config.write_text(document + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run([*command, "--config", str(config), *base_args(out)], capsys)
        assert (code, stdout) == (1, "")
        assert "Traceback" not in err
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["stage"] == command[0] and payload["error"] == "ConfigError"
        assert payload["message"].startswith(document.split(":")[0] + " must ")
        assert not out.exists()

    def test_an_int_is_a_number_and_weights_may_be_ints(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("variance: 1\nthreshold: 2\nweights: {ipc: 1, l1d_mpki: 0.5}\n", encoding="utf-8")
        cfg = cli.load_config(str(config), {})
        assert (cfg.variance, cfg.threshold, cfg.weights) == (1, 2, {"ipc": 1, "l1d_mpki": 0.5})

    def test_weights_keys_that_name_no_metric_are_named(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("weights: {ipcc: 1.0, ipc: 1.0, l9_mpki: 2}\n", encoding="utf-8")
        message = r"^weights must name metrics, got unknown keys \['ipcc', 'l9_mpki'\]$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(str(config), {})


COUNTERMAP_SHAPES = [
    "machines: [CPU-C]\n",
    "machines:\n  CPU-C: [instructions]\n",
    "machines:\n  CPU-C: lines\n",
    "machines:\n  CPU-C:\n    events: [instructions, cycles]\n",
]


class TestCounterMapShapes:
    @pytest.mark.parametrize("document", COUNTERMAP_SHAPES)
    def test_a_manifest_of_the_wrong_shape_is_a_schema_mismatch_naming_the_machine(self, tmp_path, capsys, document):
        manifest = tmp_path / "countermap.yaml"
        manifest.write_text(document, encoding="utf-8")
        store = tmp_path / "store.csv"
        code, stdout, err = run(
            ["ingest", "--raw", str(bundled.sample_raw_dump_path()), "--countermap", str(manifest),
             "--suite", "int_rate", "--workload", "706.stockfish_r", "--machine", "CPU-C",
             "--store", str(store)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert "Traceback" not in err
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["stage"] == "ingest" and payload["error"] == "SchemaMismatch"
        assert payload["message"].startswith(f"{manifest}: ")
        assert "CPU-C" in payload["message"]
        assert not store.exists()


def rate_speed_store() -> dataset.Store:
    """Four scored int_rate and four int_speed workloads on M0 and M1.

    Speed runs execute about four times the instructions of rate runs on M0, and as many on M1.
    """
    rng = np.random.default_rng(3)
    speed_scale = {"M0": 4e12, "M1": 1e12}
    return combine(
        with_score(
            make_full_record(suite, f"{suite}_{i}", machine, rng,
                             base_instructions=speed_scale[machine] if suite == "int_speed" else 1e12),
            float(rng.uniform(1.0, 10.0)),
        )
        for suite in ("int_rate", "int_speed")
        for i in range(4)
        for machine in ("M0", "M1")
    )


def saved(store: dataset.Store, directory: Path) -> list[str]:
    """--store/--scores args of `store` written to `directory`."""
    directory.mkdir()
    dataset.save_canonical(store, directory / "store.csv")
    dataset.save_scores(store, directory / "scores.csv")
    return ["--store", str(directory / "store.csv"), "--scores", str(directory / "scores.csv")]


class TestVolumeRatiosPerMachine:
    @pytest.mark.parametrize("command", [["report"], ["compare", "--suite-a", "int_rate", "--suite-b", "int_speed"]])
    def test_machine_flag_ratios_count_only_that_machines_runs(self, tmp_path, capsys, command):
        store = rate_speed_store()
        both, alone = saved(store, tmp_path / "both"), saved(store.select(machines=["M0"]), tmp_path / "alone")
        ratios = {}
        for name, args in (("both", both), ("alone", alone)):
            out = tmp_path / name / "out"
            code, _, err = run([*command, *args, "--machine", "M0", "--out", str(out)], capsys)
            assert (code, err) == (0, "")
            ratios[name] = (out / "volume_ratios.csv").read_bytes()
        assert ratios["both"] == ratios["alone"]
        with open(tmp_path / "both" / "out" / "volume_ratios.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["pair"] == "int" and float(row["speed_over_rate"]) > 2.0  # M1's speed runs would pull it to ~2.5


class TestZeroCounts:
    @pytest.mark.parametrize(
        "args, message",
        [
            ([*PROXY_SEARCH, "--mix-k", "0"], "mix_k must be >= 1, got 0"),
            ([*PROXY_SEARCH, "--mix-k", "-1"], "mix_k must be >= 1, got -1"),
            (["pca", "--pcs", "0"], "pcs must be >= 1, got 0"),
            (["pca", "--variance", "0"], "variance must be in (0, 1], got 0.0"),
            (["pca", "--variance", "1.5"], "variance must be in (0, 1], got 1.5"),
            (["subset", "--suite", "int_rate", "--groups", "0"], "groups must be >= 1, got 0"),
            (["subset", "--suite", "int_rate", "--subset-k", "0"], "subset_k must be >= 1, got 0"),
            (["subset", "--suite", "int_rate", "--threshold", "-1"], "threshold must be >= 0, got -1.0"),
        ],
    )
    def test_zero_is_refused_like_a_negative_count(self, tmp_path, capsys, args, message):
        # a usage error, refused with the config before the store is read: exit 1, and out/ as it was
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.csv").write_text("kept\n", encoding="utf-8")
        code, stdout, err = run([*args, *base_args(out)], capsys)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {"stage": args[0], "error": "ConfigError", "message": message}
        assert tree_bytes(out) == {"kept.csv": b"kept\n"}


class TestEmptyStore:
    @pytest.mark.parametrize("command", ["report", "derive"])
    def test_a_store_without_runs_is_a_data_error_naming_the_store(self, tmp_path, capsys, command):
        store = tmp_path / "store.csv"
        store.write_text(",".join(dataset.STORE_HEADER) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run([command, "--store", str(store), "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "stage": command, "error": "EmptyInput", "message": f"{store}: the store holds no runs",
        }
        assert not out.exists()

    def test_ingest_into_a_store_without_runs_adds_the_run(self, tmp_path, capsys):
        store = tmp_path / "store.csv"
        store.write_text(",".join(dataset.STORE_HEADER) + "\n", encoding="utf-8")
        code, out, err = run(
            ["ingest", "--raw", str(bundled.sample_raw_dump_path()),
             "--countermap", str(bundled.sample_countermap_path()), "--suite", "int_rate",
             "--workload", "706.stockfish_r", "--machine", "CPU-C", "--store", str(store)],
            capsys,
        )
        assert (code, err) == (0, "")
        assert "6 samples (0 bad lines)" in out
        assert dataset.read_store(store).runs == (("int_rate", "706.stockfish_r", "CPU-C"),)

    @pytest.mark.parametrize("into", ["an_existing_store", "a_new_path"])
    @pytest.mark.parametrize(
        "dump, warnings",
        [
            ("", []),
            ("# perf stat -x,\n\n# no counters\n", []),
            ("abc\n12,,\nx,u,cycles\n", [
                "warning: MalformedLine at line 1: abc",
                "warning: MalformedLine at line 2: 12,,",
                "warning: NonNumericValue at line 3: x,u,cycles",
            ]),
        ],
        ids=["empty", "comments_only", "every_line_bad"],
    )
    def test_ingest_of_a_dump_without_samples_is_a_data_error_and_writes_nothing(
        self, tmp_path, capsys, dump, warnings, into
    ):
        raw = tmp_path / "dump.txt"
        raw.write_text(dump, encoding="utf-8")
        if into == "an_existing_store":
            store = tmp_path / "store.csv"
            store.write_bytes(bundled.sample_store_path().read_bytes())
            os.utime(store, ns=(0, 10**18))
        else:
            store = tmp_path / "new" / "store.csv"
        before = os.listdir(tmp_path)
        code, stdout, err = run(
            ["ingest", "--raw", str(raw), "--suite", "int_rate", "--workload", "w", "--machine", "CPU-C",
             "--store", str(store)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        *warned, line = err.splitlines()
        assert warned == warnings
        assert json.loads(line) == {
            "stage": "ingest", "error": "EmptyInput", "message": f"{raw}: the dump holds no samples",
        }
        assert os.listdir(tmp_path) == before
        if into == "an_existing_store":
            assert store.read_bytes() == bundled.sample_store_path().read_bytes()
            assert store.stat().st_mtime_ns == 10**18


class TestSvgText:
    def test_a_dendrogram_of_names_holding_xml_markup_is_well_formed(self, tmp_path, capsys):
        from xml.dom import minidom

        name = "709.cactus<&>"
        args = renamed_sample(tmp_path, {}, "CPU-C", workloads={"709.cactus_r": name})
        out = tmp_path / "out"
        code, _, err = run(["cluster", *args, "--suite", "fp_rate", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        document = minidom.parse(str(out / "dendrogram_fp_rate.svg"))
        texts = {node.firstChild.data for node in document.getElementsByTagName("text")}
        assert name in texts


class TestSuiteFlag:
    INT_RATE = sorted(w for s, w, _ in dataset.read_store(bundled.sample_store_path()).runs if s == "int_rate")

    @staticmethod
    def column(path: Path, name: str) -> list[str]:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row[name] for row in csv.DictReader(fh)]

    def test_derive_featurize_and_pca_cover_only_the_suites_runs(self, tmp_path, capsys):
        every, one = tmp_path / "every", tmp_path / "one"
        for command in ("derive", "featurize", "pca"):
            assert run([command, *base_args(every)], capsys)[0] == 0
            code, stdout, err = run([command, *base_args(one), "--suite", "int_rate"], capsys)
            assert (code, err) == (0, ""), command
        assert len(self.INT_RATE) == 14
        assert self.column(one / "metrics.csv", "suite") == ["int_rate"] * 14
        with open(every / "metrics.csv", encoding="utf-8") as fh:  # each run's metrics are its own
            rows = [line for line in fh if line.startswith(("suite,", "int_rate,"))]
        assert (one / "metrics.csv").read_text(encoding="utf-8") == "".join(rows)
        assert sorted(self.column(one / "features.csv", "workload")) == self.INT_RATE
        assert sorted(self.column(one / "pca_scores.csv", "workload")) == self.INT_RATE
        assert len(self.column(every / "pca_scores.csv", "workload")) == 52

    def test_cluster_and_report_still_fit_pca_on_every_suite(self, tmp_path, capsys):
        every, one, report = tmp_path / "every", tmp_path / "one", tmp_path / "report"
        assert run(["cluster", *base_args(every)], capsys)[0] == 0
        assert run(["cluster", *base_args(one), "--suite", "int_rate"], capsys)[0] == 0
        assert run(["report", *base_args(report), "--suite", "int_rate"], capsys)[0] == 0
        assert sorted(tree_bytes(one)) == ["dendrogram_int_rate.csv", "dendrogram_int_rate.svg"]
        assert tree_bytes(one).items() <= tree_bytes(every).items()
        assert tree_bytes(one).items() <= tree_bytes(report).items()
        assert len(self.column(report / "metrics.csv", "suite")) == 52


class TestNotANumber:
    CASES = [
        (["subset"], "threshold", "threshold must be >= 0, got {}"),
        (["pca"], "variance", "variance must be in (0, 1], got {}"),
    ]

    @pytest.mark.parametrize("args, flag, message", CASES)
    def test_a_nan_flag_is_refused_like_a_negative_one(self, tmp_path, capsys, args, flag, message):
        out = tmp_path / "out"
        for value in ("nan", "-1"):
            code, stdout, err = run([*args, *base_args(out), f"--{flag}", value], capsys)
            assert (code, stdout) == (1, ""), value
            (line,) = err.splitlines()
            shown = repr(float(value))
            assert json.loads(line) == {"stage": args[0], "error": "ConfigError", "message": message.format(shown)}
        assert not out.exists()

    @pytest.mark.parametrize("args, flag, message", CASES)
    def test_a_yaml_nan_is_refused(self, tmp_path, capsys, args, flag, message):
        config, out = tmp_path / "config.yaml", tmp_path / "out"
        config.write_text(f"{flag}: .nan\n", encoding="utf-8")
        code, stdout, err = run([*args, *base_args(out), "--config", str(config)], capsys)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {"stage": args[0], "error": "ConfigError", "message": message.format("nan")}
        assert not out.exists()


class TestArtifactNames:
    COMMANDS = [
        (["cluster"], "dendrogram_{}.csv"),
        (["compare", "--suite-a", "{}", "--suite-b", "int_speed", "--machine", "CPU-C"], "compare_{}_vs_int_speed.csv"),
        (["report"], "dendrogram_{}.csv"),
    ]

    @pytest.mark.parametrize("suite", ["x/../../escaped", "a/b"])
    @pytest.mark.parametrize("command, artifact", COMMANDS)
    def test_a_suite_name_holding_a_slash_writes_nothing(self, tmp_path, capsys, suite, command, artifact):
        args = renamed_sample(tmp_path, {"int_rate": suite}, "CPU-C")
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "o" / "out"
        code, stdout, err = run([*(arg.format(suite) for arg in command), *args, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        name = artifact.format(suite)
        assert json.loads(line) == {
            "stage": command[0], "error": "SchemaMismatch", "message": f"artifact name {name!r} is not a single file name",
        }
        assert sorted(tmp_path.rglob("*")) == before
