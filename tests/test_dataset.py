from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from benchlens import bundled
from benchlens.dataset import (
    SCORES_HEADER,
    STORE_HEADER,
    YAML_LOADER,
    CounterMap,
    MalformedLine,
    NonNumericValue,
    Store,
    identity_counter_map,
    load_counter_maps,
    machines_in,
    merge_stores,
    parse_counter_file,
    read_store,
    save_canonical,
    save_scores,
    suites_in,
    validate_store,
    workloads_in,
)
from benchlens.errors import DuplicateKey, SchemaMismatch
from conftest import combine, make_full_store


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


CPU_C_MAP = CounterMap(
    machine="CPU-C",
    mapping={
        "instructions": "instructions",
        "cycles": "cycles",
        "loads": "mem_inst_retired.all_loads",
        "dram_bytes": "unc_m_cas_count.all",
    },
)


class TestParseCounterFile:
    def test_parses_instruction_line(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "6507000000000,,instructions,598344827586,100.00,,\n")
        result = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="int_rate", workload="706.stockfish_r")
        assert result.errors == ()
        ((suite, workload, machine, event, value, supported),) = result.store.cells()
        assert event == "instructions"
        assert value == 6.507e12
        assert supported is True
        assert (suite, workload, machine, event) == ("int_rate", "706.stockfish_r", "CPU-C", "instructions")

    @pytest.mark.parametrize("token", ["<not supported>", "<not counted>"])
    def test_unsupported_sentinel(self, tmp_path, token):
        raw = write(tmp_path / "perf.txt", f"{token},,unc_m_cas_count.all,1,100.00,,\n")
        result = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        ((*_, event, value, supported),) = result.store.cells()
        assert supported is False
        assert value == 0.0
        assert event == "dram_bytes"

    def test_malformed_line_collected_not_fatal(self, tmp_path):
        lines = [
            "100,,instructions,1,100.00,,",
            "200,,cycles,1,100.00,,",
            "not-a-record",
            "300,,mem_inst_retired.all_loads,1,100.00,,",
            "400,,br_inst_retired.all_branches,1,100.00,,",
        ]
        raw = write(tmp_path / "perf.txt", "\n".join(lines) + "\n")
        result = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert result.store.cell_count == 4
        assert len(result.errors) == 1
        assert isinstance(result.errors[0], MalformedLine)
        assert result.errors[0].line_no == 3

    def test_non_numeric_value(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "12x4,,instructions,1,100.00,,\n5,,cycles,1,100.00,,\n")
        result = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert [cell[3] for cell in result.store.cells()] == ["cycles"]
        assert isinstance(result.errors[0], NonNumericValue)
        assert result.errors[0].line_no == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "# started\n\n7,,cycles,1,100.00,,\n")
        result = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert result.store.cell_count == 1 and not result.errors

    def test_untranslatable_event_kept_verbatim(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "9,,weird.vendor.event,1,100.00,,\n")
        result = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert [cell[3] for cell in result.store.cells()] == ["weird.vendor.event"]

    def test_dram_lines_scaled_to_bytes(self, tmp_path):
        cmap = CounterMap(
            machine="CPU-C",
            mapping={"dram_bytes": "unc_m_cas_count.all"},
            cacheline_bytes=64,
            dram_bytes_unit="lines",
        )
        raw = write(tmp_path / "perf.txt", "1000,,unc_m_cas_count.all,1,100.00,,\n")
        result = parse_counter_file(raw, "CPU-C", cmap, suite="s", workload="w")
        assert [cell[4] for cell in result.store.cells()] == [64000.0]

    def test_bundled_raw_dump_parses_cleanly(self):
        maps = load_counter_maps(bundled.sample_countermap_path())
        result = parse_counter_file(
            bundled.sample_raw_dump_path(),
            "CPU-C",
            maps["CPU-C"],
            suite="int_rate",
            workload="706.stockfish_r",
        )
        assert not result.errors
        values = {event: value for *_, event, value, supported in result.store.cells() if supported}
        assert values["instructions"] == 6.507e12
        assert values["loads"] == 1.43154e12


class TestCanonicalStore:
    def test_header_only_gives_empty_store(self, tmp_path):
        path = write(tmp_path / "store.csv", "suite,workload,machine,event,value,supported\n")
        assert len(read_store(path)) == 0

    def test_bundled_store_shape(self, sample_store):
        assert len(sample_store) == 52
        assert suites_in(sample_store) == ["fp_rate", "fp_speed", "int_rate", "int_speed"]
        assert machines_in(sample_store) == ["CPU-C"]
        assert len(workloads_in(sample_store, "int_rate")) == 14
        assert len(workloads_in(sample_store, "int_speed")) == 13
        assert len(workloads_in(sample_store, "fp_rate")) == 12
        assert len(workloads_in(sample_store, "fp_speed")) == 13

    def test_duplicate_key_rejected(self, tmp_path):
        body = (
            "suite,workload,machine,event,value,supported\n"
            "s,w,m,instructions,1.0,true\n"
            "s,w,m,instructions,2.0,true\n"
        )
        path = write(tmp_path / "store.csv", body)
        with pytest.raises(DuplicateKey):
            read_store(path)

    def test_schema_mismatch_on_missing_columns(self, tmp_path):
        path = write(tmp_path / "store.csv", "suite,workload,machine,event,value\ns,w,m,e,1\n")
        with pytest.raises(SchemaMismatch):
            read_store(path)

    def test_round_trip_identity(self, sample_store, tmp_path):
        store = tmp_path / "store.csv"
        scores = tmp_path / "scores.csv"
        save_canonical(sample_store, store)
        save_scores(sample_store, scores)
        assert read_store(store, scores) == sample_store

    def test_serializer_output_always_loads(self, tmp_path):
        # odd-but-valid values survive the trip unchanged
        cells = [
            ("s", "w", "m", "cycles", 0.1 + 0.2, True),
            ("s", "w", "m", "dram_bytes", 0.0, False),
        ]
        records = Store.from_cells(cells)
        path = tmp_path / "store.csv"
        save_canonical(records, path)
        assert read_store(path) == records

    def test_scores_join_and_defaults(self, tmp_path):
        store = write(
            tmp_path / "store.csv",
            "suite,workload,machine,event,value,supported\n"
            "s,w1,m,instructions,10.0,true\n"
            "s,w2,m,instructions,20.0,true\n",
        )
        scores = write(
            tmp_path / "scores.csv",
            "suite,workload,machine,score,wallclock_seconds\ns,w1,m,5.0,120.0\n",
        )
        loaded = read_store(store, scores)
        records = {w: (s, c) for (_, w, _), s, c in zip(loaded.runs, loaded.scores, loaded.wallclock)}
        assert records["w1"] == (5.0, 120.0)
        assert np.isnan(records["w2"][0]) and records["w2"][1] == 1.0

    def test_score_for_unknown_run_rejected(self, tmp_path):
        store = write(
            tmp_path / "store.csv",
            "suite,workload,machine,event,value,supported\ns,w1,m,instructions,10.0,true\n",
        )
        scores = write(
            tmp_path / "scores.csv",
            "suite,workload,machine,score,wallclock_seconds\ns,nope,m,5.0,120.0\n",
        )
        with pytest.raises(SchemaMismatch):
            read_store(store, scores)

    def test_merge_rejects_colliding_samples(self, sample_store):
        with pytest.raises(DuplicateKey):
            merge_stores(sample_store, sample_store.select(suite="int_rate"))


class TestRunRecord:
    """The per-run rules of the store's one constructor."""

    def test_unsupported_events_never_reach_event_values(self):
        cells = [("s", "w", "m", "cycles", 5.0, True), ("s", "w", "m", "dram_bytes", 0.0, False)]
        store = Store.from_cells(cells)
        counts = dict(zip(store.events, store.counts()[0].tolist()))
        assert {e: v for e, v in counts.items() if v == v} == {"cycles": 5.0}

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            Store.from_cells([("s", "w", "m", "cycles", -1.0, True)])


class TestValidateStore:
    def test_full_vocabulary_has_no_blocked_metrics(self):
        report = validate_store(make_full_store(["w1", "w2"], ["m1"]))
        assert report.per_machine["m1"].blocked == {}
        assert len(report.per_machine["m1"].computable) == 19

    def test_missing_event_blocks_only_that_machine(self):
        records = make_full_store(["w1", "w2"], ["m1", "m2"])
        trimmed = combine([records], keep=lambda cell: cell[2] != "m2" or cell[3] != "l2_tlb_misses")
        report = validate_store(trimmed)
        assert "l2_tlb_mpmi" not in report.per_machine["m1"].blocked
        assert report.per_machine["m2"].blocked["l2_tlb_mpmi"] == ("l2_tlb_misses",)

    def test_sample_store_computable_set(self, sample_store):
        report = validate_store(sample_store)
        assert set(report.per_machine["CPU-C"].computable) == {
            "ipc",
            "load_pct",
            "store_pct",
            "branch_pct",
        }


class TestCounterMapManifest:
    def test_bundled_manifest_loads(self):
        maps = load_counter_maps(bundled.sample_countermap_path())
        cmap = maps["CPU-C"]
        assert cmap.cacheline_bytes == 64
        assert cmap.to_canonical("mem_inst_retired.all_loads") == "loads"

    def test_non_injective_mapping_rejected(self):
        with pytest.raises(ValueError):
            CounterMap(machine="m", mapping={"loads": "x", "stores": "x"})

    def test_unknown_canonical_event_rejected(self, tmp_path):
        path = write(
            tmp_path / "map.yaml",
            "machines:\n  m:\n    events:\n      made_up_event: raw\n",
        )
        with pytest.raises(SchemaMismatch):
            load_counter_maps(path)

    def test_malformed_yaml_is_a_schema_mismatch_naming_the_file(self, tmp_path):
        path = write(tmp_path / "map.yaml", "machines:\n  m: [unclosed\n")
        with pytest.raises(SchemaMismatch, match="map.yaml"):
            load_counter_maps(path)

    def test_libyaml_and_pure_python_loaders_read_equal_documents(self, monkeypatch):
        gen_path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", gen_path)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look their module up there
        spec.loader.exec_module(gen)
        manifests = [bundled.sample_countermap_path().read_text(encoding="utf-8"), gen.countermap_yaml()]
        for text in manifests:
            doc = yaml.load(text, Loader=YAML_LOADER)
            assert doc == yaml.load(text, Loader=yaml.SafeLoader)
            assert doc["machines"]
        assert len(yaml.load(manifests[1], Loader=YAML_LOADER)["machines"]) == 9

    def test_identity_map_covers_vocabulary(self):
        cmap = identity_counter_map("m")
        assert cmap.to_canonical("l3_misses") == "l3_misses"


GOOD_ROWS = (
    "s,w1,m,instructions,1000.0,true",
    "s,w1,m,cycles,500.0,true",
    "s,w1,m,loads,200.0,true",
    "s,w2,m,instructions,3000.0,true",
    "s,w2,m,cycles,1000.0,true",
    "s,w2,m,dram_bytes,0.0,false",
)
GOOD_SCORES = ("s,w1,m,5.0,120.0", "s,w2,m,7.5,60.0")


def swap(rows, index, row):
    return rows[:index] + (row,) + rows[index + 1:]


# (store rows, scores rows, header): each store or scores file breaks one rule, or two rules to
# show that the first bad row wins; the last four are caught when the metrics are derived
MALFORMED = {
    "bad_header": (GOOD_ROWS, GOOD_SCORES, "suite,workload,machine,event,value"),
    "wrong_column_count": (swap(GOOD_ROWS, 1, "s,w1,m,cycles,500.0"), GOOD_SCORES, None),
    "bad_supported_token": (swap(GOOD_ROWS, 1, "s,w1,m,cycles,500.0,yes"), GOOD_SCORES, None),
    "non_numeric_value": (swap(GOOD_ROWS, 1, "s,w1,m,cycles,12x,true"), GOOD_SCORES, None),
    "negative_value": (swap(GOOD_ROWS, 1, "s,w1,m,cycles,-1.0,true"), GOOD_SCORES, None),
    "inf_value": (swap(GOOD_ROWS, 1, "s,w1,m,cycles,inf,true"), GOOD_SCORES, None),
    "nan_value": (swap(GOOD_ROWS, 5, "s,w2,m,dram_bytes,nan,false"), GOOD_SCORES, None),
    "duplicate_cell": (GOOD_ROWS + ("s,w1,m,cycles,600.0,true",), GOOD_SCORES, None),
    "score_for_unknown_run": (GOOD_ROWS, GOOD_SCORES + ("s,ghost,m,1.0,1.0",), None),
    "duplicate_score_row": (GOOD_ROWS, GOOD_SCORES + ("s,w1,m,6.0,100.0",), None),
    "bad_numeric_score_field": (GOOD_ROWS, ("s,w1,m,abc,120.0",), None),
    "non_positive_wallclock": (GOOD_ROWS, ("s,w1,m,5.0,120.0", "s,w2,m,7.5,0"), None),
    "non_positive_score": (GOOD_ROWS, ("s,w1,m,0,120.0",), None),
    "value_before_column_count": (
        swap(swap(GOOD_ROWS, 1, "s,w1,m,cycles,-2.0,true"), 4, "s,w2,m,cycles"), GOOD_SCORES, None
    ),
    "column_count_before_duplicate": (
        swap(GOOD_ROWS, 5, "s,w2,m,dram_bytes,0.0") + ("s,w1,m,loads,1.0,true",), GOOD_SCORES, None
    ),
    "scores_before_duplicate": (GOOD_ROWS + GOOD_ROWS[:1], ("s,nope,m,1.0,1.0",), None),
    "missing_cycles": (GOOD_ROWS[:4] + GOOD_ROWS[5:], GOOD_SCORES, None),
    "unsupported_instructions": (swap(GOOD_ROWS, 0, "s,w1,m,instructions,1000.0,false"), GOOD_SCORES, None),
    "load_share_200_percent": (swap(GOOD_ROWS, 2, "s,w1,m,loads,2000.0,true"), GOOD_SCORES, None),
    "bad_row_after_a_blank_line_and_5000_rows": (
        GOOD_ROWS + ("",) + tuple(f"s,x{i},m,cycles,1.0,true" for i in range(5000)) + ("s,w1,m,stores,1.0,maybe",),
        GOOD_SCORES,
        None,
    ),
    "first_failing_run_wins": (
        swap(GOOD_ROWS, 2, "s,w1,m,loads,2000.0,true")[:4] + GOOD_ROWS[5:], GOOD_SCORES, None
    ),
    "kernel_plus_user_not_100": (
        GOOD_ROWS + ("s,w2,m,kernel_instructions,300.0,true", "s,w2,m,user_instructions,300.0,true"),
        GOOD_SCORES,
        None,
    ),
}


def raised(fn):
    try:
        fn()
    except Exception as exc:  # the test compares whatever either side raises
        return type(exc), str(exc)
    return None


class TestMalformedStores:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_same_error_as_the_per_row_oracle(self, case, tmp_path, capsys):
        from benchlens.cli import main
        from benchlens.metrics import derive_store
        import oracles

        rows, score_rows, header = MALFORMED[case]
        store = write(tmp_path / "store.csv", "\n".join([header or ",".join(STORE_HEADER), *rows]) + "\n")
        scores = write(tmp_path / "scores.csv", "\n".join([",".join(SCORES_HEADER), *score_rows]) + "\n")

        def oracle():
            for rec in oracles.load_canonical(store, scores):
                oracles.derive_metrics(rec)

        expected = raised(oracle)
        assert expected is not None
        assert raised(lambda: derive_store(read_store(store, scores))) == expected

        out = tmp_path / "out"
        code = main(["derive", "--store", str(store), "--scores", str(scores), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        (line,) = captured.err.splitlines()
        error_type, message = expected
        assert json.loads(line) == {"stage": "derive", "error": error_type.__name__, "message": message}


def test_sample_data_script_regenerates_the_bundled_files(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_sample_data.py"
    spec = importlib.util.spec_from_file_location("make_sample_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(tmp_path)
    bundled_dir = bundled.sample_store_path().parent
    names = sorted(p.name for p in bundled_dir.iterdir() if p.is_file())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled_dir / name).read_bytes(), name
