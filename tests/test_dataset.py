from __future__ import annotations

import csv
import gc
import importlib.util
import json
import os
import re
import stat
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import oracles
from benchlens import bundled, dataset, files
from benchlens.dataset import (
    SCORES_HEADER,
    STORE_HEADER,
    CounterMap,
    MalformedLine,
    NonNumericValue,
    Store,
    identity_counter_map,
    load_counter_maps,
    machines_in,
    merge_into,
    parse_counter_file,
    read_store,
    save_canonical,
    save_scores,
    suites_in,
    validate_store,
    workloads_in,
    yaml_loader,
)
from benchlens.errors import DuplicateKey, SchemaMismatch, StoreChanged
from benchlens.events import CANONICAL_EVENTS, METRIC_NAMES
from benchlens.files import CHUNK as _CHUNK
from conftest import combine, make_full_store, spliced


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
        store, errors = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="int_rate", workload="706.stockfish_r")
        assert errors == ()
        ((suite, workload, machine, event, value, supported),) = oracles.cells(store)
        assert event == "instructions"
        assert value == 6.507e12
        assert supported is True
        assert (suite, workload, machine, event) == ("int_rate", "706.stockfish_r", "CPU-C", "instructions")

    @pytest.mark.parametrize("token", ["<not supported>", "<not counted>"])
    def test_unsupported_sentinel(self, tmp_path, token):
        raw = write(tmp_path / "perf.txt", f"{token},,unc_m_cas_count.all,1,100.00,,\n")
        store, _ = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        ((*_, event, value, supported),) = oracles.cells(store)
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
        store, errors = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert store.cell_count == 4
        assert len(errors) == 1
        assert isinstance(errors[0], MalformedLine)
        assert errors[0].line_no == 3

    def test_non_numeric_value(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "12x4,,instructions,1,100.00,,\n5,,cycles,1,100.00,,\n")
        store, errors = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert [cell[3] for cell in oracles.cells(store)] == ["cycles"]
        assert isinstance(errors[0], NonNumericValue)
        assert errors[0].line_no == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "# started\n\n7,,cycles,1,100.00,,\n")
        store, errors = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert store.cell_count == 1 and not errors

    def test_untranslatable_event_kept_verbatim(self, tmp_path):
        raw = write(tmp_path / "perf.txt", "9,,weird.vendor.event,1,100.00,,\n")
        store, _ = parse_counter_file(raw, "CPU-C", CPU_C_MAP, suite="s", workload="w")
        assert [cell[3] for cell in oracles.cells(store)] == ["weird.vendor.event"]

    def test_dram_lines_scaled_to_bytes(self, tmp_path):
        cmap = CounterMap(
            machine="CPU-C",
            mapping={"dram_bytes": "unc_m_cas_count.all"},
            cacheline_bytes=64,
            dram_bytes_unit="lines",
        )
        raw = write(tmp_path / "perf.txt", "1000,,unc_m_cas_count.all,1,100.00,,\n")
        store, _ = parse_counter_file(raw, "CPU-C", cmap, suite="s", workload="w")
        assert [cell[4] for cell in oracles.cells(store)] == [64000.0]

    def test_a_dram_line_count_that_overflows_once_scaled_is_a_bad_line(self, tmp_path):
        dump = bundled.sample_raw_dump_path().read_text(encoding="utf-8")
        raw = write(tmp_path / "perf.txt", dump.replace("<not supported>,,unc_m_cas", "1e307,,unc_m_cas"))
        cmap = load_counter_maps(bundled.sample_countermap_path())["CPU-C"]  # lines of 64 bytes: 1e307 * 64 is inf
        store, errors = parse_counter_file(raw, "CPU-C", cmap, suite="int_rate", workload="706.stockfish_r")
        assert errors == (NonNumericValue(7, "1e307,,unc_m_cas_count.all,598344827586,100.00,,"),)
        bundled_store, _ = parse_counter_file(
            bundled.sample_raw_dump_path(), "CPU-C", cmap, suite="int_rate", workload="706.stockfish_r"
        )
        kept = [cell for cell in oracles.cells(bundled_store) if cell[3] != "dram_bytes"]
        assert list(oracles.cells(store)) == kept and len(kept) == 5

    def test_bundled_raw_dump_parses_cleanly(self):
        maps = load_counter_maps(bundled.sample_countermap_path())
        store, errors = parse_counter_file(
            bundled.sample_raw_dump_path(),
            "CPU-C",
            maps["CPU-C"],
            suite="int_rate",
            workload="706.stockfish_r",
        )
        assert not errors
        values = {event: value for *_, event, value, supported in oracles.cells(store) if supported}
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

    def test_merge_rejects_colliding_samples(self, sample_store, tmp_path):
        path = tmp_path / "store.csv"
        save_canonical(sample_store, path)
        before = path.read_bytes()
        with pytest.raises(DuplicateKey):
            merge_into(path, sample_store.select(suite="int_rate"))
        assert path.read_bytes() == before


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
        assert list(report["m1"]) == list(METRIC_NAMES)
        assert all(missing == () for missing in report["m1"].values())

    def test_missing_event_blocks_only_that_machine(self):
        records = make_full_store(["w1", "w2"], ["m1", "m2"])
        trimmed = combine([records], keep=lambda cell: cell[2] != "m2" or cell[3] != "l2_tlb_misses")
        report = validate_store(trimmed)
        assert report["m1"]["l2_tlb_mpmi"] == ()
        assert report["m2"]["l2_tlb_mpmi"] == ("l2_tlb_misses",)

    def test_sample_store_computable_set(self, sample_store):
        report = validate_store(sample_store)
        assert {metric for metric, missing in report["CPU-C"].items() if not missing} == {
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
            doc = yaml.load(text, Loader=yaml_loader())
            assert doc == yaml.load(text, Loader=yaml.SafeLoader)
            assert doc["machines"]
        assert len(yaml.load(manifests[1], Loader=yaml_loader())["machines"]) == 9

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


def filler(n, start=0):
    """`n` good rows of one-event runs that no other row names."""
    return tuple(f"s,x{i},m,cycles,1.0,true" for i in range(start, start + n))


C = 256  # rows per chunk in these cases; GOOD_ROWS fill the first six rows of the first chunk


# (store rows, scores rows, header): each store or scores file breaks one rule, or two rules to
# show that the first bad row wins, also across the edges of read chunks; the cases from
# missing_cycles on, except bad_row_after_a_blank_line_and_5000_rows, are caught when the metrics are derived
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
    "column_count_before_unknown_run": (GOOD_ROWS, GOOD_SCORES + ("s,ghost,m,1.0",), None),
    "unknown_run_before_bad_numeric_score": (GOOD_ROWS, GOOD_SCORES + ("s,ghost,m,abc,1.0",), None),
    "duplicate_before_bad_numeric_score": (GOOD_ROWS, GOOD_SCORES + ("s,w1,m,abc,100.0",), None),
    "first_bad_score_row_wins": (GOOD_ROWS, ("s,w1,m,5.0,x", "s,ghost,m,1.0,1.0", "s,w2"), None),
    "value_before_column_count": (
        swap(swap(GOOD_ROWS, 1, "s,w1,m,cycles,-2.0,true"), 4, "s,w2,m,cycles"), GOOD_SCORES, None
    ),
    "column_count_before_duplicate": (
        swap(GOOD_ROWS, 5, "s,w2,m,dram_bytes,0.0") + ("s,w1,m,loads,1.0,true",), GOOD_SCORES, None
    ),
    "scores_before_duplicate": (GOOD_ROWS + GOOD_ROWS[:1], ("s,nope,m,1.0,1.0",), None),
    "bad_last_row_of_the_first_chunk": (
        GOOD_ROWS + filler(C - 7) + ("s,w1,m,stores,-1.0,true",) + filler(5, C), GOOD_SCORES, None
    ),
    "bad_first_row_of_the_second_chunk": (
        GOOD_ROWS + filler(C - 6) + ("s,w1,m,stores,1.0,yes",) + filler(5, C), GOOD_SCORES, None
    ),
    "blank_rows_at_a_chunk_edge_count_as_rows": (
        GOOD_ROWS + filler(C - 7) + ("", "") + ("s,w1,m,stores,1.0",) + filler(5, C), GOOD_SCORES, None
    ),
    "first_of_bad_rows_in_two_chunks_wins": (
        GOOD_ROWS + filler(C - 8) + ("s,w1,m,stores,nan,true", "s,x_,m,cycles,1.0,true")
        + ("s,w2,m,stores,1.0,maybe",) + filler(5, C),
        GOOD_SCORES,
        None,
    ),
    "bad_value_in_the_last_partial_chunk": (
        GOOD_ROWS + filler(2 * C + 10) + ("s,w1,m,stores,12x,true",), GOOD_SCORES, None
    ),
    "duplicate_across_a_chunk_edge": (GOOD_ROWS + filler(C - 6) + GOOD_ROWS[1:2], GOOD_SCORES, None),
    # five fields, then seven: their ten commas would cut both lines into six fields that all parse
    "commas_of_the_next_line": (
        GOOD_ROWS[:4] + ("s,w2,m,cycles,1000.0", "   ,true,x,y,cycles,2.0,true"), GOOD_SCORES, None
    ),
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



def clean_rows(n):
    """`n` good store rows: runs of up to 20 events, some unsupported, with varied values."""
    return tuple(
        f"s,r{i // 20:04d},m,{CANONICAL_EVENTS[i % 20]},{i * 0.1!r},{'false' if i % 7 == 0 else 'true'}"
        for i in range(n)
    )


class TestChunkedRead:
    @pytest.mark.parametrize("n", [C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1])
    def test_clean_store_at_a_chunk_edge_matches_the_per_row_oracle(self, n, tmp_path):
        path = write(tmp_path / "store.csv", "\n".join([",".join(STORE_HEADER), *clean_rows(n)]) + "\n")
        store = read_store(path)
        assert store.cell_count == n
        oracles.assert_same_runs(store, oracles.load_canonical(path))

    def test_a_saved_store_is_read_by_bytes_without_replaying_a_row(self, tmp_path):
        store = Store.from_cells(
            (s, f"w{i}", m, event, float(i), i % 3 > 0)
            for i in range(3 * C)
            for s, m in [("ünï", "名前"), ("a+b", "a")]
            for event in CANONICAL_EVENTS[i % 3 : i % 3 + 2]
        )
        save_canonical(store, tmp_path / "store.csv")
        with mock.patch("benchlens.dataset._csv_rows", side_effect=AssertionError("read through csv")):
            assert read_store(tmp_path / "store.csv") == store

    @pytest.mark.parametrize(
        "flaw",
        ["", "s,x_,m,cycles,１,true", "s,x_,m,cycles," + "1" * 300 + ".0,true"],
        ids=["a_blank_line", "a_value_only_float_reads", "a_long_line"],
    )
    def test_a_plain_store_with_a_block_that_fails_a_check_is_read_by_csv_once(self, flaw, tmp_path):
        rows = clean_rows(3 * C)
        path = write(tmp_path / "store.csv", "\n".join([",".join(STORE_HEADER), *rows[:C], flaw, *rows[C:]]) + "\n")
        with mock.patch("benchlens.dataset._READ_BYTES", 1024), mock.patch(
            "benchlens.dataset._csv_rows", wraps=dataset._csv_rows
        ) as csv_rows:  # the flaw is in a later block than the first
            store = read_store(path)
        csv_rows.assert_called_once_with(path, STORE_HEADER)
        oracles.assert_same_runs(store, oracles.load_canonical(path))
        assert spliced(path) is None  # not canonical: merge_into merges it

    @pytest.mark.parametrize(
        "flaw",
        [b'"s",x_,m,cycles,1.0,true', b"s,x\0,m,cycles,1.0,true", b"s,x\r_,m,cycles,1.0,true",
         b"s,x\xff,m,cycles,1.0,true"],
        ids=["a_quoted_name", "a_nul", "a_cr", "an_invalid_utf8_byte"],
    )
    def test_a_block_that_is_not_plain_is_read_by_csv_once(self, flaw, tmp_path):
        rows = [row.encode() for row in clean_rows(3 * C)]
        path = tmp_path / "store.csv"
        path.write_bytes(b"\n".join([",".join(STORE_HEADER).encode(), *rows[:C], flaw, *rows[C:]]) + b"\n")
        expected = raised(lambda: oracles.load_canonical(path))
        with mock.patch("benchlens.dataset._READ_BYTES", 1024), mock.patch(
            "benchlens.dataset._csv_rows", wraps=dataset._csv_rows
        ) as csv_rows:  # the flaw is in a later block than the first, which passes every check
            assert raised(lambda: read_store(path)) == expected
        csv_rows.assert_called_once_with(path, STORE_HEADER)
        if expected is None:
            oracles.assert_same_runs(read_store(path), oracles.load_canonical(path))

    def test_a_plain_store_is_read_once(self, tmp_path):
        path = tmp_path / "store.csv"
        save_canonical(generated_store(runs=150), path)
        real_open, read = open, []  # the size of each read

        class Counted:
            def __init__(self, fh):
                self.fh = fh

            def read(self, size=-1):
                read.append(len(data := self.fh.read(size)))
                return data

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        with mock.patch("benchlens.dataset._READ_BYTES", 4096), mock.patch(
            "benchlens.dataset.open", lambda *args, **kwargs: Counted(real_open(*args, **kwargs)), create=True
        ):
            store = read_store(path)
        assert spliced(path) is not None  # read by bytes, and canonical: merge_into splices into it
        assert sum(read) == path.stat().st_size

    @pytest.mark.parametrize("read_bytes", [1024, 1 << 18])
    def test_names_that_do_not_repeat_run_by_run_read_as_csv_reads_them(self, read_bytes, tmp_path):
        cells = [
            ("s", f"w{i:02d}", "m", event, float(i), True)
            for i in range(60)
            for event in CANONICAL_EVENTS
            if (i, event) != (13, "cycles")  # a run missing an event
        ]
        store = Store.from_cells([*cells, ("s", "w41", "m", "zz.raw", 1.0, False)])  # and one with an extra one
        save_canonical(store, tmp_path / "store.csv")
        with mock.patch("benchlens.dataset._plain_cells", return_value=None):
            by_csv = read_store(tmp_path / "store.csv")
        with mock.patch("benchlens.dataset._READ_BYTES", read_bytes), mock.patch(
            "benchlens.dataset._csv_rows", side_effect=AssertionError("read through csv")
        ):
            assert read_store(tmp_path / "store.csv") == by_csv == store

    def test_blank_rows_at_chunk_edges_are_skipped(self, tmp_path):
        rows = clean_rows(2 * C + 3)
        rows = rows[: C - 1] + ("",) + rows[C - 1 : 2 * C - 1] + ("", "") + rows[2 * C - 1 :] + ("",)
        path = write(tmp_path / "store.csv", "\n".join([",".join(STORE_HEADER), *rows]) + "\n")
        store = read_store(path)
        assert store.cell_count == 2 * C + 3
        oracles.assert_same_runs(store, oracles.load_canonical(path))


HEADER_LINE = (",".join(STORE_HEADER) + "\n").encode()
CLEAN = b"s,w1,m,cycles,1.0,true\ns,w1,m,instructions,2.0,false\n"

# store files that only csv reads right: each must read, or fail, as the per-row oracle does
CSV_ROUTED = {
    "crlf_line_ends": HEADER_LINE.replace(b"\n", b"\r\n") + CLEAN.replace(b"\n", b"\r\n"),
    "lone_cr_line_ends": HEADER_LINE + CLEAN.replace(b"\n", b"\r"),
    "a_quoted_name": HEADER_LINE + CLEAN + b'"s,t",w2,m,cycles,1.0,true\n',
    "a_quoted_newline": HEADER_LINE + b'"s\nt",w2,m,cycles,1.0,true\n' + CLEAN,
    "a_byte_order_mark": b"\xef\xbb\xbf" + HEADER_LINE + CLEAN,
    "an_invalid_utf8_byte": HEADER_LINE + CLEAN + b"s,w\xff,m,cycles,1.0,true\n",
    "an_invalid_utf8_byte_after_a_bad_row": HEADER_LINE + b"s,w1,m,cycles,-1.0,true\n" + CLEAN + b"\xc3\n",
    "a_nul": HEADER_LINE + CLEAN + b"s,w\x00,m,cycles,1.0,true\n",
    "a_header_with_a_space": HEADER_LINE.replace(b",value", b", value") + CLEAN,
    "an_empty_file": b"",
}


class TestReadRouting:
    @pytest.mark.parametrize("case", sorted(CSV_ROUTED))
    def test_a_file_only_csv_reads_right_reads_as_the_per_row_oracle(self, case, tmp_path):
        path = tmp_path / "store.csv"
        path.write_bytes(CSV_ROUTED[case])
        expected = raised(lambda: oracles.load_canonical(path))
        plain_cells, read = dataset._plain_cells, []  # what each read by bytes returned

        def reading(*args):
            read.append(plain_cells(*args))
            return read[-1]

        with mock.patch.object(dataset, "_plain_cells", reading):
            assert raised(lambda: read_store(path)) == expected
            if expected is None:
                oracles.assert_same_runs(read_store(path), oracles.load_canonical(path))
        assert read == [None] * len(read)  # no block of the file is accepted

    @pytest.mark.parametrize(
        "rows",
        [
            (GOOD_ROWS[0] + ",x" * 80,),  # long, but every field is short
            ("s,w,m,cycles," + "1" * 120 + ".0,true",),
            ("s,w,m,cycles,-1.0,true", "s,w,m,cycles," + "1" * 120 + ".0,true,extra"),
            # a bad row, then a long line in the next chunk: the bad row's error
            filler(C - 7) + ("s,w,m,cycles,-1.0,true", "s,w,m,cycles," + "1" * 120 + ".0,true"),
        ],
    )
    @pytest.mark.parametrize("read_bytes", [64, 1 << 18])
    def test_a_line_longer_than_the_csv_field_limit_reads_as_csv_reads_it(self, rows, read_bytes, tmp_path):
        path = write(tmp_path / "store.csv", "\n".join([",".join(STORE_HEADER), *GOOD_ROWS, *rows]) + "\n")
        limit = csv.field_size_limit(100)
        try:
            with mock.patch("benchlens.dataset._plain_cells", return_value=None):
                expected = raised(lambda: read_store(path))  # csv reads a whole chunk of rows before it checks one
            with mock.patch("benchlens.dataset._READ_BYTES", read_bytes):  # blocks cut after short reads too
                assert raised(lambda: read_store(path)) == expected
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("value", [b"1.0", b"-1.0"], ids=["read", "raised"])
    def test_the_csv_route_pauses_the_garbage_collector_and_restores_it(self, value, enabled, tmp_path):
        path = tmp_path / "store.csv"
        path.write_bytes(HEADER_LINE + CLEAN + b'"s,t",w2,m,cycles,' + value + b",true\n")
        collecting = []  # whether the collector was on while each row was parsed
        parse = dataset._parse_row

        def parse_row(*row):
            collecting.append(gc.isenabled())
            return parse(*row)

        (gc.enable if enabled else gc.disable)()
        try:
            with mock.patch.object(dataset, "_parse_row", parse_row):
                raised(lambda: read_store(path))
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert collecting and not any(collecting)

    def test_a_name_of_kilobytes_is_read_by_csv_in_memory_linear_in_the_file(self, tmp_path):
        long = "w" * 6000  # gathered into fixed-width fields, its block would take width squared bytes and more
        rows = clean_rows(C) + (f"s,{long},m,cycles,1.0,true", f"s,{long},m,{long},2.0,false") + filler(3)
        path = write(tmp_path / "store.csv", "\n".join([",".join(STORE_HEADER), *rows]) + "\n")
        with mock.patch("benchlens.dataset._csv_rows", wraps=dataset._csv_rows) as csv_rows:
            tracemalloc.start()
            try:
                store = read_store(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        csv_rows.assert_called_once_with(path, STORE_HEADER)
        oracles.assert_same_runs(store, oracles.load_canonical(path))
        assert store.events[-1] == long
        assert peak < 20 * path.stat().st_size


def cells_store(*cells, scores=None, wallclock=None):
    return Store.from_cells(
        [(*run.split("/"), event, value, flag) for run, event, value, flag in cells],
        scores=scores,
        wallclock=wallclock,
    )


K1, K2, K3 = ("s", "w1", "m"), ("s", "w2", "m"), ("s", "w3", "m")
EMPTY = Store.from_cells([])
BASE = cells_store(
    ("s/w1/m", "instructions", 10.0, True),
    ("s/w1/m", "cycles", 5.0, True),
    ("s/w3/m", "instructions", 30.0, True),
    ("s/w3/m", "raw.only_existing", 1.0, False),
    ("s/w5/m", "loads", 0.0, False),
    scores={K1: 2.0},
    wallclock={K1: 9.0, K3: 3.0},
)

# (existing, new) pairs that merge cleanly
MERGES = {
    "unmapped_events_in_only_one_store": (
        BASE,
        cells_store(("s/w2/m", "raw.only_new", 4.0, True), ("s/w2/m", "cycles", 1.0, True)),
    ),
    "new_runs_between_existing_runs": (
        BASE,
        cells_store(
            ("s/w0/m", "cycles", 1.0, True),
            ("s/w2/m", "cycles", 2.0, True),
            ("s/w4/m", "stores", -0.0, True),
            ("t/w1/m", "cycles", 3.0, False),
            scores={K2: 6.0},
            wallclock={K2: 7.0},
        ),
    ),
    "a_run_in_both_with_disjoint_events": (
        BASE,
        cells_store(
            ("s/w1/m", "loads", 3.0, True),
            ("s/w1/m", "raw.only_new", 4.0, False),
            ("s/w3/m", "cycles", 5.0, True),
            scores={K3: 8.0},
            wallclock={K1: 11.0},
        ),
    ),
    "an_unmapped_event_left_without_cells": (
        BASE,
        cells_store(("s/w8/m", "cycles", 1.0, True), ("s/w9/m2", "raw.elsewhere", 1.0, True)).select(machines=["m"]),
    ),
    "empty_existing": (EMPTY, BASE),
    "empty_new": (BASE, EMPTY),
    "both_empty": (EMPTY, EMPTY),
}

# (existing, new, the cell the message names): the first collision in the new store's cell order
COLLISIONS = {
    "first_run_wins": (
        BASE,
        cells_store(("s/w3/m", "instructions", 1.0, True), ("s/w1/m", "cycles", 1.0, True)),
        ("s", "w1", "m", "cycles"),
    ),
    "event_name_order_not_vocabulary_order": (
        BASE,
        cells_store(
            ("s/w1/m", "instructions", 1.0, True),
            ("s/w1/m", "cycles", 1.0, True),
            ("s/w3/m", "raw.only_existing", 1.0, True),
        ),
        ("s", "w1", "m", "cycles"),
    ),
    "unmapped_before_canonical_by_name": (
        BASE,
        cells_store(("s/w3/m", "instructions", 1.0, True), ("s/w3/m", "raw.only_existing", 1.0, True),
                    ("s/w3/m", "Zz.raw", 1.0, True)),
        ("s", "w3", "m", "instructions"),
    ),
    "merge_with_itself": (BASE, BASE, ("s", "w1", "m", "cycles")),
}


class TestMergeInto:
    """`merge_into` of a new store into a saved store file; the file holds no wallclocks or scores."""

    @pytest.mark.parametrize("case", sorted(MERGES))
    def test_matches_the_per_row_oracle_and_the_cell_merge(self, case, tmp_path):
        existing, new = (oracles.untimed(store) for store in MERGES[case])
        path = tmp_path / "store.csv"
        save_canonical(existing, path)
        merge_into(path, new)
        merged = read_store(path)
        oracles.assert_same_runs(
            merged, oracles.merge_records(oracles.records_of(existing), oracles.records_of(new))
        )
        assert merged == oracles.cell_merge_stores(existing, new)  # vocabularies equal too

    @pytest.mark.parametrize("case", sorted(COLLISIONS))
    def test_a_colliding_cell_names_the_first_in_the_new_stores_order(self, case, tmp_path):
        existing, new, cell = COLLISIONS[case]
        message = f"duplicate sample key {cell}"
        with pytest.raises(DuplicateKey) as oracle:
            oracles.merge_records(oracles.records_of(existing), oracles.records_of(new))
        assert str(oracle.value) == message
        path = tmp_path / "store.csv"
        save_canonical(existing, path)
        before = path.read_bytes()
        with pytest.raises(DuplicateKey) as raised:
            merge_into(path, new)
        assert str(raised.value) == message
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "lines, cell",
        [
            (["s,w3,m,cycles,1.0,true", "s,w1,m,cycles,1.0,true"], ("s", "w1", "m", "cycles")),
            (
                ["s,w1,m,cycles,1.0,true", "s,w3,m,cycles,1.0,true", "s,w3,m,cycles,2.0,true"],
                ("s", "w3", "m", "cycles"),
            ),
        ],
        ids=["runs_out_of_order", "a_repeat_within_the_file"],
    )
    def test_a_repeat_within_the_file_is_named_first_then_the_new_stores_first(self, tmp_path, lines, cell):
        """Whatever the file's line order, its own repeat comes first, then the new store's first collision."""
        path = write(tmp_path / "store.csv", "\n".join([",".join(STORE_HEADER), *lines]) + "\n")
        new = cells_store(("s/w1/m", "cycles", 5.0, True), ("s/w3/m", "cycles", 5.0, True))
        with pytest.raises(DuplicateKey, match=re.escape(f"duplicate sample key {cell}")):
            merge_into(path, new)


def generated_store(runs=1800):
    """`runs` runs of the 20 canonical events: 36,000 rows at the default."""
    rng = np.random.default_rng(5)
    keys = [(f"suite{i % 4}", f"workload_{i // 9:03d}", f"M{i % 9}") for i in range(runs)]
    cells = len(keys) * len(CANONICAL_EVENTS)
    columns = [[key[k] for key in keys for _ in CANONICAL_EVENTS] for k in range(3)]
    return Store.from_cells(zip(
        *columns,
        list(CANONICAL_EVENTS) * len(keys),
        np.round(rng.uniform(0.0, 1e12, cells)),
        rng.uniform(size=cells) > 0.05,
    ))


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestStoreMemory:
    def test_reading_36000_rows_stays_under_7_mib(self, tmp_path):
        store = generated_store()
        save_canonical(store, tmp_path / "store.csv")
        loaded, peak = traced_peak(lambda: read_store(tmp_path / "store.csv"))
        assert loaded == store and store.cell_count == 36_000
        assert peak < 7 * 2**20

    def test_merging_one_run_into_36000_rows_stays_under_2_mib(self, tmp_path):
        save_canonical(generated_store(), tmp_path / "store.csv")
        *cells, _ = dataset._read_cells(tmp_path / "store.csv")
        new = cells_store(*(("suite0/new/M0", event, 1.0, True) for event in CANONICAL_EVENTS))
        merged, peak = traced_peak(lambda: dataset._merged(*cells, new))  # the merge route's step
        assert merged.cell_count == 36_020
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("runs", [1800, 9000], ids=["36000_rows", "180000_rows"])
    def test_splicing_one_new_run_stays_under_2_5_mib(self, runs, tmp_path):
        path = tmp_path / "store.csv"
        save_canonical(generated_store(runs), path)
        new = cells_store(*(("suite0/new/M0", event, 1.0, True) for event in CANONICAL_EVENTS))
        merged = oracles.cell_merge_stores(read_store(path), new)
        with mock.patch.object(dataset, "_merged", side_effect=AssertionError("merged the cells")):
            _, peak = traced_peak(lambda: merge_into(path, new))  # the whole call: the read and the write
        assert read_store(path) == merged
        # one block at a time: holding the file's cells first peaked at about 2.6 and 10.2 MiB
        assert peak < 2.5 * 2**20


@contextmanager
def failing_rows(error):
    """Within it, the rows `save_canonical` writes raise `error` after the first written chunk of rows."""
    write_csv = files.write_csv

    def failing(fh, header, lines):
        def rows():
            yield from islice(lines, _CHUNK + 1)
            raise error

        write_csv(fh, header, rows())

    with mock.patch.object(files, "write_csv", failing):
        yield


class TestSafeSave:
    @pytest.mark.parametrize("error", [OSError("no space left on device"), KeyboardInterrupt()])
    def test_a_failed_save_keeps_the_old_bytes_and_leaves_no_temporary_file(self, tmp_path, error):
        path = tmp_path / "store.csv"
        save_canonical(BASE, path)
        before = path.read_bytes()
        with pytest.raises(type(error)), failing_rows(error):
            save_canonical(generated_store(runs=150), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["store.csv"]

    @pytest.mark.parametrize("error", [OSError("no space left on device"), KeyboardInterrupt()])
    def test_a_failed_copy_keeps_the_old_bytes_and_leaves_no_temporary_file(self, tmp_path, error):
        path = tmp_path / "store.csv"
        save_canonical(generated_store(runs=150), path)
        before = path.read_bytes()
        line_blocks = dataset._line_blocks

        def failing(fh):
            yield from islice(line_blocks(fh), 1)
            raise error

        with pytest.raises(type(error)), mock.patch.object(dataset, "_READ_BYTES", 4096), mock.patch.object(
            dataset, "_line_blocks", failing
        ):  # the splice fails after copying its first block
            merge_into(path, cells_store(("suite0/new/M0", "cycles", 1.0, True)))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["store.csv"]

    def test_a_save_over_a_store_keeps_its_permissions(self, tmp_path):
        path = tmp_path / "store.csv"
        save_canonical(EMPTY, path)
        path.chmod(0o640)
        save_canonical(BASE, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert list(oracles.cells(read_store(path))) == list(oracles.cells(BASE))
        assert os.listdir(tmp_path) == ["store.csv"]

    def test_a_save_through_a_symbolic_link_replaces_the_file_it_names(self, tmp_path):
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "store.csv", tmp_path / "link.csv"
        save_canonical(EMPTY, target)
        link.symlink_to(target)
        save_canonical(BASE, link)
        assert link.is_symlink()
        assert list(oracles.cells(read_store(target))) == list(oracles.cells(BASE))
        assert sorted(os.listdir(tmp_path / "data")) == ["store.csv"]


class TestSplicedSave:
    @staticmethod
    def splice(path, new):
        """`merge_into(path, new)`, failing if it formats the whole store, reads its cells or merges them; and
        the number of passes over the file's blocks (`_line_blocks` calls) it made."""
        with mock.patch.object(dataset, "_line_blocks", wraps=dataset._line_blocks) as blocks, mock.patch.object(
            files, "write_csv", side_effect=AssertionError("formatted the whole store")
        ), mock.patch.object(dataset, "_read_cells", side_effect=AssertionError("read the cells")), mock.patch.object(
            dataset, "_merged", side_effect=AssertionError("merged the cells")
        ):
            merge_into(path, new)
        return blocks.call_count

    def test_the_runs_of_a_canonical_store_are_copied_and_a_new_run_is_formatted(self, tmp_path):
        path = tmp_path / "store.csv"
        save_canonical(generated_store(runs=150), path)
        new = cells_store(("suite1/new/M0", "cycles", 1.0, True))
        oracles.csv_save_canonical(oracles.cell_merge_stores(read_store(path), new), tmp_path / "expected.csv")
        assert self.splice(path, new) == 1  # one streamed pass: the runs before the new one, then those after it
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_runs_with_names_of_several_bytes_are_copied_as_the_oracle_writes_them(self, tmp_path):
        path = tmp_path / "store.csv"
        save_canonical(Store.from_cells(
            (s, f"w{i:02d}", m, event, float(i), i % 3 > 0)
            for i in range(40)
            for s, m in [("ünï", "名前"), ("a+b", "ünï")]
            for event in CANONICAL_EVENTS[i % 3 : i % 3 + 2]
        ), path)
        with mock.patch("benchlens.dataset._READ_BYTES", 7):  # reads that end inside a character
            new = cells_store(("ünï/w20x/名前", "cycles", 1.0, True))
            oracles.csv_save_canonical(oracles.cell_merge_stores(read_store(path), new), tmp_path / "expected.csv")
            assert self.splice(path, new) == 1
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize(
        "line, error",
        [("s,w1,m,cycles,-1.0,true", ValueError), ("s,w1,m,cycles,1.0,true", DuplicateKey),
         ("s,w0,m,cycles,1.0,true", PermissionError)],
        ids=["a_bad_row", "a_held_cell", "a_new_run"],
    )
    def test_a_temporary_file_that_cannot_be_made_fails_after_the_reads_and_the_merges_errors(
        self, tmp_path, line, error
    ):
        """A splice whose temporary file cannot be made takes the merge route, which reads and merges before it
        saves: a bad row's or a held cell's error is raised before the temporary file's."""
        path = write(tmp_path / "store.csv", f"{','.join(STORE_HEADER)}\n{line}\n")
        with pytest.raises(error), mock.patch.object(files.Path, "mkdir", side_effect=PermissionError("read-only")):
            merge_into(path, cells_store(("s/w1/m", "cycles", 5.0, True)))
        assert path.read_text() == f"{','.join(STORE_HEADER)}\n{line}\n"
        assert os.listdir(tmp_path) == ["store.csv"]

    @pytest.mark.parametrize("change", ["replaced", "rewritten longer", "rewritten in place"])
    def test_a_source_changed_after_the_read_is_refused_and_kept(self, tmp_path, change):
        path, other = tmp_path / "store.csv", tmp_path / "other.csv"
        store = generated_store(runs=150)
        save_canonical(store, path)
        before = path.stat()
        line_blocks, changed = dataset._line_blocks, []

        def read_then_change(fh):
            yield from line_blocks(fh)
            if change == "replaced":  # another file of the same size and mtime in its place
                other.write_bytes(path.read_bytes().replace(b"true", b"TRUE"))
                os.replace(other, path)
            elif change == "rewritten longer":  # the same file, longer, with the same mtime
                first = cells_store(("a/first/M0", "cycles", 1.0, True))
                save_canonical(oracles.cell_merge_stores(store, first), other)
                path.write_bytes(other.read_bytes())
            else:  # the same file and size, a second later
                path.write_bytes(path.read_bytes().replace(b"true", b"TRUE"))
            later = 10**9 if change == "rewritten in place" else 0
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + later))
            changed.append(path.read_bytes())

        with pytest.raises(StoreChanged, match=re.escape(str(path))), mock.patch.object(
            dataset, "_line_blocks", read_then_change
        ), mock.patch.object(dataset, "_merged", side_effect=AssertionError("merged the cells")):
            merge_into(path, cells_store(("suite0/new/M0", "cycles", 1.0, True)))  # spliced
        assert path.read_bytes() == changed[0]
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


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
