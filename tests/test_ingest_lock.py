"""Concurrent writers of one store keep every run.

`ingest` holds an exclusive lock on the store's directory from before its
read until after its replace, so ingests into one store run one at a time. A
writer that takes no lock is caught by the stamp check: `save_canonical`
refuses a store whose file changed after it was read.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchlens import bundled, dataset, files
from benchlens.cli import main
from benchlens.errors import StoreChanged
from conftest import spliced

SRC = Path(__file__).resolve().parents[1] / "src"


def ingest_args(store: Path, workload: str) -> list[str]:
    return [
        "ingest", "--raw", str(bundled.sample_raw_dump_path()), "--countermap", str(bundled.sample_countermap_path()),
        "--suite", "int_rate", "--machine", "CPU-C", "--workload", workload, "--store", str(store),
    ]


def spawn(store: Path, workload: str) -> subprocess.Popen:
    """An `ingest` of `workload` into `store`, in its own process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-m", "benchlens.cli", *ingest_args(store, workload)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def parsed(workload: str) -> dataset.Store:
    cmap = dataset.load_counter_maps(bundled.sample_countermap_path())["CPU-C"]
    store, _ = dataset.parse_counter_file(
        bundled.sample_raw_dump_path(), "CPU-C", cmap, suite="int_rate", workload=workload
    )
    return store


def workloads(store: Path) -> set[str]:
    return {workload for _, workload, _ in dataset.read_store(store).runs}


@pytest.fixture
def store(tmp_path) -> Path:
    path = tmp_path / "data" / "store.csv"
    path.parent.mkdir()
    shutil.copy(bundled.sample_store_path(), path)
    return path


@pytest.fixture(params=["canonical", "quoted"])
def either_store(request, store) -> Path:
    """The bundled store, which an ingest splices, or the same store with a suite name that csv quotes, which it
    merges and saves."""
    if request.param == "quoted":
        store.write_bytes(store.read_bytes().replace(b"\nfp_rate,", b'\n"fp,rate",'))
    assert (spliced(store) is None) == (request.param == "quoted")  # not canonical: merged, not spliced
    return store


def test_a_reader_that_saves_after_an_ingest_ran_to_the_end_is_refused(store, capsys):
    held = dataset.read_store(store)  # 1. read
    assert main(ingest_args(store, "901.second_r")) == 0  # 2. an ingest runs to the end
    after = store.read_bytes()
    with pytest.raises(StoreChanged, match=re.escape(str(store))):
        dataset.save_canonical(held, store)  # 3. save
    assert store.read_bytes() == after
    assert "901.second_r" in workloads(store)
    assert os.listdir(store.parent) == ["store.csv"]


def test_an_ingest_whose_store_another_writer_replaced_exits_2_naming_the_store(either_store, capsys, monkeypatch):
    store, commit = either_store, files.commit

    def write_without_the_lock_then_commit(artifacts):
        monkeypatch.setattr(files, "commit", commit)  # the other writer's own save commits as usual
        dataset.merge_into(store, parsed("901.second_r"))
        return commit(artifacts)

    monkeypatch.setattr(files, "commit", write_without_the_lock_then_commit)
    code = main(ingest_args(store, "900.first_r"))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert (payload["stage"], payload["error"]) == ("ingest", "StoreChanged")
    assert str(store) in payload["message"]
    assert "901.second_r" in workloads(store)
    assert os.listdir(store.parent) == ["store.csv"]


def test_an_ingest_that_starts_during_another_waits_for_it_and_both_runs_are_kept(either_store, capsys, monkeypatch):
    store, commit = either_store, files.commit
    second = []

    def commit_while_another_ingest_starts(artifacts):
        monkeypatch.setattr(files, "commit", commit)  # the store's commit only, not that of `out/`
        second.append(spawn(store, "901.second_r"))
        with pytest.raises(subprocess.TimeoutExpired):  # it waits for this ingest's lock
            second[0].wait(timeout=2)
        return commit(artifacts)

    monkeypatch.setattr(files, "commit", commit_while_another_ingest_starts)
    code = main(ingest_args(store, "900.first_r"))
    monkeypatch.undo()
    _, err = second[0].communicate(timeout=120)
    assert (code, second[0].returncode, err) == (0, 0, "")
    assert {"900.first_r", "901.second_r"} <= workloads(store)


def test_eight_concurrent_ingests_keep_every_run(store, tmp_path):
    before = workloads(store)
    added = {f"9{i:02d}.parallel_r" for i in range(8)}
    procs = [spawn(store, workload) for workload in sorted(added)]
    outcomes = [(proc.communicate(timeout=300)[1], proc.returncode) for proc in procs]
    assert outcomes == [("", 0)] * 8
    assert workloads(store) == before | added
    dataset.save_canonical(dataset.read_store(store), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == store.read_bytes()
    assert os.listdir(store.parent) == ["store.csv"]  # no lock file and no temporary file
