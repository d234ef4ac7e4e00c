"""The benchmark's traced mode (perfbench/child.py with span tracing) runs on this program.

perfbench/spans.py wraps every public layer function and reads the results of
some of them, so a layer function whose name it knows but whose result it can
no longer read would turn each traced call into a traceback.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchlens import bundled

ROOT = Path(__file__).resolve().parents[1]
STORE = ["--store", str(bundled.sample_store_path()), "--scores", str(bundled.sample_scores_path())]


def run_traced(tmp_path, calls):
    """Each call's (exit code, error) from one traced child, and the names of its spans."""
    spec = {
        "calls": calls,
        "trace": True,
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BENCHLENS_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(tmp_path / "spec.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    names = {json.loads(line)[0] for line in (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()}
    return [(call["code"], call["error"]) for call in result["calls"]], names


def test_traced_report_and_ingest_calls_exit_0_without_a_traceback(tmp_path):
    ingest = [
        "ingest", "--raw", str(bundled.sample_raw_dump_path()),
        "--countermap", str(bundled.sample_countermap_path()),
        "--suite", "int_rate", "--machine", "CPU-C", "--store", str(tmp_path / "store.csv"),
    ]
    calls = [
        ["report", *STORE, "--out", str(tmp_path / "out")],
        [*ingest, "--workload", "706.stockfish_r"],  # into a new store
        [*ingest, "--workload", "999.copy_r"],       # merged into the store the first ingest wrote
    ]
    outcomes, names = run_traced(tmp_path, calls)
    assert outcomes == [(0, None)] * len(calls)
    assert {"metrics.derive_store", "dataset.parse_counter_file", "dataset.save_canonical"} <= names


def test_traced_proxy_search_and_mix_calls_exit_0_without_a_traceback(tmp_path):
    mix = tmp_path / "mix.txt"
    mix.write_text("709.cactus_r,2.5\n749.fotonik3d_r\n", encoding="utf-8")
    calls = [
        ["proxy", *STORE, "--target", "710.omnetpp_r", "--mix-k", "2", "--out", str(tmp_path / "search")],
        ["proxy", *STORE, "--mix", str(mix), "--out", str(tmp_path / "mix")],
    ]
    outcomes, names = run_traced(tmp_path, calls)
    assert outcomes == [(0, None)] * len(calls)
    assert {"proxy.search_mix", "proxy.simulate_rrr"} <= names
