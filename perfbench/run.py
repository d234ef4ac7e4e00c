"""Benchmark of the benchlens CLI on four generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, one after another

Users run one CLI command on a counter store and wait for its artifacts, so
each operation is a batch job: a fresh child process (BLAS threads capped at
1) imports ``benchlens.cli`` and calls ``cli.main`` on inputs that
``gen.py`` writes from the seed. Operations run one at a time, for about S
seconds and at least three times. With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json: the median wall time of a ``cli.main``
call, the median import time, the median peak RSS of a child, and the share
of calls that exited 0 with correct outputs. With ``--trace 1`` it alternates
plain and traced operations and reports the per-layer metrics of
BENCHMARK.json, built from spans (see spans.py).

Correctness is checked outside the timed region: the artifact set, the
workload's own check (checks.py), byte-identical outputs across the run's
operations, and across runs of the same seed and source in this checkout
(``perfbench/_work/digests.json``). Inputs, outputs, spans and one results
file per run stay under ``perfbench/_work``. The last line of stdout is the
JSON result; the lines before it list every metric with its unit and the
host the figures come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_OPS = 3
CHILD_TIMEOUT_S = 90.0
BLAS_THREADS = "1"


@dataclass
class Op:
    """One child process: its `cli.main` calls and what it cost."""

    traced: bool
    setup_s: float | None = None
    call_s: list[float] = field(default_factory=list)
    codes: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    rss_mib: float = 0.0
    elapsed_s: float = 0.0
    digest: str = ""
    failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BENCHLENS_OUT", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def commands(workload: str, inputs: gen.Inputs) -> list[list[str]]:
    f = {name: str(path) for name, path in inputs.files.items()}
    store = ["--store", f["store"], "--scores", f["scores"]]
    if workload == "report_200x9":
        return [["report", *store, "--machine", "M0", "--out", "out"]]
    if workload == "proxy_k3":
        return [
            ["proxy", *store, "--suite", "fp_rate", "--machine", checks.PROXY_MACHINE,
             "--target", inputs.target, "--mix-k", "3", "--out", "out"]
        ]
    if workload == "subset_240":
        return [["subset", *store, "--groups", str(checks.SUBSET_GROUPS), "--subset-k", "2", "--out", "out"]]
    return [
        ["ingest", "--raw", f[f"raw_{machine}"], "--countermap", f["countermap"],
         "--suite", gen.INGEST_SUITE, "--workload", gen.INGEST_WORKLOAD,
         "--machine", machine, "--store", "store.csv"]
        for machine in gen.MACHINES
    ]


def digest(work: Path, files: list[str]) -> str:
    h = hashlib.sha256()
    for name in files:
        h.update(name.encode() + b"\0" + (work / name).read_bytes() + b"\0")
    return h.hexdigest()


def run_op(workload: str, inputs: gen.Inputs, op_dir: Path, traced: bool, env: dict) -> Op:
    work = op_dir / "work"
    work.mkdir(parents=True)
    if workload == "ingest_9m":  # a fresh copy of the store for the 9 ingests
        shutil.copyfile(inputs.files["store"], work / "store.csv")
    calls = commands(workload, inputs)
    spec = {
        "calls": calls,
        "trace": traced,
        "result": str(op_dir / "result.json"),
        "spans": str(op_dir / "spans.jsonl"),
    }
    (op_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    op = Op(traced=traced)
    started = time.monotonic()
    with open(op_dir / "child.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json")],
            cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # counted as a failed operation below
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = op_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        op.failed = len(calls)
        op.errors.append(f"child exited {proc.returncode}; see {op_dir / 'child.log'}")
        op.elapsed_s = time.monotonic() - started
        return op
    result = json.loads(result_path.read_text(encoding="utf-8"))
    op.setup_s = result["imported"] - started
    op.rss_mib = result["peak_rss_kib"] / 1024.0
    for call in result["calls"]:
        op.call_s.append(call["end"] - call["start"])
        op.codes.append(call["code"])
        if call["code"] != 0:
            op.failed += 1
            op.errors.append(call["error"] or f"exit code {call['code']}")
    files = checks.artifacts(work)
    op.digest = digest(work, files)
    if traced:
        op.layers = spans.layer_metrics(spans.read(op_dir / "spans.jsonl"), op.wall_s, len(calls))
        op.layers["cli.out_bytes"] = sum((work / name).stat().st_size for name in files)
        op.layers["bench.traced_wall_s"] = op.wall_s
    op.elapsed_s = time.monotonic() - started
    return op


def source_fingerprint() -> tuple[str, int]:
    """sha256 and line count of the program's Python sources."""
    h, lines = hashlib.sha256(), 0
    for path in sorted((SRC / "benchlens").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    return h.hexdigest(), lines


def host(src_lines: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "src_benchlens_lines": src_lines,
    }


def same_as_before(key: str, value: str) -> bool:
    """Record `value` under `key`; False if an earlier run recorded another one."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    previous = known.setdefault(key, value)
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return previous == value


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, fingerprint) -> dict:
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = gen.generate(workload, seed, run_dir / "inputs")
    env = child_env()
    subprocess.run([sys.executable, "-c", "import benchlens.cli"], env=env, check=False)  # warm caches

    ops: list[Op] = []
    ref: Op | None = None  # the first operation that succeeded; its outputs are kept and checked
    deadline = time.monotonic() + seconds
    while True:
        op_dir = run_dir / f"op{len(ops)}"
        op = run_op(workload, inputs, op_dir, trace and len(ops) % 2 == 1, env)
        ops.append(op)
        if ref is None and not op.failed:
            ref, ref_work = op, op_dir / "work"
        else:
            shutil.rmtree(op_dir / "work")
        if len(ops) >= MIN_OPS and time.monotonic() + median(o.elapsed_s for o in ops) > deadline:
            break

    problems = []
    if ref is not None:
        problems = checks.check(workload, inputs, ref_work)
        if not same_as_before(f"{workload}/seed{seed}/{fingerprint[0]}", ref.digest):
            problems.append("outputs differ from an earlier run of the same seed and source")
    for op in ops:
        if not op.failed and (problems or op.digest != ref.digest):
            op.failed = len(op.call_s)
            op.errors.append("outputs are wrong" if problems else "outputs differ between operations")
    attempted = len(ops) * len(commands(workload, inputs))
    failed = sum(op.failed for op in ops)

    plain = [op for op in ops if not op.traced and op.setup_s is not None]  # the ones that ran
    if trace:
        wanted = spec["per_layer"]
        values = {m["name"]: 0.0 for m in wanted}  # stays 0 if no traced operation succeeded
        traced = sorted((op for op in ops if op.traced and op.setup_s is not None), key=lambda op: op.wall_s)
        if traced:
            # One whole operation, the median by traced wall time, so its self times add up.
            layers = traced[(len(traced) - 1) // 2].layers
            if set(layers) | {"bench.trace_overhead_s"} != set(values):
                raise RuntimeError(f"layer metrics {sorted(layers)} do not match BENCHMARK.json")
            values.update(layers)
            values["bench.trace_overhead_s"] = layers["bench.traced_wall_s"] - median(op.wall_s for op in plain)
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": median(s for op in plain for s in op.call_s),
            "setup_s": median(op.setup_s for op in plain),
            "peak_rss_mb": median(op.rss_mib for op in plain),
            "success_rate": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host(fingerprint[1]),
        "source_sha256": fingerprint[0],
        "digest": ref.digest if ref else None,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "ops": [
            {"traced": op.traced, "setup_s": op.setup_s, "call_s": op.call_s, "rss_mib": op.rss_mib,
             "codes": op.codes, "errors": op.errors, "layers": op.layers}
            for op in ops
        ],
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(f"{workload} seed={seed}: {len(ops)} operations ({len(plain)} plain), "
          f"{attempted} calls, {failed} failed (fail_rate {failed / attempted:.4f})")
    reasons = problems + [e for op in ops for e in op.errors]
    for reason in reasons[:5]:
        print(f"  problem: {reason.strip().splitlines()[-1]}")
    if len(reasons) > 5:
        print(f"  ... {len(reasons) - 5} more in {WORK / 'results'}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    calls = sorted(s for op in plain for s in op.call_s)
    if calls:
        print(f"  call wall time over {len(calls)} plain calls: lowest {calls[0]:.4f} s, "
              f"median {median(calls):.4f} s, slowest {calls[-1]:.4f} s")
    if trace:
        selfs = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS) + values["cli.self_s"]
        print(f"  layer self times + cli.self_s = {selfs!r} s; bench.traced_wall_s = {values['bench.traced_wall_s']!r} s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a running child is killed and reaped
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "benchlens" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'benchlens'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # checks.py recomputes the top proxy mix with benchlens.proxy

    fingerprint = source_fingerprint()
    print("host " + json.dumps(host(fingerprint[1])))
    workloads = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec, fingerprint) for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
