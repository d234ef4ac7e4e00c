"""Run the benchmark's end-to-end workloads and write their medians to one JSON file.

    python3 scripts/bench.py --seed 0 --seconds 30 --out BENCH_<n>.json

For each workload in BENCHMARK.json it runs ``perfbench/run.py --trace 0``
(fresh child processes, untraced; see that file) and records the four
end-to-end medians it prints, whether the outputs were correct, the host the
figures come from and the line count of ``src/benchlens``. Standard library
only, so it runs on any checkout of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def source_lines() -> int:
    return sum(path.read_bytes().count(b"\n") for path in sorted((ROOT / "src" / "benchlens").rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """The result line `perfbench/run.py` prints for one workload."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed passed to perfbench")
    parser.add_argument("--seconds", type=float, required=True, help="run length of each workload")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for workload in spec["workloads"]:
        result = run_workload(workload["name"], args.seed, args.seconds)
        workloads[workload["name"]] = {
            "correct": result["correct"],
            **{name: metric["value"] for name, metric in result["metrics"].items()},
        }
        print(workload["name"], json.dumps(workloads[workload["name"]]), flush=True)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "src_benchlens_lines": source_lines(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
