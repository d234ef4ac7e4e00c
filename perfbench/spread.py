"""Run-to-run spread of the benchmark, as the acceptance rule measures it.

    python3 perfbench/spread.py --workload proxy_k3 --seeds 1-5

Runs run.py once per seed, one run at a time, and prints for every metric
the median of the runs and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of that median, beside the
metric's bound in BENCHMARK.json. A spread above a third of the bound is
flagged. The figures are also written to perfbench/_work/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # subprocess.run then kills its run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed} ({time.monotonic() - started:.1f} s): correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        report[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = " <-- above a third of the bound" if share > bound / 3 else ""
            report[workload][name] = {"median": med, "spread": share, "bound": bound, "values": values}
            print(f"  {name}: median {med:.6g}, spread {share:.4f}, bound {bound}{flag}")
        print(f"  all correct: {all(r['correct'] for r in runs)}", flush=True)
    out_path = HERE / "_work" / f"spread-{args.workload}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
