"""Deterministic input generator for the benchmark workloads.

Every run is drawn with the consistent-count recipe of the test suite's
``make_full_record``: all 20 canonical events, with cycles, misses, stalls,
shares and DRAM traffic scaled from the instruction count, so every one of
the 19 derived metrics is available and reaches PCA. The same seed gives
byte-identical files.

Run it directly to inspect what a workload receives:

    python3 perfbench/gen.py --workload report_200x9 --seed 0 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The canonical vocabulary and metric formulas are restated here rather than
# imported, so that the inputs and the correctness oracle do not change when
# the program under test does.
EVENTS = (
    "instructions",
    "cycles",
    "loads",
    "stores",
    "branches",
    "branch_misses",
    "l1i_misses",
    "l1d_misses",
    "l2_misses",
    "l3_misses",
    "l1_itlb_misses",
    "l1_dtlb_misses",
    "l2_tlb_misses",
    "frontend_stall_cycles",
    "backend_stall_cycles",
    "fp_instructions",
    "vector_instructions",
    "kernel_instructions",
    "user_instructions",
    "dram_bytes",
)

METRICS = {
    "ipc": ("instructions", "cycles", 1.0),
    "l1i_mpki": ("l1i_misses", "instructions", 1e3),
    "l1d_mpki": ("l1d_misses", "instructions", 1e3),
    "l2_mpki": ("l2_misses", "instructions", 1e3),
    "l3_mpki": ("l3_misses", "instructions", 1e3),
    "l1_itlb_mpmi": ("l1_itlb_misses", "instructions", 1e6),
    "l1_dtlb_mpmi": ("l1_dtlb_misses", "instructions", 1e6),
    "l2_tlb_mpmi": ("l2_tlb_misses", "instructions", 1e6),
    "branch_mpki": ("branch_misses", "instructions", 1e3),
    "frontend_stall_pct": ("frontend_stall_cycles", "cycles", 100.0),
    "backend_stall_pct": ("backend_stall_cycles", "cycles", 100.0),
    "kernel_pct": ("kernel_instructions", "instructions", 100.0),
    "user_pct": ("user_instructions", "instructions", 100.0),
    "load_pct": ("loads", "instructions", 100.0),
    "store_pct": ("stores", "instructions", 100.0),
    "branch_pct": ("branches", "instructions", 100.0),
    "fp_pct": ("fp_instructions", "instructions", 100.0),
    "vector_pct": ("vector_instructions", "instructions", 100.0),
    "mem_bytes_per_cycle": ("dram_bytes", "cycles", 1.0),
}

MACHINES = tuple(f"M{i}" for i in range(9))
SUITES = ("fp_rate", "fp_speed", "int_rate", "int_speed")
SUITE_WORKLOADS = 50
SUBSET_WORKLOADS = 240
INGEST_SUITE = "int_rate"
INGEST_WORKLOAD = f"int_rate_{SUITE_WORKLOADS:03d}"  # one past the store's last int_rate id
UNSUPPORTED_EVENT = "l2_tlb_misses"

# Two vendors' platform event names; machines M0-M4 use the first, M5-M8 the second.
_VENDOR_EVENTS = (
    {
        "instructions": "inst_retired.any",
        "cycles": "cpu_clk_unhalted.thread",
        "loads": "mem_inst_retired.all_loads",
        "stores": "mem_inst_retired.all_stores",
        "branches": "br_inst_retired.all_branches",
        "branch_misses": "br_misp_retired.all_branches",
        "l1i_misses": "icache_64b.iftag_miss",
        "l1d_misses": "l1d.replacement",
        "l2_misses": "l2_rqsts.miss",
        "l3_misses": "longest_lat_cache.miss",
        "l1_itlb_misses": "itlb_misses.stlb_hit",
        "l1_dtlb_misses": "dtlb_load_misses.stlb_hit",
        "l2_tlb_misses": "dtlb_load_misses.miss_causes_a_walk",
        "frontend_stall_cycles": "idq_uops_not_delivered.cycles_0_uops_deliv.core",
        "backend_stall_cycles": "cycle_activity.stalls_total",
        "fp_instructions": "fp_arith_inst_retired.scalar",
        "vector_instructions": "fp_arith_inst_retired.vector",
        "kernel_instructions": "inst_retired.any:k",
        "user_instructions": "inst_retired.any:u",
        "dram_bytes": "unc_m_cas_count.all",
    },
    {
        "instructions": "inst_retired",
        "cycles": "cpu_cycles",
        "loads": "ld_retired",
        "stores": "st_retired",
        "branches": "br_retired",
        "branch_misses": "br_mis_pred_retired",
        "l1i_misses": "l1i_cache_refill",
        "l1d_misses": "l1d_cache_refill",
        "l2_misses": "l2d_cache_refill",
        "l3_misses": "ll_cache_miss_rd",
        "l1_itlb_misses": "l1i_tlb_refill",
        "l1_dtlb_misses": "l1d_tlb_refill",
        "l2_tlb_misses": "l2d_tlb_refill",
        "frontend_stall_cycles": "stall_frontend",
        "backend_stall_cycles": "stall_backend",
        "fp_instructions": "vfp_spec",
        "vector_instructions": "ase_spec",
        "kernel_instructions": "inst_retired:k",
        "user_instructions": "inst_retired:u",
        "dram_bytes": "bus_access",
    },
)
_CACHELINE = (64, 128)

STORE_HEADER = "suite,workload,machine,event,value,supported"
SCORES_HEADER = "suite,workload,machine,score,wallclock_seconds"

RunKey = tuple[str, str, str]


def vendor(machine: str) -> int:
    return 0 if int(machine[1:]) < 5 else 1


def cacheline_bytes(machine: str) -> int:
    return _CACHELINE[vendor(machine)]


def draw_run(rng: np.random.Generator, base_instructions: float = 1e12) -> dict[str, float]:
    """One run's counts, consistent with each other (the make_full_record recipe)."""
    instructions = float(round(base_instructions * rng.uniform(0.5, 2.0)))
    cycles = float(round(instructions / rng.uniform(0.5, 4.0)))
    kernel = float(round(instructions * rng.uniform(0.01, 0.2)))

    def share(low: float, high: float, of: float = instructions) -> float:
        return float(round(of * rng.uniform(low, high)))

    return {
        "instructions": instructions,
        "cycles": cycles,
        "loads": share(0.1, 0.5),
        "stores": share(0.01, 0.2),
        "branches": share(0.01, 0.25),
        "branch_misses": share(0.0, 0.01),
        "l1i_misses": share(0.0, 0.08),
        "l1d_misses": share(0.0, 0.05),
        "l2_misses": share(0.0, 0.02),
        "l3_misses": share(0.0, 0.01),
        "l1_itlb_misses": share(0.0, 1e-4),
        "l1_dtlb_misses": share(0.0, 1e-3),
        "l2_tlb_misses": share(0.0, 1e-4),
        "frontend_stall_cycles": share(0.0, 0.4, cycles),
        "backend_stall_cycles": share(0.0, 0.5, cycles),
        "fp_instructions": share(0.0, 0.3),
        "vector_instructions": share(0.0, 0.2),
        "kernel_instructions": kernel,
        "user_instructions": instructions - kernel,
        "dram_bytes": share(0.0, 8.0, cycles),
    }


@dataclass
class Store:
    """Generated runs: counts, running scores and wallclocks, keyed by run."""

    counts: dict[RunKey, dict[str, float]] = field(default_factory=dict)
    scores: dict[RunKey, float] = field(default_factory=dict)
    wallclock: dict[RunKey, float] = field(default_factory=dict)

    def add(self, key: RunKey, rng: np.random.Generator, base_instructions: float) -> None:
        self.counts[key] = draw_run(rng, base_instructions)
        self.wallclock[key] = float(rng.uniform(50.0, 500.0))
        self.scores[key] = float(rng.uniform(1.0, 20.0))

    def write(self, store_path: Path, scores_path: Path) -> None:
        rows = sorted(
            (*key, event, repr(value), "true")
            for key, values in self.counts.items()
            for event, value in values.items()
        )
        store_path.write_text(
            STORE_HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8"
        )
        scores_path.write_text(
            SCORES_HEADER
            + "\n"
            + "".join(f"{','.join(k)},{self.scores[k]!r},{self.wallclock[k]!r}\n" for k in sorted(self.scores)),
            encoding="utf-8",
        )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def suite_store(seed: int) -> Store:
    """4 suites x 50 workloads x 9 machines; speed suites run 4x the instructions."""
    rng = _rng(seed, 1)
    store = Store()
    for suite in SUITES:
        base = 4e12 if suite.endswith("_speed") else 1e12
        for w in range(SUITE_WORKLOADS):
            for machine in MACHINES:
                store.add((suite, f"{suite}_{w:03d}", machine), rng, base)
    return store


def subset_store(seed: int) -> Store:
    """One suite of 240 workloads on one machine."""
    rng = _rng(seed, 2)
    store = Store()
    for w in range(SUBSET_WORKLOADS):
        store.add(("int_rate", f"int_rate_{w:03d}", "M0"), rng, 1e12)
    return store


def proxy_target(seed: int) -> str:
    """The int_rate workload the proxy search aims at."""
    return f"int_rate_{int(_rng(seed, 3).integers(SUITE_WORKLOADS)):03d}"


def ingest_runs(seed: int) -> dict[str, dict[str, float]]:
    """The new run's counts per machine, as the store should hold them after ingest.

    dram_bytes is a whole number of cache lines, so the dump can state it in lines.
    """
    rng = _rng(seed, 4)
    runs = {}
    for machine in MACHINES:
        values = draw_run(rng)
        line = cacheline_bytes(machine)
        values["dram_bytes"] = float(round(values["dram_bytes"] / line) * line)
        runs[machine] = values
    return runs


def countermap_yaml() -> str:
    lines = ["# Counter map manifest: canonical event -> platform event name, per machine.", "machines:"]
    for machine in MACHINES:
        lines += [
            f"  {machine}:",
            f"    cacheline_bytes: {cacheline_bytes(machine)}",
            "    dram_bytes_unit: lines",
            "    events:",
        ]
        lines += [f"      {event}: {name}" for event, name in _VENDOR_EVENTS[vendor(machine)].items()]
    return "\n".join(lines) + "\n"


def raw_dump(machine: str, values: dict[str, float]) -> str:
    """A `perf stat -x,` dump: value,unit,event,runtime,percentage plus comments."""
    names = _VENDOR_EVENTS[vendor(machine)]
    runtime = int(values["cycles"] // 3)
    lines = [
        f"# perf stat -x, output for {INGEST_SUITE}/{INGEST_WORKLOAD} on machine {machine}",
        "#",
    ]
    for event in EVENTS:
        if event == UNSUPPORTED_EVENT:
            field0 = "<not supported>"
        elif event == "dram_bytes":
            field0 = str(int(values[event]) // cacheline_bytes(machine))
        else:
            field0 = str(int(values[event]))
        lines.append(f"{field0},,{names[event]},{runtime},100.00,,")
    return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    """What one workload's run receives, plus what the checks recompute from."""

    files: dict[str, Path]
    store: Store | None = None
    subset: Store | None = None
    target: str | None = None
    ingest: dict[str, dict[str, float]] | None = None


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write the files `workload` needs into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "subset_240":
        store = subset_store(seed)
        files = {"store": out / "subset_store.csv", "scores": out / "subset_scores.csv"}
        store.write(files["store"], files["scores"])
        return Inputs(files=files, subset=store)

    store = suite_store(seed)
    files = {"store": out / "store.csv", "scores": out / "scores.csv"}
    store.write(files["store"], files["scores"])
    inputs = Inputs(files=files, store=store)
    if workload == "proxy_k3":
        inputs.target = proxy_target(seed)
    elif workload == "ingest_9m":
        inputs.ingest = ingest_runs(seed)
        files["countermap"] = out / "countermap.yaml"
        files["countermap"].write_text(countermap_yaml(), encoding="utf-8")
        for machine, values in inputs.ingest.items():
            files[f"raw_{machine}"] = out / f"raw_{machine}.txt"
            files[f"raw_{machine}"].write_text(raw_dump(machine, values), encoding="utf-8")
    elif workload != "report_200x9":
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed, Path(args.out))
    for name, path in sorted(inputs.files.items()):
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
