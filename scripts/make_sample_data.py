#!/usr/bin/env python3
"""Regenerate the bundled sample dataset under src/benchlens/data/.

The sample models one machine (CPU-C) running a 52-workload CPU suite split
into int/fp rate/speed groups. Counter values are reconstructed from each
workload's dynamic instruction count (billions), instruction-mix shares and
IPC: counts are exact integers, so the derived shares reproduce the summary
numbers exactly and IPC reproduces them at 3 decimals.

Scores are synthetic (proportional to IPC); wallclocks assume a 3 GHz clock.

    python3 scripts/make_sample_data.py [DATA_DIR]

DATA_DIR defaults to the bundled src/benchlens/data/.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from benchlens.dataset import Store, save_canonical, save_scores

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "benchlens" / "data"

# workload -> (icount_billions, loads_pct, stores_pct, branches_pct, ipc)
SUITE_TABLE: dict[str, dict[str, tuple[int, float, float, float, float]]] = {
    "int_rate": {
        "706.stockfish_r": (6507, 22.0, 9.9, 10.4, 3.625),
        "707.ntest_r": (2507, 25.0, 9.6, 9.2, 3.268),
        "708.sqlite_r": (1716, 26.9, 11.9, 20.9, 2.228),
        "710.omnetpp_r": (1583, 31.9, 17.5, 20.5, 2.103),
        "714.cpython_r": (1475, 27.9, 15.8, 21.4, 2.843),
        "721.gcc_r": (1503, 28.0, 11.3, 21.8, 0.551),
        "723.llvm_r": (1534, 26.0, 13.7, 20.8, 1.484),
        "727.cppcheck_r": (1286, 22.5, 9.6, 26.7, 2.228),
        "729.abc_r": (1400, 26.2, 8.9, 16.7, 2.187),
        "734.vpr_r": (1367, 30.9, 11.2, 19.2, 2.097),
        "735.gem5_r": (1659, 30.2, 14.7, 20.9, 2.068),
        "750.sealcrypto_r": (3087, 12.0, 4.7, 1.9, 4.961),
        "753.ns3_r": (1432, 29.4, 16.8, 22.2, 2.230),
        "777.zstd_r": (1817, 22.2, 9.0, 13.3, 1.911),
    },
    "int_speed": {
        "801.xz_s": (17757, 22.2, 7.4, 14.4, 1.008),
        "807.ntest_s": (151005, 20.8, 7.8, 6.7, 3.460),
        "817.flac_s": (90970, 17.6, 2.3, 4.4, 4.156),
        "821.gcc_s": (109486, 26.8, 12.5, 21.7, 2.016),
        "823.llvm_s": (103105, 22.0, 11.8, 23.1, 1.896),
        "827.cppcheck_s": (90423, 23.0, 11.2, 26.5, 2.375),
        "829.abc_s": (1433, 25.1, 11.7, 18.1, 0.858),
        "834.vpr_s": (3117, 30.7, 11.1, 19.4, 1.863),
        "835.gem5_s": (2858, 29.4, 13.5, 17.6, 1.805),
        "838.diamond_s": (146966, 20.1, 6.8, 5.5, 3.203),
        "846.minizinc_s": (5062, 26.5, 18.2, 15.9, 1.228),
        "853.ns3_s": (11053, 28.9, 14.3, 21.0, 1.662),
        "854.graph500_s": (37168, 36.2, 0.9, 25.7, 1.539),
    },
    "fp_rate": {
        "709.cactus_r": (1456, 51.9, 7.9, 1.1, 1.696),
        "722.palm_r": (3272, 39.0, 9.1, 5.0, 3.187),
        "731.astcenc_r": (2615, 28.3, 6.5, 8.7, 2.718),
        "736.ocio_r": (2484, 24.2, 7.5, 9.8, 3.269),
        "737.gmsh_r": (1086, 29.2, 12.1, 17.2, 1.585),
        "748.flightdm_r": (1721, 29.5, 14.2, 18.8, 3.071),
        "749.fotonik3d_r": (1291, 36.8, 13.7, 1.8, 0.785),
        "765.roms_r": (2738, 34.8, 8.4, 7.3, 1.830),
        "766.femflow_r": (5012, 34.9, 20.1, 6.9, 3.265),
        "767.nest_r": (1848, 33.5, 12.3, 14.0, 2.844),
        "772.marian_r": (6389, 8.7, 1.3, 3.0, 3.953),
        "782.lbm_r": (2236, 21.2, 10.9, 0.7, 1.241),
    },
    "fp_speed": {
        "800.pot3d_s": (7603, 34.8, 8.1, 9.5, 0.754),
        "803.sph_exa_s": (64626, 24.8, 3.4, 11.2, 2.465),
        "809.cactus_s": (29190, 51.9, 8.1, 1.6, 1.338),
        "811.tealeaf_s": (40570, 20.2, 4.9, 8.8, 1.617),
        "816.nab_s": (67717, 31.2, 5.7, 11.9, 2.441),
        "820.cloverleaf_s": (25781, 33.2, 4.7, 5.9, 1.349),
        "822.palm_s": (48883, 38.2, 8.9, 6.4, 1.920),
        "849.fotonik3d_s": (17777, 56.0, 9.8, 2.7, 0.955),
        "857.namd_s": (168881, 26.4, 6.6, 2.2, 3.929),
        "865.roms_s": (28484, 34.7, 8.6, 7.9, 1.574),
        "867.nest_s": (66774, 30.1, 9.3, 14.7, 1.790),
        "872.marian_s": (65980, 10.8, 2.8, 3.8, 3.258),
        "881.neutron_s": (33545, 25.8, 11.3, 9.1, 1.204),
    },
}

MACHINE = "CPU-C"
CLOCK_HZ = 3_000_000_000

COUNTERMAP_YAML = """\
# Example counter map manifest for an x86_64 server machine.
# Platform event encodings vary per vendor and model; edit the right-hand
# side to match what `perf list` exposes on your system.
machines:
  CPU-C:
    cacheline_bytes: 64
    dram_bytes_unit: lines
    events:
      instructions: instructions
      cycles: cycles
      loads: mem_inst_retired.all_loads
      stores: mem_inst_retired.all_stores
      branches: br_inst_retired.all_branches
      branch_misses: br_misp_retired.all_branches
      l1i_misses: icache_64b.iftag_miss
      l1d_misses: l1d.replacement
      l2_misses: l2_rqsts.miss
      l3_misses: longest_lat_cache.miss
      l1_itlb_misses: itlb_misses.stlb_hit
      l1_dtlb_misses: dtlb_load_misses.stlb_hit
      l2_tlb_misses: dtlb_load_misses.miss_causes_a_walk
      frontend_stall_cycles: idq_uops_not_delivered.cycles_0_uops_deliv.core
      backend_stall_cycles: cycle_activity.stalls_total
      fp_instructions: fp_arith_inst_retired.scalar
      vector_instructions: fp_arith_inst_retired.vector
      kernel_instructions: instructions:k
      user_instructions: instructions:u
      dram_bytes: unc_m_cas_count.all
"""


def share_count(instructions: int, pct: float) -> int:
    # instructions is a multiple of 1e9, so instructions * round(10*pct) / 1000 is an integer
    return instructions * round(pct * 10) // 1000


def main(data_dir: Path = DATA_DIR) -> None:
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    wallclock = {}
    scores = {}
    for suite, workloads in SUITE_TABLE.items():
        for workload, (icount_b, loads, stores, branches, ipc) in workloads.items():
            instructions = icount_b * 10**9
            cycles = round(instructions / ipc)
            counters = {
                "instructions": instructions,
                "cycles": cycles,
                "loads": share_count(instructions, loads),
                "stores": share_count(instructions, stores),
                "branches": share_count(instructions, branches),
            }
            for event, value in counters.items():
                cells.append((suite, workload, MACHINE, event, float(value), True))
            key = (suite, workload, MACHINE)
            wallclock[key] = round(cycles / CLOCK_HZ, 3)
            scores[key] = round(ipc * 10, 2)

    store = Store.from_cells(cells, wallclock=wallclock, scores=scores)
    save_canonical(store, data_dir / "cpu_suite_store.csv")
    save_scores(store, data_dir / "cpu_suite_scores.csv")
    (data_dir / "countermap_cpu_c.yaml").write_text(COUNTERMAP_YAML, encoding="utf-8")

    stockfish = SUITE_TABLE["int_rate"]["706.stockfish_r"]
    instructions = stockfish[0] * 10**9
    cycles = round(instructions / stockfish[4])
    runtime_ns = round(cycles / CLOCK_HZ * 1e9)
    raw_lines = [
        "# perf stat -x, style dump for 706.stockfish_r on CPU-C",
        f"{instructions},,instructions,{runtime_ns},100.00,,",
        f"{cycles},,cycles,{runtime_ns},100.00,,",
        f"{share_count(instructions, stockfish[1])},,mem_inst_retired.all_loads,{runtime_ns},100.00,,",
        f"{share_count(instructions, stockfish[2])},,mem_inst_retired.all_stores,{runtime_ns},100.00,,",
        f"{share_count(instructions, stockfish[3])},,br_inst_retired.all_branches,{runtime_ns},100.00,,",
        f"<not supported>,,unc_m_cas_count.all,{runtime_ns},100.00,,",
    ]
    (data_dir / "raw_stockfish_cpu_c.txt").write_text("\n".join(raw_lines) + "\n", encoding="utf-8")
    print(f"wrote sample dataset to {data_dir}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
