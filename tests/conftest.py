from __future__ import annotations

import io
import os

import numpy as np
import pytest

from functools import partial
from itertools import chain

from benchlens import bundled, dataset, files
from benchlens.dataset import Store, read_store
from benchlens.events import CANONICAL_EVENTS, METRIC_NAMES
from benchlens.metrics import MetricVector, derive_store
from benchlens.proxy import WorkloadProfile
from oracles import cells


def write_file(path, export, *args) -> None:
    """Write what `export(*args, fh)` writes into `fh` to `path`, through `files.commit` as the CLI does."""
    files.commit([(path, partial(export, *args))])


def spliced(path, run=("\U0010ffff", "", "")) -> bytes | None:
    """What `dataset._splice` copies the store file at `path` to with a one-line new run `run` (by default one
    that sorts after every other), or None when it refuses the file: it splices only into a canonical file that
    lacks the run, and `merge_into` merges any other."""
    out = io.BytesIO()
    with open(path, "rb") as fh:
        try:
            dataset._splice(fh, os.fstat(fh.fileno()).st_size, Store.from_cells([(*run, "cycles", 1.0, True)]), out)
        except dataset._Unspliced:
            return None
    return out.getvalue()


@pytest.fixture(scope="session")
def sample_store():
    return read_store(bundled.sample_store_path(), bundled.sample_scores_path())


@pytest.fixture(scope="session")
def sample_store_path():
    return bundled.sample_store_path()


@pytest.fixture(scope="session")
def sample_scores_path():
    return bundled.sample_scores_path()


def make_full_record(
    suite: str,
    workload: str,
    machine: str,
    rng: np.random.Generator,
    *,
    base_instructions: float = 1e12,
) -> Store:
    """A one-run store with every canonical event populated with consistent counts."""
    instructions = float(round(base_instructions * rng.uniform(0.5, 2.0)))
    cycles = float(round(instructions / rng.uniform(0.5, 4.0)))
    kernel = float(round(instructions * rng.uniform(0.01, 0.2)))
    values = {
        "instructions": instructions,
        "cycles": cycles,
        "loads": float(round(instructions * rng.uniform(0.1, 0.5))),
        "stores": float(round(instructions * rng.uniform(0.01, 0.2))),
        "branches": float(round(instructions * rng.uniform(0.01, 0.25))),
        "branch_misses": float(round(instructions * rng.uniform(0.0, 0.01))),
        "l1i_misses": float(round(instructions * rng.uniform(0.0, 0.08))),
        "l1d_misses": float(round(instructions * rng.uniform(0.0, 0.05))),
        "l2_misses": float(round(instructions * rng.uniform(0.0, 0.02))),
        "l3_misses": float(round(instructions * rng.uniform(0.0, 0.01))),
        "l1_itlb_misses": float(round(instructions * rng.uniform(0.0, 1e-4))),
        "l1_dtlb_misses": float(round(instructions * rng.uniform(0.0, 1e-3))),
        "l2_tlb_misses": float(round(instructions * rng.uniform(0.0, 1e-4))),
        "frontend_stall_cycles": float(round(cycles * rng.uniform(0.0, 0.4))),
        "backend_stall_cycles": float(round(cycles * rng.uniform(0.0, 0.5))),
        "fp_instructions": float(round(instructions * rng.uniform(0.0, 0.3))),
        "vector_instructions": float(round(instructions * rng.uniform(0.0, 0.2))),
        "kernel_instructions": kernel,
        "user_instructions": instructions - kernel,
        "dram_bytes": float(round(cycles * rng.uniform(0.0, 8.0))),
    }
    assert set(values) == set(CANONICAL_EVENTS)
    key = (suite, workload, machine)
    return Store.from_cells(
        [(*key, e, v, True) for e, v in sorted(values.items())],
        wallclock={key: float(rng.uniform(50.0, 500.0))},
    )


def combine(stores, *, keep=lambda cell: True) -> Store:
    """One store of the `keep` cells and the wallclocks and scores of `stores`."""
    stores = list(stores)
    return Store.from_cells(
        (cell for cell in chain.from_iterable(cells(s) for s in stores) if keep(cell)),
        wallclock={key: w for s in stores for key, w in zip(s.runs, s.wallclock.tolist())},
        scores={key: v for s in stores for key, v in zip(s.runs, s.scores.tolist()) if v == v},
    )


def with_score(store: Store, score: float) -> Store:
    """A one-run store with its score set."""
    wallclock = dict(zip(store.runs, store.wallclock.tolist()))
    return Store.from_cells(cells(store), wallclock=wallclock, scores={store.runs[0]: score})


def derive_one(store: Store) -> MetricVector:
    """The metric vector of a one-run store."""
    metrics = derive_store(store)
    (key,) = metrics.runs
    return metrics.row(key)


def metric_rows(vectors) -> np.ndarray:
    """One row of METRIC_NAMES values per MetricVector, NaN where unavailable, as compare_suites takes them."""
    return np.array(
        [[np.nan if (v := vector.get(name)) is None else v for name in METRIC_NAMES] for vector in vectors],
        dtype=float,
    ).reshape(-1, len(METRIC_NAMES))


def make_full_store(
    workloads: list[str],
    machines: list[str],
    seed: int = 7,
    suite: str = "synthetic",
) -> Store:
    rng = np.random.default_rng(seed)
    return combine(
        make_full_record(suite, workload, machine, rng) for workload in workloads for machine in machines
    )


def make_profile(
    workload: str,
    *,
    ipc: float,
    instr_rate: float,
    l1i_mpki: float,
    l3_mpki: float = 1.0,
    duration: float = 1.0,
) -> WorkloadProfile:
    """Profile with consistent instruction/cycle/miss rates for blend tests."""
    return WorkloadProfile(
        workload=workload,
        rates={
            "instructions": instr_rate,
            "cycles": instr_rate / ipc,
            "l1i_misses": l1i_mpki * instr_rate / 1000.0,
            "l3_misses": l3_mpki * instr_rate / 1000.0,
        },
        duration=duration,
    )


CACTUS_IPC = 1.696
FOTONIK_IPC = 0.785
CACTUS_L1I_MPKI = 82.3
FOTONIK_L1I_MPKI = 0.24
BLEND_TARGET_IPC = 1.16
STATED_IPC_GAP = 0.137


def icache_stress_pair() -> tuple[WorkloadProfile, WorkloadProfile]:
    """Two profiles, one icache-heavy and one icache-light, whose equal-time
    blend lands on the published mixed IPC by construction."""
    # instruction-volume ratio that makes the equal-time blend IPC hit the target
    ratio = (BLEND_TARGET_IPC / FOTONIK_IPC - 1.0) / (1.0 - BLEND_TARGET_IPC / CACTUS_IPC)
    fotonik_rate = 1e9
    cactus = make_profile(
        "709.cactus_r",
        ipc=CACTUS_IPC,
        instr_rate=ratio * fotonik_rate,
        l1i_mpki=CACTUS_L1I_MPKI,
        l3_mpki=1.2,
    )
    fotonik = make_profile(
        "749.fotonik3d_r",
        ipc=FOTONIK_IPC,
        instr_rate=fotonik_rate,
        l1i_mpki=FOTONIK_L1I_MPKI,
        l3_mpki=4.5,
    )
    return cactus, fotonik
