"""Canonical hardware-event vocabulary and the metric definitions built on it.

Every derived metric is a scaled ratio of two canonical events. Vendor-specific
event encodings never appear here; they are translated to this vocabulary by a
counter map at parse time.
"""

from __future__ import annotations

from typing import Iterable

CANONICAL_EVENTS: tuple[str, ...] = (
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


def event_vocabulary(names: Iterable[str]) -> tuple[str, ...]:
    """The event order of a store or a blend: the canonical events, then every other name in `names`, sorted."""
    return CANONICAL_EVENTS + tuple(sorted(set(names) - set(CANONICAL_EVENTS)))

# metric -> (numerator event, denominator event, scale)
# value = scale * numerator / denominator
METRIC_DEFS: dict[str, tuple[str, str, float]] = {
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

METRIC_NAMES: tuple[str, ...] = tuple(METRIC_DEFS)
