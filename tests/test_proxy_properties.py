"""Property test: the array ranking of search_mix equals one simulation per mix."""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from benchlens.dataset import Store  # noqa: E402
from benchlens.events import CANONICAL_EVENTS, METRIC_NAMES  # noqa: E402
from benchlens.proxy import WorkloadProfile  # noqa: E402
from conftest import derive_one, make_full_record  # noqa: E402
from test_proxy import assert_matches_simulation  # noqa: E402

DENOMINATORS = ("instructions", "cycles")


@st.composite
def proxy_cases(draw, faults: bool):
    """A pool, target, k, weights and scales.

    Profiles can have unsupported events, every pool has a twin of its first
    profile (exact distance ties), and weights and scale stdevs can be zero. With
    `faults`, denominators can be unsupported, a share can exceed 100% and a
    weight can be negative or not finite, so the error paths are compared too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    droppable = CANONICAL_EVENTS if faults else tuple(e for e in CANONICAL_EVENTS if e not in DENOMINATORS)
    pool = []
    for i in range(draw(st.integers(1, 5))):
        record = make_full_record("s", f"w{i}", "m", rng)
        dropped = draw(st.sets(st.sampled_from(droppable), max_size=3))
        cells = ((*c[:4], 0.0, False) if c[3] in dropped else c for c in record.cells())
        profile = WorkloadProfile.from_store(
            Store.from_cells(cells, wallclock=dict(zip(record.runs, record.wallclock.tolist()))), 0
        )
        if faults and draw(st.booleans()):
            event = draw(st.sampled_from(sorted(profile.rates)))
            profile = replace(profile, rates={**profile.rates, event: 5.0 * profile.rates[event]})
        pool.append(profile)
    pool += [replace(pool[0], workload=f"twin{i}") for i in range(draw(st.integers(1, 2)))]

    target = derive_one(make_full_record("s", "target", "m", rng))
    blanked = draw(st.sets(st.sampled_from(METRIC_NAMES), max_size=6))
    target = replace(target, **dict.fromkeys(blanked))
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 10.0)
    weights = draw(st.fixed_dictionaries({m: weight for m in METRIC_NAMES}))
    if faults and draw(st.integers(0, 3)) == 0:
        weights[draw(st.sampled_from(METRIC_NAMES))] = draw(st.sampled_from([-1.0, float("nan"), float("inf")]))
    stdev = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(0.01, 100.0)
    scales = draw(st.none() | st.dictionaries(st.sampled_from(METRIC_NAMES), st.tuples(st.floats(-10, 10), stdev)))
    k = draw(st.integers(1, min(3, len(pool))))
    return pool, target, k, weights, scales


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=proxy_cases(faults=False))
def test_search_mix_matches_simulation(case):
    with tempfile.TemporaryDirectory() as tmp:
        ranked = assert_matches_simulation(Path(tmp), *case)
    event("raised" if ranked is None else "ranked")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=proxy_cases(faults=True))
def test_search_mix_errors_match_simulation(case):
    with tempfile.TemporaryDirectory() as tmp:
        ranked = assert_matches_simulation(Path(tmp), *case)
    event("raised" if ranked is None else "ranked")
