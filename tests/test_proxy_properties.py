"""Property tests: the array laws of `proxy` equal the loops they replaced.

search_mix's ranking equals one simulation per mix, simulate_rrr equals the
per-event loop on general schedules and blend_distance equals the scalar
loop, value for value or error for error.
"""

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
from benchlens.proxy import BlendProfile, RrrSchedule, WorkloadProfile, blend_distance, simulate_rrr  # noqa: E402
from conftest import derive_one, make_full_record  # noqa: E402
from oracles import loop_blend_distance, loop_simulate_rrr  # noqa: E402
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


def same_outcome(function, referee, *args, **kwargs):
    """Both results, or None after checking that both raise the same type and message."""
    try:
        expected = referee(*args, **kwargs)
    except Exception as exc:
        event(f"raised {type(exc).__name__}")
        with pytest.raises(Exception) as raised:
            function(*args, **kwargs)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return None
    event("returned")
    return function(*args, **kwargs), expected


@st.composite
def schedules(draw):
    """Profiles and a schedule: unequal durations, explicit offsets, horizons past
    one period, unsupported and unmapped events, rates whose totals overflow and
    schedules that break each of simulate_rrr's checks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fault = draw(st.sampled_from([None] * 6 + ["overflow", "ghost", "zero horizon", "short horizon", "unsorted"]))
    pool = []
    for i in range(draw(st.integers(1, 4))):
        rates = dict(WorkloadProfile.from_store(make_full_record("s", f"w{i}", "m", rng), 0).rates)
        for dropped in draw(st.sets(st.sampled_from(CANONICAL_EVENTS), max_size=3)):
            del rates[dropped]
        for unmapped in draw(st.sets(st.sampled_from(["raw_0x01", "raw_0x02"]))):
            rates[unmapped] = draw(st.floats(0.0, 1e9))
        if fault == "overflow" and draw(st.booleans()):
            rates[draw(st.sampled_from(sorted(rates)))] = 1e308
        pool.append(WorkloadProfile(f"w{i}", rates, draw(st.floats(0.1, 5.0))))
    names = [p.workload for p in pool]
    order = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=4)))
    if fault == "ghost":
        order += ("ghost",)
    copies = draw(st.integers(1, 4))
    period = sum(p.duration for p in pool for w in order if p.workload == w)
    offsets = None
    if draw(st.booleans()):
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=copies, max_size=copies))
        offsets = tuple(f * period for f in (fractions if fault == "unsorted" else sorted(fractions)))
    horizon = draw(st.none() | st.floats(1.0, 3.5).map(lambda f: f * period))
    if fault in ("zero horizon", "short horizon"):
        horizon = 0.0 if fault == "zero horizon" else 0.9 * period
    return pool, RrrSchedule(order=order, copies=copies, offsets=offsets, horizon=horizon)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=schedules())
def test_simulate_rrr_matches_the_loop(case):
    outcome = same_outcome(simulate_rrr, loop_simulate_rrr, *case)
    if outcome is not None:
        blend, expected = outcome
        assert repr(list(blend.totals.items())) == repr(list(expected.totals.items()))
        assert repr(list(blend.time_shares.items())) == repr(list(expected.time_shares.items()))
        assert repr(blend.metrics) == repr(expected.metrics)
        assert (blend.copies, repr(blend.horizon)) == (expected.copies, repr(expected.horizon))


@st.composite
def distance_cases(draw):
    """A blend (a MetricVector or a BlendProfile), a target, weights and scales,
    with metrics blanked on either side, zero, negative and NaN weights, and
    zero, negative and NaN stdevs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = []
    for name in ("blend", "target"):
        vector = derive_one(make_full_record("s", name, "m", rng))
        vectors.append(replace(vector, **dict.fromkeys(draw(st.sets(st.sampled_from(METRIC_NAMES), max_size=8)))))
    blend, target = vectors
    if draw(st.booleans()):
        blend = BlendProfile(metrics=blend, time_shares={}, totals={}, copies=1, horizon=1.0)
    weight = st.sampled_from([1.0, 0.0, -0.0]) | st.floats(0.01, 10.0)
    weights = draw(st.dictionaries(st.sampled_from(METRIC_NAMES), weight, min_size=4))
    bad = draw(st.sampled_from([None] * 6 + [-1.0, float("nan"), float("inf")]))
    if bad is not None:
        weights[draw(st.sampled_from(METRIC_NAMES))] = bad
    stdev = st.sampled_from([1.0, 0.0, -1.0, float("nan")]) | st.floats(0.01, 100.0)
    scales = draw(st.none() | st.dictionaries(st.sampled_from(METRIC_NAMES), st.tuples(st.floats(-10, 10), stdev)))
    return blend, target, weights, scales


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=distance_cases())
def test_blend_distance_matches_the_loop(case):
    blend, target, weights, scales = case
    outcome = same_outcome(blend_distance, loop_blend_distance, blend, target, weights, scales=scales)
    if outcome is not None:
        report, expected = outcome
        assert repr(report.distance) == repr(expected.distance)
        assert repr(list(report.relative_gaps.items())) == repr(list(expected.relative_gaps.items()))
        assert report.metrics_used == expected.metrics_used
