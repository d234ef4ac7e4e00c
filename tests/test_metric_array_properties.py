"""Property tests: featurize and compare over the `Metrics` array, and the one
metric bounds law, against the per-vector versions they replaced
(tests/oracles.py)."""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from benchlens import dataset  # noqa: E402
from benchlens.compare import compare_suites  # noqa: E402
from benchlens.dataset import Store  # noqa: E402
from benchlens.errors import BenchlensError  # noqa: E402
from benchlens.events import CANONICAL_EVENTS, METRIC_NAMES  # noqa: E402
from benchlens.features import build_matrix  # noqa: E402
from benchlens.metrics import MetricVector, derive_rows, derive_store  # noqa: E402
from conftest import make_full_record  # noqa: E402

OPTIONAL = tuple(e for e in CANONICAL_EVENTS if e not in ("instructions", "cycles"))
# zeroing one of these would break kernel_pct + user_pct = 100, which derive rejects on both paths
ZEROABLE = tuple(e for e in OPTIONAL if e not in ("kernel_instructions", "user_instructions"))


@st.composite
def stores(draw):
    """Runs of 2-6 workloads on 1-3 machines with event holes, zero counts and
    unsupported events (per run and per machine); sometimes a run is missing or
    a workload id is in a second suite."""
    machines = [f"M{i}" for i in range(draw(st.integers(1, 3)))]
    suites = draw(st.lists(st.sampled_from(["fp_rate", "int_rate"]), min_size=2, max_size=6))
    keys = [(suite, f"w{i}", machine) for i, suite in enumerate(suites) for machine in machines]
    if draw(st.integers(0, 5)) == 0:
        keys.append(("zz_suite", "w0", draw(st.sampled_from(machines))))
    if draw(st.integers(0, 5)) == 0:
        keys.remove(draw(st.sampled_from(keys)))
    cell = st.tuples(st.integers(0, len(keys) - 1), st.sampled_from(OPTIONAL))
    holes, unsupported = draw(st.sets(cell, max_size=12)), draw(st.sets(cell, max_size=12))
    zeros = draw(st.sets(st.tuples(st.integers(0, len(keys) - 1), st.sampled_from(ZEROABLE)), max_size=12))
    missing_on = {m: draw(st.sets(st.sampled_from(OPTIONAL), max_size=2)) for m in machines}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = []
    for i, key in enumerate(keys):
        for *_, event, value, _ in oracles.cells(make_full_record(*key, rng)):
            if (i, event) not in holes:
                off = (i, event) in unsupported or event in missing_on[key[2]]
                cells.append((*key, event, 0.0 if (i, event) in zeros else value, not off))
    return Store.from_cells(cells)


def outcome(call):
    """What `call` returns, or the type and message of the BenchlensError it raises."""
    try:
        return call()
    except BenchlensError as exc:
        return type(exc).__name__, str(exc)


def matrix_outcome(call):
    result = outcome(call)
    if isinstance(result, tuple):
        return result
    return result.values.tobytes(), result.values.shape, result.rows, result.cols, result.dropped


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(store=stores(), data=st.data())
def test_featurize_and_compare_of_the_array_match_the_per_vector_oracle(store, data):
    held = dataset.machines_in(store)
    machines = data.draw(st.permutations(held) | st.sampled_from(held).map(lambda m: [m]))
    selected = store.select(machines=machines)
    metrics = derive_store(selected)
    vectors = {rec.key: oracles.derive_metrics(rec) for rec in oracles.records_of(selected)}
    assert list(vectors) == list(metrics.runs)

    workloads = dataset.workloads_in(selected)
    got = matrix_outcome(lambda: build_matrix(metrics, workloads, machines))
    assert got == matrix_outcome(lambda: oracles.vector_build_matrix(vectors, workloads, machines))
    if len({key[1:] for key in selected.runs}) < len(selected.runs):
        assert got[0] == "DuplicateKey"

    suite_a, suite_b = data.draw(st.lists(st.sampled_from(dataset.suites_in(store)), min_size=2, max_size=2))
    machine = data.draw(st.sampled_from(machines))

    def vectors_of(suite):
        return [vec for (s, _, m), vec in vectors.items() if s == suite and m == machine]

    def values_of(suite):
        return metrics.select(suite=suite, machine=machine).values

    got = outcome(lambda: compare_suites(suite_a, values_of(suite_a), suite_b, values_of(suite_b), machine))
    expected = outcome(
        lambda: oracles.vector_compare_suites(suite_a, vectors_of(suite_a), suite_b, vectors_of(suite_b), machine)
    )
    assert repr(got) == repr(expected)


ABOVE_100 = float(np.nextafter(100.0, math.inf))
# a metric value: unavailable, each edge of the finite and >= 0 bound, a share at 100 and one ulp above, ints
VALUES = st.sampled_from([None, math.nan, -0.0, -1e-300, math.inf, 0.0, 100.0, ABOVE_100]) | st.integers(-2, 150)
# kernel + user - 100 at 0, at 1e-6 either way and just beyond it, and whole numbers off (an int sum keeps its repr)
SUM_OFFSETS = st.sampled_from([0, 1e-6, -1e-6, 1.0000000000000002e-06, -1.0000000000000002e-06, 2e-6, -2e-6, 1, -3])


def error_or(call, passed=None):
    """The type and message of the error `call` raises, else `passed` of its result."""
    try:
        result = call()
    except (ValueError, BenchlensError) as exc:
        return type(exc).__name__, str(exc)
    return passed(result) if passed else None


@st.composite
def metric_rows(draw):
    """Metric name -> value, with kernel_pct + user_pct often near 100."""
    values = {name: draw(VALUES | st.floats(0.0, 150.0)) for name in draw(st.sets(st.sampled_from(METRIC_NAMES)))}
    if draw(st.booleans()):
        kernel = draw(st.integers(0, 100) | st.floats(0.0, 100.0))
        values.update(kernel_pct=kernel, user_pct=100 - kernel + draw(SUM_OFFSETS))
    return values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=metric_rows())
def test_a_metric_vector_keeps_the_bounds_of_the_per_field_oracle(values):
    assert error_or(lambda: MetricVector(**values)) == error_or(lambda: oracles.metric_bounds(values))


@st.composite
def count_rows(draw):
    """1-4 rows of every canonical event's count, each a plain run with up to 3 counts set to an edge value:
    unsupported (NaN), zero of either sign, infinite, one that overflows a metric, or a share at or above 100."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        instructions = draw(st.sampled_from([1e8, 2.0**52]))
        kernel = float(draw(st.integers(0, 10**8 - 2)))  # user_instructions stays >= 0
        row = dict.fromkeys(CANONICAL_EVENTS, instructions / 4)
        off = draw(st.just(0.0) | st.sampled_from([-2.0, -1.0, 1.0, 2.0]))  # at 1e8 instructions, 1e-6 of a share
        row.update(instructions=instructions, cycles=2 * instructions, kernel_instructions=kernel,
                   user_instructions=instructions - kernel + off)
        edges = [math.nan, 0.0, -0.0, math.inf, 1e308, 1.0, instructions, instructions + 1.0, 2 * instructions]
        for event in draw(st.sets(st.sampled_from(CANONICAL_EVENTS), max_size=3)):
            row[event] = draw(st.sampled_from(edges))
        rows.append([row[event] for event in CANONICAL_EVENTS])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=count_rows())
def test_derive_rows_fails_on_the_first_row_the_per_metric_oracle_fails(rows):
    keys = [("s", f"w{i}", "m") for i in range(len(rows))]

    def oracle():
        return [
            oracles.metric_values(key, {event: v for event, v in zip(CANONICAL_EVENTS, row) if v == v})
            for key, row in zip(keys, rows)
        ]

    def oracle_values(rows):
        return repr([[math.nan if v is None else v for v in map(values.get, METRIC_NAMES)] for values in rows])

    got = error_or(lambda: derive_rows(np.array(rows), CANONICAL_EVENTS, keys), lambda values: repr(values.tolist()))
    assert got == error_or(oracle, oracle_values)
