"""Property tests: the joined-line writers equal the csv.writer rows they replaced, byte for byte.

`files.write_csv` itself, both `export_mixes_csv` paths (a `RankedMixes` and
a list of BlendProfiles) and both store writers are compared with csv.writer
or the referees in `oracles`, on names that csv quotes (or, like a lone
"\\r" on Python 3.11, leaves bare), on the float cells whose repr is easy to
get wrong, and on row counts around one write chunk. `files.float_rows` is
compared with repr on the cells where orjson's text and repr's part, and on
a million doubles where they must agree.
"""

from __future__ import annotations

import csv
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from conftest import write_file  # noqa: E402
from benchlens.dataset import Store, save_canonical, save_scores  # noqa: E402
from benchlens.events import CANONICAL_EVENTS, METRIC_NAMES  # noqa: E402
from benchlens.features import FeatureMatrix, export_csv  # noqa: E402
from benchlens import files  # noqa: E402
from benchlens.files import CHUNK as _CHUNK  # noqa: E402
from benchlens.metrics import BOUNDED_SHARES, MetricVector  # noqa: E402
from benchlens.pca import export_scores_csv  # noqa: E402
from benchlens.proxy import BlendProfile, RankedMixes, WorkloadProfile, export_mixes_csv  # noqa: E402

NAMES = st.sampled_from(
    ["plain", "a,b", 'q"uote', "cr\rname", "nl\nname", "two words", "", "ünï", "名前", ",",
     "%", "%b", "%d", "[", "]", "],["]  # the export's byte template is built of these
) | st.text(max_size=5)
FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.0001, 1.7976931348623157e308, 0.1 + 0.2]
)
METRIC_CELLS = FLOATS | st.just(float("nan")) | st.floats()
POSITIVE = st.sampled_from([5e-324, 1e16, 1e-05, 0.0001, 1.7976931348623157e308]) | st.floats(
    1e-300, 1e300, allow_nan=False, allow_infinity=False
)
DISTANCES = FLOATS | st.sampled_from([float("inf"), float("nan")]) | st.floats(0.0, allow_nan=False)


TEXTS = NAMES | st.sampled_from([",", '"', "\n", "\r", " ", '""', "\r\n", " lead", "trail ", 'a,"b"\nc'])


def assert_same_bytes(write, referee, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(data, tmp / "joined.csv")
        referee(data, tmp / "csv.csv")
        assert (tmp / "joined.csv").read_bytes() == (tmp / "csv.csv").read_bytes()


def mixes_file(ranked, path):
    write_file(path, export_mixes_csv, ranked)


def ranked_mixes(names, mixes, distances, metrics) -> RankedMixes:
    """A ranking as `search_mix` returns it: pool indices padded with -1, one distance and metric row each."""
    pool = [WorkloadProfile(workload=name, rates={}, duration=1.0) for name in names]
    width = max((len(mix) for mix in mixes), default=1)
    padded = np.array([mix + [-1] * (width - len(mix)) for mix in mixes], dtype=np.intp).reshape(-1, width)
    values = np.array(metrics, dtype=float).reshape(-1, len(METRIC_NAMES))
    scored = np.column_stack([np.array(distances, dtype=float), values])
    return RankedMixes(pool, padded, scored, np.arange(len(mixes)), "t")


@st.composite
def rankings(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(0, 12))
    mixes = [
        draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=min(3, len(names)), unique=True))
        for _ in range(count)
    ]
    distances = draw(st.lists(DISTANCES, min_size=count, max_size=count))
    metrics = draw(st.lists(st.lists(METRIC_CELLS, min_size=19, max_size=19), min_size=count, max_size=count))
    return ranked_mixes(names, mixes, distances, metrics)


@st.composite
def blends(draw):
    """(order, BlendProfile) pairs as `proxy --mix` writes them: any MetricVector, a distance or None."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        order = tuple(draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)))
        values = {}
        for metric in METRIC_NAMES:
            if draw(st.booleans()):
                continue
            bounded = metric in BOUNDED_SHARES or metric in ("kernel_pct", "user_pct")
            values[metric] = draw(FLOATS.filter(lambda v: v <= 100.0) if bounded else FLOATS)
        if "kernel_pct" in values and "user_pct" in values:
            values["user_pct"] = 100.0 - values["kernel_pct"]
        distance = draw(st.none() | DISTANCES)
        blend = BlendProfile(
            metrics=MetricVector(**values), time_shares={}, totals={}, copies=len(order), horizon=1.0,
            distance_to_target=distance,
        )
        rows.append((order, blend))
    return rows


@st.composite
def stores(draw):
    """A store of unique (run, event) cells over awkward names, some runs scored."""
    keyed = draw(
        st.dictionaries(
            st.tuples(NAMES, NAMES, NAMES, st.sampled_from(CANONICAL_EVENTS[:4]) | NAMES),
            st.tuples(FLOATS, st.booleans()),
            max_size=20,
        )
    )
    cells = [(*key, value, flag) for key, (value, flag) in keyed.items()]
    scored = [run for run in sorted({cell[:3] for cell in cells}) if draw(st.booleans())]
    return Store.from_cells(
        cells,
        wallclock={run: draw(POSITIVE) for run in scored},
        scores={run: draw(POSITIVE) for run in scored},
    )


@st.composite
def grid_stores(draw):
    """A store of several runs that share events, every name one csv may quote, with holes in the grid."""
    runs = draw(st.lists(st.tuples(NAMES, NAMES, NAMES), min_size=1, max_size=4, unique=True))
    events = draw(st.lists(st.sampled_from(CANONICAL_EVENTS[:3]) | NAMES, min_size=1, max_size=5, unique=True))
    cells = [
        (*run, event, draw(FLOATS), draw(st.booleans()))
        for run in runs
        for event in events
        if draw(st.integers(0, 3))
    ]
    return Store.from_cells(cells)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ranked=rankings())
def test_ranked_mixes_are_written_like_csv_writer(ranked):
    assert_same_bytes(mixes_file, oracles.csv_export_mixes, ranked)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ranked=blends())
def test_blend_profiles_are_written_like_csv_writer(ranked):
    assert_same_bytes(mixes_file, oracles.csv_export_mixes, ranked)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(store=stores())
def test_store_and_scores_are_written_like_csv_writer(store):
    assert_same_bytes(save_canonical, oracles.csv_save_canonical, store)
    assert_same_bytes(save_scores, oracles.csv_save_scores, store)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(store=grid_stores())
def test_a_store_of_runs_that_share_events_is_written_like_csv_writer(store):
    assert_same_bytes(save_canonical, oracles.csv_save_canonical, store)


def test_only_the_mix_with_a_quoted_name_is_quoted():
    ranked = ranked_mixes(
        ["plain", "a,b", "other"], [[0, 2], [0, 1], [1], [2, 0, 1]], [0.5, 1.0, 2.0, float("inf")],
        [[1.0] * 19] * 4,
    )
    assert_same_bytes(mixes_file, oracles.csv_export_mixes, ranked)
    with tempfile.TemporaryDirectory() as tmp:
        write_file(Path(tmp) / "mixes.csv", export_mixes_csv, ranked)
        lines = (Path(tmp) / "mixes.csv").read_text().splitlines()[1:]
    prefixes = ["1,plain+other,0.5,", '2,"plain+a,b",1.0,', '3,"a,b",2.0,', '4,"other+plain+a,b",inf,']
    assert [line[: len(prefix)] for line, prefix in zip(lines, prefixes)] == prefixes


@pytest.mark.parametrize("count", [0, 1, *(size + d for size in (_CHUNK, 2048) for d in (-1, 0, 1))])
def test_row_counts_around_one_chunk(count):
    rng = np.random.default_rng(count)
    names = ["w0", 'w"1', "w 2", "w,3", "w4"]
    mixes = [sorted(rng.choice(5, size=int(rng.integers(1, 4)), replace=False).tolist()) for _ in range(count)]
    metrics = rng.lognormal(size=(count, 19)) * 10.0 ** rng.integers(-6, 17, size=(count, 19))
    metrics[rng.random(size=metrics.shape) < 0.2] = np.nan
    ranked = ranked_mixes(names, mixes, np.sort(rng.random(count)), metrics)
    assert_same_bytes(mixes_file, oracles.csv_export_mixes, ranked)

    cells = [
        (f"s{i % 3}", f'w,"{i // 7}', f"m {i % 2}", CANONICAL_EVENTS[i % 5], float(v), bool(i % 4))
        for i, v in enumerate(rng.lognormal(size=count) * 1e9)
    ]
    runs = sorted({cell[:3] for cell in cells})
    store = Store.from_cells(
        cells, wallclock=dict.fromkeys(runs, 0.1 + 0.2), scores={run: 1e16 for run in runs[::2]}
    )
    assert store.cell_count == count
    assert_same_bytes(save_canonical, oracles.csv_save_canonical, store)
    assert_same_bytes(save_scores, oracles.csv_save_scores, store)


@pytest.mark.parametrize("chunk", [1, 3, _CHUNK, 2048])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    header=st.lists(TEXTS, min_size=2, max_size=4),
    # a row of one empty cell is the one row csv.writer quotes as a whole; benchlens writes none
    rows=st.lists(st.lists(TEXTS | METRIC_CELLS | DISTANCES, min_size=2, max_size=5), max_size=8),
)
def test_write_csv_of_quoted_text_and_repr_floats_is_csv_writer_bytes(chunk, header, rows):
    text = files.CsvText()

    def write(rows, path):
        lines = (",".join(text[c] if isinstance(c, str) else repr(c) for c in row) + "\n" for row in rows)
        with mock.patch.object(files, "CHUNK", chunk):
            files.commit([(path, partial(files.write_csv, header=header, lines=lines))])

    def referee(rows, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    assert_same_bytes(write, referee, rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(texts=st.lists(NAMES.filter(lambda text: "," not in text), max_size=6))
def test_unquoted_asks_csv_what_csv_text_asks_it_per_text(texts):
    assert files.unquoted(texts) == all(files.CsvText()[text] == text for text in texts)


POSITIONAL_EDGES = [
    float(side * edge)
    for base in (1e-4, 1e15, 1e16)
    for edge in (np.nextafter(base, 0.0), base, np.nextafter(base, np.inf))
    for side in (1.0, -1.0)
]
ROW_CELLS = (
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2, *POSITIONAL_EDGES]
    )
    | st.floats()
    | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)  # subnormals
    | st.integers(-(2**53), 2**53).map(float)
)


@pytest.mark.parametrize("chunk", [1, 3, _CHUNK, 2048])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(width=st.integers(0, 6), data=st.data())
def test_float_rows_are_the_repr_of_each_cell_joined(chunk, width, data):
    rows = data.draw(st.lists(st.lists(ROW_CELLS, min_size=width, max_size=width), max_size=8))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    with mock.patch.object(files, "CHUNK", chunk):
        assert list(files.float_rows(values)) == oracles.repr_rows(values)


def test_a_million_doubles_that_orjson_formats_are_formatted_as_repr():
    # every double in [1e-4, 1e16) is written by orjson, so a digit it changes in one fails here
    rng = np.random.default_rng(2018)
    low, high = np.array(files.POSITIONAL).view(np.int64).tolist()
    for block in range(16):
        if block % 2:  # any double of the range, uniform over bit patterns: mostly 16 or 17 digits
            values = rng.integers(low, high, size=(4096, 16)).view(np.float64)
        else:  # short decimals k / 10**p
            k = np.floor(10.0 ** rng.uniform(0.0, 16.0, size=(4096, 16)))
            values = k / 10.0 ** rng.integers(0, 5, size=k.shape)
        values = values * rng.choice([-1.0, 1.0], size=values.shape)
        assert list(files.float_rows(values)) == oracles.repr_rows(values)


@pytest.mark.parametrize("names", [["w0", "w1", "w2"], ["w0", "a,b", 'q"2']])
def test_mixes_are_written_by_the_per_row_repr_law(names):
    # a NaN and an infinite distance stay; NaN metrics are blanked; metrics on both sides of repr's exponent
    metrics = np.full((5, len(METRIC_NAMES)), 1.5)
    metrics[0, :3] = np.nan
    metrics[1, 3:6] = [5e-05, 1e16, 3.2e17]
    metrics[2, :] = np.nan
    metrics[3, 6:8] = [np.nextafter(1e-4, 0.0), 0.0001]
    ranked = ranked_mixes(names, [[0], [1], [0, 2], [2, 1, 0], [1, 2]], [0.5, float("nan"), float("inf"), 1e-05, 2.0],
                          metrics)
    assert_same_bytes(mixes_file, oracles.repr_export_mixes, ranked)
    assert_same_bytes(mixes_file, oracles.csv_export_mixes, ranked)
    blends = [
        (tuple(names[:2]), BlendProfile(MetricVector(ipc=5e-05, l1i_mpki=1e16), {}, {}, 2, 1.0, float("nan"))),
        ((names[2],), BlendProfile(MetricVector(ipc=1.5), {}, {}, 1, 1.0, float("inf"))),
        (tuple(names[::-1]), BlendProfile(MetricVector(), {}, {}, 3, 1.0, None)),
    ]
    assert_same_bytes(mixes_file, oracles.repr_export_mixes, blends)
    assert_same_bytes(mixes_file, oracles.csv_export_mixes, blends)



@pytest.mark.parametrize("names", [["w0", "w1", "w2"], ["w0", "a,b", "%d"]])
@pytest.mark.parametrize("at", [0, 2, 3, 5])
def test_a_row_written_by_repr_first_or_last_in_a_chunk(names, at):
    # chunks of 3 rows: the rare row is the first or the last of the first or the second chunk
    mixes = [[0], [1], [2], [0, 1], [1, 2], [0, 1, 2]]
    metrics = np.full((len(mixes), len(METRIC_NAMES)), 1.5)
    metrics[:, METRIC_NAMES.index("user_pct")] = 98.5
    metrics[:, 4] = np.nan
    for distance, value, small in [(np.nan, 2.5, 0.25), (np.inf, 2.5, 0.25), (0.5, 2.5, 1e-05), (0.5, np.inf, 0.25)]:
        distances = [0.5] * len(mixes)
        distances[at] = distance
        metrics[at, :2] = [value, small]
        inputs = [ranked_mixes(names, mixes, distances, metrics)]
        if value < np.inf:  # a MetricVector holds no infinity
            inputs.append([
                (tuple(names[j] for j in mix), BlendProfile(MetricVector.from_row(row), {}, {}, 1, 1.0, d))
                for mix, row, d in zip(mixes, metrics.tolist(), distances)
            ])
        with mock.patch.object(files, "CHUNK", 3):
            for rows in inputs:
                assert_same_bytes(mixes_file, oracles.csv_export_mixes, rows)
                assert_same_bytes(mixes_file, oracles.repr_export_mixes, rows)


@pytest.mark.parametrize("width", [0, 2])
def test_feature_and_pca_score_rows_are_written_like_csv_writer(width, tmp_path):
    labels = ["a", "b,c", 'q"']
    values = np.array([[1e-05, 0.5], [1e16, -0.0], [3.0, 2.5e-4]])[:, :width]
    cols = [("ipc", "M0"), ("l1i_mpki", "M0")][:width]
    write_file(tmp_path / "features.csv", export_csv, FeatureMatrix(tuple(labels), tuple(cols), values))
    write_file(tmp_path / "scores.csv", export_scores_csv, labels, values)
    for name, header in [
        ("features.csv", ["workload", *(f"{metric}:{machine}" for metric, machine in cols)]),
        ("scores.csv", ["workload", *(f"pc{i + 1}" for i in range(width))]),
    ]:
        rows = ([label, *map(repr, row)] for label, row in zip(labels, values.tolist()))
        oracles._csv_write_rows(tmp_path / f"csv_{name}", header, rows)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"csv_{name}").read_bytes()
