"""Property tests: the columnar store against the per-row store it replaced, and the scores join by columns
against the row loop it replaced."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from benchlens import dataset  # noqa: E402
from benchlens.dataset import (  # noqa: E402
    SCORES_HEADER, STORE_HEADER, Store, merge_into, read_store, save_canonical, save_scores,
)
from benchlens.errors import DuplicateKey  # noqa: E402
from benchlens.events import CANONICAL_EVENTS  # noqa: E402
from conftest import spliced  # noqa: E402

NAMES = st.sampled_from(["a", "b", "c,d", 'q"uote', "zz"])
EVENTS = st.sampled_from(CANONICAL_EVENTS[:6] + ("raw.event", "Z-unmapped"))
VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 5e-324, 1.7976931348623157e308]) | st.floats(
    0.0, 1e300, allow_nan=False
)
POSITIVE = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def stores(draw, max_cells: int = 30, names=NAMES):
    """A store of unique (run, event) cells, some runs with a score and a wallclock."""
    keyed = draw(
        st.dictionaries(
            st.tuples(names, names, names, EVENTS), st.tuples(VALUES, st.booleans()), max_size=max_cells
        )
    )
    cells = [(*key, value, flag) for key, (value, flag) in keyed.items()]
    runs = sorted({cell[:3] for cell in cells})
    scored = [run for run in runs if draw(st.booleans())]
    return Store.from_cells(
        cells,
        wallclock={run: draw(POSITIVE) for run in scored},
        scores={run: draw(POSITIVE) for run in scored},
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(store=stores())
def test_write_read_write_is_byte_identical_and_matches_the_oracle(store):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_canonical(store, tmp / "store.csv")
        save_scores(store, tmp / "scores.csv")
        loaded = read_store(tmp / "store.csv", tmp / "scores.csv")
        assert loaded == store
        oracles.assert_same_runs(loaded, oracles.load_canonical(tmp / "store.csv", tmp / "scores.csv"))
        save_canonical(loaded, tmp / "again.csv")
        save_scores(loaded, tmp / "again_scores.csv")
        assert (tmp / "again.csv").read_bytes() == (tmp / "store.csv").read_bytes()
        assert (tmp / "again_scores.csv").read_bytes() == (tmp / "scores.csv").read_bytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(existing=stores(), new=stores(max_cells=8))
def test_merge_matches_the_oracle(existing, new):
    """`merge_into` of `new` into a file of `existing`; the file holds no wallclocks or scores."""
    existing, new = oracles.untimed(existing), oracles.untimed(new)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.csv"
        save_canonical(existing, path)
        try:
            expected = oracles.merge_records(oracles.records_of(existing), oracles.records_of(new))
        except DuplicateKey as exc:
            with pytest.raises(DuplicateKey) as raised:
                merge_into(path, new)
            assert str(raised.value) == str(exc)
        else:
            merge_into(path, new)
            merged = read_store(path)
            oracles.assert_same_runs(merged, expected)
            assert merged == oracles.cell_merge_stores(existing, new)  # vocabularies equal too
        if len(existing):
            with pytest.raises(DuplicateKey):
                merge_into(path, existing)


GOOD_ROW = st.builds(
    lambda suite, run, event, value, flag: f"{suite},w{run},m,{event},{value},{flag}",
    st.sampled_from(["s", '"c,d"']),
    st.integers(0, 3),
    EVENTS,
    st.sampled_from(["1.0", "0", "-0.0", "5e-324", "1e308", " 2.5", "1_0"]),
    st.sampled_from(["true", "false", "TRUE", "False"]),
)
BAD_ROW = st.sampled_from(
    [
        "",
        "s,w0,m,cycles,1.0",
        "s,w0,m,cycles,1.0,true,extra",
        "s,w0,m,cycles,1.0,yes",
        "s,w0,m,cycles,12x,true",
        "s,w0,m,cycles,,true",
        "s,w0,m,cycles,-1.0,true",
        "s,w0,m,cycles,-inf,false",
        "s,w0,m,cycles,inf,true",
        "s,w0,m,cycles,nan,true",
        '"unclosed,w0,m,cycles,1.0,true',
    ]
)


def raised_or_none(fn):
    try:
        return fn(), None
    except Exception as exc:  # the test compares whatever either side raises
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("read_bytes", [1, 3, 64])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(GOOD_ROW | BAD_ROW, max_size=12))
def test_chunked_read_of_any_rows_matches_the_per_row_oracle(read_bytes, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.csv"
        path.write_text("\n".join([",".join(STORE_HEADER), *rows]) + "\n", encoding="utf-8")
        expected, expected_error = raised_or_none(lambda: oracles.load_canonical(path))
        with mock.patch.object(dataset, "_READ_BYTES", read_bytes):
            got, error = raised_or_none(lambda: read_store(path))
    assert error == expected_error
    if expected is not None:
        oracles.assert_same_runs(got, expected)


NUMBER_TEXTS = st.sampled_from(["1.0", "2.5e3", " 7 ", "1_0", "0", "-0.0", "-1.5", "inf", "nan", "1e999", "abc", ""])


@st.composite
def damaged_scores(draw, runs):
    """Scores CSV lines for `runs`: rows that score a run, mostly well, and rows that break a rule: an unknown
    run, a run scored twice, a width other than five, a number `float` does not take or a check refuses, a
    blank line, a field longer than csv's field size limit, or a bad header."""
    known = st.sampled_from(runs) if runs else st.nothing()
    run = known | st.tuples(NAMES, NAMES, NAMES)
    good = st.builds(lambda key, score, clock: [*key, repr(score), repr(clock)], known, POSITIVE, POSITIVE)
    refused = st.sampled_from(["0", "-1.5", "inf", "nan"])  # numbers `float` takes and the checks refuse
    row = good | st.builds(lambda key, score, clock: [*key, score, clock], run, NUMBER_TEXTS, NUMBER_TEXTS)
    row |= st.builds(lambda key, score, clock: [*key, score, clock], known, refused, refused)
    narrow_or_wide = st.builds(lambda cells, width: [*cells, "1.0"][:width], row, st.sampled_from([1, 4, 6]))
    long_field = st.builds(lambda cells: [*cells[:3], "9" * 131_073, cells[4]], row)
    rows = draw(st.lists(good | good | row | narrow_or_wide | st.just([]) | long_field, max_size=10))
    header = draw(st.sampled_from([SCORES_HEADER] * 9 + [SCORES_HEADER[:4]]))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), store=stores(max_cells=12))
def test_column_join_of_damaged_scores_matches_the_row_loop(data, store):
    text = data.draw(damaged_scores(list(store.runs)))
    with tempfile.TemporaryDirectory() as tmp:
        save_canonical(store, Path(tmp) / "store.csv")
        (Path(tmp) / "scores.csv").write_text(text, encoding="utf-8")
        expected, expected_error = raised_or_none(
            lambda: oracles.loop_scored_store(Path(tmp) / "store.csv", Path(tmp) / "scores.csv")
        )
        got, error = raised_or_none(lambda: read_store(Path(tmp) / "store.csv", Path(tmp) / "scores.csv"))
    hypothesis.event("raised" if error else "joined")
    assert error == expected_error
    assert got == expected


PLAIN_NAMES = st.sampled_from(["s", "a", "a+b", "ünï", "名前", " sp ", ""])


def plain_rows(values, flags):
    return st.builds(
        lambda suite, run, event, value, flag: f"{suite},w{run},m,{event},{value},{flag}",
        PLAIN_NAMES, st.integers(0, 7), EVENTS | PLAIN_NAMES, values, flags,
    )


# rows that parse, among them values that float() and numpy read alike and "１", which only float() reads
PLAIN_GOOD_ROW = plain_rows(
    st.sampled_from(["1.0", "0", "-0.0", "5e-324", "1e308", "0.30000000000000004", " 2.5", "1_0", "１"]),
    st.sampled_from(["true", "false"]),
)
PLAIN_BAD_ROW = plain_rows(
    st.sampled_from(["1.0", "nan", "12x", "-1.0", "inf", "", "1__0"]),
    st.sampled_from(["true", "TRUE", "False", "yes", ""]),
) | st.sampled_from(["", " ", "s,w0,m,cycles,1.0", "s,w0,m,cycles,1.0,true,extra", "s,w0,m,cycles,1.0,true,", ",,,,,"])


@pytest.mark.parametrize("read_bytes", [1, 3, 64])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(PLAIN_GOOD_ROW, max_size=12),
    bad=st.lists(st.tuples(st.integers(0, 12), PLAIN_BAD_ROW), max_size=2),
    grouped=st.booleans(),
    newline=st.booleans(),
)
def test_byte_read_of_unquoted_rows_matches_the_per_row_oracle(read_bytes, rows, bad, grouped, newline):
    if grouped:  # the order of a saved store: the rows of a run together
        rows = sorted(rows, key=lambda row: row.split(",")[:3])
    for at, row in bad:
        rows.insert(at, row)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.csv"
        path.write_text("\n".join([",".join(STORE_HEADER), *rows]) + "\n" * newline, encoding="utf-8")
        expected, expected_error = raised_or_none(lambda: oracles.load_canonical(path))
        # good rows that numpy reads too pass every block's checks; any other row sends the file through csv
        by_bytes = not bad and not any("１" in row for row in rows)
        csv_route = mock.patch.object(dataset, "_csv_rows", side_effect=AssertionError("a plain store went through csv"))
        with mock.patch.object(dataset, "_READ_BYTES", read_bytes), csv_route if by_bytes else nullcontext():
            got, error = raised_or_none(lambda: read_store(path))
    assert error == expected_error
    if expected is not None:
        oracles.assert_same_runs(got, expected)


def _first_line(edit):
    """A mutation: `edit` of the first line's (suite and the rest of its key and event, value, flag)."""

    def mutate(lines):
        head, value, flag = lines[0].rsplit(",", 2)
        return [",".join(edit(*head.split(",", 1), value, flag)), *lines[1:]]

    return mutate


def _events_swapped(lines):
    """The first two lines of one run swapped (event names hold no ",")."""
    runs = [line.rsplit(",", 3)[0] for line in lines]
    at = next((i for i in range(len(lines) - 1) if runs[i] == runs[i + 1]), None)
    return lines if at is None else [*lines[:at], lines[at + 1], lines[at], *lines[at + 2 :]]


# hand edits that leave a saved store readable, each making its bytes differ from what save_canonical writes
MUTATIONS = {
    "none": lambda lines: lines,
    **{
        f"value {text!r}": _first_line(lambda suite, rest, value, flag, text=text: (suite, rest, text, flag))
        for text in ("1e3", "01.0", "7.50", " 7.0", "2e0", "70. ")
    },
    "flag TRUE": _first_line(lambda suite, rest, value, flag: (suite, rest, value, flag.upper())),
    "suite quoted": _first_line(
        lambda suite, rest, value, flag: (suite if suite.startswith('"') else f'"{suite}"', rest, value, flag)
    ),
    "two events swapped": _events_swapped,
    "first row last": lambda lines: [*lines[1:], lines[0]],  # its run split in two, or runs out of order
    "no final newline": lambda lines: lines,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    store=stores(names=st.sampled_from(["a", "ünï", ""])) | stores(),
    read_bytes=st.sampled_from([1, 16]),
    into_existing=st.booleans(),
    event=EVENTS,
)
def test_read_merge_save_writes_the_bytes_of_the_oracle(mutation, store, read_bytes, into_existing, event):
    """The ingest chain on a saved or hand-edited store file: a new run, or one more event of the first run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, expected = Path(tmp) / "store.csv", Path(tmp) / "expected.csv"
        save_canonical(store, path)
        saved = path.read_bytes()
        header, *lines = saved.decode().split("\n")[:-1]
        lines = MUTATIONS[mutation](lines) if lines else lines
        path.write_bytes("\n".join([header, *lines]).encode() + b"\n" * (mutation != "no final newline"))
        canonical = path.read_bytes() == saved and b'"' not in saved
        # small reads: runs span blocks, and copies cut multi-byte names
        with mock.patch.object(dataset, "_READ_BYTES", read_bytes):
            existing = read_store(path)
            assert (spliced(path) is not None) == canonical
            cells = {cell[:4] for cell in oracles.cells(existing)}
            run = existing.runs[0] if into_existing and existing.runs else ("new", "run", "M9")
            run = ("new", "run", "M9") if (*run, event) in cells else run
            new = Store.from_cells([(*run, event, 7.0, True)])
            merged = oracles.cell_merge_stores(existing, new)
            with mock.patch.object(dataset, "_merged", wraps=dataset._merged) as merge:
                merge_into(path, new)
            assert (not merge.called) == (canonical and run not in existing.runs)  # spliced
        oracles.csv_save_canonical(merged, expected)
        assert path.read_bytes() == expected.read_bytes()


# names whose order as tuples differs from that of their bytes: ("a",) < ("a+b",), but "a," > "a+b,"
SPLICE_NAMES = st.sampled_from(["a", "a+b", "ab", "ünï", "名前", ""])


@st.composite
def one_run_stores(draw, runs):
    """A store of one run, one of `runs` or a new one, with a few events."""
    run = draw((st.sampled_from(runs) if runs else st.nothing()) | st.tuples(SPLICE_NAMES, SPLICE_NAMES, SPLICE_NAMES))
    events = draw(st.dictionaries(EVENTS, st.tuples(VALUES, st.booleans()), min_size=1, max_size=4))
    return Store.from_cells([(*run, event, value, flag) for event, (value, flag) in events.items()])


@pytest.mark.parametrize("read_bytes", [7, 1 << 18])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    store=stores(names=SPLICE_NAMES),
    damage=st.none() | st.tuples(st.integers(0, 1 << 16), st.sampled_from([None, *b'0,".\n\r\x00x-e\xff'])),
)
def test_merge_into_writes_the_bytes_of_read_merge_save_or_raises_its_error(read_bytes, data, store, damage):
    """On a saved store file, or one with one byte changed or removed, `merge_into` writes what reading,
    merging and saving write, or raises their first error, which is the read's when it fails, and keeps the
    file's bytes."""
    new = data.draw(one_run_stores(list(store.runs)))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dataset, "_READ_BYTES", read_bytes):
        path = Path(tmp) / "store.csv"
        save_canonical(store, path)
        if damage is not None:
            saved, (at, byte) = path.read_bytes(), damage
            at %= len(saved)
            path.write_bytes(saved[:at] + (b"" if byte is None else bytes([byte])) + saved[at + 1:])
        before = path.read_bytes()
        _, read_error = raised_or_none(lambda: read_store(path))
        _, expected_error = raised_or_none(
            lambda: save_canonical(oracles.cell_merge_stores(read_store(path), new), path)
        )
        expected = path.read_bytes()
        path.write_bytes(before)
        with mock.patch.object(dataset, "_merged", wraps=dataset._merged) as merge:
            _, error = raised_or_none(lambda: merge_into(path, new))
        hypothesis.event(f"raised {error[0].__name__}" if error else "merged" if merge.called else "spliced")
        assert error == expected_error
        if read_error is not None:  # a damaged store: ingest refuses it as the read does
            assert error == read_error
        assert path.read_bytes() == (before if error else expected)
        assert os.listdir(tmp) == ["store.csv"]


# a saved store made not canonical in its last lines, or a new run that it holds in its last lines: the splice
# refuses the file only after it has copied most of it
LATE = {
    "last_runs_out_of_order": (lambda lines: [*lines[:-8], *lines[-4:], *lines[-8:-4]], ("s0", "a", "m"), "loads"),
    "last_value_not_repr": (lambda lines: [*lines[:-1], lines[-1].replace(".0,", ".00,")], ("s0", "a", "m"), "loads"),
    "new_run_held": (lambda lines: lines, ("s2", "w29", "m"), "zz.raw"),
    "new_cell_held": (lambda lines: lines, ("s2", "w29", "m"), CANONICAL_EVENTS[0]),
}


@pytest.mark.parametrize("case", sorted(LATE))
def test_a_store_refused_late_is_merged_as_read_merge_save_merges_it(case, tmp_path):
    path, expected = tmp_path / "store.csv", tmp_path / "expected.csv"
    save_canonical(Store.from_cells(
        (f"s{i % 3}", f"w{i:02d}", "m", event, float(i), True) for i in range(30) for event in CANONICAL_EVENTS[:4]
    ), path)
    edit, run, event = LATE[case]
    header, *lines = path.read_text().split("\n")[:-1]
    path.write_text("\n".join([header, *edit(lines)]) + "\n")
    new = Store.from_cells([(*run, event, 7.0, True)])
    splice, copied = dataset._splice, []  # the bytes each splice copied before it was refused

    def splicing(fh, size, new, out):
        try:
            splice(fh, size, new, out)
        finally:
            copied.append(out.tell())

    with mock.patch.object(dataset, "_READ_BYTES", 64):
        expected.write_bytes(path.read_bytes())
        _, expected_error = raised_or_none(
            lambda: save_canonical(oracles.cell_merge_stores(read_store(expected), new), expected)
        )
        with mock.patch.object(dataset, "_splice", splicing):
            _, error = raised_or_none(lambda: merge_into(path, new))
    assert error == expected_error
    assert path.read_bytes() == expected.read_bytes()
    assert len(copied) == 1 and copied[0] > path.stat().st_size * 3 // 4
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "store.csv"]


@pytest.mark.parametrize(
    "runs, spliced",
    [
        ([("a", "w0", "m")], False),  # a run the store holds: merged, one more event
        ([("", "w", "m")], True),  # sorts first
        ([("名前", "w", "m")], True),  # sorts last
        ([("a", "zz", "m")], True),  # after ("a", "w1", "m") and before ("a+b", ...), though "a,zz" > "a+b,"
        ([("a", "zz", "m"), ("a+b", "w2", "m"), ("ab", "w", "m")], False),  # several new runs: merged
    ],
    ids=["held", "first", "last", "tuple_order", "several_runs"],
)
def test_merge_into_splices_a_new_run_at_its_place_in_tuple_order(runs, spliced, tmp_path):
    path, expected = tmp_path / "store.csv", tmp_path / "expected.csv"
    save_canonical(Store.from_cells(
        (suite, f"w{i}", "m", event, float(i), True) for suite in ("a", "a+b", "ab") for i in range(2)
        for event in ("cycles", "instructions")
    ), path)
    new = Store.from_cells([(*run, "loads", 7.5 + i, False) for i, run in enumerate(runs)])
    oracles.csv_save_canonical(oracles.cell_merge_stores(read_store(path), new), expected)
    with mock.patch.object(dataset, "_merged", wraps=dataset._merged) as merge:
        merge_into(path, new)
    assert (not merge.called) == spliced
    assert path.read_bytes() == expected.read_bytes()


# value texts at the edges of the whole-number law, "0.0" or [1-9][0-9]{0,14}".0", which a block parses from its
# digits: texts one byte off it, among them "/" and ":", the bytes around the digits, "٣.0", which only float reads,
# and whole numbers of 1 to 17 digits
EDGE_TEXTS = st.sampled_from(
    ["0.0", "00.0", "-0.0", "+1.0", "1_0.0", " 1.0", "1.00", "1.", "0.5", "1/0.0", "1:0.0", "٣.0", "9007199254740993.0"]
) | st.integers(0, 16).flatmap(lambda digits: st.integers(10**digits, 10 ** (digits + 1) - 1)).map(lambda n: f"{n}.0")


@pytest.mark.parametrize("read_bytes", [1, 7, 64])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(texts=st.lists(EDGE_TEXTS, min_size=1, max_size=12), events=st.integers(1, 3))
def test_value_texts_at_the_edges_of_the_whole_number_law_read_as_float_reads_them(read_bytes, texts, events):
    names = sorted(CANONICAL_EVENTS[:events])
    lines = [f"s,w{i // events:02d},m,{names[i % events]},{text},true" for i, text in enumerate(texts)]
    header = ",".join(STORE_HEADER)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.csv"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        expected, expected_error = raised_or_none(lambda: oracles.load_canonical(path))
        by_bytes = not any(char in text for text in texts for char in "٣/:")
        csv_route = mock.patch.object(dataset, "_csv_rows", side_effect=AssertionError("a plain store went through csv"))
        with mock.patch.object(dataset, "_READ_BYTES", read_bytes), csv_route if by_bytes else nullcontext():
            got, error = raised_or_none(lambda: read_store(path))
            # a new run before the first run, and one after each run
            places = [("s", "w", "m"), *(("s", f"w{r:02d}+", "m") for r in range(-(-len(lines) // events)))]
            copies = None if error else [spliced(path, run) for run in places]
    assert error == expected_error
    if expected is None:
        return
    oracles.assert_same_runs(got, expected)
    canonical = all(repr(float(text)) == text for text in texts)
    hypothesis.event("canonical" if canonical else "not canonical")
    if canonical:  # the bytes save_canonical writes: each new run's line goes in at its place
        body = [f"{line}\n".encode() for line in [header, *lines]]
        assert copies == [
            b"".join([*body[: 1 + events * i], f"{','.join(run)},cycles,1.0,true\n".encode(), *body[1 + events * i :]])
            for i, run in enumerate(places)
        ]
    else:
        assert copies == [None] * len(places)
