"""Raw counter parsing and the canonical measurement store.

Two on-disk formats are handled here:

* Raw counter dumps, one comma-separated record per line in the field order
  ``value,unit,event,runtime,percentage`` with trailing fields ignored
  (the layout emitted by ``perf stat -x,``). The tokens ``<not supported>``
  and ``<not counted>`` in the value field mark an unsupported event, and
  lines starting with ``#`` are comments.
* The canonical store, a CSV with header
  ``suite,workload,machine,event,value,supported`` plus an optional scores
  CSV ``suite,workload,machine,score,wallclock_seconds``.

In memory a store is one read-only `Store` of columns: the sorted run keys
(suite, workload, machine), the event vocabulary, a runs x events array of
counter values (NaN where a run has no row for an event), a `supported` mask,
and the wallclock and score of each run. `Store.from_codes` is its one
constructor and does every check, on each cell's run and event index;
`Store.from_cells` turns a list of cells into those codes. Reading a store
and parsing a raw dump build through it. The wallclocks and scores of the
runs are checked by one array law (`_timed`), whether they come as mappings
(`from_codes`) or as a scores CSV that `read_store` joins row by row.

A store CSV is read one of two ways. One whose header is exactly
`STORE_HEADER` is read as bytes, in one pass: each read of `_READ_BYTES` is
cut at its last "\n", and each block is checked as it is read. It must be
plain -- UTF-8 without a '"', a CR or a NUL, so that csv would split it at
"," and "\n" alone (a block ends at a "\n", so no UTF-8 sequence straddles
two) -- and then, column by column with numpy on 8-byte words, hold five
commas per line, a `supported` that is one word equal to "true" or "false",
and a value. A value text that is "0.0" or [1-9][0-9]{0,14}".0" -- what
`save_canonical` writes for a whole number below 10**15 -- is parsed from its
digits, to the value `float` parses; any other one is gathered into a
fixed-width bytes array that `astype(float)` parses (as `float` parses it),
and it must be finite and >= 0. Runs are found where the words of the key
change from line to line, so only distinct names are decoded, and the runs
are then sorted as tuples. When every event name equals the one a run's
length earlier, only the first run's names are grouped. Any other file is
read whole by `csv.reader`, row by row through `_parse_row`, and so is one
whose header matches as soon as one of its blocks is not plain, fails a
check, holds a blank line or holds a line longer than `_LONG_LINE` or csv's
field size limit. So csv decides every error, on both routes: the first bad
row in file order raises with its row number, and csv's own errors raise
SchemaMismatch.

The store CSV is written run by run (`_lines`): each run's quoted key and
each event's quoted name are made once, and each present cell of the grid is
one joined line of key, event, `repr(value)` and flag, the bytes `csv.writer`
writes for the same cells (see `files`). A store file is canonical when it
holds exactly those bytes: its header line is exact, every block passes the
byte route's checks, its lines run in (run, event name) order, no name is one
csv would quote, every value text is `repr` of its value and the file ends in
"\n". A store read from a file keeps a private `_Source`: the path and the
file's (device, inode, size, mtime_ns). `save_canonical`, which formats every
run, refuses to write a store whose file changed after it was read
(`StoreChanged`), so a run that another writer added is never lost.

`merge_into` is the ingest step. A new run goes into a canonical file that
does not hold it by one streamed pass (`_splice`): each block is checked,
canonical checks included, and copied as it is into the new file, the run's
lines at their place in run order, so memory is bounded by one block, not by
the file. A file found not to be canonical, or holding the run, or a new
store of several runs, is merged from its cells by `from_codes`, the one law
of a repeated cell (`_merged`), and saved.

Raw platform event names are translated to the canonical vocabulary through a
per-machine counter map loaded from a YAML manifest, with libyaml's loader
when PyYAML has it (`yaml_loader`). PyYAML is imported when a command first
reads a YAML file, not when benchlens is imported.
"""

from __future__ import annotations

import csv
import gc
import math
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import files
from .errors import DuplicateKey, SchemaMismatch, StoreChanged
from .events import CANONICAL_EVENTS, METRIC_DEFS, event_vocabulary

UNSUPPORTED_TOKENS = ("<not supported>", "<not counted>")

STORE_HEADER = ["suite", "workload", "machine", "event", "value", "supported"]
SCORES_HEADER = ["suite", "workload", "machine", "score", "wallclock_seconds"]
_READ_BYTES = 1 << 18  # bytes per read of a store file; each read is cut at its last "\n" into a block of lines
_LONG_LINE = 256  # bytes; a file with a longer line is read by csv rather than gathered into wide fields
_HEADER_LINE = (",".join(STORE_HEADER) + "\n").encode()
_LOW = ((np.arange(8) < np.arange(9)[:, None]) * np.uint8(255)).view("<u8").ravel()  # row n: a word's first n bytes
_EACH = 0x0101010101010101  # times a byte: that byte in each of a word's eight
_TRUE, _FALSE = np.frombuffer(b"true\0\0\0\0false\0\0\0", dtype="<u8")

RunKey = tuple[str, str, str]  # (suite, workload, machine)
Cell = tuple[str, str, str, str, float, bool]  # (suite, workload, machine, event, value, supported)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Source:
    """The store file a store was read from, as it was then (see `read_store`)."""

    path: str
    stamp: tuple[int, int, int, int]  # the file's (device, inode, size, mtime_ns) when it was read


def _stamp(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _check_unchanged(source: _Source, st: os.stat_result) -> None:
    """Raise StoreChanged unless `st` is the stat of the file `source` was read from, as it was then."""
    if _stamp(st) != source.stamp:
        raise StoreChanged(f"{source.path}: the store changed after it was read; it was not replaced")


def _count(value: float) -> float:
    if not 0 <= value < math.inf:
        raise ValueError(f"counter value must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Store:
    """Counters of every run as read-only columns; build one with `from_codes` or `from_cells`.

    The events are the canonical vocabulary followed by any unmapped raw
    names, sorted. A cell with `supported` False keeps its stored value, but
    `counts()` (what metrics are derived from) shows it as NaN.
    """

    runs: tuple[RunKey, ...]  # sorted
    events: tuple[str, ...]
    values: np.ndarray     # runs x events; NaN where the run has no row for the event
    supported: np.ndarray  # runs x events; False where unsupported or absent
    wallclock: np.ndarray  # seconds per run; 1.0 without a scores row
    scores: np.ndarray     # running score per run; NaN without a scores row
    _source: _Source | None = field(default=None, repr=False)  # set by read_store and merge_into only

    def __post_init__(self):
        for name in ("values", "supported", "wallclock", "scores"):
            _frozen(getattr(self, name))

    @classmethod
    def from_codes(
        cls,
        runs: Sequence[RunKey],
        events: Sequence[str],
        rows: np.ndarray,
        cols: np.ndarray,
        values: Sequence[float] | np.ndarray,
        supported: Sequence[bool] | np.ndarray,
        *,
        wallclock: Mapping[RunKey, float] | None = None,
        scores: Mapping[RunKey, float] | None = None,
    ) -> "Store":
        """Build a store from its sorted runs, its event vocabulary and four
        equal-length cell columns: each cell's run (an index into `runs`),
        its event (an index into `events`), its value and its supported flag.
        Each check raises for its first offender:

        - every value is finite and >= 0 (ValueError, in cell order);
        - no (run, event) cell repeats (DuplicateKey, in cell order);
        - a run's wallclock is positive and finite, and its score, when
          present, finite and > 0 (ValueError, in run order).
        Wallclocks and scores of runs that are not in `runs` are ignored.
        """
        values = np.asarray(values, dtype=float)
        bad = ~((values >= 0) & (values < np.inf))
        if bad.any():
            _count(float(values[np.argmax(bad)]))
        runs, events = tuple(runs), tuple(events)
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        flat = rows * len(events) + cols
        if len(flat) and np.bincount(flat).max() > 1:  # a cell repeats: find the first repeat in cell order
            order = np.argsort(flat, kind="stable")
            i = int(order[1:][flat[order[1:]] == flat[order[:-1]]].min())
            raise DuplicateKey(f"duplicate sample key {(*runs[rows[i]], events[cols[i]])}")
        grid = np.full((len(runs), len(events)), np.nan)
        grid[rows, cols] = values
        mask = np.zeros(grid.shape, dtype=bool)
        mask[rows, cols] = np.asarray(supported, dtype=bool)

        store = cls(runs, events, grid, mask, np.ones(len(runs)), np.full(len(runs), math.nan))
        if not (wallclock or scores):
            return store
        wallclock, scores = wallclock or {}, scores or {}
        return _timed(
            store,
            np.array([wallclock.get(key, 1.0) for key in runs], dtype=float),
            np.array([scores.get(key, math.nan) for key in runs], dtype=float),
            np.array([key in scores for key in runs], dtype=bool),
        )

    @classmethod
    def from_cells(
        cls,
        cells: Iterable[Cell],
        *,
        wallclock: Mapping[RunKey, float] | None = None,
        scores: Mapping[RunKey, float] | None = None,
    ) -> "Store":
        """`from_codes` of (suite, workload, machine, event, value, supported) cells: the runs are the sorted
        distinct (suite, workload, machine) keys, the events their vocabulary."""
        return cls.from_codes(*_cell_codes(cells), wallclock=wallclock, scores=scores)

    def __len__(self) -> int:
        return len(self.runs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return (
            self.runs == other.runs
            and self.events == other.events
            and np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.supported, other.supported)
            and np.array_equal(self.wallclock, other.wallclock)
            and np.array_equal(self.scores, other.scores, equal_nan=True)
        )

    __hash__ = None

    @property
    def cell_count(self) -> int:
        """Number of (run, event) rows, supported or not."""
        return int(np.count_nonzero(~np.isnan(self.values)))

    def counts(self) -> np.ndarray:
        """Counter values with unsupported and absent cells as NaN."""
        return np.where(self.supported, self.values, np.nan)

    def column(self, event: str) -> np.ndarray:
        """One event's supported counts per run (NaN where unsupported or absent)."""
        j = self.events.index(event)
        return np.where(self.supported[:, j], self.values[:, j], np.nan)

    def select(self, *, suite: str | None = None, machines: Iterable[str] | None = None) -> "Store":
        """The runs of one suite and/or on the given machines, as a store."""
        machines = None if machines is None else set(machines)
        rows = [
            i
            for i, (s, _, m) in enumerate(self.runs)
            if (suite is None or s == suite) and (machines is None or m in machines)
        ]
        return Store(
            tuple(self.runs[i] for i in rows),
            self.events,
            self.values[rows],
            self.supported[rows],
            self.wallclock[rows],
            self.scores[rows],
        )


def _timed(store: Store, clocks: np.ndarray, marks: np.ndarray, scored: np.ndarray) -> Store:
    """`store` with the wallclock `clocks` and the scores `marks` of its runs, in run order, where `scored`
    marks the runs that have a score. The first run that breaks a rule raises ValueError: a wallclock that
    is not positive and finite, else a score that is not > 0, else one that is not finite (NaN included)."""
    timeless = ~((clocks > 0) & (clocks < math.inf))
    low, unbounded = scored & (marks <= 0), scored & ~(marks < math.inf)
    if (bad := timeless | low | unbounded).any():
        i = int(np.argmax(bad))
        if timeless[i]:
            raise ValueError("wallclock_seconds must be positive and finite")
        if low[i]:
            raise ValueError("score must be positive when present")
        raise ValueError(f"score must be finite when present, got {float(marks[i])!r}")
    return replace(store, wallclock=clocks, scores=marks)


@dataclass(frozen=True)
class CounterMap:
    """Per-machine translation from canonical event names to platform names."""

    machine: str
    mapping: Mapping[str, str] = field(default_factory=dict)
    cacheline_bytes: int = 64
    dram_bytes_unit: str = "bytes"  # "lines" when the platform counter is cacheline-granular

    def __post_init__(self):
        if self.cacheline_bytes <= 0:
            raise ValueError("cacheline_bytes must be positive")
        if self.dram_bytes_unit not in ("bytes", "lines"):
            raise ValueError(f"dram_bytes_unit must be 'bytes' or 'lines', got {self.dram_bytes_unit!r}")
        raw_names = list(self.mapping.values())
        if len(set(raw_names)) != len(raw_names):
            raise ValueError(f"counter map for {self.machine!r} is not injective")

    def to_canonical(self, raw_event: str) -> str:
        """Translate a platform event name; unknown names are kept verbatim."""
        for canonical, raw in self.mapping.items():
            if raw == raw_event:
                return canonical
        return raw_event


def identity_counter_map(machine: str) -> CounterMap:
    """Map every canonical event to itself (counters already canonical)."""
    return CounterMap(machine=machine, mapping={e: e for e in CANONICAL_EVENTS})


def yaml_loader() -> type:
    """libyaml's safe loader when PyYAML was built with it, else PyYAML's: the same documents, about ten
    times faster. Importing PyYAML here keeps it out of the commands that read no YAML."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_counter_maps(path: str | Path) -> dict[str, CounterMap]:
    """Load per-machine counter maps from a YAML manifest.

    Expected layout::

        machines:
          CPU-C:
            cacheline_bytes: 64
            dram_bytes_unit: lines
            events:
              instructions: instructions
              l1d_misses: L1-dcache-load-misses
    """
    import yaml

    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=yaml_loader())
        except yaml.YAMLError as exc:
            raise SchemaMismatch(f"{path}: counter map manifest is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "machines" not in doc:
        raise SchemaMismatch(f"{path}: counter map manifest must have a top-level 'machines' key")
    if not isinstance(doc["machines"], dict):
        raise SchemaMismatch(f"{path}: 'machines' must map each machine to its entry, got {doc['machines']!r}")
    maps: dict[str, CounterMap] = {}
    for machine, entry in doc["machines"].items():
        entry = entry or {}
        if not isinstance(entry, dict):
            raise SchemaMismatch(f"{path}: machine {machine!r}: entry must be a mapping, got {entry!r}")
        events = entry.get("events") or {}
        if not isinstance(events, dict):
            raise SchemaMismatch(f"{path}: machine {machine!r}: events must map canonical to raw names, got {events!r}")
        unknown = sorted(set(events) - set(CANONICAL_EVENTS))
        if unknown:
            raise SchemaMismatch(f"{path}: machine {machine!r} maps non-canonical events {unknown}")
        try:
            maps[machine] = CounterMap(
                machine=machine,
                mapping=dict(events),
                cacheline_bytes=int(entry.get("cacheline_bytes", 64)),
                dram_bytes_unit=str(entry.get("dram_bytes_unit", "bytes")),
            )
        except (TypeError, ValueError) as exc:
            raise SchemaMismatch(f"{path}: machine {machine!r}: {exc}") from exc
    return maps


@dataclass(frozen=True)
class MalformedLine:
    line_no: int
    line: str


@dataclass(frozen=True)
class NonNumericValue:
    line_no: int
    line: str


def parse_counter_file(
    path: str | Path,
    machine: str,
    cmap: CounterMap,
    *,
    suite: str,
    workload: str,
) -> tuple[Store, tuple[MalformedLine | NonNumericValue, ...]]:
    """Parse a raw counter dump into a one-run store and its bad lines, in file order.

    Bad lines never abort the parse: a wrong field count yields MalformedLine
    and a value field that does not parse, or whose count is negative or not
    finite (once a dram count in lines is scaled to bytes, too), yields
    NonNumericValue, while all valid lines still reach the store. An event
    listed twice raises DuplicateKey.
    """
    cells: list[Cell] = []
    errors: list[MalformedLine | NonNumericValue] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) < 3 or not fields[2].strip():
                errors.append(MalformedLine(line_no, line))
                continue
            value_field = fields[0].strip()
            raw_event = fields[2].strip()
            if value_field in UNSUPPORTED_TOKENS:
                value, supported = 0.0, False
            else:
                try:
                    value = float(value_field)
                except ValueError:
                    errors.append(NonNumericValue(line_no, line))
                    continue
                supported = True
            event = cmap.to_canonical(raw_event)
            if event == "dram_bytes" and cmap.dram_bytes_unit == "lines":
                value *= cmap.cacheline_bytes
            if not math.isfinite(value) or value < 0:  # as read, or once scaled to bytes
                errors.append(NonNumericValue(line_no, line))
                continue
            cells.append((suite, workload, machine, event, value, supported))
    return Store.from_cells(cells), tuple(errors)


def _csv_rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV after its header, which must be `header`, each with its row number; blank rows are
    skipped, and csv's own errors, such as a field over its size limit, raise SchemaMismatch."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        row_no = 0  # the last row read
        try:
            if (first := next(reader, None)) != header:
                raise SchemaMismatch(f"{path}: expected header {header}, got {first}")
            row_no = 1
            for row_no, row in enumerate(reader, start=2):
                if row:
                    yield row_no, row
        except csv.Error as exc:
            raise SchemaMismatch(f"{path}:{row_no + 1}: {exc}") from exc


def _parse_row(path: str | Path, row_no: int, row: list[str]) -> Cell:
    """One data row of a store CSV as a cell; names are interned, so that runs share one string each."""
    if len(row) != len(STORE_HEADER):
        raise SchemaMismatch(f"{path}:{row_no}: expected {len(STORE_HEADER)} columns, got {len(row)}")
    suite, workload, machine, event, value, supported = row
    flag = supported.lower()
    if flag not in ("true", "false"):
        raise SchemaMismatch(f"{path}:{row_no}: supported must be true/false, got {supported!r}")
    try:
        parsed = float(value)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}:{row_no}: bad value field {value!r}") from exc
    return (*map(sys.intern, (suite, workload, machine, event)), _count(parsed), flag == "true")


def _factorized(items: Iterable) -> tuple[list, np.ndarray]:
    """The distinct `items` in order of first appearance, and the index of each item among them."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(item, len(index)) for item in items), dtype=np.intp)
    return list(index), codes


def _cell_codes(cells: Iterable[Cell]) -> tuple:
    """The first six arguments of `Store.from_codes` for (suite, workload, machine, event, value, supported) cells."""
    suites, workloads, machines, events, values, supported = tuple(zip(*cells)) or ((),) * 6
    return (*_codes(*_factorized(zip(suites, workloads, machines)), *_factorized(events)), values, supported)


def _codes(keys: list[RunKey], key_codes: np.ndarray, names: list[str], name_codes: np.ndarray) -> tuple:
    """The runs, events, rows and cols of `Store.from_codes` from distinct run keys and event names, in any
    order, and each cell's index among them. Runs sort as tuples, not as text: ("a",) < ("a+b",) but "a," > "a+b,"."""
    rank = _ranks(keys)
    vocabulary = event_vocabulary(names)
    position = {event: j for j, event in enumerate(vocabulary)}
    cols = np.array([position[name] for name in names], dtype=np.intp)
    return tuple(sorted(keys)), vocabulary, rank[key_codes], cols[name_codes]


def _ranks(items: list) -> np.ndarray:
    """The index of each of the distinct `items` among them sorted."""
    rank = np.empty(len(items), dtype=np.intp)
    rank[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    return rank


def _line_blocks(fh) -> Iterator[bytes]:
    """The rest of `fh` in blocks of whole lines: each read of _READ_BYTES is cut at its last "\\n", and what
    follows it starts the next block. Every line ends in "\\n": a last line without one gets it."""
    rest = []  # the pieces of a line that no read has ended yet, joined once it ends
    while piece := fh.read(_READ_BYTES):
        cut = piece.rfind(b"\n") + 1
        if cut:
            block = b"".join([*rest, memoryview(piece)[:cut]])
            rest = [piece[cut:]]
            del piece  # not held while the block is used
            yield block
        else:
            rest.append(piece)
    if last := b"".join(rest):
        yield last + b"\n"


def _field(padded: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The bytes of `padded` from each start to its stop, as one fixed-width `S` array.

    The width is whole 8-byte words, so that the bytes past each stop are
    cleared one word at a time. `padded` must hold that width past its last start.
    """
    lengths = stops - starts
    width = -(-int(lengths.max()) // 8) * 8 or 8
    windows = np.ndarray(len(padded) - width + 1, dtype=f"S{width}", buffer=padded, strides=(1,))  # one per byte
    cells = windows[starts]
    kept = (np.arange(width) < np.arange(width + 1)[:, None]).astype(np.uint8) * np.uint8(255)  # row n: n bytes
    words = cells.view(np.uint64).reshape(len(cells), -1)
    words &= np.take(kept.view(np.uint64), lengths, axis=0)
    return cells


def _grouped(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct items of `cells`, an `S` array of whole 8-byte words, and each item's index among them.

    Exact like `np.unique(cells, return_inverse=True)`, but the items are
    sorted by their words rather than as text, several times faster, so the
    distinct items come in no meaningful order.
    """
    words = cells.view(np.uint64).reshape(len(cells), -1)
    order = np.lexsort(words.T)
    ordered = words[order]
    heads = np.concatenate([[True], (ordered[1:] != ordered[:-1]).any(axis=1)])
    codes = np.empty(len(cells), dtype=np.intp)
    codes[order] = np.cumsum(heads) - 1
    return cells[order[heads]], codes


def _whole_numbers(padded: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple:
    """Which value texts, bytes [start, stop) of `padded`, are "0.0" or [1-9][0-9]{0,14}".0" -- `repr` of a
    whole number below 10**15, which float64 holds exactly -- and each one's value (meaningless for the rest).

    Each is read from the two 8-byte words that end at its "." (`padded` must
    hold 16 bytes before the first text): the bytes before the text read as
    "0", all sixteen are tested for ASCII digits at once and each word's eight
    digits are combined with three multiplies (Lemire, "Number parsing at a
    gigabyte per second", 2021).
    """
    dots = stops - 2
    digits = dots - starts
    whole = (padded[stops - 1] == 48) & (padded[dots] == 46) & (1 <= digits) & (digits <= 15)  # "0", "."
    whole &= (padded[starts] != 48) | (digits == 1)  # no leading "0" but that of "0.0"
    pairs = np.ndarray(len(padded) - 15, dtype="V16", buffer=padded, strides=(1,))[dots - 16].view("<u8")
    number, mask = np.zeros(len(starts), dtype=np.uint64), 0x000000FF000000FF
    for low in (0, 1):  # the word of the high eight digits, then that of the low eight
        # each byte of the text, "0" to "9", as 0 to 9; each byte before the text as 0
        word = (pairs[low::2] ^ 0x30 * _EACH) & ~_LOW[8 - np.clip(digits - 8 + 8 * low, 0, 8)]
        whole &= ((word | (word + 0x76 * _EACH)) & 0x80 * _EACH) == 0  # each byte below 10
        word = word * 10 + (word >> 8)  # each pair of digits in its even byte
        word = ((word & mask) * (100 + (1_000_000 << 32)) + ((word >> 16) & mask) * (1 + (10_000 << 32))) >> 32
        number = number * 100_000_000 + word
    return whole, number.astype(np.float64)


def _checked_block(text: bytes) -> tuple | None:
    """The cells of a block of whole lines as (each line's "\\n" offset, run keys, each cell's key index, event
    names, each cell's name index, values, supported, whether every value text is `repr` of its value), or None
    when the block is not text csv splits at "," and "\\n" alone (it holds a '"', a CR or a NUL, or is not
    UTF-8) or a line is blank, longer than _LONG_LINE or csv's field size limit, or breaks a `_parse_row` rule."""
    if b'"' in text or b"\r" in text or b"\0" in text:
        return None
    try:
        text.decode()  # a block ends at a "\n", so no UTF-8 sequence straddles two
    except UnicodeDecodeError:
        return None
    raw = np.frombuffer(text, dtype=np.uint8)
    newlines = np.flatnonzero(raw == 10)
    starts = np.concatenate([[0], newlines[:-1] + 1])
    longest = int((newlines - starts).max())
    if longest > min(_LONG_LINE, csv.field_size_limit()):
        return None
    # 16 bytes before the block, for the words before a short first value; a field's width after its end
    padded = np.concatenate([np.zeros(16, dtype=np.uint8), raw, np.zeros(longest + 8, dtype=np.uint8)])
    starts, ends = starts + 16, newlines + 16
    commas = np.flatnonzero(padded == 44)
    if len(commas) != 5 * len(ends):
        return None
    commas = commas.reshape(-1, 5)
    if not ((commas[:, 0] >= starts) & (commas[:, 4] < ends)).all():
        return None
    lengths = ends - commas[:, 4] - 1
    if lengths.max() > 8:
        return None
    words = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))  # the word at each byte
    flags = words[commas[:, 4] + 1] & _LOW[lengths]  # each flag as one word, the bytes past it cleared
    supported = flags == _TRUE
    if not (supported | (flags == _FALSE)).all():
        return None
    whole, values = _whole_numbers(padded, commas[:, 3] + 1, commas[:, 4])
    exact = True
    if len(rest := np.flatnonzero(~whole)):  # any other text: parsed as `float` parses it, then checked
        firsts, stops = commas[rest, 3] + 1, commas[rest, 4]
        try:
            values[rest] = parsed = _field(padded, firsts, stops).astype(np.float64)  # float()'s or a ValueError
        except ValueError:
            return None
        if not ((parsed >= 0) & (parsed < np.inf)).all():
            return None
        texts = zip(firsts.tolist(), stops.tolist())
        exact = all(repr(value).encode() == padded[a:b].tobytes() for value, (a, b) in zip(parsed.tolist(), texts))
    keys = _field(padded, starts, commas[:, 2])
    names = _field(padded, commas[:, 2] + 1, commas[:, 3])
    changed = np.zeros(len(keys) - 1, dtype=bool)
    for column in keys.view(np.uint64).reshape(len(keys), -1).T:
        changed |= column[1:] != column[:-1]
    heads = np.flatnonzero(np.concatenate([[True], changed]))  # rows come grouped by run
    unique_keys, head_codes = _grouped(keys[heads])
    # the names of a block of runs that each hold the same events repeat with the period of a whole run
    period = int(np.diff(heads[:3]).max()) if len(heads) > 1 else len(names)
    name_words = names.view(np.uint64).reshape(len(names), -1)
    periodic = period < len(names) and np.array_equal(name_words[period:], name_words[:-period])
    unique_names, name_codes = _grouped(names[:period] if periodic else names)
    name_codes = np.resize(name_codes, len(names))  # a period's codes, repeated
    # each key holds two of the commas; names are interned, so that runs share one string each
    parts = list(map(sys.intern, b",".join(unique_keys.tolist()).decode().split(",")))
    return (
        newlines,
        list(zip(parts[0::3], parts[1::3], parts[2::3])),
        np.repeat(head_codes, np.diff(np.append(heads, len(keys)))),
        [name.decode() for name in unique_names.tolist()],
        name_codes,
        values,
        supported,
        exact,
    )


def _plain_cells(fh) -> tuple | None:
    """The first six arguments of `Store.from_codes` for a store read from `fh` after its header, or None when
    a block fails a `_checked_block` check."""
    run_ids: dict[RunKey, int] = {}  # every run key so far -> its index, in order of first appearance
    event_ids: dict[str, int] = {}
    blocks = []
    for text in _line_blocks(fh):
        if (checked := _checked_block(text)) is None:
            return None
        _, keys, key_codes, names, name_codes, values, supported, _ = checked
        runs = np.array([run_ids.setdefault(key, len(run_ids)) for key in keys], dtype=np.intp)[key_codes]
        events = np.array([event_ids.setdefault(name, len(event_ids)) for name in names], dtype=np.intp)
        blocks.append((runs, events[name_codes], values, supported))
    rows, cols, values, supported = (
        np.concatenate([np.empty(0, dtype=dtype), *(block[i] for block in blocks)])
        for i, dtype in enumerate((np.intp, np.intp, float, bool))
    )
    del blocks  # joined: free them before the checks, which would otherwise raise the peak of every read
    return (*_codes(list(run_ids), rows, list(event_ids), cols), values, supported)


def _read_cells(path: str | Path) -> tuple:
    """The first six arguments of `Store.from_codes` for a store CSV, by bytes when its header is
    `STORE_HEADER` and every block passes its checks, else through csv; and the file's `_Source`."""
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        # a header without its newline ends the file
        header = fh.read(len(_HEADER_LINE))
        if header in (_HEADER_LINE, _HEADER_LINE[:-1]) and (read := _plain_cells(fh)) is not None:
            return (*read, _Source(os.fspath(path), stamp))
    collecting = gc.isenabled()
    gc.disable()  # the route keeps a tuple per cell until the end; collections would rescan them and find no cycle
    try:
        cells = _cell_codes(_parse_row(path, row_no, row) for row_no, row in _csv_rows(path, STORE_HEADER))
        return (*cells, _Source(os.fspath(path), stamp))
    finally:
        if collecting:
            gc.enable()


def read_store(path: str | Path, scores_path: str | Path | None = None) -> Store:
    """Read the canonical store CSV, optionally joining a scores CSV.

    Runs without a scores row keep the default wallclock of 1.0 and no score.
    Rows are checked in file order, so the first bad row names the error.
    The store keeps the file's stamp (see `save_canonical`).
    """
    runs, events, rows, cols, values, supported, source = _read_cells(path)
    times = None if scores_path is None else _joined_scores(scores_path, runs)
    store = Store.from_codes(runs, events, rows, cols, values, supported)
    return replace(store if times is None else _timed(store, *times), _source=source)


def _joined_scores(path: str | Path, runs: Sequence[RunKey]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_timed`'s wallclocks, scores and scored runs from the scores CSV at `path`, joined row by row: a run
    without a row keeps a wallclock of 1.0 and no score.

    The first bad row in file order raises, and each row breaks its rules in
    this order: a width other than the header's, a run not in `runs`, a run
    that an earlier row scored, then a score or wallclock that `float` does
    not parse. csv's own errors raise at the row where csv meets them.
    """
    index = {key: i for i, key in enumerate(runs)}
    clocks, marks, scored = np.ones(len(runs)), np.full(len(runs), math.nan), np.zeros(len(runs), dtype=bool)
    for row_no, row in _csv_rows(path, SCORES_HEADER):
        if len(row) != len(SCORES_HEADER):
            raise SchemaMismatch(f"{path}:{row_no}: expected {len(SCORES_HEADER)} columns")
        key = (row[0], row[1], row[2])
        if (i := index.get(key)) is None:
            raise SchemaMismatch(f"{path}:{row_no}: score for unknown run {key}")
        if scored[i]:
            raise DuplicateKey(f"{path}:{row_no}: duplicate score row for {key}")
        try:
            marks[i], clocks[i] = float(row[3]), float(row[4])
        except ValueError as exc:
            raise SchemaMismatch(f"{path}:{row_no}: bad numeric field") from exc
        scored[i] = True
    return clocks, marks, scored


def _lines(store: Store) -> Iterator[str]:
    """The store CSV lines of `store`, run by run: each run's quoted key and each event's quoted name are made
    once, and every present cell of the grid is one joined line, in event name order; float values are
    `repr`'s bytes (formatted by `files.float_rows`), so reloading is lossless."""
    text = files.CsvText()
    order = sorted(range(len(store.events)), key=store.events.__getitem__)
    events = [f"{text[store.events[j]]}," for j in order]
    flags = (",false\n", ",true\n")
    return (
        f"{prefix}{event}{value}{flags[ok]}"
        for prefix, row, oks in zip(
            (f"{text[s]},{text[w]},{text[m]}," for s, w, m in store.runs),
            files.float_rows(store.values[:, order]),
            store.supported[:, order].tolist(),
        )
        for event, value, ok in zip(events, row.split(","), oks)
        if value != "nan"
    )


def save_canonical(store: Store, path: str | Path) -> None:
    """Write the store CSV, every run formatted by `_lines`.

    A store read from a file (see `read_store` and `merge_into`) is written
    only while that file has the device, inode, size and mtime it had when it
    was read, checked before and after the store is written; else nothing is
    replaced and StoreChanged names the file.
    """
    source = store._source

    def write(fh: TextIO) -> None:
        if source is not None:
            _check_unchanged(source, os.stat(source.path))
        files.write_csv(fh, STORE_HEADER, _lines(store))
        if source is not None:  # checked again just before the replace: a writer need not have taken the lock
            _check_unchanged(source, os.stat(source.path))

    files.commit([(path, write)])


def save_scores(store: Store, path: str | Path) -> None:
    """Write the scores CSV: one row per run with a score."""
    text = files.CsvText()
    lines = (
        f"{text[s]},{text[w]},{text[m]},{row}\n"
        for (s, w, m), row in zip(store.runs, files.float_rows(np.stack([store.scores, store.wallclock], 1)))
        if not row.startswith("nan,")
    )
    files.commit([(path, lambda fh: files.write_csv(fh, SCORES_HEADER, lines))])


def _merged(runs: tuple, events: tuple, rows: np.ndarray, cols: np.ndarray, values, supported, new: Store) -> Store:
    """`Store.from_codes` of a store file's cells (`_read_cells`), then `new`'s present cells in (run, event
    name) order: a repeat within the file is named first, then the first cell of `new` that the file holds."""
    by_name = np.array(sorted(range(len(new.events)), key=new.events.__getitem__), dtype=np.intp)
    new_rows, at = np.nonzero(~np.isnan(new.values[:, by_name]))
    new_cols = by_name[at]
    keys = list(dict.fromkeys(runs + new.runs))  # the file's runs keep their indices, and its events theirs
    names = list(dict.fromkeys(events + new.events))
    key_at, name_at = {key: i for i, key in enumerate(keys)}, {name: j for j, name in enumerate(names)}
    new_keys = np.array([key_at[key] for key in new.runs], dtype=np.intp)
    new_names = np.array([name_at[name] for name in new.events], dtype=np.intp)
    return Store.from_codes(
        *_codes(keys, np.concatenate([rows, new_keys[new_rows]]), names, np.concatenate([cols, new_names[new_cols]])),
        np.concatenate([values, new.values[new_rows, new_cols]]),
        np.concatenate([supported, new.supported[new_rows, new_cols]]),
    )


class _Unspliced(Exception):
    """Raised by `_splice` for a store file it does not copy: one that is not canonical or holds the new run."""


def _splice(fh, size: int, new: Store, out) -> None:
    """Copy the store file of `size` bytes open in `fh` to the binary file `out` a block at a time, with the lines
    of `new`, one run, before the first run that sorts after it (as tuples: ("a",) < ("a+b",) but "a," > "a+b,").
    Raise _Unspliced, part of the copy written, when the file holds the run or is not canonical: its header is
    not `_HEADER_LINE`, a block fails `_checked_block` or holds a value text other than `repr`'s or a name csv
    would quote, its lines leave (run, event name) order, or it does not end in "\\n" at `size` bytes."""
    (run,), lines = new.runs, "".join(_lines(new)).encode()
    if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
        raise _Unspliced
    out.write(_HEADER_LINE)
    read, last = len(_HEADER_LINE), ()  # bytes read; the (run, event name) of the last line read
    for text in _line_blocks(fh):
        if (checked := _checked_block(text)) is None or not checked[-1]:
            raise _Unspliced
        ends, keys, key_codes, names, name_codes = checked[:5]
        if run in keys or not files.unquoted(list({*names, *chain.from_iterable(keys)})):
            raise _Unspliced
        order = _ranks(keys)[key_codes] * len(names) + _ranks(names)[name_codes]
        if (keys[key_codes[0]], names[name_codes[0]]) <= last or (np.diff(order) <= 0).any():
            raise _Unspliced
        last = keys[key_codes[-1]], names[name_codes[-1]]
        if lines and last[0] > run:  # the new run goes before the first line of a run after it
            at = int(np.argmax(np.array([key > run for key in keys])[key_codes]))
            cut = int(ends[at - 1]) + 1 if at else 0
            out.writelines([memoryview(text)[:cut], lines, memoryview(text)[cut:]])
            lines = b""
        else:
            out.write(text)
        read += len(text)
    if read != size:
        raise _Unspliced
    out.write(lines)


def merge_into(path: str | Path, new: Store) -> None:
    """Write the cells of the store file at `path` and of `new` to that file,
    or raise the first error of reading it, of a repeated (run, event) cell
    (`_merged`) or of the save. A missing file is written as `new`.

    A new run is spliced in by one streamed read, memory bounded by one block
    (`_splice`); a file that `_splice` refuses, or a `new` of several runs, is
    read (`_read_cells`), merged and saved. Either way the file is replaced
    only while it has the stamp it had when it was first opened (StoreChanged).
    """
    if not Path(path).exists():
        save_canonical(new, path)
        return
    source = None
    if len(new.runs) == 1:
        with open(path, "rb") as fh:
            source = _Source(os.fspath(path), _stamp(os.fstat(fh.fileno())))
            began = []  # whether the splice began: a failure before it, such as of the temporary file, is the merge's

            def write(out: TextIO) -> None:
                began.append(True)
                _splice(fh, source.stamp[2], new, out.buffer)
                _check_unchanged(source, os.stat(source.path))  # as in save_canonical

            try:
                files.commit([(path, write)])
                return
            except _Unspliced:
                pass
            except OSError:
                if began:
                    raise
    *cells, read = _read_cells(path)
    save_canonical(replace(_merged(*cells, new), _source=source or read), path)


def validate_store(store: Store) -> dict[str, dict[str, tuple[str, ...]]]:
    """{machine: {metric: missing events}} for each machine in sorted order,
    its metrics in METRIC_NAMES order; `()` marks a computable metric.

    A metric counts as computable on a machine only when each run on that
    machine carries both of its input events with supported values. The store
    itself is never modified.
    """
    report: dict[str, dict[str, tuple[str, ...]]] = {}
    for machine in machines_in(store):
        rows = [i for i, (_, _, m) in enumerate(store.runs) if m == machine]
        common = {e for e, ok in zip(store.events, store.supported[rows].all(axis=0)) if ok}
        report[machine] = {
            metric: tuple(e for e in (num, den) if e not in common) for metric, (num, den, _) in METRIC_DEFS.items()
        }
    return report


def suites_in(store: Store) -> list[str]:
    return sorted({suite for suite, _, _ in store.runs})


def machines_in(store: Store) -> list[str]:
    return sorted({machine for _, _, machine in store.runs})


def workloads_in(store: Store, suite: str | None = None) -> list[str]:
    return sorted({w for s, w, _ in store.runs if suite is None or s == suite})
