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
and the wallclock and score of each run. `Store.from_columns` is its one
constructor and does every check; `Store.from_cells` hands it the columns of
a cell list. Reading a store and parsing a raw dump build through it.

A store CSV is read `_READ_CHUNK` rows at a time, and each chunk is checked
column by column: six fields per row, a true/false `supported` token, a value
that `float` parses and that is finite and >= 0. Names are interned per
column. A chunk that fails any check (or holds a blank row) is replayed row
by row through `_parse_row`, so the first bad row in file order raises its
own error, as a row-by-row read would.

`merge_stores` joins two stores' arrays: it scatters both grids and masks
into the union of their runs and events, and names the first cell the new
store shares with the existing one, in the new store's cell order.

Raw platform event names are translated to the canonical vocabulary through a
per-machine counter map loaded from a YAML manifest, with libyaml's loader
when PyYAML has it.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from . import files
from .errors import DuplicateKey, SchemaMismatch
from .events import CANONICAL_EVENTS, METRIC_DEFS, METRIC_NAMES, event_vocabulary

UNSUPPORTED_TOKENS = ("<not supported>", "<not counted>")
# libyaml's safe loader when PyYAML was built with it: the same documents, about ten times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

STORE_HEADER = ["suite", "workload", "machine", "event", "value", "supported"]
SCORES_HEADER = ["suite", "workload", "machine", "score", "wallclock_seconds"]
_READ_CHUNK = 256  # rows per read check: a chunk's columns are checked at once, a bad chunk row by row

RunKey = tuple[str, str, str]  # (suite, workload, machine)
Cell = tuple[str, str, str, str, float, bool]  # (suite, workload, machine, event, value, supported)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _count(value: float) -> float:
    if not 0 <= value < math.inf:
        raise ValueError(f"counter value must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Store:
    """Counters of every run as read-only columns; build one with `from_columns` or `from_cells`.

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

    def __post_init__(self):
        for name in ("values", "supported", "wallclock", "scores"):
            _frozen(getattr(self, name))

    @classmethod
    def from_columns(
        cls,
        suites: Sequence[str],
        workloads: Sequence[str],
        machines: Sequence[str],
        events: Sequence[str],
        values: Sequence[float] | np.ndarray,
        supported: Sequence[bool] | np.ndarray,
        *,
        wallclock: Mapping[RunKey, float] | None = None,
        scores: Mapping[RunKey, float] | None = None,
    ) -> "Store":
        """Build a store from six equal-length cell columns, checking that
        (each check raises for its first offender):

        - every value is finite and >= 0 (ValueError, in cell order);
        - no (run, event) cell repeats (DuplicateKey, in cell order);
        - a run's wallclock is positive and finite, and its score, when
          present, finite and > 0 (ValueError, in run order).
        Wallclocks and scores of runs without cells are ignored.
        """
        values = np.asarray(values, dtype=float)
        bad = ~((values >= 0) & (values < np.inf))
        if bad.any():
            _count(float(values[np.argmax(bad)]))
        runs = tuple(sorted(set(zip(suites, workloads, machines))))
        vocabulary = event_vocabulary(events)
        run_index = {key: i for i, key in enumerate(runs)}
        event_index = {event: j for j, event in enumerate(vocabulary)}
        keys = zip(suites, workloads, machines)
        rows = np.fromiter(map(run_index.__getitem__, keys), dtype=np.intp, count=len(events))
        cols = np.fromiter(map(event_index.__getitem__, events), dtype=np.intp, count=len(events))
        flat = rows * len(vocabulary) + cols
        order = np.argsort(flat, kind="stable")
        repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
        if len(repeats):
            i = int(repeats.min())
            raise DuplicateKey(f"duplicate sample key {(suites[i], workloads[i], machines[i], events[i])}")
        grid = np.full((len(runs), len(vocabulary)), np.nan)
        grid[rows, cols] = values
        mask = np.zeros(grid.shape, dtype=bool)
        mask[rows, cols] = np.asarray(supported, dtype=bool)

        wallclock, scores = wallclock or {}, scores or {}
        for key in runs:
            if not 0 < wallclock.get(key, 1.0) < math.inf:
                raise ValueError("wallclock_seconds must be positive and finite")
            if key in scores and scores[key] <= 0:
                raise ValueError("score must be positive when present")
            if key in scores and not scores[key] < math.inf:
                raise ValueError(f"score must be finite when present, got {float(scores[key])!r}")
        clocks = np.array([wallclock.get(key, 1.0) for key in runs], dtype=float)
        marks = np.array([scores.get(key, math.nan) for key in runs], dtype=float)
        return cls(runs, vocabulary, grid, mask, clocks, marks)

    @classmethod
    def from_cells(
        cls,
        cells: Iterable[Cell],
        *,
        wallclock: Mapping[RunKey, float] | None = None,
        scores: Mapping[RunKey, float] | None = None,
    ) -> "Store":
        """`from_columns` of (suite, workload, machine, event, value, supported) cells."""
        columns = tuple(zip(*cells)) or ((),) * 6
        return cls.from_columns(*columns, wallclock=wallclock, scores=scores)

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

    def columns(self) -> tuple[list, ...]:
        """The cells as six columns (suite, workload, machine, event, value, supported).

        Cells are sorted by run and then by event name, the order of the store CSV.
        """
        order = sorted(range(len(self.events)), key=self.events.__getitem__)
        values = self.values[:, order]
        present = ~np.isnan(values)
        rows, cols = np.nonzero(present)
        keys = [self.runs[i] for i in rows.tolist()]
        return (
            [k[0] for k in keys],
            [k[1] for k in keys],
            [k[2] for k in keys],
            [self.events[order[j]] for j in cols.tolist()],
            values[present].tolist(),
            self.supported[:, order][present].tolist(),
        )

    def cells(self) -> Iterable[Cell]:
        """Every (run, event) cell, in the order of `columns`."""
        return zip(*self.columns())


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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=YAML_LOADER)
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


@dataclass(frozen=True)
class ParseResult:
    store: Store
    errors: tuple[MalformedLine | NonNumericValue, ...]


def parse_counter_file(
    path: str | Path,
    machine: str,
    cmap: CounterMap,
    *,
    suite: str,
    workload: str,
) -> ParseResult:
    """Parse a raw counter dump into a one-run store, collecting per-line errors.

    Bad lines never abort the parse: a wrong field count yields MalformedLine
    and an unparseable value field yields NonNumericValue, while all valid
    lines still reach the store. An event listed twice raises DuplicateKey.
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
                if not math.isfinite(value) or value < 0:
                    errors.append(NonNumericValue(line_no, line))
                    continue
                supported = True
            event = cmap.to_canonical(raw_event)
            if event == "dram_bytes" and cmap.dram_bytes_unit == "lines":
                value *= cmap.cacheline_bytes
            cells.append((suite, workload, machine, event, value, supported))
    return ParseResult(Store.from_cells(cells), tuple(errors))


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


def _checked_columns(rows: list[list[str]]) -> tuple | None:
    """The six columns of `rows`, or None when a row is blank or breaks a `_parse_row` rule."""
    if set(map(len, rows)) != {len(STORE_HEADER)}:
        return None
    suites, workloads, machines, events, values, supported = zip(*rows)
    flags = list(map(str.lower, supported))
    if not set(flags) <= {"true", "false"}:
        return None
    try:
        parsed = np.fromiter(map(float, values), dtype=float, count=len(values))
    except ValueError:
        return None
    if not ((parsed >= 0) & (parsed < np.inf)).all():
        return None
    names = (list(map(sys.intern, column)) for column in (suites, workloads, machines, events))
    return (*names, parsed, np.fromiter(map("true".__eq__, flags), dtype=bool, count=len(flags)))


def _replayed_columns(path: str | Path, first_row_no: int, rows: list[list[str]]) -> tuple:
    """`_checked_columns` through `_parse_row`, row by row: the first bad row raises, blank rows are skipped."""
    cells = [_parse_row(path, row_no, row) for row_no, row in enumerate(rows, start=first_row_no) if row]
    *names, values, supported = zip(*cells) if cells else ((),) * 6
    return (*names, np.array(values, dtype=float), np.array(supported, dtype=bool))


def _read_columns(path: str | Path) -> tuple:
    """The six cell columns of a store CSV, checked _READ_CHUNK rows at a time."""
    chunks = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != STORE_HEADER:
            raise SchemaMismatch(f"{path}: expected header {STORE_HEADER}, got {header}")
        row_no = 2
        while rows := list(islice(reader, _READ_CHUNK)):
            chunks.append(_checked_columns(rows) or _replayed_columns(path, row_no, rows))
            row_no += len(rows)
    return (
        *(list(chain.from_iterable(chunk[i] for chunk in chunks)) for i in range(4)),
        np.concatenate([np.empty(0), *(chunk[4] for chunk in chunks)]),
        np.concatenate([np.empty(0, dtype=bool), *(chunk[5] for chunk in chunks)]),
    )


def read_store(path: str | Path, scores_path: str | Path | None = None) -> Store:
    """Read the canonical store CSV, optionally joining a scores CSV.

    Runs without a scores row keep the default wallclock of 1.0 and no score.
    Rows are checked in file order, so the first bad row names the error.
    """
    suites, workloads, machines, events, values, supported = _read_columns(path)
    wallclock: dict[RunKey, float] = {}
    scores: dict[RunKey, float] = {}
    if scores_path is not None:
        run_keys = set(zip(suites, workloads, machines))
        with open(scores_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCORES_HEADER:
                raise SchemaMismatch(f"{scores_path}: expected header {SCORES_HEADER}, got {header}")
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(SCORES_HEADER):
                    raise SchemaMismatch(f"{scores_path}:{row_no}: expected {len(SCORES_HEADER)} columns")
                key = (row[0], row[1], row[2])
                if key not in run_keys:
                    raise SchemaMismatch(f"{scores_path}:{row_no}: score for unknown run {key}")
                if key in scores:
                    raise DuplicateKey(f"{scores_path}:{row_no}: duplicate score row for {key}")
                try:
                    scores[key] = float(row[3])
                    wallclock[key] = float(row[4])
                except ValueError as exc:
                    raise SchemaMismatch(f"{scores_path}:{row_no}: bad numeric field") from exc
    return Store.from_columns(
        suites, workloads, machines, events, values, supported, wallclock=wallclock, scores=scores
    )


def save_canonical(store: Store, path: str | Path) -> None:
    """Write the store CSV; float values use repr so reloading is lossless."""
    text = files.CsvText()
    files.write_csv(
        path,
        STORE_HEADER,
        (
            f"{text[s]},{text[w]},{text[m]},{text[e]},{v!r},{'true' if ok else 'false'}\n"
            for s, w, m, e, v, ok in store.cells()
        ),
    )


def save_scores(store: Store, path: str | Path) -> None:
    """Write the scores CSV: one row per run with a score."""
    text = files.CsvText()
    files.write_csv(
        path,
        SCORES_HEADER,
        (
            f"{text[s]},{text[w]},{text[m]},{score!r},{clock!r}\n"
            for (s, w, m), score, clock in zip(store.runs, store.scores.tolist(), store.wallclock.tolist())
            if score == score
        ),
    )


def merge_stores(existing: Store, new: Store) -> Store:
    """Union of the (run, event) cells of two stores; a cell in both raises DuplicateKey.

    The first such cell in the new store's cell order (by run, then by event
    name) is named. A run in both stores takes the new store's wallclock, and
    its score unless only the existing store has one. An unmapped event
    without cells in either store leaves the vocabulary.
    """
    runs = tuple(sorted(set(existing.runs).union(new.runs)))
    present = {
        event
        for store in (existing, new)
        for event, filled in zip(store.events, (~np.isnan(store.values)).any(axis=0).tolist())
        if filled
    }
    vocabulary = event_vocabulary(present)
    run_index = {key: i for i, key in enumerate(runs)}
    event_index = {event: j for j, event in enumerate(vocabulary)}
    grid = np.full((len(runs), len(vocabulary)), np.nan)
    mask = np.zeros(grid.shape, dtype=bool)
    clocks = np.ones(len(runs))
    marks = np.full(len(runs), np.nan)
    for store in (existing, new):
        kept = [j for j, event in enumerate(store.events) if event in event_index]
        names = [store.events[j] for j in kept]
        rows = np.fromiter(map(run_index.__getitem__, store.runs), dtype=np.intp, count=len(store.runs))
        block = np.ix_(rows, [event_index[event] for event in names])
        values, current = store.values[:, kept], grid[block]
        filled = ~np.isnan(values)
        taken = filled & ~np.isnan(current)
        if taken.any():  # only the new store can collide, as neither store repeats a cell
            by_name = sorted(range(len(names)), key=names.__getitem__)
            i, j = np.argwhere(taken[:, by_name])[0]
            raise DuplicateKey(f"duplicate sample key {(*store.runs[i], names[by_name[j]])}")
        grid[block] = np.where(filled, values, current)
        mask[block] = np.where(filled, store.supported[:, kept], mask[block])
        clocks[rows] = store.wallclock
        scored = ~np.isnan(store.scores)
        marks[rows[scored]] = store.scores[scored]
    return Store(runs, vocabulary, grid, mask, clocks, marks)


@dataclass(frozen=True)
class MachineValidation:
    machine: str
    computable: tuple[str, ...]
    blocked: Mapping[str, tuple[str, ...]]  # metric -> missing events


@dataclass(frozen=True)
class StoreValidation:
    per_machine: Mapping[str, MachineValidation]


def validate_store(store: Store) -> StoreValidation:
    """Report, per machine, which metrics are computable on every run there.

    A metric counts as computable on a machine only when each run on that
    machine carries both of its input events with supported values. The store
    itself is never modified.
    """
    report: dict[str, MachineValidation] = {}
    for machine in machines_in(store):
        rows = [i for i, (_, _, m) in enumerate(store.runs) if m == machine]
        common = {e for e, ok in zip(store.events, store.supported[rows].all(axis=0)) if ok}
        computable = []
        blocked: dict[str, tuple[str, ...]] = {}
        for metric in METRIC_NAMES:
            num, den, _ = METRIC_DEFS[metric]
            missing = tuple(e for e in (num, den) if e not in common)
            if missing:
                blocked[metric] = missing
            else:
                computable.append(metric)
        report[machine] = MachineValidation(machine=machine, computable=tuple(computable), blocked=blocked)
    return StoreValidation(per_machine=report)


def suites_in(store: Store) -> list[str]:
    return sorted({suite for suite, _, _ in store.runs})


def machines_in(store: Store) -> list[str]:
    return sorted({machine for _, _, machine in store.runs})


def workloads_in(store: Store, suite: str | None = None) -> list[str]:
    return sorted({w for s, w, _ in store.runs if suite is None or s == suite})
