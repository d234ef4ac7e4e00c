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

Raw platform event names are translated to the canonical vocabulary through a
per-machine counter map loaded from a YAML manifest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import yaml

from .errors import DuplicateKey, SchemaMismatch
from .events import CANONICAL_EVENTS, METRIC_DEFS, METRIC_NAMES

UNSUPPORTED_TOKENS = ("<not supported>", "<not counted>")

STORE_HEADER = ["suite", "workload", "machine", "event", "value", "supported"]
SCORES_HEADER = ["suite", "workload", "machine", "score", "wallclock_seconds"]


@dataclass(frozen=True)
class CounterSample:
    """One raw hardware event count for (suite, workload, machine, event)."""

    suite: str
    workload: str
    machine: str
    event: str
    value: float
    supported: bool = True

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"counter value must be finite and >= 0, got {self.value!r}")

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.suite, self.workload, self.machine, self.event)


@dataclass(frozen=True)
class RunRecord:
    """All samples of one benchmark run on one machine, plus its score."""

    suite: str
    workload: str
    machine: str
    samples: tuple[CounterSample, ...]
    wallclock_seconds: float = 1.0
    score: float | None = None

    def __post_init__(self):
        if self.wallclock_seconds <= 0 or not math.isfinite(self.wallclock_seconds):
            raise ValueError("wallclock_seconds must be positive and finite")
        if self.score is not None and self.score <= 0:
            raise ValueError("score must be positive when present")
        seen: set[str] = set()
        for s in self.samples:
            if (s.suite, s.workload, s.machine) != (self.suite, self.workload, self.machine):
                raise ValueError(f"sample {s.key} does not belong to run {self.key}")
            if s.event in seen:
                raise DuplicateKey(f"duplicate event {s.event!r} in run {self.key}")
            seen.add(s.event)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.suite, self.workload, self.machine)

    def event_values(self) -> dict[str, float]:
        """Values of the supported events only; unsupported ones never leak downstream."""
        return {s.event: s.value for s in self.samples if s.supported}


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
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "machines" not in doc:
        raise SchemaMismatch(f"{path}: counter map manifest must have a top-level 'machines' key")
    maps: dict[str, CounterMap] = {}
    for machine, entry in doc["machines"].items():
        entry = entry or {}
        events = entry.get("events", {})
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
        except ValueError as exc:
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
    samples: tuple[CounterSample, ...]
    errors: tuple[MalformedLine | NonNumericValue, ...]


def parse_counter_file(
    path: str | Path,
    machine: str,
    cmap: CounterMap,
    *,
    suite: str,
    workload: str,
) -> ParseResult:
    """Parse a raw counter dump into samples, collecting per-line errors.

    Bad lines never abort the parse: a wrong field count yields MalformedLine
    and an unparseable value field yields NonNumericValue, while all valid
    lines still come back as samples.
    """
    samples: list[CounterSample] = []
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
            samples.append(
                CounterSample(
                    suite=suite,
                    workload=workload,
                    machine=machine,
                    event=event,
                    value=value,
                    supported=supported,
                )
            )
    return ParseResult(tuple(samples), tuple(errors))


def build_records(
    samples: Iterable[CounterSample],
    *,
    wallclock: Mapping[tuple[str, str, str], float] | None = None,
    scores: Mapping[tuple[str, str, str], float] | None = None,
) -> list[RunRecord]:
    """Group samples into runs keyed by (suite, workload, machine)."""
    grouped: dict[tuple[str, str, str], list[CounterSample]] = {}
    seen: set[tuple[str, str, str, str]] = set()
    for s in samples:
        if s.key in seen:
            raise DuplicateKey(f"duplicate sample key {s.key}")
        seen.add(s.key)
        grouped.setdefault((s.suite, s.workload, s.machine), []).append(s)
    records = []
    for key in sorted(grouped):
        records.append(
            RunRecord(
                suite=key[0],
                workload=key[1],
                machine=key[2],
                samples=tuple(sorted(grouped[key], key=lambda s: s.event)),
                wallclock_seconds=(wallclock or {}).get(key, 1.0),
                score=(scores or {}).get(key),
            )
        )
    return records


def load_canonical(path: str | Path, scores_path: str | Path | None = None) -> list[RunRecord]:
    """Load the canonical store CSV, optionally joining a scores CSV.

    Runs without a scores row keep the default wallclock of 1.0 and no score.
    """
    samples: list[CounterSample] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != STORE_HEADER:
            raise SchemaMismatch(f"{path}: expected header {STORE_HEADER}, got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(STORE_HEADER):
                raise SchemaMismatch(f"{path}:{row_no}: expected {len(STORE_HEADER)} columns, got {len(row)}")
            suite, workload, machine, event, value, supported = row
            if supported.lower() not in ("true", "false"):
                raise SchemaMismatch(f"{path}:{row_no}: supported must be true/false, got {supported!r}")
            try:
                parsed = float(value)
            except ValueError as exc:
                raise SchemaMismatch(f"{path}:{row_no}: bad value field {value!r}") from exc
            samples.append(
                CounterSample(
                    suite=suite,
                    workload=workload,
                    machine=machine,
                    event=event,
                    value=parsed,
                    supported=supported.lower() == "true",
                )
            )
    wallclock: dict[tuple[str, str, str], float] = {}
    scores: dict[tuple[str, str, str], float] = {}
    if scores_path is not None:
        run_keys = {(s.suite, s.workload, s.machine) for s in samples}
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
    return build_records(samples, wallclock=wallclock, scores=scores)


def save_canonical(records: Iterable[RunRecord], path: str | Path) -> None:
    """Write the store CSV; float values use repr so reloading is lossless."""
    rows = []
    for rec in records:
        for s in rec.samples:
            rows.append((s.suite, s.workload, s.machine, s.event, repr(s.value), "true" if s.supported else "false"))
    rows.sort()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STORE_HEADER)
        writer.writerows(rows)


def save_scores(records: Iterable[RunRecord], path: str | Path) -> None:
    rows = []
    for rec in records:
        if rec.score is not None:
            rows.append((rec.suite, rec.workload, rec.machine, repr(rec.score), repr(rec.wallclock_seconds)))
    rows.sort()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        writer.writerows(rows)


def merge_records(existing: Iterable[RunRecord], new: Iterable[RunRecord]) -> list[RunRecord]:
    """Union of two stores; any repeated (suite, workload, machine, event) is an error."""
    samples: list[CounterSample] = []
    wallclock: dict[tuple[str, str, str], float] = {}
    scores: dict[tuple[str, str, str], float] = {}
    for rec in list(existing) + list(new):
        samples.extend(rec.samples)
        wallclock[rec.key] = rec.wallclock_seconds
        if rec.score is not None:
            scores[rec.key] = rec.score
    return build_records(samples, wallclock=wallclock, scores=scores)


@dataclass(frozen=True)
class MachineValidation:
    machine: str
    computable: tuple[str, ...]
    blocked: Mapping[str, tuple[str, ...]]  # metric -> missing events


@dataclass(frozen=True)
class StoreValidation:
    per_machine: Mapping[str, MachineValidation]


def validate_store(records: Iterable[RunRecord]) -> StoreValidation:
    """Report, per machine, which metrics are computable on every run there.

    A metric counts as computable on a machine only when each run on that
    machine carries both of its input events with supported values. The store
    itself is never modified.
    """
    by_machine: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_machine.setdefault(rec.machine, []).append(rec)
    report: dict[str, MachineValidation] = {}
    for machine in sorted(by_machine):
        event_sets = [set(rec.event_values()) for rec in by_machine[machine]]
        common = set.intersection(*event_sets) if event_sets else set()
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


def suites_in(records: Iterable[RunRecord]) -> list[str]:
    return sorted({rec.suite for rec in records})


def machines_in(records: Iterable[RunRecord]) -> list[str]:
    return sorted({rec.machine for rec in records})


def workloads_in(records: Iterable[RunRecord], suite: str | None = None) -> list[str]:
    return sorted({rec.workload for rec in records if suite is None or rec.suite == suite})


def records_for(
    records: Iterable[RunRecord],
    *,
    suite: str | None = None,
    machine: str | None = None,
) -> list[RunRecord]:
    out = [
        rec
        for rec in records
        if (suite is None or rec.suite == suite) and (machine is None or rec.machine == machine)
    ]
    return sorted(out, key=lambda r: r.key)
