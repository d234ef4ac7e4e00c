"""Command-line pipeline driver.

Commands map one-to-one onto the pipeline stages (ingest, derive, featurize,
pca, cluster, subset, compare, proxy) plus `report`, which composes the
stages over one loaded store: each command builds one `Run`, which reads the
store into one `dataset.Store` and derives, normalizes, fits and clusters at
most once. Every stage reads the store's columns; none copies the counters
per run.
Every knob lives in a YAML config file and is overridable by a flag of the
same name. Each command returns its summary line and its artifacts, each a
file name and the writer that formats it; `main` keeps those whose suffix is
in `--format` and writes them through one `files.commit`, so a command that
fails leaves `out/` as it was. Outputs are deterministic: rerunning a
command on unchanged inputs rewrites byte-identical files. `ingest` holds an
exclusive lock on the store's directory while it reads, merges and replaces
the store, so concurrent ingests into one store keep every run.

Exit codes: 0 success, 1 usage/config, 2 data error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import cluster as cluster_mod
from . import compare as compare_mod
from . import dataset, features, files, metrics, pca, proxy, render, subset
from .errors import BenchlensError, BudgetExceeded, ConfigError, EmptyInput, SchemaMismatch
from .events import METRIC_NAMES

DEFAULT_OUT_ENV = "BENCHLENS_OUT"
FORMATS = ("csv", "md", "svg")
COMMANDS = ("ingest", "derive", "featurize", "pca", "cluster", "subset", "compare", "proxy", "report")
BY_SUITE = ("derive", "featurize", "pca")  # the commands that `--suite` restricts to the suite's runs


# the field types PipelineConfig checks, by annotation: the Python types a value may have, its name in messages
_KINDS = {"str": (str, "a string"), "int": (int, "an integer"), "float": ((int, float), "a number")}


def _is(value, kind: str) -> bool:
    """Whether `value` is of config type `kind`; a bool is no number."""
    return isinstance(value, _KINDS[kind][0]) and not isinstance(value, bool)


@dataclass(frozen=True)
class PipelineConfig:
    store: str | None = None
    scores: str | None = None
    countermap: str | None = None
    raw: str | None = None
    out: str = ""
    format: tuple[str, ...] = FORMATS
    machine: str | None = None
    suite: str | None = None
    workload: str | None = None
    suite_a: str | None = None
    suite_b: str | None = None
    linkage: str = "ward"
    pcs: int | None = None
    variance: float | None = None
    threshold: float | None = None
    groups: int | None = None
    subset_k: int | None = None
    mix_k: int = 2
    mix: str | None = None
    target: str | None = None
    weights: dict[str, float] | None = None
    budget: int = 2_000_000

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if kind in _KINDS and not (_is(value, kind) or value is None and kind != f.type):
                raise ConfigError(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
        if self.weights is not None and not (
            isinstance(self.weights, dict) and all(_is(k, "str") and _is(v, "float") for k, v in self.weights.items())
        ):
            raise ConfigError(f"weights must map metric names to numbers, got {self.weights!r}")
        unknown = sorted(set(self.weights or ()) - set(METRIC_NAMES))
        if unknown:
            raise ConfigError(f"weights must name metrics, got unknown keys {unknown}")
        if self.pcs is not None and self.variance is not None:
            raise ConfigError("pcs and variance are mutually exclusive")
        if self.threshold is not None and self.groups is not None:
            raise ConfigError("threshold and groups are mutually exclusive")
        if self.budget < 0:
            raise ConfigError(f"budget must be >= 0, got {self.budget}")
        for name in ("mix_k", "groups", "subset_k", "pcs"):
            if (value := getattr(self, name)) is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.threshold is not None and not self.threshold >= 0:  # NaN too
            raise ConfigError(f"threshold must be >= 0, got {self.threshold!r}")
        if self.variance is not None and not 0 < self.variance <= 1:
            raise ConfigError(f"variance must be in (0, 1], got {self.variance!r}")
        if self.linkage not in cluster_mod.LINKAGES:
            raise ConfigError(f"linkage must be one of {cluster_mod.LINKAGES}")
        unknown = [f for f in self.format if f not in FORMATS]
        if unknown:
            raise ConfigError(f"unknown output formats: {unknown}")


def load_config(path: str | None, overrides: dict) -> PipelineConfig:
    values: dict = {}
    if path:
        import yaml  # only a command with a config file reads YAML

        with open(path, encoding="utf-8") as fh:
            try:
                doc = yaml.load(fh, Loader=dataset.yaml_loader()) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: config is not valid YAML: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a key/value mapping")
        known = {f.name for f in fields(PipelineConfig)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {unknown}")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if isinstance(values.get("format"), str):
        values["format"] = tuple(values["format"].split(","))
    elif isinstance(values.get("format"), list):
        values["format"] = tuple(values["format"])
    if not values.get("out"):
        values["out"] = os.environ.get(DEFAULT_OUT_ENV, "out")
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


class Run:
    """One command's view of the store: each stage's input is computed at most once.

    `store` holds every run; `selected` only the runs on the chosen machines,
    and of the chosen suite when `by_suite`, which is all that derive, PCA and
    clustering see. A `--machine`, `--suite`, `--suite-a` or `--suite-b` the
    store does not hold is a ConfigError.
    """

    def __init__(self, cfg: PipelineConfig, by_suite: bool = False):
        self.cfg = cfg
        self.by_suite = by_suite
        self.out = Path(cfg.out)

    @cached_property
    def store(self) -> dataset.Store:
        if not self.cfg.store:
            raise ConfigError("a store path is required (--store)")
        store = dataset.read_store(self.cfg.store, self.cfg.scores)
        if not store.runs:
            raise EmptyInput(f"{self.cfg.store}: the store holds no runs")
        return store

    def _held(self, flag: str, value: str | None, held: list[str]) -> list[str]:
        """[value] if the store holds it, all of `held` without one."""
        if value and value not in held:
            raise ConfigError(f"--{flag} {value!r} is not in the store, which holds {held}")
        return [value] if value else held

    @cached_property
    def machines(self) -> list[str]:
        return self._held("machine", self.cfg.machine, dataset.machines_in(self.store))

    @cached_property
    def suites(self) -> list[str]:
        return self._held("suite", self.cfg.suite, dataset.suites_in(self.store))

    @cached_property
    def machine(self) -> str:
        if self.cfg.machine or len(self.machines) == 1:
            return self.machines[0]
        raise ConfigError(f"--machine is required; store has {self.machines}")

    @cached_property
    def pairs(self) -> list[tuple[str, str]]:
        """The suites to compare: --suite-a and --suite-b when both are given, else every <p>_rate, <p>_speed."""
        held = dataset.suites_in(self.store)
        suite_a = self._held("suite-a", self.cfg.suite_a, held)
        suite_b = self._held("suite-b", self.cfg.suite_b, held)
        if self.cfg.suite_a and self.cfg.suite_b:
            return [(suite_a[0], suite_b[0])]
        return [(rate, speed) for _, rate, speed in _rate_speed_pairs(self.store)]

    @cached_property
    def selected(self) -> dataset.Store:
        machines, _ = self.machines, self.suites  # every stage reads these runs: an unknown --suite fails here
        return self.store.select(machines=machines, suite=self.cfg.suite if self.by_suite else None)

    @cached_property
    def metrics(self) -> metrics.Metrics:
        return metrics.derive_store(self.selected)

    @cached_property
    def matrix(self) -> features.FeatureMatrix:
        return features.build_matrix(self.metrics, dataset.workloads_in(self.selected), self.machines)

    @cached_property
    def normalized(self) -> features.FeatureMatrix:
        return features.normalize(self.matrix)

    @cached_property
    def model(self) -> pca.PcaModel:
        if self.cfg.variance is not None:
            return pca.fit_pca(self.normalized, variance_target=self.cfg.variance)
        model = pca.fit_pca(self.normalized, fixed_k=8 if self.cfg.pcs is None else self.cfg.pcs)
        if self.cfg.pcs is not None and model.k < self.cfg.pcs:  # the default of 8 is capped quietly
            print(f"warning: --pcs {self.cfg.pcs} is above the {model.k} components PCA can give; using {model.k}",
                  file=sys.stderr)
        return model

    @cached_property
    def scores(self) -> dict[str, np.ndarray]:
        return dict(zip(self.matrix.rows, pca.project(self.model, self.normalized)))

    @cached_property
    def dendrograms(self) -> dict[str, cluster_mod.Dendrogram]:
        """Per-suite dendrogram over the suite's workloads that have PCA scores.

        Suites with fewer than two such workloads have none.
        """
        built = {}
        for suite_name in self.suites:
            workloads = [w for w in dataset.workloads_in(self.store, suite_name) if w in self.scores]
            if len(workloads) >= 2:
                rows = [self.scores[w] for w in workloads]
                built[suite_name] = cluster_mod.build_dendrogram(rows, workloads, self.cfg.linkage)
        return built

    @cached_property
    def running(self) -> dict[str, subset.ScoreTable]:
        """The running scores of each suite that has a dendrogram, on the chosen machines."""
        return {name: _suite_scores(self.store, name, self.machines, self.cfg.scores) for name in self.dendrograms}


def _suite_scores(store: dataset.Store, suite: str, machines: list[str], scores_path: str | None) -> subset.ScoreTable:
    """A run without a score is a SchemaMismatch naming the scores CSV, or a ConfigError when none was passed."""
    table: dict[str, dict[str, float]] = {}
    runs = store.select(suite=suite, machines=machines)
    for key, score in zip(runs.runs, runs.scores.tolist()):
        if score != score:
            if scores_path:
                raise SchemaMismatch(f"{scores_path}: no score row for run {key}")
            raise ConfigError(f"run {key} has no running score; pass a scores CSV with --scores")
        table.setdefault(key[2], {})[key[1]] = score
    if not table:
        raise ConfigError(f"no scored runs for suite {suite!r} on machines {machines}")
    return table


def _suite_wallclock(store: dataset.Store, suite: str, machines: list[str]) -> dict[str, float]:
    clocks: dict[str, float] = {}
    runs = store.select(suite=suite, machines=machines)
    for (_, workload, _), seconds in zip(runs.runs, runs.wallclock.tolist()):
        clocks[workload] = clocks.get(workload, 0.0) + seconds
    return clocks


Artifacts = list[tuple[str, files.Writer]]  # each file a command writes: its name in out/ and its writer


def _text(render_text: Callable[..., str], *args) -> files.Writer:
    """A writer of the text `render_text(*args)`, which it formats when it writes."""
    return lambda fh: fh.write(render_text(*args))


def cmd_ingest(run: Run) -> tuple[str, Artifacts]:
    cfg = run.cfg
    if not (cfg.raw and cfg.suite and cfg.workload and cfg.machine and cfg.store):
        raise ConfigError("ingest needs --raw, --suite, --workload, --machine and --store")
    if cfg.countermap:
        maps = dataset.load_counter_maps(cfg.countermap)
        if cfg.machine not in maps:
            raise ConfigError(f"counter map manifest has no machine {cfg.machine!r}")
        cmap = maps[cfg.machine]
    else:
        cmap = dataset.identity_counter_map(cfg.machine)
    parsed, bad_lines = dataset.parse_counter_file(cfg.raw, cfg.machine, cmap, suite=cfg.suite, workload=cfg.workload)
    for err in bad_lines:
        print(f"warning: {type(err).__name__} at line {err.line_no}: {err.line}", file=sys.stderr)
    if not parsed.runs:  # refused before the store's directory is made or locked: nothing is written
        raise EmptyInput(f"{cfg.raw}: the dump holds no samples")
    directory = Path(cfg.store).resolve().parent  # where the store is replaced
    directory.mkdir(parents=True, exist_ok=True)
    lock = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one ingest at a time reads, merges and replaces a store there
        dataset.merge_into(cfg.store, parsed)
    finally:
        os.close(lock)  # and so unlock
    samples = f"{parsed.cell_count} samples ({len(bad_lines)} bad lines)"
    return f"ingest: {samples} from {cfg.raw} -> {cfg.store}", []


def cmd_derive(run: Run) -> tuple[str, Artifacts]:
    derived, validation = run.metrics, dataset.validate_store(run.selected)
    text = files.CsvText()
    availability = (
        f"{text[machine]},{metric},{'blocked,' + ' '.join(missing) if missing else 'computable,'}\n"
        for machine, entry in validation.items()
        for metric, missing in sorted(entry.items(), key=lambda item: bool(item[1]))  # computable rows first
    )
    return f"derive: {len(derived.runs)} metric rows -> {run.out}", [
        ("metrics.csv", partial(metrics.export_metrics_csv, derived)),
        ("metric_availability.csv", partial(
            files.write_csv, header=["machine", "metric", "status", "missing_events"], lines=availability
        )),
    ]


def cmd_featurize(run: Run) -> tuple[str, Artifacts]:
    matrix = run.matrix
    text = files.CsvText()
    dropped = (f"{metric},{text[machine]}\n" for metric, machine in matrix.dropped)
    summary = f"featurize: {len(matrix.rows)}x{len(matrix.cols)} matrix ({len(matrix.dropped)} columns dropped)"
    return f"{summary} -> {run.out}", [
        ("features.csv", partial(features.export_csv, matrix)),
        ("dropped_columns.csv", partial(files.write_csv, header=["metric", "machine"], lines=dropped)),
    ]


def cmd_pca(run: Run) -> tuple[str, Artifacts]:
    model, rows = run.model, list(run.matrix.rows)
    captured = float(sum(model.explained_ratio))
    return f"pca: k={model.k} capturing {100 * captured:.1f}% of variance -> {run.out}", [
        ("pca_scores.csv", partial(pca.export_scores_csv, rows, np.array([run.scores[w] for w in rows]))),
        ("pca_variance.csv", partial(pca.export_variance_csv, model)),
        ("pca_loadings.md", _text(pca.loading_markdown, model, 4)),
    ]


def cmd_cluster(run: Run) -> tuple[str, Artifacts]:
    artifacts = []
    for suite_name, dendrogram in run.dendrograms.items():
        artifacts += [
            (f"dendrogram_{suite_name}.csv", partial(cluster_mod.export_merges_csv, dendrogram)),
            (f"dendrogram_{suite_name}.svg", _text(render.dendrogram_svg, dendrogram)),
        ]
    return f"cluster: {len(run.dendrograms)} dendrograms ({run.cfg.linkage} linkage) -> {run.out}", artifacts


def cmd_subset(run: Run) -> tuple[str, Artifacts]:
    cfg = run.cfg
    reports = []
    for suite_name, dendrogram in run.dendrograms.items():
        workloads = dendrogram.leaves
        target_groups = 4 if cfg.groups is None else cfg.groups
        if cfg.threshold is not None:
            target_groups = len(cluster_mod.cut(dendrogram, cfg.threshold))
        if cfg.groups is not None and cfg.groups > len(workloads):  # the default of 4 is capped quietly
            print(f"warning: --groups {cfg.groups} is above the {len(workloads)} workloads of suite {suite_name}; "
                  f"using {len(workloads)}", file=sys.stderr)
        target_groups = min(target_groups, len(workloads))
        running = run.running[suite_name]
        report = subset.select_representatives(
            dendrogram,
            {w: run.scores[w] for w in workloads},
            running,
            target_groups,
            suite=suite_name,
            wallclock=_suite_wallclock(run.store, suite_name, run.machines),
        )
        if cfg.subset_k is not None:
            report = replace(
                report, oracle_best=subset.oracle_best_subset(running, cfg.subset_k, budget=cfg.budget)
            )
        reports.append(report)
    return f"subset: {len(reports)} suite reports -> {run.out}", [
        ("subsets.csv", partial(subset.export_subset_csv, reports)),
        ("subsets.md", _text(subset.subset_markdown, reports)),
    ]


def cmd_compare(run: Run) -> tuple[str, Artifacts]:
    cfg = run.cfg
    if cfg.suite and run.suites:  # `run.suites` refuses a --suite the store lacks first, as on every command
        raise ConfigError("compare refuses --suite: it takes --suite-a and --suite-b")
    if not (cfg.suite_a and cfg.suite_b):
        raise ConfigError("compare needs --suite-a and --suite-b")
    if not cfg.machine:
        raise ConfigError("compare needs an explicit --machine")
    ((suite_a, suite_b),) = run.pairs
    summary, artifacts = _compare_pair(run, suite_a, suite_b, cfg.machine)
    return f"compare: {summary}", artifacts + _volume_artifacts(run.selected)[1]


def _compare_pair(run: Run, suite_a, suite_b, machine) -> tuple[str, Artifacts]:
    values_a = run.metrics.select(suite=suite_a, machine=machine).values
    values_b = run.metrics.select(suite=suite_b, machine=machine).values
    cmp = compare_mod.compare_suites(suite_a, values_a, suite_b, values_b, machine)
    stem = f"compare_{suite_a}_vs_{suite_b}"
    return f"{len(cmp.metrics)} metrics compared for {suite_a} vs {suite_b} on {machine} -> {run.out / stem}.*", [
        (f"{stem}.csv", partial(compare_mod.export_comparison_csv, cmp)),
        (f"{stem}.md", _text(compare_mod.comparison_markdown, cmp)),
        (f"{stem}.svg", _text(render.boxplot_svg, cmp)),
    ]


def _suite_icounts(store: dataset.Store, suite_name: str) -> list[float]:
    """The suite's positive instruction counts, in run order."""
    return [v for v in store.select(suite=suite_name).column("instructions").tolist() if v > 0]


def _rate_speed_pairs(store: dataset.Store) -> list[tuple[str, str, str]]:
    """(prefix, <prefix>_rate, <prefix>_speed) for every such pair of suites in `store`."""
    suites = dataset.suites_in(store)
    prefixes = [s[: -len("_rate")] for s in suites if s.endswith("_rate")]
    return [(p, f"{p}_rate", f"{p}_speed") for p in prefixes if f"{p}_speed" in suites]


def _volume_artifacts(store: dataset.Store) -> tuple[int, Artifacts]:
    """The number of speed/rate mean-icount ratios in `store`, one for each <prefix>_rate / <prefix>_speed pair
    with instruction counts on both sides, and volume_ratios.csv when there is one."""
    text, lines = files.CsvText(), []
    for prefix, rate, speed in _rate_speed_pairs(store):
        rate_counts, speed_counts = _suite_icounts(store, rate), _suite_icounts(store, speed)
        if rate_counts and speed_counts:
            ratio = compare_mod.instruction_volume_ratio(speed_counts, rate_counts)
            means = sum(speed_counts) / len(speed_counts), sum(rate_counts) / len(rate_counts)
            lines.append(f"{text[prefix]},{means[0]!r},{means[1]!r},{ratio!r}\n")
    header = ["pair", "mean_speed_icount", "mean_rate_icount", "speed_over_rate"]
    return len(lines), [("volume_ratios.csv", partial(files.write_csv, header=header, lines=lines))] if lines else []


def cmd_proxy(run: Run) -> tuple[str, Artifacts]:
    cfg = run.cfg
    machine = run.machine
    pool_suite = run.suites[0]
    pool = run.store.select(suite=pool_suite, machines=[machine])
    rows = [i for i, (_, workload, _) in enumerate(pool.runs) if workload != cfg.target]
    if not rows:
        raise ConfigError(f"no candidate runs in suite {pool_suite!r} on {machine!r}")
    derived = run.metrics
    profiles = [proxy.WorkloadProfile.from_store(pool, i) for i in rows]

    target_vec = None
    if cfg.target:
        target_keys = [key for key in derived.runs if key[1] == cfg.target and key[2] == machine]
        if not target_keys:
            raise ConfigError(f"target workload {cfg.target!r} has no run on {machine!r}")
        if len(target_keys) > 1:
            suites = [suite for suite, _, _ in target_keys]
            raise ConfigError(f"target workload {cfg.target!r} is in several suites on {machine!r}: {suites}")
        target_vec = derived.row(target_keys[0])
        weights = cfg.weights or {metric: 1.0 for metric in target_vec.available()}

    if cfg.mix:
        chosen, schedule = proxy.apply_mix_spec(profiles, proxy.read_mix_file(cfg.mix))
        blend = proxy.simulate_rrr(chosen, schedule)
        if target_vec is not None:
            report = proxy.blend_distance(blend, target_vec, weights)
            blend = replace(blend, distance_to_target=report.distance, target=cfg.target)
        return f"proxy: simulated mix {'+'.join(schedule.order)} -> {run.out}", [
            ("proxy_blend.csv", partial(proxy.export_mixes_csv, [(schedule.order, blend)])),
            ("proxy_blend.md", _text(proxy.blend_markdown, blend, target_vec, chosen)),
        ]

    if target_vec is None:
        raise ConfigError("proxy needs --target (or --mix with a mix specification file)")
    pool_matrix = features.build_matrix(
        derived.select(suite=pool_suite, machine=machine), [p.workload for p in profiles], [machine]
    )
    scales = features.normalize(pool_matrix).scales_for_machine(machine)
    mix_k = min(cfg.mix_k, len(profiles))
    ranked = proxy.search_mix(profiles, target_vec, mix_k, weights, scales=scales, target_name=cfg.target,
                              budget=cfg.budget)
    best_order, best_blend = ranked[0]
    constituents = [p for p in profiles if p.workload in best_order]
    return f"proxy: {len(ranked)} mixes ranked against {cfg.target} (best: {'+'.join(best_order)}) -> {run.out}", [
        ("proxy_mixes.csv", partial(proxy.export_mixes_csv, ranked)),
        ("proxy_best.md", _text(proxy.blend_markdown, best_blend, target_vec, constituents)),
    ]


def cmd_report(run: Run) -> tuple[str, Artifacts]:
    # a multi-machine store, a suite without running scores and an unknown suite fail before any stage runs
    machine, _, pairs = run.machine, run.running, run.pairs
    stages = [cmd_derive(run), cmd_featurize(run), cmd_pca(run), cmd_cluster(run), cmd_subset(run)]
    ratio_count, volume = _volume_artifacts(run.selected)
    if ratio_count:
        stages.append((f"volume: {ratio_count} speed/rate ratios -> {run.out}", volume))
    for suite_a, suite_b in pairs:
        line, artifacts = _compare_pair(run, suite_a, suite_b, machine)
        stages.append((f"compare: {line}", artifacts))
    return "\n".join(line for line, _ in stages), [artifact for _, artifacts in stages for artifact in artifacts]


_COMMANDS = {
    "ingest": cmd_ingest,
    "derive": cmd_derive,
    "featurize": cmd_featurize,
    "pca": cmd_pca,
    "cluster": cmd_cluster,
    "subset": cmd_subset,
    "compare": cmd_compare,
    "proxy": cmd_proxy,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="benchlens", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="YAML config file; flags override its keys")
    parser.add_argument("--store", help="canonical store CSV")
    parser.add_argument("--scores", help="scores CSV (suite,workload,machine,score,wallclock_seconds)")
    parser.add_argument("--countermap", help="counter map manifest (YAML)")
    parser.add_argument("--raw", help="raw counter dump to ingest")
    parser.add_argument("--suite", help="suite to operate on (ingest/derive/featurize/pca/cluster/subset/proxy/"
                        "report); compare refuses it: it takes --suite-a and --suite-b")
    parser.add_argument("--workload", help="workload id (ingest)")
    parser.add_argument("--machine", help="machine id")
    parser.add_argument("--suite-a", dest="suite_a", help="left suite for compare")
    parser.add_argument("--suite-b", dest="suite_b", help="right suite for compare")
    parser.add_argument("--linkage", choices=cluster_mod.LINKAGES)
    group_k = parser.add_mutually_exclusive_group()
    group_k.add_argument("--pcs", type=int, help="retain a fixed number of principal components")
    group_k.add_argument("--variance", type=float, help="retain components reaching this variance fraction")
    group_cut = parser.add_mutually_exclusive_group()
    group_cut.add_argument("--threshold", type=float, help="dendrogram cut height")
    group_cut.add_argument("--groups", type=int, help="cut to exactly this many groups")
    parser.add_argument("--subset-k", dest="subset_k", type=int, help="also run the exhaustive oracle at size k")
    parser.add_argument("--mix-k", dest="mix_k", type=int, help="max constituents per proxy mix")
    parser.add_argument("--mix", help="mix specification file: one workload[,duration] per line")
    parser.add_argument("--target", help="target workload for proxy search")
    parser.add_argument("--budget", type=int, help="enumeration budget for exhaustive searches")
    parser.add_argument("--out", help=f"output directory (default ${DEFAULT_OUT_ENV} or ./out)")
    parser.add_argument("--format", help="comma-separated subset of csv,md,svg")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config")
    try:
        cfg = load_config(config_path, args)
        run = Run(cfg, by_suite=command in BY_SUITE)
        summary, artifacts = _COMMANDS[command](run)
        for name, _ in artifacts:  # a name holds suite names, and each is one file in out/
            if os.sep in name:
                raise SchemaMismatch(f"artifact name {name!r} is not a single file name")
        suffixes = tuple(f".{fmt}" for fmt in cfg.format)  # the artifacts --format keeps
        files.commit((run.out / name, write) for name, write in artifacts if name.endswith(suffixes))
    except (BenchlensError, OSError, ValueError) as exc:
        print(json.dumps({"stage": command, "error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, BudgetExceeded) else 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
