"""Command-line pipeline driver.

Commands map one-to-one onto the pipeline stages (ingest, derive, featurize,
pca, cluster, subset, compare, proxy) plus `report`, which composes the
stages over one loaded store: each command builds one `Run`, which reads the
store into one `dataset.Store` and derives, normalizes, fits and clusters at
most once. Every stage reads the store's columns; none copies the counters
per run.
Every knob lives in a YAML config file and is overridable by a flag of the
same name. Outputs are deterministic: rerunning a command on unchanged
inputs rewrites byte-identical files.

Exit codes: 0 success, 1 usage/config, 2 data error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from . import cluster as cluster_mod
from . import compare as compare_mod
from . import dataset, features, metrics, pca, proxy, render, subset
from .errors import BenchlensError, BudgetExceeded, ConfigError, DuplicateKey

DEFAULT_OUT_ENV = "BENCHLENS_OUT"
FORMATS = ("csv", "md", "svg")
COMMANDS = ("ingest", "derive", "featurize", "pca", "cluster", "subset", "compare", "proxy", "report")


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
        if self.pcs is not None and self.variance is not None:
            raise ConfigError("pcs and variance are mutually exclusive")
        if self.threshold is not None and self.groups is not None:
            raise ConfigError("threshold and groups are mutually exclusive")
        if self.linkage not in cluster_mod.LINKAGES:
            raise ConfigError(f"linkage must be one of {cluster_mod.LINKAGES}")
        unknown = [f for f in self.format if f not in FORMATS]
        if unknown:
            raise ConfigError(f"unknown output formats: {unknown}")


def load_config(path: str | None, overrides: dict) -> PipelineConfig:
    values: dict = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
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


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


class Run:
    """One command's view of the store: each stage's input is computed at most once.

    `store` holds every run; `selected` only the runs on the chosen machines,
    which is all that derive, PCA and clustering see.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg

    @cached_property
    def store(self) -> dataset.Store:
        if not self.cfg.store:
            raise ConfigError("a store path is required (--store)")
        return dataset.read_store(self.cfg.store, self.cfg.scores)

    @cached_property
    def machines(self) -> list[str]:
        if self.cfg.machine:
            return [self.cfg.machine]
        return dataset.machines_in(self.store)

    @cached_property
    def machine(self) -> str:
        if self.cfg.machine or len(self.machines) == 1:
            return self.machines[0]
        raise ConfigError(f"--machine is required; store has {self.machines}")

    @cached_property
    def selected(self) -> dataset.Store:
        return self.store.select(machines=self.machines)

    @cached_property
    def vectors(self) -> dict[tuple[str, str, str], metrics.MetricVector]:
        return metrics.derive_store(self.selected)

    @cached_property
    def matrix(self) -> features.FeatureMatrix:
        """Workload rows keyed by id alone, so an id may appear in one suite only."""
        workloads = dataset.workloads_in(self.selected)
        cells = {}
        for (_, workload, machine), vec in self.vectors.items():
            if (workload, machine) in cells:
                raise DuplicateKey(f"workload {workload!r} on {machine!r} appears in more than one suite")
            cells[workload, machine] = vec
        return features.build_matrix(cells, workloads, self.machines)

    @cached_property
    def normalized(self) -> features.FeatureMatrix:
        return features.normalize(self.matrix)

    @cached_property
    def model(self) -> pca.PcaModel:
        if self.cfg.variance is not None:
            return pca.fit_pca(self.normalized, variance_target=self.cfg.variance)
        return pca.fit_pca(self.normalized, fixed_k=self.cfg.pcs or 8)

    @cached_property
    def scores(self) -> dict[str, list[float]]:
        score_rows = pca.project(self.model, self.normalized)
        return {label: [float(v) for v in score_rows[i]] for i, label in enumerate(self.matrix.rows)}

    @cached_property
    def dendrograms(self) -> dict[str, cluster_mod.Dendrogram]:
        """Per-suite dendrogram over the suite's workloads that have PCA scores.

        Suites with fewer than two such workloads have none.
        """
        suites = [self.cfg.suite] if self.cfg.suite else dataset.suites_in(self.store)
        built = {}
        for suite_name in suites:
            workloads = [w for w in dataset.workloads_in(self.store, suite_name) if w in self.scores]
            if len(workloads) >= 2:
                rows = [self.scores[w] for w in workloads]
                built[suite_name] = cluster_mod.build_dendrogram(rows, workloads, self.cfg.linkage)
        return built


def _suite_scores(store: dataset.Store, suite: str, machines: list[str]) -> subset.ScoreTable:
    table: dict[str, dict[str, float]] = {}
    runs = store.select(suite=suite, machines=machines)
    for key, score in zip(runs.runs, runs.scores.tolist()):
        if score != score:
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


def cmd_ingest(run: Run) -> str:
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
    result = dataset.parse_counter_file(
        cfg.raw, cfg.machine, cmap, suite=cfg.suite, workload=cfg.workload
    )
    for err in result.errors:
        print(f"warning: {type(err).__name__} at line {err.line_no}: {err.line}", file=sys.stderr)
    if Path(cfg.store).exists():
        merged = dataset.merge_stores(dataset.read_store(cfg.store), result.store)
    else:
        merged = result.store
    Path(cfg.store).parent.mkdir(parents=True, exist_ok=True)
    dataset.save_canonical(merged, cfg.store)
    return (
        f"ingest: {result.store.cell_count} samples ({len(result.errors)} bad lines) "
        f"from {cfg.raw} -> {cfg.store}"
    )


def cmd_derive(run: Run) -> str:
    vectors = run.vectors
    out = Path(run.cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics.export_metrics_csv(vectors, out / "metrics.csv")
    validation = dataset.validate_store(run.selected)
    lines = ["machine,metric,status,missing_events"]
    for machine in sorted(validation.per_machine):
        entry = validation.per_machine[machine]
        for metric in entry.computable:
            lines.append(f"{machine},{metric},computable,")
        for metric, missing in entry.blocked.items():
            lines.append(f"{machine},{metric},blocked,{' '.join(missing)}")
    _write_text(out / "metric_availability.csv", "\n".join(lines) + "\n")
    return f"derive: {len(vectors)} metric rows -> {out / 'metrics.csv'}"


def cmd_featurize(run: Run) -> str:
    matrix = run.matrix
    out = Path(run.cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    features.export_csv(matrix, out / "features.csv")
    dropped = ["metric,machine"] + [f"{metric},{machine}" for metric, machine in matrix.dropped]
    _write_text(out / "dropped_columns.csv", "\n".join(dropped) + "\n")
    return (
        f"featurize: {len(matrix.rows)}x{len(matrix.cols)} matrix "
        f"({len(matrix.dropped)} columns dropped) -> {out / 'features.csv'}"
    )


def cmd_pca(run: Run) -> str:
    cfg, model = run.cfg, run.model
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.format:
        rows = run.matrix.rows
        pca.export_scores_csv(list(rows), np.array([run.scores[w] for w in rows]), out / "pca_scores.csv")
        pca.export_variance_csv(model, out / "pca_variance.csv")
    if "md" in cfg.format:
        report = pca.loading_table(model, top_n=4)
        _write_text(out / "pca_loadings.md", pca.loading_markdown(report))
    captured = float(sum(model.explained_ratio))
    return f"pca: k={model.k} capturing {100 * captured:.1f}% of variance -> {out}"


def cmd_cluster(run: Run) -> str:
    cfg = run.cfg
    dendrograms = run.dendrograms
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for suite_name, dendrogram in dendrograms.items():
        if "csv" in cfg.format:
            cluster_mod.export_merges_csv(dendrogram, out / f"dendrogram_{suite_name}.csv")
        if "svg" in cfg.format:
            _write_text(out / f"dendrogram_{suite_name}.svg", render.dendrogram_svg(dendrogram))
    return f"cluster: {len(dendrograms)} dendrograms ({cfg.linkage} linkage) -> {out}"


def cmd_subset(run: Run) -> str:
    cfg = run.cfg
    dendrograms = run.dendrograms
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for suite_name, dendrogram in dendrograms.items():
        workloads = dendrogram.leaves
        target_groups = cfg.groups or 4
        if cfg.threshold is not None:
            groups = cluster_mod.cut(dendrogram, cfg.threshold).groups
            target_groups = len(groups)
        target_groups = min(target_groups, len(workloads))
        running = _suite_scores(run.store, suite_name, run.machines)
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
    if "csv" in cfg.format:
        subset.export_subset_csv(reports, out / "subsets.csv")
    if "md" in cfg.format:
        _write_text(out / "subsets.md", subset.subset_markdown(reports))
    return f"subset: {len(reports)} suite reports -> {out / 'subsets.md'}"


def cmd_compare(run: Run) -> str:
    cfg = run.cfg
    if not (cfg.suite_a and cfg.suite_b):
        raise ConfigError("compare needs --suite-a and --suite-b")
    if not cfg.machine:
        raise ConfigError("compare needs an explicit --machine")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = _compare_pair(run, cfg.suite_a, cfg.suite_b, cfg.machine, out)
    _write_volume_ratios(cfg, run.store, out)
    return f"compare: {summary}"


def _compare_pair(run: Run, suite_a, suite_b, machine, out: Path) -> str:
    cfg, vectors = run.cfg, run.vectors
    metrics_a = [vec for (s, w, m), vec in sorted(vectors.items()) if s == suite_a and m == machine]
    metrics_b = [vec for (s, w, m), vec in sorted(vectors.items()) if s == suite_b and m == machine]
    cmp = compare_mod.compare_suites(suite_a, metrics_a, suite_b, metrics_b, machine)
    stem = f"compare_{suite_a}_vs_{suite_b}"
    if "csv" in cfg.format:
        compare_mod.export_comparison_csv(cmp, out / f"{stem}.csv")
    if "md" in cfg.format:
        _write_text(out / f"{stem}.md", compare_mod.comparison_markdown(cmp))
    if "svg" in cfg.format:
        _write_text(out / f"{stem}.svg", render.boxplot_svg(cmp))
    return f"{len(cmp.metrics)} metrics compared for {suite_a} vs {suite_b} on {machine} -> {out / stem}.*"


def _suite_icounts(store: dataset.Store, suite_name: str) -> list[float]:
    """The suite's positive instruction counts, in run order."""
    return [v for v in store.select(suite=suite_name).column("instructions").tolist() if v > 0]


def _rate_speed_pairs(store: dataset.Store) -> list[tuple[str, str, str]]:
    """(prefix, <prefix>_rate, <prefix>_speed) for every such pair of suites in `store`."""
    suites = dataset.suites_in(store)
    prefixes = [s[: -len("_rate")] for s in suites if s.endswith("_rate")]
    return [(p, f"{p}_rate", f"{p}_speed") for p in prefixes if f"{p}_speed" in suites]


def _volume_ratios(store: dataset.Store) -> list[tuple[str, float, float, float]]:
    """speed/rate mean-icount ratios for every <prefix>_rate / <prefix>_speed pair."""
    rows = []
    for prefix, rate, speed in _rate_speed_pairs(store):
        rate_counts, speed_counts = _suite_icounts(store, rate), _suite_icounts(store, speed)
        if rate_counts and speed_counts:
            ratio = compare_mod.instruction_volume_ratio(speed_counts, rate_counts)
            rows.append(
                (
                    prefix,
                    sum(speed_counts) / len(speed_counts),
                    sum(rate_counts) / len(rate_counts),
                    ratio,
                )
            )
    return rows


def _write_volume_ratios(cfg: PipelineConfig, store: dataset.Store, out: Path) -> int:
    ratios = _volume_ratios(store)
    if ratios and "csv" in cfg.format:
        rows = ["pair,mean_speed_icount,mean_rate_icount,speed_over_rate"]
        rows += [f"{p},{s!r},{r!r},{x!r}" for p, s, r, x in ratios]
        _write_text(out / "volume_ratios.csv", "\n".join(rows) + "\n")
    return len(ratios)


def cmd_proxy(run: Run) -> str:
    cfg = run.cfg
    machine = run.machine
    pool_suite = cfg.suite or dataset.suites_in(run.store)[0]
    pool = run.store.select(suite=pool_suite, machines=[machine])
    rows = [i for i, (_, workload, _) in enumerate(pool.runs) if workload != cfg.target]
    if not rows:
        raise ConfigError(f"no candidate runs in suite {pool_suite!r} on {machine!r}")
    vectors = run.vectors
    profiles = [proxy.WorkloadProfile.from_store(pool, i) for i in rows]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    target_vec = None
    if cfg.target:
        target_keys = [key for key in vectors if key[1] == cfg.target and key[2] == machine]
        if not target_keys:
            raise ConfigError(f"target workload {cfg.target!r} has no run on {machine!r}")
        if len(target_keys) > 1:
            suites = [suite for suite, _, _ in target_keys]
            raise ConfigError(f"target workload {cfg.target!r} is in several suites on {machine!r}: {suites}")
        target_vec = vectors[target_keys[0]]
        weights = cfg.weights or {metric: 1.0 for metric in target_vec.available()}

    if cfg.mix:
        chosen, schedule = proxy.apply_mix_spec(profiles, proxy.read_mix_file(cfg.mix))
        blend = proxy.simulate_rrr(chosen, schedule)
        if target_vec is not None:
            report = proxy.blend_distance(blend, target_vec, weights)
            blend = replace(blend, distance_to_target=report.distance, target=cfg.target)
        if "csv" in cfg.format:
            proxy.export_mixes_csv([(schedule.order, blend)], out / "proxy_blend.csv")
        if "md" in cfg.format:
            _write_text(out / "proxy_blend.md", proxy.blend_markdown(blend, target_vec, chosen))
        return f"proxy: simulated mix {'+'.join(schedule.order)} -> {out / 'proxy_blend.csv'}"

    if target_vec is None:
        raise ConfigError("proxy needs --target (or --mix with a mix specification file)")
    pool_vectors = {(p.workload, machine): vectors[pool.runs[i]] for i, p in zip(rows, profiles)}
    pool_matrix = features.build_matrix(pool_vectors, [p.workload for p in profiles], [machine])
    scales = features.normalize(pool_matrix).scales_for_machine(machine)
    mix_k = min(cfg.mix_k, len(profiles))
    ranked = proxy.search_mix(
        profiles,
        target_vec,
        mix_k,
        weights,
        scales=scales,
        target_name=cfg.target,
        budget=cfg.budget,
    )
    best_order, best_blend = ranked[0]
    if "csv" in cfg.format:
        proxy.export_mixes_csv(ranked, out / "proxy_mixes.csv")
    if "md" in cfg.format:
        constituents = [p for p in profiles if p.workload in best_order]
        _write_text(out / "proxy_best.md", proxy.blend_markdown(best_blend, target_vec, constituents))
    return (
        f"proxy: {len(ranked)} mixes ranked against {cfg.target} "
        f"(best: {'+'.join(best_order)}) -> {out / 'proxy_mixes.csv'}"
    )


def cmd_report(run: Run) -> str:
    cfg = run.cfg
    machine = run.machine  # fails on a multi-machine store before anything is written
    lines = [cmd_derive(run), cmd_featurize(run), cmd_pca(run), cmd_cluster(run), cmd_subset(run)]
    out = Path(cfg.out)
    ratio_count = _write_volume_ratios(cfg, run.store, out)
    if ratio_count:
        lines.append(f"volume: {ratio_count} speed/rate ratios -> {out / 'volume_ratios.csv'}")
    if cfg.suite_a and cfg.suite_b:
        pairs = [(cfg.suite_a, cfg.suite_b)]
    else:
        pairs = [(rate, speed) for _, rate, speed in _rate_speed_pairs(run.store)]
    for suite_a, suite_b in pairs:
        lines.append("compare: " + _compare_pair(run, suite_a, suite_b, machine, out))
    return "\n".join(lines)


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
    parser.add_argument("--suite", help="suite to operate on (ingest/cluster/subset/proxy)")
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
        summary = _COMMANDS[command](Run(cfg))
    except ConfigError as exc:
        print(json.dumps({"stage": command, "error": "ConfigError", "message": str(exc)}), file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(json.dumps({"stage": command, "error": "BudgetExceeded", "message": str(exc)}), file=sys.stderr)
        return 3
    except BenchlensError as exc:
        print(
            json.dumps({"stage": command, "error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError) as exc:
        print(
            json.dumps({"stage": command, "error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
