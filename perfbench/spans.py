"""Span tracing of benchlens layers, installed from outside the program.

Each public function of a layer module is wrapped in every benchlens
namespace that binds it, so that a call is traced whether its caller looks
it up as ``metrics.derive_metrics`` or as ``proxy.derive_metrics``. Spans
stay in memory until ``write`` and record name, start, end, parent span,
run id (the index of the ``cli.main`` call) and input sizes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from math import comb
from time import perf_counter

# The modules of src/benchlens that count as layers. stats, events, errors and
# bundled are helpers: stats is called per geomean, and wrapping it would cost
# more than the work it does.
LAYERS = ("dataset", "metrics", "features", "pca", "cluster", "subset", "compare", "proxy", "render")
_NAMESPACES = LAYERS + ("cli",)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def sizes(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Input and output sizes of one call, for the spans that later issues plot."""
    if name == "dataset.load_canonical":
        return {"runs": len(result), "rows": sum(len(rec.samples) for rec in result)}
    if name == "metrics.derive_metrics":
        return {"key": "/".join(args[0].key)}
    if name == "features.build_matrix":
        return {"rows": len(result.rows), "cols": len(result.cols), "dropped": len(result.dropped)}
    if name == "cluster.build_dendrogram":
        return {"leaves": len(result.leaves)}
    if name == "subset.oracle_best_subset":
        table = _arg(args, kwargs, 0, "scores")
        n, k = len(next(iter(table.values()))), _arg(args, kwargs, 1, "k")
        return {"n": n, "k": k, "candidates": comb(n, k)}
    if name == "proxy.search_mix":
        pool, k = len(_arg(args, kwargs, 0, "profiles")), _arg(args, kwargs, 2, "max_constituents")
        return {"pool": pool, "k": k, "mixes": len(result)}
    if name == "proxy.simulate_rrr":
        return {"k": len(_arg(args, kwargs, 1, "schedule").order)}
    if args and isinstance(args[0], (list, tuple, dict)):
        return {"n": len(args[0])}
    return {}


class Tracer:
    """Collects spans of one child process; `install` patches the layers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id, sizes]
        self.stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = sizes(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever benchlens binds it."""
        modules = {name: importlib.import_module(f"benchlens.{name}") for name in _NAMESPACES}
        wrapped = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[list], wall: float, commands: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation of `commands` `cli.main` calls.

    `wall` is the time of those calls. `<layer>.self_s` is the layer's span time minus the time of the spans
    nested in it; `cli.self_s` is `wall` minus the top-level spans, so the
    self times of all layers and of the CLI add up to `wall`.
    """
    duration = [end - start for _, start, end, _, _, _ in spans]
    nested = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            nested[parent] += duration[i]
    for i, span in enumerate(spans):
        own = duration[i] - nested[i]
        if own < -1e-9:
            raise ValueError(f"span {span[0]} is shorter than the spans nested in it")
        self_s[span[0].split(".")[0]] += own
    top = sum(d for d, span in zip(duration, spans) if span[3] < 0)
    if top > wall + 1e-9:
        raise ValueError(f"top-level spans ({top} s) exceed the traced wall time ({wall} s)")

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names: str) -> float:
        return sum(duration[i] for n in names for i in by_name.get(n, ()))

    def sized(name: str, key: str) -> list:
        return [spans[i][5][key] for i in by_name.get(name, ())]

    loads, vectors = calls("dataset.load_canonical"), calls("metrics.derive_metrics")
    svg = ("render.dendrogram_svg", "render.boxplot_svg")
    metrics = {
        "dataset.load_calls": loads,
        "dataset.load_s": total("dataset.load_canonical"),
        "dataset.rows_loaded": sum(sized("dataset.load_canonical", "rows")),
        "dataset.load_useful_ratio": commands / loads if loads else 0.0,  # one load per command suffices
        "dataset.parse_s": total("dataset.parse_counter_file"),
        "dataset.merge_s": total("dataset.merge_records"),
        "dataset.save_s": total("dataset.save_canonical"),
        "metrics.derive_store_calls": calls("metrics.derive_store"),
        "metrics.derive_store_s": total("metrics.derive_store"),
        "metrics.vectors_built": vectors,
        "metrics.derive_useful_ratio": (
            len(set(sized("metrics.derive_metrics", "key"))) / vectors if vectors else 0.0
        ),
        "features.build_s": total("features.build_matrix"),
        "features.normalize_calls": calls("features.normalize"),
        "features.normalize_s": total("features.normalize"),
        "features.cols_kept": max(sized("features.build_matrix", "cols"), default=0),
        "features.cols_dropped": max(sized("features.build_matrix", "dropped"), default=0),
        "pca.fit_calls": calls("pca.fit_pca"),
        "pca.fit_s": total("pca.fit_pca"),
        "pca.project_s": total("pca.project"),
        "cluster.dendrogram_calls": calls("cluster.build_dendrogram"),
        "cluster.dendrogram_s": total("cluster.build_dendrogram"),
        "cluster.leaves_max": max(sized("cluster.build_dendrogram", "leaves"), default=0),
        "subset.select_s": total("subset.select_representatives"),
        "subset.oracle_s": total("subset.oracle_best_subset"),
        "subset.oracle_candidates": sum(sized("subset.oracle_best_subset", "candidates")),
        "compare.compare_s": total("compare.compare_suites"),
        "proxy.search_s": total("proxy.search_mix"),
        "proxy.mixes_ranked": sum(sized("proxy.search_mix", "mixes")),
        "proxy.simulate_calls": calls("proxy.simulate_rrr"),
        "proxy.simulate_s": total("proxy.simulate_rrr"),
        "proxy.distance_calls": calls("proxy.blend_distance"),
        "proxy.distance_s": total("proxy.blend_distance"),
        "proxy.export_s": total("proxy.export_mixes_csv"),
        "render.svg_calls": calls(*svg),
        "render.svg_s": total(*svg),
        "cli.self_s": wall - top,
    }
    metrics.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    return metrics
