"""Run the benchmark's end-to-end workloads and write their medians to one JSON file.

    python3 scripts/bench.py --seed 0 --seconds 30 --out BENCH_<n>.json
    python3 scripts/bench.py --seed 300 --seconds 6 --baseline ../parent --out BENCH_<n>.json

For each workload in BENCHMARK.json it runs ``perfbench/run.py --trace 0``
(fresh child processes, untraced; see that file) and records the four
end-to-end medians it prints, whether the outputs were correct, the host the
figures come from and the line count of ``src/benchlens`` (of the
``--baseline`` checkout's too). It also records
eight scaling curves, timed in one child process that imports the checkout's
benchlens. With ``--baseline DIR`` they are timed for the checkout at DIR as
well, for a before and after from one script: ``CURVE_ROUNDS`` rounds each
run one child per checkout, the two in alternating order (A B B A ...), each
curve is the median over the rounds, and ``paired_curves`` holds, for each
time of each point, both medians and the median and quartiles of the
per-round ratio checkout / baseline, so that the host's drift between the
two does not read as a difference. The curves are the median time of
``cluster.build_dendrogram`` (ward) at
n = 100 ... 1,600 rows of 8 scores, of ``subset.oracle_best_subset`` at
k = 2, 3, 4 on 40 workloads x 9 machines, of ``proxy.search_mix`` and
of writing its ranking with ``proxy.export_mixes_csv`` at k = 1, 2, 3 on a
pool of 50 workloads (and at k = 3 once more with one name that csv quotes,
so every mix cell holding it is quoted), and of ``dataset.read_store`` on stores of 52, 200 and
500 workloads x 9 machines x 20 events that ``dataset.save_canonical``
wrote: once with plain names (the byte route), once with every suite name
holding a comma, so that csv quotes it (the csv route), and once with plain
names and a scores CSV of one row per run joined (scored), of
``dataset.merge_into`` of one 20-event run into a fresh copy of two of those
stores: a new run into the plain store (spliced, the route ``ingest`` takes),
and on the merge route 20 events that one run of the plain store lacks (held)
and a new run into the store that csv quotes (quoted), and of
``metrics.derive_store`` followed by ``features.build_matrix`` over every
machine on stores of 52, 200 and 500 workloads x 9 machines whose counts
make every metric valid.
Each curve carries the exponent b of a least-squares fit of time ~ size^b on
log scales (size is n, the C(40, k) candidates, the mixes ranked, or the
store's rows or runs). Each point of the two proxy curves, and each spliced
merge, also carries the tracemalloc peak of one more call, in MiB: what the
call allocates through Python and numpy, beyond what it was handed. Each
point of the ``search_mix`` curve also carries ``held_mib``, what the
ranking that call returns still holds after it.
It also splits start-up, the part of perfbench's ``setup_s`` before a
command runs, in fresh interpreters with BLAS at one thread (medians of
``STARTUP_ROUNDS``): the bare interpreter (``-c pass``), then, timed in one
child, ``import numpy``, ``import orjson, yaml`` and ``import benchlens.cli``.
The benchlens import is timed compiled from source and, in a third child,
from cached bytecode; each child reads the bytecode of every other module
from a ``PYTHONPYCACHEPREFIX`` directory outside the checkout. With
``--baseline DIR`` that checkout's start-up is split as well, the rounds of
the two in alternating order as for the curves, and ``paired_startup`` holds
each step's two medians and the median and quartiles of its per-round ratio.
With ``--baseline DIR`` each workload also runs end to end in
``WORKLOAD_PAIRS`` pairs, each checkout's own ``perfbench/run.py --trace 0``,
the two in alternating order, pair i on seed ``--seed`` + 1 + i for both;
``paired_workloads`` holds, for each end-to-end metric, both medians, each
side's quartiles and in how many pairs the checkout's value was lower.
Standard library only. A ``--baseline`` checkout must be recent enough to have
``files.commit``, ``dataset.merge_into`` and a ``derive_store`` that returns
one ``Metrics`` array.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]


def source_lines(root: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in sorted((root / "src" / "benchlens").rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, root: Path = ROOT) -> dict:
    """The result line the `perfbench/run.py` of the checkout at `root` prints for one workload."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# Runs in the child with the checkout's src on sys.path; prints one JSON object.
CURVES_CHILD = r"""
import csv, json, shutil, statistics, tempfile, time, tracemalloc
from pathlib import Path
import numpy as np
from benchlens.cluster import build_dendrogram
from benchlens.dataset import Store, merge_into, read_store, save_canonical
from benchlens.events import CANONICAL_EVENTS, METRIC_DEFS
from benchlens.features import build_matrix
from benchlens.files import commit
from benchlens.metrics import derive_store
from benchlens.proxy import RrrSchedule, WorkloadProfile, export_mixes_csv, search_mix, simulate_rrr
from benchlens.subset import oracle_best_subset

def export(ranked, path):
    commit([(path, lambda fh: export_mixes_csv(ranked, fh))])

def median_s(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)

def merge(store_path, new):  # merge_into of `new` into a fresh copy of the store file, made before the call
    path = store_path.with_name("merged.csv")
    shutil.copyfile(store_path, path)
    return lambda: merge_into(path, new)

def merge_s(store_path, new, repeats):
    times = []
    for _ in range(repeats):
        call = merge(store_path, new)
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)

def peak_mib(call):
    return peak_held_mib(call)[0]

def peak_held_mib(call):  # the tracemalloc peak of one call and what its result still holds after it
    tracemalloc.start()
    try:
        result = call()  # alive while what it holds is read
        held, peak = tracemalloc.get_traced_memory()
        return peak / 2**20, held / 2**20
    finally:
        tracemalloc.stop()

rng = np.random.default_rng(0)
dendrogram = []
for n in (100, 200, 400, 800, 1600):
    points = rng.normal(size=(n, 8))
    labels = [f"w{i:04d}" for i in range(n)]
    dendrogram.append({"n": n, "median_s": median_s(lambda: build_dendrogram(points, labels, "ward"), 5)})
scores = {f"M{m}": {f"w{i:02d}": float(v) for i, v in enumerate(rng.uniform(1.0, 10.0, 40))} for m in range(9)}
oracle = [{"k": k, "median_s": median_s(lambda: oracle_best_subset(scores, k), 5)} for k in (2, 3, 4)]

def profile(name):  # rates of every canonical event, each metric's event up to 30% of its base
    instructions = float(rng.uniform(1e9, 4e9))
    rates = {"instructions": instructions, "cycles": instructions / float(rng.uniform(0.5, 4.0))}
    for event, base, _ in METRIC_DEFS.values():
        rates.setdefault(event, rates[base] * float(rng.uniform(0.0, 0.3)))
    rates["user_instructions"] = instructions - rates["kernel_instructions"]
    return WorkloadProfile(name, rates, 1.0)

pool = [profile(f"w{i:02d}") for i in range(50)]
target = simulate_rrr([profile("target")], RrrSchedule(order=("target",), copies=1)).metrics
weights = dict.fromkeys(target.available(), 1.0)
proxy = []
with tempfile.TemporaryDirectory() as tmp:
    for k in (1, 2, 3):
        ranked = search_mix(pool, target, k, weights)
        search_peak, held = peak_held_mib(lambda: search_mix(pool, target, k, weights))
        proxy.append({
            "k": k,
            "mixes": len(ranked),
            "search_median_s": median_s(lambda: search_mix(pool, target, k, weights), 5),
            "export_median_s": median_s(lambda: export(ranked, Path(tmp) / "mixes.csv"), 5),
            "search_peak_mib": search_peak,
            "search_held_mib": held,
            "export_peak_mib": peak_mib(lambda: export(ranked, Path(tmp) / "mixes.csv")),
        })
    quoted = search_mix([WorkloadProfile("w,00", pool[0].rates, 1.0), *pool[1:]], target, 3, weights)
    proxy[-1]["quoted_export_median_s"] = median_s(lambda: export(quoted, Path(tmp) / "mixes.csv"), 5)
    reads, merges = [], []
    # a new run of the 20 canonical events for the plain store, which it splices; a run the plain store holds
    # with 20 events it lacks, and a new run for the store that csv quotes, which both take the merge route
    spliced = Store.from_cells(("fp_rate", "new", "M0", event, 1.0, True) for event in CANONICAL_EVENTS)
    held = Store.from_cells(("fp_rate", "w000", "M0", f"raw.event{e:02d}", 1.0, True) for e in range(20))
    fresh = Store.from_cells(("fp,rate", "new", "M0", event, 1.0, True) for event in CANONICAL_EVENTS)
    for workloads in (52, 200, 500):
        point = {"workloads": workloads, "rows": workloads * 9 * len(CANONICAL_EVENTS)}
        values = np.round(rng.uniform(0.0, 1e12, point["rows"])).tolist()
        for route, suites in (("bytes", ("fp_rate", "int_rate")), ("csv", ("fp,rate", "int,rate"))):
            keys = [(suites[i % 2], f"w{i:03d}", f"M{m}") for i in range(workloads) for m in range(9)]
            cells = zip((key + (event,) for key in keys for event in CANONICAL_EVENTS), values)
            path = Path(tmp) / f"{route}.csv"
            save_canonical(Store.from_cells((*cell, value, True) for cell, value in cells), path)
            point[f"{route}_median_s"] = median_s(lambda: read_store(path), 7)
        scores = Path(tmp) / "scores.csv"  # one row per run of the plain store
        with open(scores, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [["suite", "workload", "machine", "score", "wallclock_seconds"]]
                + [[("fp_rate", "int_rate")[i % 2], f"w{i:03d}", f"M{m}", repr(1.0 + i / 7), repr(10.0 + m)]
                   for i in range(workloads) for m in range(9)]
            )
        point["scored_median_s"] = median_s(lambda: read_store(Path(tmp) / "bytes.csv", scores), 7)
        reads.append(point)
        merges.append({"workloads": workloads, "rows": point["rows"],
                       "spliced_median_s": merge_s(Path(tmp) / "bytes.csv", spliced, 7),
                       "spliced_peak_mib": peak_mib(merge(Path(tmp) / "bytes.csv", spliced)),
                       "held_median_s": merge_s(Path(tmp) / "bytes.csv", held, 7),
                       "quoted_median_s": merge_s(Path(tmp) / "csv.csv", fresh, 7)})

def featurize(store, workloads, machines):
    return build_matrix(derive_store(store), workloads, machines)

featurized = []
for count in (52, 200, 500):
    workloads, machines = [f"w{i:03d}" for i in range(count)], [f"M{m}" for m in range(9)]
    store = Store.from_cells(
        (("fp_rate", "int_rate")[i % 2], workload, machine, event, rate, True)
        for i, workload in enumerate(workloads)
        for machine in machines
        for event, rate in profile(workload).rates.items()
    )
    assert featurize(store, workloads, machines).values.shape == (count, 9 * len(METRIC_DEFS))
    featurized.append({"workloads": count, "runs": count * 9,
                       "median_s": median_s(lambda: featurize(store, workloads, machines), 7)})
print(json.dumps({"dendrogram": dendrogram, "oracle": oracle, "proxy": proxy, "read_store": reads,
                  "merge_into": merges, "derive_featurize": featurized}))
"""


def fitted_exponent(sizes: list[float], times: list[float]) -> float:
    """Slope of the least-squares line through (log size, log time)."""
    xs, ys = [math.log(v) for v in sizes], [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def curve_points(root: Path) -> dict:
    """The points of every curve, timed in one child process that imports the benchlens of the checkout at `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CURVES_CHILD], cwd=root, env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


CURVE_ROUNDS = 6  # with --baseline: rounds of one curves child per checkout, the two in alternating order
WORKLOAD_PAIRS = 10  # with --baseline: end-to-end runs of each workload per checkout, the two in alternating order


def median_points(rounds: list[dict]) -> dict:
    """The points of `rounds` of `curve_points`, each float (a time or a peak) the median over the rounds."""
    return {
        curve: [
            {key: statistics.median(r[curve][i][key] for r in rounds) if isinstance(value, float) else value
             for key, value in point.items()}
            for i, point in enumerate(points)
        ]
        for curve, points in rounds[0].items()
    }


def alternating(trees: tuple[Path, ...], rounds: int, measure: Callable[[Path, int], dict]) -> dict[Path, list[dict]]:
    """`rounds` results of `measure(tree, round)` for each of `trees`, the trees run in alternating order
    (A B B A ...), so that a drift of the host weighs on each alike."""
    results = {tree: [] for tree in trees}
    for r in range(rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            results[tree].append(measure(tree, r))
    return results


def paired_time(checkout: float, baseline: float, ratios: list[float]) -> dict:
    """Both medians of one time and the median and quartiles of its per-round ratios checkout / baseline."""
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"checkout": checkout, "baseline": baseline, "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3}


def paired_curves(root: Path, baseline: Path) -> tuple[dict, dict, dict]:
    """The curve points of the checkouts at `root` and at `baseline`, each the median of CURVE_ROUNDS children
    run in alternating order, and for each time of each point its `paired_time`."""
    rounds = alternating((root, baseline), CURVE_ROUNDS, lambda tree, _: curve_points(tree))
    checkout, base = median_points(rounds[root]), median_points(rounds[baseline])
    paired = {}
    for curve, points in checkout.items():
        paired[curve] = []
        for i, point in enumerate(points):
            pair = {key: value for key, value in point.items() if not isinstance(value, float)}
            for key in (key for key in point if key.endswith("median_s")):
                ratios = [a[curve][i][key] / b[curve][i][key] for a, b in zip(rounds[root], rounds[baseline])]
                pair[key] = paired_time(point[key], base[curve][i][key], ratios)
            paired[curve].append(pair)
    return checkout, base, paired


def scaling_curves(points: dict) -> dict:
    """Median times of build_dendrogram, oracle_best_subset, search_mix, export_mixes_csv (also of a pool with
    a quoted name), read_store, merge_into and derive_store + build_matrix over sizes (`curve_points`), with
    fitted exponents."""
    dendrogram, oracle, proxy, reads = points["dendrogram"], points["oracle"], points["proxy"], points["read_store"]
    merges, featurized = points["merge_into"], points["derive_featurize"]
    for point in oracle:
        point["candidates"] = math.comb(40, point["k"])
    return {
        "build_dendrogram": {
            "d": 8,
            "linkage": "ward",
            "points": dendrogram,
            "exponent_in_n": fitted_exponent([p["n"] for p in dendrogram], [p["median_s"] for p in dendrogram]),
        },
        "oracle_best_subset": {
            "workloads": 40,
            "machines": 9,
            "points": oracle,
            "exponent_in_candidates": fitted_exponent(
                [p["candidates"] for p in oracle], [p["median_s"] for p in oracle]
            ),
        },
        **{
            name: {
                "workloads": 50,
                "points": [{"k": p["k"], "mixes": p["mixes"], **{f: p[f"{key}_{f}"] for f in kept}} for p in proxy],
                "exponent_in_mixes": fitted_exponent(
                    [p["mixes"] for p in proxy], [p[f"{key}_median_s"] for p in proxy]
                ),
            }
            for name, key, kept in (("search_mix", "search", ("median_s", "peak_mib", "held_mib")),
                                    ("export_mixes_csv", "export", ("median_s", "peak_mib")))
        },
        "export_mixes_csv_quoted": {"workloads": 50, "k": 3, "mixes": proxy[-1]["mixes"],
                                    "median_s": proxy[-1]["quoted_export_median_s"]},
        "read_store": {
            "machines": 9,
            "events": 20,
            "points": reads,
            **{
                f"exponent_in_rows_{route}": fitted_exponent([p["rows"] for p in reads],
                                                             [p[f"{route}_median_s"] for p in reads])
                for route in ("bytes", "csv", "scored")
            },
        },
        "merge_into": {
            "machines": 9,
            "events": 20,
            "points": merges,
            **{
                f"exponent_in_rows_{case}": fitted_exponent([p["rows"] for p in merges],
                                                            [p[f"{case}_median_s"] for p in merges])
                for case in ("spliced", "held", "quoted")
            },
        },
        "derive_featurize": {
            "machines": 9,
            "points": featurized,
            "exponent_in_runs": fitted_exponent([p["runs"] for p in featurized], [p["median_s"] for p in featurized]),
        },
    }


STARTUP_ROUNDS = 15
# Runs in the child with the checkout's src on sys.path; prints the seconds of each import step.
STARTUP_CHILD = r"""
import json, time
start = time.perf_counter()
import numpy
numpy_done = time.perf_counter()
import orjson, yaml
third_done = time.perf_counter()
import benchlens.cli
done = time.perf_counter()
print(json.dumps({"numpy_s": numpy_done - start, "orjson_yaml_s": third_done - numpy_done,
                  "benchlens_s": done - third_done}))
"""


@contextmanager
def startup_timer(root: Path) -> Iterator[Callable[[], dict]]:
    """A call that times one round of the start-up steps of the benchlens at `root` in three fresh children
    (see the module docstring): a bare interpreter, then the imports with benchlens compiled from source, then
    with benchlens from cached bytecode. Each reads its bytecode from its own `PYTHONPYCACHEPREFIX` directory,
    which holds that of every other module throughout, and writes none."""
    with tempfile.TemporaryDirectory() as source, tempfile.TemporaryDirectory() as cached:
        base = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        base.pop("PYTHONDONTWRITEBYTECODE", None)

        def child(code: str, cache: str, write: bool = False) -> str:
            env = {**base, "PYTHONPYCACHEPREFIX": cache, **({} if write else {"PYTHONDONTWRITEBYTECODE": "1"})}
            return subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                                  text=True, check=True).stdout

        for cache in (source, cached):
            child("import numpy, orjson, yaml, benchlens.cli", cache, write=True)
        shutil.rmtree(Path(source, *root.parts[1:], "src"))  # benchlens' own, which then compiles from source

        def one_round() -> dict:
            start = time.perf_counter()
            child("pass", source)
            bare = time.perf_counter() - start
            steps = json.loads(child(STARTUP_CHILD, source))
            return {"interpreter_s": bare, "numpy_s": steps["numpy_s"], "orjson_yaml_s": steps["orjson_yaml_s"],
                    "benchlens_source_s": steps["benchlens_s"],
                    "benchlens_cached_s": json.loads(child(STARTUP_CHILD, cached))["benchlens_s"]}

        yield one_round


def startup_split(*trees: Path) -> tuple[list[dict], dict | None]:
    """For each of `trees`, the median seconds of each start-up step of its benchlens over STARTUP_ROUNDS rounds
    run in alternating order; and, for two trees, each step's `paired_time` of the first against the second."""
    with ExitStack() as stack:
        timers = {tree: stack.enter_context(startup_timer(tree)) for tree in trees}
        rounds = alternating(trees, STARTUP_ROUNDS, lambda tree, _: timers[tree]())
    steps = list(rounds[trees[0]][0])
    splits = [{"rounds": STARTUP_ROUNDS, **{step: statistics.median(r[step] for r in rounds[tree]) for step in steps}}
              for tree in trees]
    if len(trees) == 1:
        return splits, None
    pairs = list(zip(*rounds.values()))
    return splits, {step: paired_time(splits[0][step], splits[1][step], [a[step] / b[step] for a, b in pairs])
                    for step in steps}


def paired_workloads(root: Path, baseline: Path, seed: int, seconds: float) -> dict:
    """For each workload of BENCHMARK.json, WORKLOAD_PAIRS runs of `perfbench/run.py --trace 0` of each checkout,
    the two in alternating order, pair i of both on seed `seed + 1 + i`; and for each end-to-end metric both
    medians, each side's quartiles and in how many pairs the checkout's value is lower."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    paired = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = alternating((root, baseline), WORKLOAD_PAIRS,
                           lambda tree, i: run_workload(name, seed + 1 + i, seconds, tree))
        paired[name] = {"correct": [sum(r["correct"] for r in runs[tree]) for tree in (root, baseline)]}
        for metric in runs[root][0]["metrics"]:
            checkout, base = ([r["metrics"][metric]["value"] for r in runs[tree]] for tree in (root, baseline))
            (q1, median, q3), (b1, b_median, b3) = statistics.quantiles(checkout, n=4), statistics.quantiles(base, n=4)
            paired[name][metric] = {
                "checkout": median, "checkout_q1": q1, "checkout_q3": q3,
                "baseline": b_median, "baseline_q1": b1, "baseline_q3": b3,
                "lower_in": sum(a < b for a, b in zip(checkout, base)), "pairs": WORKLOAD_PAIRS,
            }
        print("paired", name, json.dumps(paired[name]), flush=True)
    return paired


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed passed to perfbench")
    parser.add_argument("--seconds", type=float, required=True, help="run length of each workload")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--baseline", type=Path, help="another checkout whose curves and end-to-end pairs to record as well")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for workload in spec["workloads"]:
        result = run_workload(workload["name"], args.seed, args.seconds)
        workloads[workload["name"]] = {
            "correct": result["correct"],
            **{name: metric["value"] for name, metric in result["metrics"].items()},
        }
        print(workload["name"], json.dumps(workloads[workload["name"]]), flush=True)
    trees = (ROOT,) if args.baseline is None else (ROOT, args.baseline.resolve())
    if len(trees) == 1:
        curves = scaling_curves(curve_points(ROOT))
    else:
        pairs = paired_workloads(*trees, args.seed, args.seconds)
        checkout, baseline, paired = paired_curves(*trees)
        curves, baseline = scaling_curves(checkout), scaling_curves(baseline)
        print("paired_curves", json.dumps(paired), flush=True)
    print("curves", json.dumps(curves), flush=True)
    startups, paired_startup = startup_split(*trees)
    print("startup", json.dumps(startups[0]), flush=True)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "src_benchlens_lines": source_lines(ROOT),
        "workloads": workloads,
        "curves": curves,
        "startup": startups[0],
        **({} if len(trees) == 1 else {
            "baseline_src_benchlens_lines": source_lines(trees[1]),
            "baseline_curves": baseline,
            "curve_rounds": CURVE_ROUNDS,
            "paired_curves": paired,
            "baseline_startup": startups[1],
            "paired_startup": paired_startup,
            "pair_seeds": [args.seed + 1, args.seed + WORKLOAD_PAIRS],
            "paired_workloads": pairs,
        }),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
