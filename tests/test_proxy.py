from __future__ import annotations

import math
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from benchlens import files
from benchlens.errors import MissingDenominator, NoCommonMetrics, UnknownWorkload, ZeroHorizon
from benchlens.events import METRIC_NAMES
from benchlens.metrics import MetricVector
from benchlens.proxy import (
    BlendProfile,
    RrrSchedule,
    WorkloadProfile,
    blend_distance,
    blend_markdown,
    export_mixes_csv,
    search_mix,
    simulate_rrr,
)
from conftest import (
    BLEND_TARGET_IPC,
    CACTUS_L1I_MPKI,
    FOTONIK_L1I_MPKI,
    STATED_IPC_GAP,
    derive_one,
    icache_stress_pair,
    make_full_record,
    make_profile,
    write_file,
)
from oracles import (
    csv_export_mixes, lexsort_rank, ranked_distances, ranked_metrics, ranked_order, search_mix_by_simulation,
)


def assert_matches_simulation(tmp_dir, profiles, target, k, weights, scales=None):
    """search_mix equals the per-mix simulation: orders, value reprs, items and CSV bytes.

    When the simulation raises, search_mix raises the same error.
    """
    try:
        expected = search_mix_by_simulation(profiles, target, k, weights, scales=scales, target_name="t")
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            search_mix(profiles, target, k, weights, scales=scales, target_name="t")
        assert str(raised.value) == str(exc)
        return None
    ranked = search_mix(profiles, target, k, weights, scales=scales, target_name="t")
    assert len(ranked) == len(expected)
    assert [ranked_order(ranked, i) for i in range(len(ranked))] == [order for order, _ in expected]
    assert [repr(d) for d in ranked_distances(ranked).tolist()] == [
        repr(blend.distance_to_target) for _, blend in expected
    ]
    assert [["nan" if v != v else repr(v) for v in row] for row in ranked_metrics(ranked).tolist()] == [
        ["nan" if (v := blend.metrics.get(m)) is None else repr(v) for m in METRIC_NAMES]
        for _, blend in expected
    ]
    assert list(ranked) == expected
    write_file(tmp_dir / "simulated.csv", export_mixes_csv, expected)
    write_file(tmp_dir / "ranked.csv", export_mixes_csv, ranked)
    assert (tmp_dir / "ranked.csv").read_bytes() == (tmp_dir / "simulated.csv").read_bytes()
    return ranked


def unsupported(profile: WorkloadProfile, *events: str) -> WorkloadProfile:
    return replace(profile, rates={e: r for e, r in profile.rates.items() if e not in events})


def generated_case(size: int, seed: int = 5) -> tuple[list[WorkloadProfile], MetricVector, dict[str, float]]:
    """A pool of `size` generated profiles named w000, w001, ..., a generated target and a weight of 1.0 for
    each of its metrics."""
    rng = np.random.default_rng(seed)
    pool = [WorkloadProfile.from_store(make_full_record("s", f"w{i:03d}", "m", rng), 0) for i in range(size)]
    target = derive_one(make_full_record("s", "target", "m", rng))
    return pool, target, dict.fromkeys(target.available(), 1.0)


class TestSimulateRrr:
    def test_single_workload_blend_equals_own_metrics(self):
        rng = np.random.default_rng(223)
        record = make_full_record("s", "w", "m", rng)
        profile = WorkloadProfile.from_store(record, 0)
        own = derive_one(record)
        blend = simulate_rrr([profile], RrrSchedule(order=("w",), copies=3, horizon=profile.duration * 2))
        for metric, value in asdict(own).items():
            blended = blend.metrics.get(metric)
            if value is None:
                assert blended is None
            else:
                assert blended == pytest.approx(value, rel=1e-12)

    def test_equal_instruction_weights_blend_to_arithmetic_mean(self):
        a = make_profile("a", ipc=2.0, instr_rate=1e9, l1i_mpki=30.0)
        b = make_profile("b", ipc=2.0, instr_rate=1e9, l1i_mpki=10.0)
        blend = simulate_rrr([a, b], RrrSchedule(order=("a", "b"), copies=2))
        assert blend.metrics.l1i_mpki == pytest.approx(20.0, abs=1e-9)

    def test_icache_pair_blend_lies_between_endpoints(self):
        cactus, fotonik = icache_stress_pair()
        blend = simulate_rrr([cactus, fotonik], RrrSchedule(order=(cactus.workload, fotonik.workload), copies=2))
        assert FOTONIK_L1I_MPKI < blend.metrics.l1i_mpki < CACTUS_L1I_MPKI
        assert blend.metrics.ipc == pytest.approx(BLEND_TARGET_IPC, rel=1e-12)

    def test_instruction_conservation(self):
        rng = np.random.default_rng(227)
        profiles = [
            make_profile(f"w{i}", ipc=float(rng.uniform(0.5, 4.0)),
                         instr_rate=float(rng.uniform(1e8, 5e9)),
                         l1i_mpki=float(rng.uniform(0.1, 80.0)),
                         duration=float(rng.uniform(0.5, 3.0)))
            for i in range(4)
        ]
        order = tuple(p.workload for p in profiles)
        period = sum(p.duration for p in profiles)
        schedule = RrrSchedule(order=order, copies=3, horizon=2.0 * period)
        blend = simulate_rrr(profiles, schedule)
        by_name = {p.workload: p for p in profiles}
        expected = sum(
            by_name[w].rates["instructions"] * share * schedule.copies * blend.horizon
            for w, share in blend.time_shares.items()
        )
        assert blend.totals["instructions"] == pytest.approx(expected, rel=1e-9)
        # every copy cycles through the full sequence, so shares mirror durations
        for p in profiles:
            assert blend.time_shares[p.workload] == pytest.approx(p.duration / period, rel=1e-9)

    def test_offset_invariance_at_integer_periods(self):
        cactus, fotonik = icache_stress_pair()
        order = (cactus.workload, fotonik.workload)
        period = cactus.duration + fotonik.duration
        defaults = simulate_rrr([cactus, fotonik], RrrSchedule(order=order, copies=3, horizon=3 * period))
        skewed = simulate_rrr(
            [cactus, fotonik],
            RrrSchedule(order=order, copies=3, offsets=(0.0, 0.31, 1.07), horizon=3 * period),
        )
        for event, total in defaults.totals.items():
            assert skewed.totals[event] == pytest.approx(total, rel=1e-9)

    def test_convexity_of_per_instruction_metrics(self):
        rng = np.random.default_rng(229)
        profiles = [
            make_profile(f"w{i}", ipc=float(rng.uniform(0.5, 4.0)),
                         instr_rate=float(rng.uniform(1e8, 5e9)),
                         l1i_mpki=float(rng.uniform(0.1, 80.0)))
            for i in range(3)
        ]
        blend = simulate_rrr(profiles, RrrSchedule(order=tuple(p.workload for p in profiles), copies=3))
        instr = {p.workload: p.rates["instructions"] * p.duration for p in profiles}
        total_instr = sum(instr.values())
        weights = {w: v / total_instr for w, v in instr.items()}
        expected_mpki = sum(
            weights[p.workload] * (p.rates["l1i_misses"] / p.rates["instructions"] * 1000.0)
            for p in profiles
        )
        assert blend.metrics.l1i_mpki == pytest.approx(expected_mpki, rel=1e-9)
        mpkis = [p.rates["l1i_misses"] / p.rates["instructions"] * 1000.0 for p in profiles]
        assert min(mpkis) <= blend.metrics.l1i_mpki <= max(mpkis)
        # aggregate IPC is total instructions over total cycles
        assert blend.metrics.ipc == pytest.approx(
            blend.totals["instructions"] / blend.totals["cycles"], rel=1e-12
        )

    def test_time_shares_sum_to_one(self):
        cactus, fotonik = icache_stress_pair()
        blend = simulate_rrr([cactus, fotonik], RrrSchedule(order=(cactus.workload, fotonik.workload), copies=4))
        assert sum(blend.time_shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        profile = make_profile("w", ipc=1.0, instr_rate=1e9, l1i_mpki=1.0)
        with pytest.raises(UnknownWorkload):
            simulate_rrr([profile], RrrSchedule(order=("ghost",), copies=1))
        with pytest.raises(ZeroHorizon):
            simulate_rrr([profile], RrrSchedule(order=("w",), copies=1, horizon=0.0))
        with pytest.raises(ValueError):
            simulate_rrr([profile], RrrSchedule(order=("w",), copies=1, horizon=0.5))
        with pytest.raises(ValueError):
            simulate_rrr(
                [profile],
                RrrSchedule(order=("w",), copies=2, offsets=(0.5, 0.25)),
            )

    @pytest.mark.parametrize("horizon, message", [(math.inf, "horizon must be finite, got inf"),
                                                  (math.nan, "horizon must be finite, got nan")])
    def test_a_horizon_that_is_not_finite_is_named(self, horizon, message):
        profile = make_profile("w", ipc=1.0, instr_rate=1e9, l1i_mpki=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_rrr([profile], RrrSchedule(order=("w",), copies=1, horizon=horizon))

    def test_a_period_that_overflows_is_named(self):
        cactus, fotonik = (replace(p, duration=1e308) for p in icache_stress_pair())
        with pytest.raises(ValueError, match="^mix period must be finite, got inf$"):
            simulate_rrr([cactus, fotonik], RrrSchedule(order=(cactus.workload, fotonik.workload), copies=2))


class TestBlendDistance:
    def test_zero_distance_at_target(self):
        cactus, _ = icache_stress_pair()
        blend = simulate_rrr([cactus], RrrSchedule(order=(cactus.workload,), copies=1))
        report = blend_distance(blend, blend.metrics, {"ipc": 1.0, "l1i_mpki": 1.0})
        assert report.distance == 0.0
        assert report.relative_gaps["ipc"] == 0.0

    def test_reproduces_stated_ipc_gap(self):
        cactus, fotonik = icache_stress_pair()
        blend = simulate_rrr([cactus, fotonik], RrrSchedule(order=(cactus.workload, fotonik.workload), copies=2))
        target = MetricVector(ipc=BLEND_TARGET_IPC / (1.0 - STATED_IPC_GAP))
        report = blend_distance(blend, target, {"ipc": 1.0})
        assert report.relative_gaps["ipc"] == pytest.approx(STATED_IPC_GAP, abs=1e-9)

    def test_zero_weight_excludes_metric(self):
        blend_metrics = MetricVector(ipc=1.0, l1i_mpki=50.0)
        target = MetricVector(ipc=1.0, l1i_mpki=10.0)
        report = blend_distance(blend_metrics, target, {"ipc": 1.0, "l1i_mpki": 0.0})
        assert report.metrics_used == ("ipc",)
        assert report.distance == 0.0

    def test_scales_normalize_differences(self):
        blend_metrics = MetricVector(ipc=2.0)
        target = MetricVector(ipc=1.0)
        raw = blend_distance(blend_metrics, target, {"ipc": 1.0})
        scaled = blend_distance(blend_metrics, target, {"ipc": 1.0}, scales={"ipc": (1.5, 4.0)})
        assert raw.distance == pytest.approx(1.0)
        assert scaled.distance == pytest.approx(0.25)

    def test_no_common_metrics(self):
        with pytest.raises(NoCommonMetrics):
            blend_distance(MetricVector(ipc=1.0), MetricVector(l3_mpki=1.0), {"ipc": 1.0})

    def test_non_finite_stdev_rejected_and_non_positive_left_out(self):
        blend_metrics, target = MetricVector(ipc=2.0, l2_mpki=3.0), MetricVector(ipc=1.0, l2_mpki=1.0)
        weights = {"ipc": 1.0, "l2_mpki": 1.0}
        for stdev in (float("nan"), float("inf"), -float("inf")):
            # the first metric in METRIC_NAMES order is named, whatever the mapping's order
            scales = {"l2_mpki": (1.0, float("nan")), "ipc": (2.0, stdev)}
            with pytest.raises(ValueError, match=r"stdev for 'ipc' must be finite"):
                blend_distance(blend_metrics, target, weights, scales=scales)
        report = blend_distance(blend_metrics, target, weights, scales={"ipc": (2.0, -1.0)})
        assert (report.metrics_used, report.distance) == (("l2_mpki",), 2.0)


class TestSearchMix:
    def test_exact_member_target_ranks_first(self):
        pool = [
            make_profile("a", ipc=1.0, instr_rate=1e9, l1i_mpki=5.0),
            make_profile("b", ipc=2.0, instr_rate=2e9, l1i_mpki=40.0),
            make_profile("c", ipc=3.0, instr_rate=3e9, l1i_mpki=70.0),
        ]
        target_blend = simulate_rrr([pool[1]], RrrSchedule(order=("b",), copies=1))
        ranked = search_mix(pool, target_blend.metrics, 1, {"ipc": 1.0, "l1i_mpki": 1.0})
        assert ranked[0][0] == ("b",)
        assert ranked[0][1].distance_to_target == 0.0

    def test_pair_beats_singletons_for_midway_target(self):
        cactus, fotonik = icache_stress_pair()
        blend = simulate_rrr(
            [cactus.__class__(cactus.workload, cactus.rates, 1.0),
             fotonik.__class__(fotonik.workload, fotonik.rates, 1.0)],
            RrrSchedule(order=(cactus.workload, fotonik.workload), copies=2),
        )
        ranked = search_mix([cactus, fotonik], blend.metrics, 2, {"ipc": 1.0, "l1i_mpki": 1.0})
        assert ranked[0][0] == (cactus.workload, fotonik.workload)
        assert ranked[0][1].distance_to_target == pytest.approx(0.0, abs=1e-9)
        assert len(ranked) == 3  # two singletons + the pair

    def test_non_finite_stdev_rejected(self):
        pool = [
            make_profile("a", ipc=1.0, instr_rate=1e9, l1i_mpki=5.0),
            make_profile("b", ipc=2.0, instr_rate=2e9, l1i_mpki=40.0),
        ]
        weights = {"ipc": 1.0, "l1i_mpki": 1.0}
        for stdev in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"stdev for 'ipc' must be finite, got"):
                search_mix(pool, MetricVector(ipc=1.5, l1i_mpki=20.0), 2, weights, scales={"ipc": (2.0, stdev)})

    def test_oversized_k_rejected(self):
        pool = [make_profile("a", ipc=1.0, instr_rate=1e9, l1i_mpki=1.0)]
        with pytest.raises(ValueError):
            search_mix(pool, MetricVector(ipc=1.0), 2, {"ipc": 1.0})

    def test_matches_simulation_oracle(self, tmp_path):
        rng = np.random.default_rng(239)
        pool = [WorkloadProfile.from_store(make_full_record("s", f"w{i}", "m", rng), 0) for i in range(6)]
        pool[1] = unsupported(pool[1], "l2_misses")
        pool[4] = unsupported(pool[4], "kernel_instructions", "dram_bytes")
        pool.append(replace(pool[2], workload="twin"))  # identical rates: exact distance ties
        target = derive_one(make_full_record("s", "target", "m", rng))
        weights = {m: (0.0, 1.0, 0.7)[i % 3] for i, m in enumerate(METRIC_NAMES)}  # every third is zero
        scales = {"ipc": (1.0, 0.0), "l1d_mpki": (3.0, 2.5), "fp_pct": (10.0, 4.0)}  # ipc: zero stdev
        for k in (1, 2, 3):
            ranked = assert_matches_simulation(tmp_path, pool, target, k, weights, scales)
            distances = ranked_distances(ranked).tolist()
            assert len(set(distances)) < len(distances)

    def test_errors_match_simulation(self, tmp_path):
        rng = np.random.default_rng(241)
        pool = [WorkloadProfile.from_store(make_full_record("s", f"w{i}", "m", rng), 0) for i in range(4)]
        target = derive_one(make_full_record("s", "target", "m", rng))
        weights = {"ipc": 1.0, "l2_mpki": 1.0}
        with pytest.raises(MissingDenominator):
            search_mix([pool[0], unsupported(pool[1], "cycles")], target, 2, weights)
        with pytest.raises(NoCommonMetrics):
            search_mix(pool, target, 2, {"l2_mpki": 1.0}, scales={"l2_mpki": (0.0, 0.0)})
        for weight in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weight"):
                search_mix(pool, target, 1, {"ipc": weight})
        overfull = replace(pool[2], rates={**pool[2].rates, "loads": 2.0 * pool[2].rates["instructions"]})
        with pytest.raises(ValueError, match="load_pct"):
            search_mix([pool[0], overfull], target, 2, weights)
        # 2 copies x 1e308 cycles overflow; no metric shows it (ipc = instructions / inf = 0)
        overflowing = replace(pool[3], rates={**pool[3].rates, "cycles": 1e308})
        with pytest.raises(ValueError, match="counter value"):
            search_mix([pool[0], overflowing], target, 2, weights)
        # precedence: the first failing mix raises, and a failing blend goes before a bad weight
        no_l2, no_cycles = unsupported(pool[0], "l2_misses"), unsupported(pool[1], "cycles")
        with pytest.raises(NoCommonMetrics):
            search_mix([no_l2, no_cycles], target, 2, {"l2_mpki": 1.0})
        with pytest.raises(MissingDenominator):
            search_mix([no_cycles, pool[2]], target, 2, {"ipc": float("nan")})
        cases = [
            ([no_l2, no_cycles], {"l2_mpki": 1.0}),
            ([no_cycles, pool[2]], {"ipc": float("nan")}),
            ([pool[0], unsupported(pool[1], "instructions")], weights),
            ([overflowing, pool[1]], weights),
            (pool, {"l3_mpki": 0.0}),
            (pool[:2] + [overfull], weights),
            ([pool[0], unsupported(pool[1], "kernel_instructions")], {"kernel_pct": 1.0}),
        ]
        for case_pool, case_weights in cases:
            for k in (1, 2):
                assert_matches_simulation(tmp_path, case_pool, target, k, case_weights)

    def test_errors_in_later_blocks_match_simulation(self, tmp_path):
        # blocks of 3 mixes: each failing mix below sits past the first block, some first in their block
        rng = np.random.default_rng(243)
        pool = [WorkloadProfile.from_store(make_full_record("s", f"w{i}", "m", rng), 0) for i in range(7)]
        target = derive_one(make_full_record("s", "target", "m", rng))
        weights = {"ipc": 1.0, "l2_mpki": 1.0}
        overflowing = replace(pool[6], rates={**pool[6].rates, "cycles": 1e308})  # alone finite, in a pair inf
        cases = [
            (pool[:5] + [unsupported(pool[5], "cycles"), pool[6]], weights, 1, MissingDenominator),  # mix 5
            (pool[:3] + [unsupported(pool[3], "cycles")] + pool[4:], weights, 1, MissingDenominator),  # mix 3
            (pool[:4] + [unsupported(pool[4], "l2_misses")] + pool[5:], {"l2_mpki": 1.0}, 1, NoCommonMetrics),
            (pool[:6] + [overflowing], weights, 2, ValueError),  # mix 7 + 5, the pair w0+w6
            (pool, {"ipc": float("nan")}, 3, ValueError),
        ]
        with mock.patch.object(files, "CHUNK", 3):
            for case_pool, case_weights, k, error in cases:
                with pytest.raises(error):
                    search_mix(case_pool, target, k, case_weights)
                assert assert_matches_simulation(tmp_path, case_pool, target, k, case_weights) is None
            assert_matches_simulation(tmp_path, pool, target, 3, weights)

    def test_a_k3_search_peaks_under_4_5_mib_and_its_export_adds_under_1_5_mib(self, tmp_path):
        # blocks of 2,048 mixes and pool indices as intp peaked at 5.7 MiB searching and at 2.7 MiB more writing;
        # whole-pool temporaries, a joined text or every cell listed at once peaked near 16 MiB for either
        pool, target, weights = generated_case(50)
        tracemalloc.start()
        try:
            ranked = search_mix(pool, target, 3, weights)
            _, search_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            write_file(tmp_path / "mixes.csv", export_mixes_csv, ranked)
            _, export_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranked) == 20_875
        assert len((tmp_path / "mixes.csv").read_text().splitlines()) == 1 + 20_875
        assert search_peak < 4.5 * 2**20
        assert export_peak - held < 1.5 * 2**20

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("size", [128, 129])  # the largest pool of int8 indices, and the smallest of int16
    def test_pools_at_an_index_width_edge_rank_and_export_as_the_oracles(self, tmp_path, size, quoted):
        pool, target, weights = generated_case(size - 1, seed=size)
        # a twin of the first profile ties with it; csv quotes "w,twin", which sorts first, and not "wtwin", last
        pool.append(replace(pool[0], workload="w,twin" if quoted else "wtwin"))
        ranked = search_mix(pool, target, 2, weights)
        assert ranked._mixes.dtype == (np.int8 if size == 128 else np.int16)
        assert ranked._rank.tolist() == lexsort_rank(ranked._mixes, ranked._scored[:, 0]).tolist()
        write_file(tmp_path / "mixes.csv", export_mixes_csv, ranked)
        csv_export_mixes(ranked, tmp_path / "oracle.csv")
        assert (tmp_path / "mixes.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_items_are_simulated_on_access(self):
        cactus, fotonik = icache_stress_pair()
        ranked = search_mix([cactus, fotonik], MetricVector(ipc=BLEND_TARGET_IPC), 2, {"ipc": 1.0})
        order, blend = ranked[-1]
        assert ranked[2] == (order, blend)
        assert ranked[1:] == [ranked[1], ranked[2]]
        assert blend.copies == len(order) and blend.target is None
        with pytest.raises(IndexError):
            ranked[3]

    def test_deterministic_tie_order(self):
        pool = [
            make_profile("a", ipc=1.0, instr_rate=1e9, l1i_mpki=5.0),
            make_profile("b", ipc=1.0, instr_rate=1e9, l1i_mpki=5.0),
        ]
        ranked = search_mix(pool, MetricVector(ipc=1.0, l1i_mpki=5.0), 1, {"ipc": 1.0, "l1i_mpki": 1.0})
        assert [order for order, _ in ranked] == [("a",), ("b",)]


class TestExports:
    def test_mixes_csv_and_markdown(self, tmp_path):
        cactus, fotonik = icache_stress_pair()
        target = MetricVector(ipc=BLEND_TARGET_IPC)
        ranked = search_mix([cactus, fotonik], target, 2, {"ipc": 1.0})
        path = tmp_path / "mixes.csv"
        write_file(path, export_mixes_csv, ranked)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("rank,mix,distance,ipc")
        assert len(lines) == 1 + 3
        text = blend_markdown(ranked[0][1], target, [cactus, fotonik])
        assert text.splitlines()[0].startswith("| Metric | Blend | Target |")
        assert "ipc" in text

    def test_markdown_blends_constituents_like_mixes(self):
        # a count of -0.0 sums to 0.0 from the blend's 0.0 start, in both columns
        cactus, fotonik = icache_stress_pair()
        cactus = replace(cactus, rates={**cactus.rates, "loads": -0.0})
        fotonik = replace(fotonik, rates={**fotonik.rates, "loads": 0.0})
        blend = simulate_rrr([cactus, fotonik], RrrSchedule(order=(cactus.workload, fotonik.workload), copies=2))
        row = next(line for line in blend_markdown(blend, None, [cactus, fotonik]).splitlines() if "load_pct" in line)
        assert row.split(" | ")[2] == "0.0000"

    def test_from_record_rates(self):
        rng = np.random.default_rng(233)
        record = make_full_record("s", "w", "m", rng)
        profile = WorkloadProfile.from_store(record, 0)
        (wallclock,) = record.wallclock.tolist()
        assert profile.duration == wallclock
        assert profile.rates["instructions"] == record.column("instructions")[0] / wallclock


class TestMixSpecFile:
    def test_read_and_apply_with_duration_override(self, tmp_path):
        from benchlens.proxy import apply_mix_spec, read_mix_file

        spec = tmp_path / "mix.txt"
        spec.write_text(
            "# two-constituent mix\n709.cactus_r,2.5\n749.fotonik3d_r\n", encoding="utf-8"
        )
        entries = read_mix_file(spec)
        assert entries == [("709.cactus_r", 2.5), ("749.fotonik3d_r", None)]
        cactus, fotonik = icache_stress_pair()
        chosen, schedule = apply_mix_spec([cactus, fotonik], entries)
        assert schedule.order == ("709.cactus_r", "749.fotonik3d_r")
        assert chosen[0].duration == 2.5
        assert chosen[1].duration == fotonik.duration
        blend = simulate_rrr(chosen, schedule)
        assert FOTONIK_L1I_MPKI < blend.metrics.l1i_mpki < CACTUS_L1I_MPKI

    def test_bad_mix_files_rejected(self, tmp_path):
        from benchlens.proxy import apply_mix_spec, read_mix_file

        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_mix_file(empty)
        bad_duration = tmp_path / "bad.txt"
        bad_duration.write_text("w,-3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_mix_file(bad_duration)
        cactus, _ = icache_stress_pair()
        with pytest.raises(UnknownWorkload):
            apply_mix_spec([cactus], [("ghost", None)])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nan", "duration must be finite, got nan"),
            ("inf", "duration must be finite, got inf"),
            ("-inf", "duration must be finite, got -inf"),
            ("1e400", "duration must be finite, got inf"),
            ("0", "duration must be positive"),
            ("-0.0", "duration must be positive"),
        ],
    )
    def test_a_duration_that_is_not_positive_and_finite_names_its_line(self, tmp_path, text, message):
        from benchlens.proxy import read_mix_file

        spec = tmp_path / "mix.txt"
        spec.write_text(f"749.fotonik3d_r\n709.cactus_r,{text}\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            read_mix_file(spec)
        assert str(raised.value) == f"{spec}:2: {message}"
