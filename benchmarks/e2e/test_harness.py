"""Self-tests of the harness arithmetic and input generation.

    python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths`` is ``tests``): these check the benchmark,
not the program.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanRecorder, self_times  # noqa: E402

HOSTS = [f"host/{pod}/{edge}/{port}" for pod in range(4) for edge in range(4) for port in range(4)]


# -- order statistics ---------------------------------------------------


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, expected",
    [(9, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (108, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_block_median_ignores_one_slow_block():
    fast = [10.0, 11.0, 12.0]
    slow = [30.0, 31.0, 32.0]
    assert stats.block_median([fast, fast, slow]) == 11.0
    # A pooled median would not: the slow block drags it.
    assert statistics.median(fast + slow + slow) > 11.0
    with pytest.raises(ValueError):
        stats.block_median([fast, []])


def test_spread_matches_the_contract_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert stats.range_share(values) == pytest.approx(0.7 / statistics.median(values))


def estimate(score, width, rounds):
    return {"score": score, "confidence_interval_width": width, "rounds": rounds}


def test_estimates_agree_uses_combined_half_widths_with_a_floor():
    assert stats.half_width(estimate(1.0, 0.0, 1000)) == pytest.approx(0.003)
    assert stats.half_width(estimate(0.9, 0.02, 1000)) == pytest.approx(0.01)
    a, b = estimate(0.95, 0.006, 10_000), estimate(0.96, 0.008, 10_000)
    assert stats.estimates_agree(a, b, tolerance=3.0)  # 0.010 <= 3 * 0.005
    assert not stats.estimates_agree(a, estimate(0.97, 0.008, 10_000), tolerance=3.0)


# -- seeded inputs ------------------------------------------------------


def payloads(ops):
    return [(op.index, op.cls, op.payload) for op in ops]


def test_same_seed_same_ops_and_different_seed_different_ops():
    def plans(seed):
        return payloads(workloads.plan_ops(workloads.op_rng("w", seed, 0), HOSTS, 5, 50))

    def seeds(seed):
        return payloads(workloads.seed_ops(workloads.op_rng("w", seed, 0), 50))

    def mixed(seed, round_index=0):
        rng = workloads.op_rng("w", seed, round_index)
        phases = workloads.mixed_ops(rng, HOSTS, 5, [20, 40, 40], "p")
        return [payloads(phase) for phase in phases]

    for generate in (plans, seeds, mixed):
        assert generate(7) == generate(7)
        assert generate(7) != generate(8)
    assert mixed(7, 0) != mixed(7, 1)


def test_plans_are_distinct_and_have_distinct_hosts():
    ops = workloads.plan_ops(workloads.op_rng("w", 1, 0), HOSTS, 5, 200)
    assert len({op.payload for op in ops}) == 200
    assert all(len(set(op.payload)) == 5 for op in ops)


def test_mixed_ops_hold_the_exact_mix_and_replay_only_earlier_phases():
    phases = workloads.mixed_ops(workloads.op_rng("w", 3, 0), HOSTS, 5, [40, 100, 100], "p")
    warmup, *blocks = phases
    assert not any(op.cls == "replay" for op in warmup)
    completed: set = {op.payload for op in warmup if op.cls == "fresh"}
    for block in blocks:
        classes = [op.cls for op in block]
        assert (classes.count("fresh"), classes.count("replay"), classes.count("unkeyed")) == (60, 25, 15)
        for op in block:
            if op.cls == "replay":
                assert op.payload in completed
            elif op.cls == "unkeyed":
                assert op.payload[1] is None
        completed |= {op.payload for op in block if op.cls == "fresh"}
    keys = [op.payload[1] for phase in phases for op in phase if op.cls == "fresh"]
    assert len(keys) == len(set(keys))


def test_block_ops_scale_with_seconds_and_nothing_else():
    assert run.block_ops("search_fattree", 15) == 6
    assert run.block_ops("search_fattree", 30) == 12
    assert run.block_ops("assess_fattree", 15) == run.block_ops("assess_fattree", 15.0) == 60
    assert run.block_ops("search_zones", 0.1) == 2


def test_contract_run_length_puts_a_hundred_ops_behind_every_percentile():
    import json

    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    for workload in run.OPS_PER_SECOND:
        ops = run.block_ops(workload, seconds) * run.BLOCKS * run.ROUNDS
        assert ops >= 100
        assert stats.highest_supported_percentile(ops) >= 90.0


# -- failed-op accounting ----------------------------------------------


class Flaky(workloads.Workload):
    name = "flaky"

    def run_op(self, op, traced):
        if op.index % 4 == 0:
            raise workloads.ReproError(f"op {op.index} refused")
        return {"index": op.index}


def test_failed_ops_are_counted_against_attempts_not_dropped():
    workload = Flaky(seed=1, round_index=0)
    ops = [workloads.Op(index, "x", ()) for index in range(12)]
    block = workload.run_block(ops, traced=False)
    assert len(block.records) == 12
    failed = [r for r in block.records if r.error is not None]
    assert [r.op.index for r in failed] == [0, 4, 8]
    assert all(r.seconds >= 0.0 for r in block.records)
    # A check that fails later fails the op once, for its first reason.
    workload.fail(block.records[1], "op 1: wrong answer")
    workload.fail(block.records[0], "op 0: also wrong")
    assert block.records[1].error == "op 1: wrong answer"
    assert block.records[0].error.endswith("refused")
    assert sum(r.error is not None for r in block.records) == 4


def block(latencies, wall, cpu, kernel_ms):
    return {"traced": False, "wall_s": wall, "cpu_s": cpu, "latencies_ms": latencies,
            "failed": 0, "kernel_ms": kernel_ms}  # fmt: skip


def setup(seconds, kernel_ms):
    return {"seconds": seconds, "kernel_ms": kernel_ms}


def test_speed_factor_is_the_median_kernel_time_over_nominal():
    assert calibration.speed_factor([10.0, 10.0, 40.0]) == 1.0  # one stall is ignored
    assert calibration.speed_factor([12.0, 13.0, 11.0, 12.0]) == pytest.approx(1.2)


def test_burst_times_every_cpu_and_restores_the_affinity():
    import os

    allowed = os.sched_getaffinity(0)
    samples = calibration.burst(sorted(allowed))
    assert len(samples) == calibration.BURST * len(allowed) and all(ms > 0.0 for ms in samples)
    assert os.sched_getaffinity(0) == allowed


def test_end_to_end_divides_every_time_by_its_own_host_speed():
    nominal, slow = [10.0] * 6, [20.0] * 6  # speed factors 1 and 2
    rounds = [
        {"peak_rss_mb": 90.0, "setup_sample": setup(0.5, nominal),
         "blocks": [block([10.0, 12.0], 0.022, 0.020, nominal), block([11.0, 13.0], 0.024, 0.022, nominal)]},
        {"peak_rss_mb": 91.0, "setup_sample": setup(1.4, slow), "blocks": []},
        # The same work on a host twice as slow: twice the time everywhere.
        {"peak_rss_mb": 95.0, "setup_sample": setup(1.2, slow),
         "blocks": [block([20.0, 24.0], 0.044, 0.040, slow)]},
    ]  # fmt: skip
    metrics, counts = run.end_to_end(rounds)
    assert metrics["latency_p50_ms"] == 11.0  # block medians 11, 12, 11
    assert metrics["latency_p90_ms"] == pytest.approx(stats.percentile([10, 12, 11, 13, 10, 12], 90))
    assert metrics["throughput_ops_s"] == pytest.approx(6 / (0.022 + 0.024 + 0.022))
    assert metrics["cpu_ms_per_op"] == pytest.approx(1e3 * (0.020 + 0.022 + 0.020) / 6)
    assert metrics["peak_rss_mb"] == 95.0  # memory is not a time
    assert metrics["setup_s"] == 0.6  # 0.5, 0.7, 0.6
    assert counts == {"ops": 6, "blocks": 3, "setups": 3}
    raw, _ = run.end_to_end(rounds, speed=lambda _: 1.0)
    assert raw["latency_p50_ms"] == 12.0  # block medians 11, 12, 22
    assert raw["throughput_ops_s"] == pytest.approx(6 / (0.022 + 0.024 + 0.044))
    assert raw["setup_s"] == 1.2


def test_per_layer_scales_times_and_rates_and_leaves_counts():
    nominal, slow = [10.0] * 6, [20.0] * 6
    result = {
        "setup_sample": setup(1.0, slow),
        "setup_layers": {"setup.import_ms": 800.0},
        "layers": {"core.closure_ms": 4.0, "search.moves_per_s": 50.0, "sampling.components_per_op": 7.0},
        "layer_kernel_ms": slow,
        "blocks": [block([10.0, 12.0], 0.022, 0.020, nominal) | {"traced": True},
                   block([20.0, 20.0], 0.040, 0.040, slow)],
    }  # fmt: skip
    units = {"setup.import_ms": "ms", "core.closure_ms": "ms", "search.moves_per_s": "1/s",
             "sampling.components_per_op": "count", "store.put_ms": "ms", "trace.overhead_share": "ratio"}  # fmt: skip
    assert run.per_layer(result, units) == {
        "setup.import_ms": 400.0,
        "core.closure_ms": 2.0,
        "search.moves_per_s": 100.0,
        "sampling.components_per_op": 7.0,
        "store.put_ms": 0.0,  # a layer this workload never enters
        "trace.overhead_share": pytest.approx(11.0 / 10.0),
    }


# -- spans --------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 0),
        Span(2, "queue", 0.0, 2.0, 1, 0),
        Span(3, "run", 2.0, 7.0, 1, 0),
        Span(4, "sample", 3.0, 4.0, 3, 0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    assert sum(selfs.values()) == pytest.approx(10.0)  # self times tile the root


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 0),
        Span(2, "a", 1.0, 6.0, 1, 0),
        Span(3, "b", 4.0, 8.0, 1, 0),  # overlaps a by 2
        Span(4, "c", 9.0, 12.0, 1, 0),  # overhangs the parent by 2
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_nests_spans_and_accepts_known_intervals():
    recorder = SpanRecorder()
    for op in range(2):
        with recorder.span("op", op) as parent:
            with recorder.span("inner", op):
                pass
            recorder.add("synthetic", 0.0, 0.0, parent, op)
    by_id = {span.id: span for span in recorder.spans}
    for span in recorder.spans:
        if span.name == "op":
            assert span.parent is None
        else:
            assert by_id[span.parent].name == "op" and by_id[span.parent].op == span.op
    assert sorted(span.name for span in recorder.spans) == ["inner", "inner", "op", "op", "synthetic", "synthetic"]
    assert all(value >= 0.0 for value in self_times(recorder.spans).values())
