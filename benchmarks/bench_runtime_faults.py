"""Fault-tolerance overhead of the supervised parallel runtime.

The paper's §3.2.1 parallel assessment assumes cooperative workers; the
supervised runtime adds per-portion retry, hang detection and pool
restarts so a worker crash degrades throughput instead of wedging the
assessment. This bench quantifies what that supervision costs:

* **baseline** — healthy pool, no faults injected. The delta against the
  seed's blocking ``pool.map`` is the price of per-portion supervision.
* **fault sweep** — ``ChaosPolicy`` rate-mode injection at increasing
  portion fault rates. Reported recovery latency is the extra wall-clock
  over the healthy baseline, i.e. the cost of detection + retry.

Environment knobs follow ``benchmarks/common.py``; additionally:

``REPRO_BENCH_FAULT_RATES``
    Comma-separated portion fault rates (default ``0.0,0.1,0.25,0.5``).
"""

import os
import time

import pytest

from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.runtime.chaos import ChaosPolicy
from repro.runtime.mapreduce import ParallelAssessor, RetryPolicy

from common import ResultTable, _env_list, bench_scales, inventory, topology
from repro.core.api import AssessmentConfig

WORKERS = 4
ROUNDS = 100_000
STRUCTURE = ApplicationStructure.k_of_n(4, 5)


def fault_rates() -> list[float]:
    return [
        float(r)
        for r in _env_list("REPRO_BENCH_FAULT_RATES", "0.0,0.1,0.25,0.5")
    ]


def _measure(scale, rate, kinds=("crash", "error"), repetitions=3):
    topo = topology(scale)
    plan = DeploymentPlan.random(topo, STRUCTURE, rng=6)
    chaos = (
        ChaosPolicy(rate=rate, kinds=kinds, seed=11) if rate > 0 else None
    )
    with ParallelAssessor(topo, inventory(scale), config=AssessmentConfig(mode="parallel", rounds=ROUNDS, workers=WORKERS, rng=5, retry_policy=RetryPolicy(max_retries=3, backoff_seconds=0.01), chaos=chaos)) as assessor:
        best_ms, result = float("inf"), None
        for _ in range(repetitions):
            start = time.perf_counter()
            result = assessor.assess(plan, STRUCTURE)
            best_ms = min(best_ms, (time.perf_counter() - start) * 1e3)
    return best_ms, result


def _experiment_fault_overhead():
    scale = bench_scales()[0]
    table = ResultTable(
        "runtime_faults",
        f"{'fault rate':>10} {'time (ms)':>10} {'recovery (ms)':>14} "
        f"{'retries':>8} {'restarts':>9} {'inline':>7} {'R':>9}",
    )
    baseline_ms = None
    for rate in fault_rates():
        ms, result = _measure(scale, rate)
        if baseline_ms is None:
            baseline_ms = ms
        recovery = ms - baseline_ms
        runtime = result.runtime
        table.row(
            f"{rate:>10.2f} {ms:>10.1f} {recovery:>14.1f} "
            f"{runtime.retries:>8} {runtime.pool_restarts:>9} "
            f"{runtime.recovered_inline:>7} {result.score:>9.5f}"
        )
        # Supervision must deliver the full round count even under
        # faults — recovery, not silent loss, is the whole point.
        assert result.per_round.size == ROUNDS
        assert not result.degraded
    table.save()


def test_fault_overhead_table(benchmark):
    """One-shot benchmarked run of the fault-rate sweep above."""
    benchmark.pedantic(_experiment_fault_overhead, iterations=1, rounds=1)


@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_assessment_under_faults(benchmark, rate):
    scale = bench_scales()[0]
    benchmark.pedantic(
        lambda: _measure(scale, rate, repetitions=1), iterations=1, rounds=2
    )
