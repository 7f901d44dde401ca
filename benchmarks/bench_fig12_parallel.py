"""Fig. 12: parallel execution of the deployment assessment.

The paper's Fig. 12 plots assessment time against the number of worker
nodes (1-4) for 10^3 / 10^4 / 10^5 sampling rounds. Expected shape:
with few rounds, serialization/transmission and per-worker context setup
dominate and parallelism does not help (it can even hurt); only at high
round counts (the 10^5 series) does adding workers reduce wall-clock
time — "parallel execution is only beneficial when an extremely high
assessment accuracy is required".
"""

import os
import time

import pytest

from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.runtime.mapreduce import ParallelAssessor

from common import ResultTable, bench_scales, inventory, topology
from repro.core.api import AssessmentConfig

WORKER_COUNTS = (1, 2, 3, 4)
# The paper sweeps 10^3/10^4/10^5. Our vectorised route-and-check is far
# faster per round than the paper's per-round Java loop, which shifts the
# crossover where parallelism starts paying off upward; 10^6 rounds plays
# the role of the paper's "extremely high assessment accuracy" regime.
ROUND_SERIES = (10_000, 100_000, 1_000_000)
STRUCTURE = ApplicationStructure.k_of_n(4, 5)


def _measure(scale, workers, rounds, repetitions=3):
    topo = topology(scale)
    plan = DeploymentPlan.random(topo, STRUCTURE, rng=6)
    with ParallelAssessor(topo, inventory(scale), config=AssessmentConfig(mode="parallel", rounds=rounds, workers=workers, rng=5)) as assessor:
        best = float("inf")
        for _ in range(repetitions):
            start = time.perf_counter()
            assessor.assess(plan, STRUCTURE)
            best = min(best, time.perf_counter() - start)
    return best * 1e3


def _experiment_fig12_table_and_shape():
    scale = bench_scales()[-1]
    table = ResultTable(
        "fig12_parallel",
        f"{'rounds':>8} " + " ".join(f"{f'{w} workers (ms)':>16}" for w in WORKER_COUNTS),
    )
    times = {}
    for rounds in ROUND_SERIES:
        row = []
        for workers in WORKER_COUNTS:
            ms = _measure(scale, workers, rounds)
            times[(rounds, workers)] = ms
            row.append(f"{ms:>16.1f}")
        table.row(f"{rounds:>8} " + " ".join(row))
    table.save()

    low, high = ROUND_SERIES[0], ROUND_SERIES[-1]
    # Both halves of the paper's claim need real cores to show the
    # speedup half; the overhead half is observable even on one core.
    cores = len(os.sched_getaffinity(0))
    if cores >= 4:
        # Shape 1: at the highest round count, 4 workers beat 1 worker.
        assert times[(high, 4)] < times[(high, 1)]
    # Shape 2: the relative cost of fanning out to 4 workers shrinks as
    # the round count grows — at few rounds serialization and context
    # setup dominate, at many rounds they amortise. This is the paper's
    # "parallel execution is only beneficial when an extremely high
    # assessment accuracy is required", viewed from the overhead side,
    # and holds regardless of the core count.
    overhead_small = times[(low, 4)] / times[(low, 1)]
    overhead_large = times[(high, 4)] / times[(high, 1)]
    assert overhead_large < overhead_small


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_assessment_time(benchmark, workers):
    scale = bench_scales()[-1]
    rounds = max(ROUND_SERIES)
    topo = topology(scale)
    plan = DeploymentPlan.random(topo, STRUCTURE, rng=6)
    with ParallelAssessor(topo, inventory(scale), config=AssessmentConfig(mode="parallel", rounds=rounds, workers=workers, rng=5)) as assessor:
        benchmark.pedantic(
            lambda: assessor.assess(plan, STRUCTURE), iterations=1, rounds=2
        )

def test_fig12_table_and_shape(benchmark):
    """One-shot benchmarked run of the experiment above."""
    benchmark.pedantic(_experiment_fig12_table_and_shape, iterations=1, rounds=1)
