"""Ablation A2: network-transformations symmetry pruning on vs off.

§3.3.1 Step 3 discards neighbour plans that are symmetric to the current
plan before paying for an assessment. This bench runs the same search
budget with pruning enabled and disabled and reports how many *distinct*
plans each mode managed to consider, and — whether Step 3 pays at this
scale — the milliseconds a move spends being screened beside the
milliseconds of assessment the skips save it (skip rate x the mean cost of
an assessed plan in the same run). The per-check cost of the reference
checker is benchmarked separately.

Expected shape: with pruning on, a meaningful fraction of generated
neighbours is discarded for free (the paper's 438-plans-in-30 s figure
"includes the ones quickly discarded ... due to network symmetry"), so
more of the budget goes into genuinely new plans.
"""

import time

from repro.app.structure import ApplicationStructure
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec

from common import ResultTable, bench_scales, inventory, topology
from repro.core.api import AssessmentConfig
from tests.graph_oracle import SurgeryGraphChecker

BUDGET_SECONDS = 6.0


def _time_screen(search: DeploymentSearch) -> list[float]:
    """Accumulate, in the returned one-element list, the seconds ``search``
    spends inside its symmetry screen."""
    screen = search._symmetry_filter
    decide = screen.equivalent
    spent = [0.0]

    def timed(plan_a, plan_b):
        start = time.perf_counter()
        try:
            return decide(plan_a, plan_b)
        finally:
            spent[0] += time.perf_counter() - start

    screen.equivalent = timed
    return spent


def _experiment_symmetry_pruning_effect():
    scale = bench_scales()[0]
    structure = ApplicationStructure.k_of_n(4, 5)
    table = ResultTable(
        "ablation_symmetry",
        f"{'pruning':<9} {'iterations':>11} {'assessed':>9} {'skipped':>8} "
        f"{'skip_rate':>10} {'screen_ms/move':>15} {'saved_ms/move':>14}",
    )
    outcomes = {}
    for use_symmetry in (True, False):
        assessor = ReliabilityAssessor(topology(scale), inventory(scale), config=AssessmentConfig(rounds=8_000, rng=3))
        search = DeploymentSearch(assessor, use_symmetry=use_symmetry, rng=7)
        screening = _time_screen(search) if use_symmetry else [0.0]
        result = search.search(SearchSpec(structure, max_seconds=BUDGET_SECONDS))
        skip_rate = result.plans_skipped_symmetric / max(result.plans_considered, 1)
        moves = max(result.candidates_proposed, 1)
        # Everything the loop does outside the screen is charged to the
        # plans it assessed: what a skipped neighbour would have cost.
        assessment_ms = (
            1e3 * (result.elapsed_seconds - screening[0]) / max(result.plans_assessed, 1)
        )
        outcomes[use_symmetry] = result
        table.row(
            f"{str(use_symmetry):<9} {result.iterations:>11} "
            f"{result.plans_assessed:>9} {result.plans_skipped_symmetric:>8} "
            f"{skip_rate:>9.1%} {1e3 * screening[0] / moves:>15.3f} "
            f"{assessment_ms * result.plans_skipped_symmetric / moves:>14.3f}"
        )
    table.save()
    # Shape: pruning actually fires, and never fires when disabled.
    assert outcomes[True].plans_skipped_symmetric > 0
    assert outcomes[False].plans_skipped_symmetric == 0


def test_signature_cost(benchmark):
    """A symmetry check must be much cheaper than an assessment."""
    scale = bench_scales()[0]
    topo = topology(scale)
    structure = ApplicationStructure.k_of_n(4, 5)
    checker = SurgeryGraphChecker(topo, inventory(scale))
    plan = DeploymentPlan.random(topo, structure, rng=5)
    neighbor = plan.random_neighbor(topo, rng=6)
    benchmark(lambda: checker.equivalent(plan, neighbor))

    assessor = ReliabilityAssessor(topo, inventory(scale), config=AssessmentConfig(rounds=10_000, rng=3))
    start = time.perf_counter()
    assessor.assess(plan, structure)
    assess_time = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(10):
        checker.equivalent(plan, neighbor)
    check_time = (time.perf_counter() - start) / 10
    assert check_time < assess_time

def test_symmetry_pruning_effect(benchmark):
    """One-shot benchmarked run of the experiment above."""
    benchmark.pedantic(_experiment_symmetry_pruning_effect, iterations=1, rounds=1)
