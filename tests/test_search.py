"""Tests for the reliable-deployment search (repro.core.search).

Time-dependent behaviour is made deterministic with a fake clock that
advances a fixed amount per call.
"""

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.util.errors import ConfigurationError
from repro.core.api import AssessmentConfig


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per reading."""

    def __init__(self, step=0.01):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


@pytest.fixture
def quick_assessor(fattree4, inventory):
    return ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=1_500, rng=5))


def _search(quick_assessor, **kwargs):
    kwargs.setdefault("rng", 11)
    kwargs.setdefault("clock", FakeClock())
    return DeploymentSearch(quick_assessor, **kwargs)


class TestSpecValidation:
    def test_rejects_bad_reliability(self):
        with pytest.raises(ConfigurationError):
            SearchSpec(ApplicationStructure.k_of_n(1, 2), desired_reliability=1.5)

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            SearchSpec(ApplicationStructure.k_of_n(1, 2), max_seconds=0)


class TestSearchLoop:
    def test_runs_until_budget(self, quick_assessor):
        search = _search(quick_assessor)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3),
            desired_reliability=1.0,  # unattainable: runs the full budget
            max_seconds=2.0,
        )
        result = search.search(spec)
        assert not result.satisfied
        assert result.iterations > 0
        assert result.plans_assessed >= 1
        assert result.elapsed_seconds >= 2.0

    def test_satisfied_stops_early(self, quick_assessor):
        search = _search(quick_assessor)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(1, 3),
            desired_reliability=0.5,  # trivially satisfied
            max_seconds=100.0,
        )
        result = search.search(spec)
        assert result.satisfied
        assert result.best_score >= 0.5
        assert result.elapsed_seconds < 100.0

    def test_max_iterations_cap(self, quick_assessor):
        search = _search(quick_assessor)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3),
            max_seconds=1_000.0,
            max_iterations=5,
        )
        result = search.search(spec)
        assert result.iterations == 5

    def test_initial_plan_respected(self, quick_assessor, fattree4):
        initial = DeploymentPlan.single_component(fattree4.hosts[:3], "app")
        search = _search(quick_assessor)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(1, 3),
            desired_reliability=0.5,
            max_seconds=10.0,
        )
        result = search.search(spec, initial_plan=initial)
        assert result.satisfied
        assert result.best_plan == initial

    def test_deterministic_given_seed(self, fattree4, inventory):
        def run():
            assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=800, rng=5))
            search = DeploymentSearch(assessor, rng=42, clock=FakeClock())
            spec = SearchSpec(
                ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=30
            )
            return search.search(spec)

        a, b = run(), run()
        assert a.best_plan == b.best_plan
        assert a.best_score == b.best_score
        assert a.plans_skipped_symmetric == b.plans_skipped_symmetric

    def test_trace_recorded(self, quick_assessor):
        search = _search(quick_assessor, keep_trace=True)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=20
        )
        result = search.search(spec)
        assert result.trace
        for record in result.trace:
            assert 0.0 <= record.temperature <= 1.0
            assert record.best_score >= 0.0

    def test_plans_considered_counts_symmetric_skips(self, quick_assessor):
        search = _search(quick_assessor)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=60
        )
        result = search.search(spec)
        assert (
            result.plans_considered
            == result.plans_assessed + result.plans_skipped_symmetric
        )

    def test_symmetry_can_be_disabled(self, quick_assessor):
        search = _search(quick_assessor, use_symmetry=False)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=30
        )
        result = search.search(spec)
        assert result.plans_skipped_symmetric == 0

    def test_resource_filter_drops_candidates(self, quick_assessor, fattree4):
        forbidden = set(fattree4.hosts[6:])

        def only_first_pods(plan):
            return not (set(plan.hosts()) & forbidden)

        search = _search(quick_assessor, resource_filter=only_first_pods)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=100
        )
        initial = DeploymentPlan.single_component(fattree4.hosts[:3], "app")
        result = search.search(spec, initial_plan=initial)
        assert not (set(result.best_plan.hosts()) & forbidden)

    def test_search_improves_over_random_start(self, fattree4, inventory):
        """On average the searched plan beats its random starting point."""
        assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=3_000, rng=5))
        reference = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=30_000, rng=99))
        structure = ApplicationStructure.k_of_n(4, 5)

        wins = ties_or_better = 0
        trials = 3
        for seed in range(trials):
            initial = DeploymentPlan.random(fattree4, structure, rng=seed)
            initial_score = reference.assess(initial, structure).score
            search = DeploymentSearch(assessor, rng=seed, clock=FakeClock(0.005))
            result = search.search(
                SearchSpec(structure, max_seconds=3.0), initial_plan=initial
            )
            final_score = reference.assess(result.best_plan, structure).score
            if final_score > initial_score:
                wins += 1
            if final_score >= initial_score - 0.003:
                ties_or_better += 1
        assert ties_or_better == trials
        assert wins >= 2


class TestCrnBehaviour:
    def test_crn_uses_independent_final_assessment(self, quick_assessor):
        search = _search(quick_assessor)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=10
        )
        result = search.search(spec)
        # The reported assessment was produced by the base assessor and
        # therefore carries a real closure size (CRN path also does, but
        # determinism across runs is the cheap observable here).
        assert result.best_assessment.estimate.rounds == quick_assessor.rounds

    def test_crn_assessor_shares_the_outer_kernel(self, fattree4, inventory):
        """One arena and one compiled forest per substrate, not one per
        assessor; a ``clear_caches()`` on an unchanged substrate keeps it."""
        outer = ReliabilityAssessor(
            fattree4, inventory, config=AssessmentConfig(rounds=300, rng=5)
        )
        crn = _search(outer)._search_assessor(master_seed=7)
        assert crn.kernel is outer.kernel
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=3)
        before = crn.assess(plan, structure)
        outer.assess(plan, structure)  # compiles into the same forest
        crn.clear_caches()
        assert crn.kernel is outer.kernel
        assert np.array_equal(before.per_round, crn.assess(plan, structure).per_round)
