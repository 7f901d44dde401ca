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
from repro.util.cancel import CancellationToken
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


def _spy_outer(assessor, clock):
    """Record ``(plan, kwargs, result, clock readings)`` of every call of
    ``assessor.assess``."""
    calls = []
    assess = assessor.assess

    def spy(plan, structure, **kwargs):
        result = assess(plan, structure, **kwargs)
        calls.append((plan, kwargs, result, round(clock.now / clock.step)))
        return result

    assessor.assess = spy
    return calls


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
    def test_unsatisfied_search_assesses_the_best_plan_once_after_the_loop(
        self, quick_assessor
    ):
        """The walk ranks plans by their CRN scores; the outer assessor is
        called once, after the loop's last clock reading, on the plan
        reported, and its result is what the search returns."""
        clock = FakeClock()
        calls = _spy_outer(quick_assessor, clock)
        search = _search(quick_assessor, clock=clock)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=30
        )
        result = search.search(spec)
        assert not result.satisfied
        [(plan, kwargs, returned, reads)] = calls
        # Readings: the deadline, one per loop top (the last one breaks).
        assert reads == 1 + result.iterations + 1
        assert plan == result.best_plan and "cancel" not in kwargs
        assert result.best_assessment is returned

    def test_satisfied_search_calls_the_outer_assessor_only_to_verify(
        self, quick_assessor
    ):
        search = _search(quick_assessor)
        calls = _spy_outer(quick_assessor, search._clock)
        verified = []
        verify = search._verify_satisfaction

        def spy(spec, plan):
            verified.append(verify(spec, plan))
            return verified[-1]

        search._verify_satisfaction = spy
        spec = SearchSpec(
            ApplicationStructure.k_of_n(1, 3), desired_reliability=0.5, max_seconds=100.0
        )
        result = search.search(spec)
        assert result.satisfied
        assert [id(returned) for _, _, returned, _ in calls] == list(map(id, verified))
        assert result.best_assessment is verified[-1]

    def test_cancelled_search_still_reports_an_outer_assessment(self, quick_assessor):
        """A fired token stops the walk, not the one final assessment:
        it runs without the token and reports every round."""
        token = CancellationToken()
        clock = FakeClock()

        def cancelling_clock():
            if clock.now >= 0.1:
                token.cancel("deadline")
            return clock()

        calls = _spy_outer(quick_assessor, clock)
        search = _search(quick_assessor, clock=cancelling_clock, cancel=token)
        result = search.search(
            SearchSpec(ApplicationStructure.k_of_n(2, 3), max_seconds=50.0)
        )
        assert token.cancelled and 0 < result.iterations < 20
        [(plan, kwargs, returned, _)] = calls
        assert plan == result.best_plan and "cancel" not in kwargs
        assert result.best_assessment is returned
        assert returned.estimate.rounds == quick_assessor.rounds
        assert returned.runtime is None

    def test_trace_best_score_never_decreases(self, quick_assessor):
        search = _search(quick_assessor, keep_trace=True, batch_size=3)
        result = search.search(
            SearchSpec(
                ApplicationStructure.k_of_n(2, 3), max_seconds=50.0, max_iterations=40
            )
        )
        best = [record.best_score for record in result.trace]
        assert len(best) > 40
        assert all(a <= b for a, b in zip(best, best[1:]))
        scores = [record.candidate_score for record in result.trace]
        assert best[-1] == max(result.trace[0].current_score, *scores)

    def test_crn_assessor_shares_the_outer_kernel(self, fattree4, inventory):
        """One arena and one compiled forest per substrate, not one per
        assessor; a second search's assessor on the unchanged substrate
        gets it too, and the same bits."""
        outer = ReliabilityAssessor(
            fattree4, inventory, config=AssessmentConfig(rounds=300, rng=5)
        )
        crn = _search(outer)._search_assessor(master_seed=7)
        assert crn.kernel is outer.kernel
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=3)
        before = crn.assess(plan, structure)
        outer.assess(plan, structure)  # compiles into the same forest
        again = _search(outer)._search_assessor(master_seed=7)
        assert again.kernel is outer.kernel
        assert np.array_equal(before.per_round, again.assess(plan, structure).per_round)
