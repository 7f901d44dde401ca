"""Search under host capacity: one free slot per host, half the fleet taken."""

from collections import Counter

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.plan import DeploymentPlan


class TestSearchIntegration:
    def test_resource_filter_keeps_plans_within_capacity(self, fattree4, inventory):
        from repro.core.assessment import ReliabilityAssessor
        from repro.core.search import DeploymentSearch, SearchSpec

        # Pre-occupy half of the fleet with foreign load; every other host has
        # one free slot.
        occupied = set(fattree4.hosts[::2])

        def fits(plan):
            used = Counter(plan.hosts())
            return not (set(used) & occupied) and max(used.values()) <= 1

        assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=1_000, rng=5))
        search = DeploymentSearch(assessor, resource_filter=fits, rng=6)
        free_hosts = [h for h in fattree4.hosts if h not in occupied]
        initial = DeploymentPlan.single_component(free_hosts[:3], "app")
        result = search.search(
            SearchSpec(
                ApplicationStructure.k_of_n(2, 3),
                max_seconds=20.0,
                max_iterations=60,
            ),
            initial_plan=initial,
        )
        assert fits(result.best_plan)
        assert not (set(result.best_plan.hosts()) & occupied)
