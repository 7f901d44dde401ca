"""End-to-end integration tests crossing all subsystems.

These mirror the paper's workflows at miniature scale: the provider
receives requirements, searches for a plan, and the found plan beats the
baselines; complex structures assess end to end; the system degrades
gracefully with limited information; and everything composes on a second
architecture (leaf-spine).
"""

from itertools import combinations

import numpy as np
import pytest

from repro.app.generators import microservice_mesh, multilayer
from repro.app.structure import ApplicationStructure
from repro.baselines.common_practice import (
    common_practice_plan,
    enhanced_common_practice_plan,
)
from repro.baselines.indaas import IndaasComparator
from repro.core.assessment import ReliabilityAssessor
from repro.core.objectives import CompositeObjective, WorkloadUtilityObjective
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.inventory import build_paper_inventory, build_rich_inventory
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.workload.model import HostWorkloadModel
from repro.core.api import AssessmentConfig
from tests.structures import two_tier


class FakeClock:
    def __init__(self, step=0.002):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestProviderWorkflow:
    def test_search_beats_common_practice_on_average(self, fattree8):
        """The headline comparison (Fig. 9) at tiny scale.

        The searched plan's failure odds should be meaningfully lower
        than the enhanced common practice's.
        """
        inventory = build_paper_inventory(fattree8, seed=2)
        workload = HostWorkloadModel.paper_default(fattree8, seed=3)
        structure = ApplicationStructure.k_of_n(4, 5)
        reference = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=40_000, rng=99))

        ecp = enhanced_common_practice_plan(fattree8, workload, inventory, 5)
        ecp_score = reference.assess(ecp, structure).score

        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=5_000, rng=5))
        search = DeploymentSearch(assessor, rng=7)
        result = search.search(SearchSpec(structure, max_seconds=8.0))
        found_score = reference.assess(result.best_plan, structure).score

        assert found_score > ecp_score - 0.002  # never meaningfully worse
        assert (1 - ecp_score) / max(1 - found_score, 1e-6) > 1.2

    def test_exhaustive_micro_search_confirms_annealing_target(self):
        """On a micro DC, annealing's best is close to the true optimum."""
        topo = FatTreeTopology(4, seed=21)
        inventory = build_paper_inventory(topo, seed=22)
        structure = ApplicationStructure.k_of_n(1, 2)
        assessor = ReliabilityAssessor(topo, inventory, config=AssessmentConfig(rounds=25_000, rng=23))

        best_exhaustive = max(
            assessor.assess(DeploymentPlan.single_component(pair, "app"), structure).score
            for pair in combinations(topo.hosts, 2)
        )
        search = DeploymentSearch(assessor, rng=24, clock=FakeClock())
        result = search.search(
            SearchSpec(structure, max_seconds=5.0, max_iterations=60)
        )
        assert result.best_score >= best_exhaustive - 0.01

    def test_satisfied_search_reports_plan(self, fattree8):
        inventory = build_paper_inventory(fattree8, seed=2)
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=2_000, rng=5))
        search = DeploymentSearch(assessor, rng=6, clock=FakeClock())
        spec = SearchSpec(
            ApplicationStructure.k_of_n(1, 3),
            desired_reliability=0.95,
            max_seconds=30.0,
        )
        result = search.search(spec)
        assert result.satisfied
        assert result.best_score >= 0.95

    def test_multi_objective_search_balances(self, fattree8):
        """With a workload term, the search avoids hot hosts (§3.3.3)."""
        inventory = build_paper_inventory(fattree8, seed=2)
        loads = {h: 0.9 for h in fattree8.hosts}
        for h in fattree8.hosts[::4]:
            loads[h] = 0.05  # a quarter of the fleet is idle
        workload = HostWorkloadModel(loads)
        structure = ApplicationStructure.k_of_n(2, 3)
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=2_000, rng=5))
        # Weight utility heavily so its pull is unambiguous against the
        # log-odds reliability noise of a 2k-round assessment (Eq. 7's
        # weights are exactly the knob for this trade).
        objective = CompositeObjective.reliability_and_utility(
            WorkloadUtilityObjective(workload),
            reliability_weight=0.2,
            utility_weight=0.8,
        )
        # Iteration-capped with a fake clock so CPU contention from other
        # processes cannot starve the search of candidates.
        search = DeploymentSearch(
            assessor, objective=objective, rng=8, clock=FakeClock(0.002)
        )
        result = search.search(
            SearchSpec(structure, max_seconds=10.0, max_iterations=400)
        )
        assert workload.average(result.best_plan.hosts()) < 0.5


class TestComplexStructures:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_multilayer_assessment(self, fattree8, layers):
        inventory = build_paper_inventory(fattree8, seed=2)
        structure = multilayer(layers)
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=3_000, rng=5))
        plan = DeploymentPlan.random(fattree8, structure, rng=layers)
        result = assessor.assess(plan, structure)
        assert 0.5 < result.score <= 1.0

    def test_more_layers_cannot_increase_reliability(self, fattree8):
        """A longer chain has strictly more failure modes."""
        inventory = build_paper_inventory(fattree8, seed=2)
        rng = np.random.default_rng(17)
        scores = []
        for layers in (1, 3):
            structure = multilayer(layers)
            total = 0.0
            trials = 3
            for t in range(trials):
                plan = DeploymentPlan.random(fattree8, structure, rng=rng)
                assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=4_000, rng=100 + t))
                total += assessor.assess(plan, structure).score
            scores.append(total / trials)
        assert scores[1] <= scores[0] + 0.01

    def test_microservice_mesh_assessment(self, fattree8):
        inventory = build_paper_inventory(fattree8, seed=2)
        structure = microservice_mesh(3, 2, instances_per_component=2, k_per_component=1)
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=1_500, rng=5))
        plan = DeploymentPlan.random(fattree8, structure, rng=9)
        result = assessor.assess(plan, structure)
        assert 0.3 < result.score <= 1.0

    def test_two_tier_search(self, fattree8):
        inventory = build_paper_inventory(fattree8, seed=2)
        structure = two_tier()
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=2_000, rng=5))
        search = DeploymentSearch(assessor, rng=12)
        result = search.search(SearchSpec(structure, max_seconds=3.0))
        assert result.best_score > 0.9


class TestRichDependencies:
    def test_rich_inventory_end_to_end(self, fattree8):
        inventory = build_rich_inventory(fattree8, seed=4)
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=4_000, rng=5))
        result = assessor.assess_k_of_n(fattree8.hosts[:5], 4)
        assert 0.8 < result.score <= 1.0

    def test_redundant_power_beats_single_supplies(self, fattree8):
        """AND-gated power pairs are far more reliable than single PSUs."""
        single = build_paper_inventory(fattree8, seed=4)
        hosts = fattree8.hosts[:5]
        single_score = ReliabilityAssessor(fattree8, single, config=AssessmentConfig(rounds=20_000, rng=6)).assess_k_of_n(hosts, 4).score
        from repro.faults.dependencies import DependencyModel
        from repro.faults.inventory import attach_redundant_power

        redundant = DependencyModel.empty(fattree8)
        attach_redundant_power(redundant, pairs=5, seed=4)
        redundant_score = ReliabilityAssessor(fattree8, redundant, config=AssessmentConfig(rounds=20_000, rng=6)).assess_k_of_n(hosts, 4).score
        assert redundant_score > single_score


class TestSecondArchitecture:
    def test_leafspine_end_to_end(self):
        topo = LeafSpineTopology(spines=4, leaves=10, hosts_per_leaf=4, seed=2)
        inventory = build_paper_inventory(topo, seed=3)
        structure = ApplicationStructure.k_of_n(2, 3)
        assessor = ReliabilityAssessor(topo, inventory, config=AssessmentConfig(rounds=3_000, rng=5))
        search = DeploymentSearch(assessor, rng=6, clock=FakeClock())
        result = search.search(
            SearchSpec(structure, max_seconds=3.0, max_iterations=40)
        )
        assert 0.8 < result.best_score <= 1.0

    def test_indaas_on_leafspine(self):
        topo = LeafSpineTopology(spines=3, leaves=6, hosts_per_leaf=3, seed=2)
        inventory = build_paper_inventory(topo, seed=3)
        comparator = IndaasComparator(topo, inventory, rounds=2_000, rng=4)
        plans = [
            DeploymentPlan.single_component(topo.hosts[i : i + 2], "app")
            for i in (0, 4, 8)
        ]
        ranked = comparator.rank_plans(plans, k=1)
        assert len(ranked) == 3


class TestAdaptiveRedeployment:
    def test_recalculation_after_condition_change(self, fattree8):
        """The conclusion's scenario: periodically recalculate deployment
        as conditions vary; degraded hosts get evacuated."""
        inventory = build_paper_inventory(fattree8, seed=2)
        structure = ApplicationStructure.k_of_n(2, 3)
        assessor = ReliabilityAssessor(fattree8, inventory, config=AssessmentConfig(rounds=2_500, rng=5))
        search = DeploymentSearch(assessor, rng=6)
        first = search.search(SearchSpec(structure, max_seconds=2.0))

        # A rack hosting one instance degrades badly (bathtub wear-out).
        victim = first.best_plan.hosts()[0]
        fattree8.override_probabilities({victim: 0.35})
        assessor.refresh_probabilities()

        degraded_score = assessor.assess(first.best_plan, structure).score
        second = search.search(SearchSpec(structure, max_seconds=2.0))
        assert second.best_score > degraded_score
        assert victim not in second.best_plan.hosts()
