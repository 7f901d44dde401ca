"""Tests for search objectives (repro.core.objectives): Eq. 7."""

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.anneal import paper_delta
from repro.core.objectives import (
    BandwidthUtilityObjective,
    ClassicReliabilityObjective,
    CompositeObjective,
    ReliabilityObjective,
    WeightedObjective,
    WorkloadUtilityObjective,
)
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult
from repro.sampling.statistics import estimate_from_results
from repro.util.errors import ConfigurationError
from repro.workload.model import HostWorkloadModel
from tests.structures import two_tier


def _assessment(plan, score):
    n = 1_000
    reliable = int(round(score * n))
    results = np.array([1] * reliable + [0] * (n - reliable))
    return AssessmentResult(
        plan=plan,
        estimate=estimate_from_results(results),
        per_round=results.astype(bool),
        sampled_components=10,
        elapsed_seconds=0.001,
    )


@pytest.fixture
def plans(fattree4):
    a = DeploymentPlan.single_component(fattree4.hosts[:3], "app")
    b = DeploymentPlan.single_component(fattree4.hosts[3:6], "app")
    return a, b


class TestReliabilityObjective:
    def test_measure_is_score(self, plans):
        a, _ = plans
        objective = ReliabilityObjective()
        assert objective.measure(a, _assessment(a, 0.99)) == pytest.approx(0.99)

    def test_delta_is_log_odds(self, plans):
        a, b = plans
        objective = ReliabilityObjective()
        delta = objective.delta(a, _assessment(a, 0.999), b, _assessment(b, 0.99))
        assert delta == pytest.approx(paper_delta(0.999, 0.99))


class TestClassicReliabilityObjective:
    def test_delta_is_absolute_difference(self, plans):
        a, b = plans
        objective = ClassicReliabilityObjective()
        delta = objective.delta(a, _assessment(a, 0.999), b, _assessment(b, 0.99))
        assert delta == pytest.approx(0.009)


class TestWorkloadUtility:
    def test_prefers_idle_hosts(self, fattree4, plans):
        a, b = plans
        loads = {h: 0.9 for h in fattree4.hosts}
        for h in a.hosts():
            loads[h] = 0.1
        model = HostWorkloadModel(loads)
        objective = WorkloadUtilityObjective(model)
        assert objective.measure(a, None) > objective.measure(b, None)

    def test_measure_value(self, fattree4, plans):
        a, _ = plans
        model = HostWorkloadModel(dict.fromkeys(fattree4.hosts, 0.25))
        assert WorkloadUtilityObjective(model).measure(a, None) == pytest.approx(0.75)

    def test_delta_sign(self, fattree4, plans):
        a, b = plans
        loads = {h: 0.5 for h in fattree4.hosts}
        for h in a.hosts():
            loads[h] = 0.0
        objective = WorkloadUtilityObjective(HostWorkloadModel(loads))
        # b (worse utility) as neighbour of a -> positive delta.
        assert objective.delta(a, None, b, None) > 0


class TestBandwidthUtility:
    def test_colocated_tiers_score_higher(self, fattree4):
        structure = two_tier(frontends=1, databases=1)
        same_rack = DeploymentPlan.from_mapping(
            {"frontend": ["host/0/0/0"], "database": ["host/0/0/1"]}
        )
        cross_pod = DeploymentPlan.from_mapping(
            {"frontend": ["host/0/0/0"], "database": ["host/2/1/1"]}
        )
        objective = BandwidthUtilityObjective(fattree4, structure)
        assert objective.measure(same_rack, None) > objective.measure(cross_pod, None)

    def test_same_pod_between_rack_and_core(self, fattree4):
        structure = two_tier(frontends=1, databases=1)
        objective = BandwidthUtilityObjective(fattree4, structure)
        same_pod = DeploymentPlan.from_mapping(
            {"frontend": ["host/0/0/0"], "database": ["host/0/1/0"]}
        )
        same_rack = DeploymentPlan.from_mapping(
            {"frontend": ["host/0/0/0"], "database": ["host/0/0/1"]}
        )
        cross_pod = DeploymentPlan.from_mapping(
            {"frontend": ["host/0/0/0"], "database": ["host/1/0/0"]}
        )
        m_rack = objective.measure(same_rack, None)
        m_pod = objective.measure(same_pod, None)
        m_cross = objective.measure(cross_pod, None)
        assert m_rack > m_pod > m_cross

    def test_app_without_communication_is_neutral(self, fattree4):
        structure = ApplicationStructure.k_of_n(2, 3)
        objective = BandwidthUtilityObjective(fattree4, structure)
        plan = DeploymentPlan.single_component(fattree4.hosts[:3], "app")
        assert objective.measure(plan, None) == 1.0


class TestCompositeObjective:
    def test_eq7_weighted_sum(self, fattree4, plans):
        a, _ = plans
        workload = HostWorkloadModel(dict.fromkeys(fattree4.hosts, 0.2))
        composite = CompositeObjective.reliability_and_utility(
            WorkloadUtilityObjective(workload)
        )
        measure = composite.measure(a, _assessment(a, 0.99))
        assert measure == pytest.approx(0.5 * 0.99 + 0.5 * 0.8)

    def test_custom_weights(self, fattree4, plans):
        a, _ = plans
        workload = HostWorkloadModel(dict.fromkeys(fattree4.hosts, 0.0))
        composite = CompositeObjective(
            [
                WeightedObjective(ReliabilityObjective(), 0.9),
                WeightedObjective(WorkloadUtilityObjective(workload), 0.1),
            ]
        )
        measure = composite.measure(a, _assessment(a, 1.0))
        assert measure == pytest.approx(0.9 + 0.1)

    def test_delta_combines_members(self, fattree4, plans):
        a, b = plans
        loads = {h: 0.5 for h in fattree4.hosts}
        for h in a.hosts():
            loads[h] = 0.1
        utility = WorkloadUtilityObjective(HostWorkloadModel(loads))
        composite = CompositeObjective.reliability_and_utility(utility)
        delta = composite.delta(a, _assessment(a, 0.999), b, _assessment(b, 0.99))
        expected = 0.5 * paper_delta(0.999, 0.99) + 0.5 * (0.9 - 0.5)
        assert delta == pytest.approx(expected)

    def test_rejects_empty_members(self):
        with pytest.raises(ConfigurationError):
            CompositeObjective([])

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ConfigurationError):
            WeightedObjective(ReliabilityObjective(), 0.0)
