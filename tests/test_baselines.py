"""Tests for baseline planners (repro.baselines)."""

import pytest

from repro.baselines.common_practice import (
    common_practice_plan,
    enhanced_common_practice_plan,
    power_diversity,
    top_plans,
)
from repro.baselines.indaas import IndaasComparator
from repro.core.plan import DeploymentPlan
from repro.util.errors import ConfigurationError, UnsatisfiableRequirements
from repro.workload.model import HostWorkloadModel


@pytest.fixture
def workload(fattree4):
    return HostWorkloadModel.paper_default(fattree4, seed=9)


class TestCommonPractice:
    def test_hosts_in_distinct_racks(self, fattree4, workload):
        plan = common_practice_plan(fattree4, workload, 4)
        racks = [fattree4.rack_of(h) for h in plan.hosts()]
        assert len(set(racks)) == 4

    def test_selects_least_loaded(self, fattree4, workload):
        plan = common_practice_plan(fattree4, workload, 3)
        chosen = plan.hosts()
        # Every chosen host is the least-loaded of its rack (among
        # lighter-ranked hosts, the rack constraint is the only filter).
        for host in chosen:
            rack_hosts = fattree4.hosts_in_rack(fattree4.rack_of(host))
            lighter = [
                h
                for h in rack_hosts
                if workload.workload_of(h) < workload.workload_of(host)
            ]
            assert not lighter

    def test_too_many_instances(self, fattree4, workload):
        with pytest.raises(UnsatisfiableRequirements):
            common_practice_plan(fattree4, workload, 7)  # only 6 racks

    def test_exclusion_for_top_plans(self, fattree4, workload):
        plans = top_plans(fattree4, workload, instances=2, count=3)
        assert len(plans) == 3
        used = [h for p in plans for h in p.hosts()]
        assert len(set(used)) == len(used)  # non-repeating hosts


class TestEnhancedCommonPractice:
    def test_maximises_power_diversity(self, fattree4, workload, inventory):
        enhanced = enhanced_common_practice_plan(
            fattree4, workload, inventory, instances=3, candidate_plans=4
        )
        candidates = top_plans(fattree4, workload, instances=3, count=4)
        best_diversity = max(power_diversity(inventory, p) for p in candidates)
        assert power_diversity(inventory, enhanced) == best_diversity

    def test_power_diversity_counts_distinct_supplies(self, fattree4, inventory):
        # Two hosts in the same rack share one supply.
        same_rack = DeploymentPlan.single_component(
            fattree4.hosts_in_rack("edge/0/0")[:2], "app"
        )
        assert power_diversity(inventory, same_rack) == 1


class TestIndaas:
    def test_ranking_orders_by_score(self, fattree4, inventory):
        comparator = IndaasComparator(fattree4, inventory, rounds=2_000, rng=5)
        plans = [
            DeploymentPlan.single_component(fattree4.hosts[i : i + 3], "app")
            for i in (0, 3, 6)
        ]
        ranked = comparator.rank_plans(plans, k=2)
        assert [r.rank for r in ranked] == [1, 2, 3]
        scores = [r.relative_score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_select_most_independent(self, fattree4, inventory):
        comparator = IndaasComparator(fattree4, inventory, rounds=20_000, rng=5)
        # Same rack (correlated: one edge-switch failure kills both) vs
        # spread across pods. With 1-of-2 redundancy the spread plan
        # survives any single rack-level failure and must rank first.
        correlated = DeploymentPlan.single_component(
            ["host/0/0/0", "host/0/0/1"], "app"
        )
        spread = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0"], "app"
        )
        chosen = comparator.select_most_independent([correlated, spread], k=1)
        assert chosen == spread

    def test_rejects_empty_candidates(self, fattree4, inventory):
        comparator = IndaasComparator(fattree4, inventory, rounds=100, rng=1)
        with pytest.raises(ConfigurationError):
            comparator.rank_plans([], k=1)

    def test_rejects_mixed_sizes(self, fattree4, inventory):
        comparator = IndaasComparator(fattree4, inventory, rounds=100, rng=1)
        plans = [
            DeploymentPlan.single_component(fattree4.hosts[:2], "app"),
            DeploymentPlan.single_component(fattree4.hosts[:3], "app"),
        ]
        with pytest.raises(ConfigurationError):
            comparator.rank_plans(plans, k=1)
