"""Tests for the single-failure risk analyzer (repro.core.risk)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.generators import microservice_mesh
from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.core.risk import RiskAnalyzer
from repro.faults.inventory import (
    build_paper_inventory,
    build_rich_inventory,
    build_zone_inventory,
)
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import ValidationError
from tests.interpreted_oracle import reference_risk_report, reference_what_if
from tests.structures import two_tier
from tests.test_incremental import _count_calls


@pytest.fixture
def analyzer(fattree4, inventory):
    return RiskAnalyzer(fattree4, inventory)


def _entry(report, component_id):
    matches = [e for e in report if e.component_id == component_id]
    assert matches, f"{component_id} not in report"
    return matches[0]


class TestWhatIf:
    def test_no_failures_everything_active(self, analyzer, fattree4):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        survives, counts = analyzer.what_if(plan, structure, [])
        assert survives
        assert counts == {"app": 3}

    def test_single_host_failure(self, analyzer):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        survives, counts = analyzer.what_if(plan, structure, ["host/0/0/0"])
        assert survives
        assert counts == {"app": 2}

    def test_edge_switch_failure_counts_rack(self, analyzer):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/0/0/1", "host/1/0/0"], "app"
        )
        survives, counts = analyzer.what_if(plan, structure, ["edge/0/0"])
        assert not survives
        assert counts == {"app": 1}

    def test_power_supply_failure_is_correlated(self, analyzer, inventory):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        # The supply feeding host/0/0/0's rack group.
        supply = next(
            iter(inventory.tree_for("host/0/0/0").basic_events() - {"host/0/0/0"})
        )
        _survives, counts = analyzer.what_if(plan, structure, [supply])
        assert counts["app"] < 3  # at least the dependent instance is gone

    def test_unknown_components_are_rejected_by_name(self, analyzer):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        with pytest.raises(ValidationError) as raised:
            analyzer.what_if(
                plan, structure, ["no-such-component", "edge/0/0", "power/99"]
            )
        messages = [message for _field, message in raised.value.errors]
        assert messages == [
            "unknown component 'no-such-component'",
            "unknown component 'power/99'",
        ]

    def test_a_bare_string_is_rejected(self, analyzer):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        with pytest.raises(ValidationError, match="got the string 'power/0'"):
            analyzer.what_if(plan, structure, "power/0")


class TestReport:
    def test_hosts_lose_exactly_one_instance(self, analyzer):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        report = analyzer.report(plan, structure)
        for host in plan.hosts():
            entry = _entry(report, host)
            assert entry.instances_lost == 1
            assert not entry.application_down
            assert entry.components_degraded == ("app",)

    def test_spof_detection_k_equals_n(self, analyzer):
        structure = ApplicationStructure.k_of_n(3, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        spofs = analyzer.single_points_of_failure(plan, structure)
        # With K = N, every host (and its edge switch, etc.) is a SPOF.
        spof_ids = {e.component_id for e in spofs}
        assert set(plan.hosts()) <= spof_ids

    def test_shared_rack_blast_radius(self, analyzer, fattree4):
        structure = ApplicationStructure.k_of_n(1, 3)
        colocated = DeploymentPlan.single_component(
            ["host/0/0/0", "host/0/0/1", "host/1/0/0"], "app"
        )
        spread = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        assert analyzer.max_instances_lost_to_one_failure(colocated, structure) >= 2
        # Spread across pods: single network failure loses at most 1
        # instance... unless a shared power supply covers two racks.
        report = analyzer.report(spread, structure)
        network_entries = [
            e for e in report if not e.component_id.startswith("power/")
        ]
        assert max(e.instances_lost for e in network_entries) == 1

    def test_ranking_spofs_first(self, analyzer):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/0/0/1", "host/1/0/0"], "app"
        )
        report = analyzer.report(plan, structure)
        downs = [e.application_down for e in report]
        # All application-down entries come before all others.
        assert downs == sorted(downs, reverse=True)

    def test_expected_loss(self, analyzer):
        structure = ApplicationStructure.k_of_n(1, 2)
        plan = DeploymentPlan.single_component(["host/0/0/0", "host/1/0/0"], "app")
        entry = _entry(analyzer.report(plan, structure), "host/0/0/0")
        assert entry.expected_loss == pytest.approx(
            entry.failure_probability * entry.instances_lost
        )

    def test_expected_loss_scales_with_the_instances_lost(self, analyzer, fattree4):
        structure = ApplicationStructure.k_of_n(1, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/0/0/1", "host/1/0/0"], "app"
        )
        edge = fattree4.edge_switch_of("host/0/0/0")
        entry = _entry(analyzer.report(plan, structure), edge)
        assert entry.instances_lost == 2
        assert entry.expected_loss == entry.failure_probability * 2

    def test_two_tier_structure_awareness(self, analyzer):
        structure = two_tier()
        plan = DeploymentPlan.from_mapping(
            {
                "frontend": ["host/0/0/0", "host/1/0/0"],
                "database": ["host/0/1/0", "host/2/0/0"],
            }
        )
        report = analyzer.report(plan, structure)
        fe_host = _entry(report, "host/0/0/0")
        assert fe_host.components_degraded == ("frontend",)
        db_host = _entry(report, "host/0/1/0")
        assert db_host.components_degraded == ("database",)


class TestReliablePlansHaveSmallBlastRadius:
    def test_search_reduces_blast_radius(self, fattree8):
        """A searched plan should have no single failure killing 2+
        instances more often than a same-rack plan does."""
        from repro.faults.inventory import build_paper_inventory

        inventory = build_paper_inventory(fattree8, seed=2)
        analyzer = RiskAnalyzer(fattree8, inventory)
        structure = ApplicationStructure.k_of_n(4, 5)
        colocated = DeploymentPlan.single_component(
            fattree8.hosts_in_rack("edge/0/0")[:4] + ["host/1/0/0"], "app"
        )
        spread_hosts = [f"host/{p}/0/0" for p in range(5)]
        spread = DeploymentPlan.single_component(spread_hosts, "app")
        assert analyzer.max_instances_lost_to_one_failure(
            spread, structure
        ) <= analyzer.max_instances_lost_to_one_failure(colocated, structure)


FATTREE = FatTreeTopology(4, seed=5)
LEAFSPINE = LeafSpineTopology(spines=4, leaves=6, hosts_per_leaf=4, seed=2)
ZONES = MultiZoneTopology(zones=2, k=4, seed=7)
SUBSTRATES = [
    (FATTREE, build_paper_inventory(FATTREE, seed=3)),
    (FATTREE, build_rich_inventory(FATTREE, seed=4)),
    (LEAFSPINE, build_paper_inventory(LEAFSPINE, seed=3)),
    (ZONES, build_zone_inventory(ZONES, seed=7)),
]
STRUCTURES = [
    ApplicationStructure.k_of_n(2, 3),
    ApplicationStructure.k_of_n(4, 4),
    two_tier(),
    # Two fully meshed cores: activity is a greatest fixed point.
    microservice_mesh(2, 0, instances_per_component=2, k_per_component=1),
]


class TestOneScenarioBatchEqualsThePerCandidateOracle:
    """The report and the what-if, one packed pass of the compiled
    pipeline, equal a fresh 1-round pipeline per scenario."""

    @given(
        substrate=st.sampled_from(SUBSTRATES),
        structure=st.sampled_from(STRUCTURES),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_report_and_what_if_equal_the_reference(self, substrate, structure, seed):
        topology, model = substrate
        plan = DeploymentPlan.random(topology, structure, rng=seed)
        analyzer = RiskAnalyzer(topology, model)
        assert analyzer.report(plan, structure) == reference_risk_report(
            topology, model, plan, structure
        )
        ids = sorted(topology.components) + sorted(model.dependency_components)
        rng = np.random.default_rng(seed)
        for size in (0, 1, 3, 6):
            failed = [ids[i] for i in rng.choice(len(ids), size, replace=False)]
            assert analyzer.what_if(plan, structure, failed) == reference_what_if(
                topology, model, plan, structure, failed
            ), failed

    @pytest.mark.parametrize(
        "structure, pairwise",
        [(ApplicationStructure.k_of_n(2, 3), 0), (two_tier(), 1)],
        ids=["k-of-n", "two-tier"],
    )
    def test_one_route_and_check_call_whatever_the_candidate_count(
        self, monkeypatch, structure, pairwise
    ):
        topology, model = SUBSTRATES[0]
        analyzer = RiskAnalyzer(topology, model)
        external = _count_calls(monkeypatch, analyzer.engine, "external_reachable")
        pairs = _count_calls(monkeypatch, analyzer.engine, "pairwise_reachable")
        plan = DeploymentPlan.random(topology, structure, rng=1)
        assert analyzer.report(plan, structure)
        assert (external[0], pairs[0]) == (1, pairwise)
