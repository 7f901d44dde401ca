"""Edge-case assessments: link failures, custom topologies, degenerate K-of-N."""

import pytest

from repro.app.structure import ApplicationStructure
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.faults.component import ComponentType
from repro.faults.dependencies import DependencyModel
from repro.faults.probability import DefaultProbabilityPolicy, PaperProbabilityPolicy
from repro.routing.generic import GenericReachabilityEngine
from repro.topology.base import Topology
from repro.topology.fattree import FatTreeTopology
from repro.core.api import AssessmentConfig


class TestLinkFailures:
    def test_link_failures_lower_reliability(self):
        reliable_links = FatTreeTopology(
            4,
            probability_policy=PaperProbabilityPolicy(link_probability=0.0),
            seed=5,
        )
        lossy_links = FatTreeTopology(
            4,
            probability_policy=PaperProbabilityPolicy(link_probability=0.05),
            seed=5,
        )
        hosts = reliable_links.hosts[:3]
        score_reliable = ReliabilityAssessor(reliable_links, config=AssessmentConfig(rounds=20_000, rng=7)).assess_k_of_n(hosts, 3).score
        score_lossy = ReliabilityAssessor(lossy_links, config=AssessmentConfig(rounds=20_000, rng=7)).assess_k_of_n(hosts, 3).score
        assert score_lossy < score_reliable

    def test_host_uplink_failure_isolates_instance(self):
        topo = FatTreeTopology(
            4, probability_policy=DefaultProbabilityPolicy(0.01), seed=5
        )
        host = topo.hosts[0]
        # Make everything perfectly reliable except the host's uplink.
        overrides = {
            cid: 0.0
            for cid, component in topo.components.items()
            if component.failure_probability > 0
        }
        overrides[topo.adjacency[host][topo.edge_switch_of(host)]] = 0.3
        topo.override_probabilities(overrides)
        score = ReliabilityAssessor(topo, config=AssessmentConfig(rounds=30_000, rng=8)).assess_k_of_n(
            [host], 1
        ).score
        assert score == pytest.approx(0.7, abs=0.02)


class _StarTopology(Topology):
    """A toy star: hosts -> one switch -> one border. Generic engine only."""

    def __init__(self, hosts=4, probability=0.1):
        super().__init__(
            "star", probability_policy=DefaultProbabilityPolicy(probability)
        )
        self._add_switch("hub", ComponentType.EDGE_SWITCH)
        self._add_switch("gw", ComponentType.BORDER_SWITCH)
        self._add_link("hub", "gw")
        for i in range(hosts):
            hid = f"h{i}"
            self._add_host(hid)
            self._add_link(hid, "hub")
        self._freeze()


class TestCustomTopologyThroughAssessor:
    def test_generic_engine_selected(self):
        topo = _StarTopology()
        assessor = ReliabilityAssessor(topo, config=AssessmentConfig(rounds=500, rng=1))
        assert isinstance(assessor.engine, GenericReachabilityEngine)

    def test_hub_is_the_dominant_failure(self):
        """1-of-4 on a star: the app dies only when hub/gw (or their link
        path) fails or all hosts fail; p(all 4 hosts) is negligible."""
        topo = _StarTopology(hosts=4, probability=0.1)
        assessor = ReliabilityAssessor(topo, config=AssessmentConfig(rounds=40_000, rng=2))
        score = assessor.assess_k_of_n(topo.hosts, 1).score
        # Survival ~ (1-p)^2 (hub and gw) * (1 - p^4) ~ 0.81.
        assert score == pytest.approx(0.81, abs=0.02)

    def test_k_of_n_on_star(self):
        topo = _StarTopology(hosts=4, probability=0.1)
        assessor = ReliabilityAssessor(topo, config=AssessmentConfig(rounds=40_000, rng=3))
        # 4-of-4 survival ~ (1-p)^2 * (1-p)^4 = 0.9^6 ~ 0.531.
        score = assessor.assess_k_of_n(topo.hosts, 4).score
        assert score == pytest.approx(0.9**6, abs=0.02)


class TestDegenerateSettings:
    def test_one_of_one(self, fattree4, inventory):
        assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=5_000, rng=4))
        result = assessor.assess_k_of_n([fattree4.hosts[0]], 1)
        assert 0.8 < result.score < 1.0

    def test_single_round_assessment(self, fattree4, inventory):
        assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=1, rng=4))
        result = assessor.assess_k_of_n(fattree4.hosts[:2], 1)
        assert result.score in (0.0, 1.0)
        assert result.estimate.rounds == 1

    def test_all_hosts_deployed(self):
        topo = FatTreeTopology(4, seed=6)
        model = DependencyModel.empty(topo)
        assessor = ReliabilityAssessor(topo, model, config=AssessmentConfig(rounds=2_000, rng=5))
        result = assessor.assess_k_of_n(topo.hosts, 1)
        assert result.score > 0.99

    def test_perfectly_reliable_everything(self):
        topo = FatTreeTopology(
            4, probability_policy=DefaultProbabilityPolicy(0.0001), seed=7
        )
        overrides = {cid: 0.0 for cid in topo.components}
        topo.override_probabilities(overrides)
        assessor = ReliabilityAssessor(topo, config=AssessmentConfig(rounds=1_000, rng=6))
        result = assessor.assess_k_of_n(topo.hosts[:3], 3)
        assert result.score == 1.0
        assert result.estimate.confidence_interval_width == 0.0
