"""Tests for NSDMiner-style dependency discovery (repro.faults.discovery)."""

import pytest

from repro.faults.discovery import (
    DiscoveredDependency,
    Flow,
    NetworkDependencyMiner,
    attach_discovered_dependencies,
    generate_flow_log,
)
from repro.faults.dependencies import DependencyModel
from repro.util.errors import ConfigurationError
from repro.core.api import AssessmentConfig
from tests.interpreted_oracle import evaluate_round

GROUND_TRUTH = {
    "web": ["auth", "db"],
    "auth": ["db"],
    "batch": [],
}


class TestFlow:
    def test_rejects_negative_timestamp(self):
        with pytest.raises(ConfigurationError):
            Flow(-1.0, "a", "b")

    def test_rejects_self_flow(self):
        with pytest.raises(ConfigurationError):
            Flow(0.0, "a", "a")


class TestFlowLogGenerator:
    def test_flows_sorted_by_time(self):
        flows = generate_flow_log(GROUND_TRUTH, activity_windows=50, seed=1)
        times = [f.timestamp for f in flows]
        assert times == sorted(times)

    def test_ground_truth_edges_present(self):
        flows = generate_flow_log(GROUND_TRUTH, activity_windows=50, seed=1)
        observed = {(f.source_service, f.destination_service) for f in flows}
        assert ("web", "auth") in observed
        assert ("web", "db") in observed
        assert ("auth", "db") in observed

    def test_deterministic_given_seed(self):
        a = generate_flow_log(GROUND_TRUTH, activity_windows=20, seed=5)
        b = generate_flow_log(GROUND_TRUTH, activity_windows=20, seed=5)
        assert a == b

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            generate_flow_log(GROUND_TRUTH, activity_windows=0)
        with pytest.raises(ConfigurationError):
            generate_flow_log(GROUND_TRUTH, skip_probability=1.0)
        with pytest.raises(ConfigurationError):
            generate_flow_log({"only": []})


class TestMiner:
    def test_recovers_ground_truth(self):
        flows = generate_flow_log(
            GROUND_TRUTH, activity_windows=300, noise_flows_per_window=1.0, seed=2
        )
        graph = NetworkDependencyMiner().discover_graph(flows)
        assert sorted(graph["web"]) == ["auth", "db"]
        assert graph["auth"] == ["db"]
        assert "batch" not in graph

    def test_no_false_positives_from_noise(self):
        flows = generate_flow_log(
            GROUND_TRUTH, activity_windows=300, noise_flows_per_window=2.0, seed=3
        )
        discovered = NetworkDependencyMiner().discover(flows)
        truth_edges = {
            (s, t) for s, targets in GROUND_TRUTH.items() for t in targets
        }
        assert {(d.source_service, d.target_service) for d in discovered} == truth_edges

    def test_support_close_to_one_minus_skip(self):
        flows = generate_flow_log(
            GROUND_TRUTH,
            activity_windows=400,
            noise_flows_per_window=0.0,
            skip_probability=0.1,
            seed=4,
        )
        discovered = NetworkDependencyMiner().discover(flows)
        web_auth = next(
            d for d in discovered
            if (d.source_service, d.target_service) == ("web", "auth")
        )
        assert web_auth.support == pytest.approx(0.9, abs=0.05)

    def test_short_logs_report_nothing(self):
        flows = generate_flow_log(GROUND_TRUTH, activity_windows=2, seed=5)
        assert NetworkDependencyMiner(min_active_windows=5).discover(flows) == []

    def test_threshold_filters_flaky_pairs(self):
        # web talks to its logger every window (defining its activity)
        # but reaches db in only half of them: db is below a 0.9 support
        # threshold yet above a 0.3 one.
        flows = []
        for window in range(100):
            flows.append(Flow(window + 0.1, "web", "logger"))
            if window % 2 == 0:
                flows.append(Flow(window + 0.2, "web", "db"))
        strict = NetworkDependencyMiner(support_threshold=0.9)
        assert strict.discover_graph(flows) == {"web": ["logger"]}
        lenient = NetworkDependencyMiner(support_threshold=0.3)
        assert sorted(lenient.discover_graph(flows)["web"]) == ["db", "logger"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkDependencyMiner(window_length=0)
        with pytest.raises(ConfigurationError):
            NetworkDependencyMiner(support_threshold=0)
        with pytest.raises(ConfigurationError):
            NetworkDependencyMiner(min_active_windows=0)


class TestBridgeToFaultTrees:
    def test_discovered_edges_become_branches(self, fattree4):
        model = DependencyModel.empty(fattree4)
        discovered = [
            DiscoveredDependency("web", "db", support=0.95),
            DiscoveredDependency("auth", "db", support=0.9),
        ]
        service_hosts = {"web": "host/0/0/0", "auth": "host/1/0/0"}
        created = attach_discovered_dependencies(model, service_hosts, discovered)
        assert created == ["service/db"]
        # Both hosts now fail when the shared db service fails.
        for host in service_hosts.values():
            assert evaluate_round(model.tree_for(host), {"service/db"})
        assert "service/db" in model.shared_dependencies()

    def test_end_to_end_mining_into_assessment(self, fattree4):
        """Mined dependencies lower the assessed reliability."""
        from repro.core.assessment import ReliabilityAssessor

        hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
        flows = generate_flow_log(
            {"svc0": ["shared"], "svc1": ["shared"], "svc2": ["shared"]},
            activity_windows=200,
            seed=7,
        )
        discovered = NetworkDependencyMiner().discover(flows)
        model = DependencyModel.empty(fattree4)
        attach_discovered_dependencies(
            model,
            {"svc0": hosts[0], "svc1": hosts[1], "svc2": hosts[2]},
            discovered,
            service_failure_probability=0.05,
        )
        with_deps = ReliabilityAssessor(fattree4, model, config=AssessmentConfig(rounds=20_000, rng=8))
        bare = ReliabilityAssessor(fattree4, DependencyModel.empty(fattree4), config=AssessmentConfig(rounds=20_000, rng=8))
        assert (
            with_deps.assess_k_of_n(hosts, 3).score
            < bare.assess_k_of_n(hosts, 3).score
        )

    def test_unknown_service_host_rejected(self, fattree4):
        model = DependencyModel.empty(fattree4)
        with pytest.raises(ConfigurationError):
            attach_discovered_dependencies(
                model, {}, [DiscoveredDependency("web", "db", 0.9)]
            )

    def test_bad_probability_rejected(self, fattree4):
        model = DependencyModel.empty(fattree4)
        with pytest.raises(ConfigurationError):
            attach_discovered_dependencies(
                model,
                {"web": "host/0/0/0"},
                [DiscoveredDependency("web", "db", 0.9)],
                service_failure_probability=0.0,
            )
