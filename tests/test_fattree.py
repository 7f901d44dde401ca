"""Unit + property tests for the fat-tree topology (repro.topology.fattree)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.component import ComponentType, link_id
from repro.topology.fattree import FatTreeTopology
from repro.topology.presets import PAPER_SCALES, paper_topology
from repro.util.errors import ConfigurationError, TopologyError
from tests.graph_oracle import as_networkx


def expected_counts(k: int) -> dict:
    r = k // 2
    return {
        "core": r * r,
        "agg": (k - 1) * r,
        "edge": (k - 1) * r,
        "border": r,
        "hosts": (k - 1) * r * r,
    }


class TestConstruction:
    def test_rejects_odd_k(self):
        with pytest.raises(ConfigurationError):
            FatTreeTopology(5)

    def test_rejects_small_k(self):
        with pytest.raises(ConfigurationError):
            FatTreeTopology(2)

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_component_counts(self, k):
        topo = FatTreeTopology(k, seed=0)
        summary = topo.summarize()
        expected = expected_counts(k)
        assert summary.core_switches == expected["core"]
        assert summary.aggregation_switches == expected["agg"]
        assert summary.edge_switches == expected["edge"]
        assert summary.border_switches == expected["border"]
        assert summary.hosts == expected["hosts"]
        assert summary.ports_per_switch == k

    @pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
    def test_table2_counts(self, scale):
        """Table 2 of the paper, for the scales cheap enough to build here."""
        spec = PAPER_SCALES[scale]
        summary = paper_topology(scale, seed=0).summarize()
        assert summary.core_switches == spec.core_switches
        assert summary.aggregation_switches == spec.aggregation_switches
        assert summary.edge_switches == spec.edge_switches
        assert summary.border_switches == spec.border_switches
        assert summary.hosts == spec.hosts

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_topology("gigantic")


class TestWiring:
    def test_every_host_has_one_edge_switch(self, fattree4):
        for host in fattree4.hosts:
            neighbors = list(fattree4.adjacency[host])
            assert len(neighbors) == 1
            assert (
                fattree4.component(neighbors[0]).component_type
                is ComponentType.EDGE_SWITCH
            )

    def test_edge_switch_degree(self, fattree4):
        # k/2 hosts below + k/2 aggregation switches above.
        for edge in fattree4.edge_pod:
            assert len(fattree4.adjacency[edge]) == fattree4.k

    def test_agg_connects_to_own_core_group(self, fattree4):
        r = fattree4.radix
        for (pod, group), agg in fattree4.agg_ids.items():
            cores = [
                n
                for n in fattree4.adjacency[agg]
                if fattree4.component(n).component_type is ComponentType.CORE_SWITCH
            ]
            assert sorted(cores) == sorted(
                fattree4.core_ids[(group, j)] for j in range(r)
            )

    def test_border_connects_to_own_core_group(self, fattree4):
        r = fattree4.radix
        for group, border in fattree4.border_ids.items():
            cores = list(fattree4.adjacency[border])
            assert sorted(cores) == sorted(
                fattree4.core_ids[(group, j)] for j in range(r)
            )

    def test_graph_connected(self, fattree4):
        assert nx.is_connected(as_networkx(fattree4))

    def test_no_hosts_in_border_pod(self, fattree4):
        for host in fattree4.hosts:
            assert fattree4.pod_of(host) is not None

    def test_link_components_exist_for_every_edge(self, fattree4):
        for a, b, link in fattree4.links():
            component = fattree4.component(link)
            assert component.component_type is ComponentType.LINK
            assert component.component_id == link_id(a, b)

    def test_full_bisection_structure(self, fattree4):
        """Each pod reaches every core group (full external bandwidth)."""
        r = fattree4.radix
        for pod in range(fattree4.num_pods):
            groups = set()
            for g in range(r):
                agg = fattree4.agg_ids[(pod, g)]
                for n in fattree4.adjacency[agg]:
                    attrs = fattree4.component(n).attributes
                    if fattree4.component(n).component_type is ComponentType.CORE_SWITCH:
                        groups.add(attrs["group"])
            assert groups == set(range(r))


class TestQueries:
    def test_pod_of_switches_and_hosts(self, fattree4):
        assert fattree4.pod_of("host/1/0/1") == 1
        assert fattree4.pod_of("edge/2/1") == 2
        assert fattree4.pod_of("agg/0/1") == 0
        assert fattree4.pod_of("core/0/0") is None
        assert fattree4.pod_of("border/0") is None

    def test_edge_switch_of(self, fattree4):
        assert fattree4.edge_switch_of("host/1/0/1") == "edge/1/0"

    def test_rack_is_edge_switch(self, fattree4):
        assert fattree4.rack_of("host/0/1/0") == "edge/0/1"

    def test_hosts_in_rack(self, fattree4):
        hosts = fattree4.hosts_in_rack("edge/0/0")
        assert sorted(hosts) == ["host/0/0/0", "host/0/0/1"]

    def test_racks_cover_all_hosts(self, fattree4):
        racks = fattree4.racks()
        covered = [h for rack in racks for h in fattree4.hosts_in_rack(rack)]
        assert sorted(covered) == sorted(fattree4.hosts)

    def test_unknown_component_raises(self, fattree4):
        with pytest.raises(TopologyError):
            fattree4.component("nope")
        with pytest.raises(TopologyError):
            fattree4.hosts_in_rack("nope")

    def test_symmetry_class_is_tier(self, fattree4):
        assert fattree4.symmetry_class_of("host/0/0/0") == "host"
        assert fattree4.symmetry_class_of("core/0/0") == "core_switch"
        assert fattree4.symmetry_class_of("border/0") == "border_switch"

    def test_contains(self, fattree4):
        assert "host/0/0/0" in fattree4
        assert "nope" not in fattree4

    def test_frozen_after_build(self, fattree4):
        with pytest.raises(TopologyError):
            fattree4._add_host("host/extra")

    def test_override_probabilities(self, fattree4):
        fattree4.override_probabilities({"host/0/0/0": 0.5})
        assert fattree4.component("host/0/0/0").failure_probability == 0.5

    def test_components_of_type(self, fattree4):
        borders = [
            c
            for c in fattree4.components.values()
            if c.component_type is ComponentType.BORDER_SWITCH
        ]
        assert len(borders) == fattree4.radix

    def test_repr(self, fattree4):
        assert "12 hosts" in repr(fattree4)


class TestProbabilityAssignment:
    def test_paper_policy_applied(self, fattree8):
        switch_probs = [
            fattree8.component(s).failure_probability for s in fattree8.switches
        ]
        host_probs = [
            fattree8.component(h).failure_probability for h in fattree8.hosts
        ]
        assert 0.004 < sum(switch_probs) / len(switch_probs) < 0.012
        assert 0.006 < sum(host_probs) / len(host_probs) < 0.014

    def test_links_perfectly_reliable_by_default(self, fattree4):
        for _a, _b, link in fattree4.links():
            assert fattree4.component(link).failure_probability == 0.0

    def test_seeded_topologies_identical(self):
        a = FatTreeTopology(4, seed=42)
        b = FatTreeTopology(4, seed=42)
        assert a.failure_probabilities() == b.failure_probabilities()


class TestScaleProperty:
    @given(k=st.sampled_from([4, 6, 8, 10]))
    @settings(max_examples=4, deadline=None)
    def test_host_and_link_count_formulas(self, k):
        topo = FatTreeTopology(k, seed=0)
        r = k // 2
        assert len(topo.hosts) == (k - 1) * r * r
        # hosts + edge-agg + agg-core + border-core links
        expected_links = (k - 1) * r * r + (k - 1) * r * r + (k - 1) * r * r + r * r
        assert topo.summarize().links == expected_links
