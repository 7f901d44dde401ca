"""Tests for the topology base class, leaf-spine, and shared validation."""

import networkx as nx
import pytest

from repro.faults.component import ComponentType
from repro.faults.probability import DefaultProbabilityPolicy
from repro.topology.base import Topology, validate_hosts_exist
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import ConfigurationError, TopologyError
from tests.graph_oracle import as_networkx


class TestLeafSpine:
    def test_counts(self, leafspine):
        summary = leafspine.summarize()
        assert summary.hosts == 18
        assert summary.edge_switches == 6  # leaves
        assert summary.core_switches == 4  # spines
        assert summary.border_switches == 2

    def test_every_leaf_connects_to_every_spine(self, leafspine):
        for leaf in leafspine.leaf_ids:
            neighbors = set(leafspine.adjacency[leaf])
            assert set(leafspine.spine_ids) <= neighbors

    def test_borders_connect_to_all_spines(self, leafspine):
        for border in leafspine.border_switches:
            assert sorted(leafspine.adjacency[border]) == sorted(leafspine.spine_ids)

    def test_connected(self, leafspine):
        assert nx.is_connected(as_networkx(leafspine))

    def test_edge_switch_of(self, leafspine):
        assert leafspine.edge_switch_of("host/2/1") == "leaf/2"

    def test_racks_are_leaves(self, leafspine):
        assert sorted(leafspine.racks()) == sorted(leafspine.leaf_ids)

    def test_racks_walks_the_hosts_once_and_hands_out_copies(self, leafspine, monkeypatch):
        first = leafspine.racks()
        first.clear()
        monkeypatch.setattr(
            leafspine, "rack_of", lambda host: pytest.fail("racks are memoised")
        )
        assert sorted(leafspine.racks()) == sorted(leafspine.leaf_ids)

    def test_rejects_zero_spines(self):
        with pytest.raises(ConfigurationError):
            LeafSpineTopology(spines=0, leaves=2, hosts_per_leaf=2)

    def test_symmetry_class(self, leafspine):
        assert leafspine.symmetry_class_of("spine/0") == "core_switch"
        assert leafspine.symmetry_class_of("leaf/0") == "edge_switch"


class _BareTopology(Topology):
    """Minimal custom topology used to exercise base-class validation."""

    def __init__(self, with_border=True, with_host=True):
        super().__init__("bare", probability_policy=DefaultProbabilityPolicy(0.1))
        if with_host:
            self._add_host("h0")
        self._add_switch("sw0", ComponentType.EDGE_SWITCH)
        if with_border:
            self._add_switch("b0", ComponentType.BORDER_SWITCH)
            self._add_link("sw0", "b0")
        if with_host:
            self._add_link("h0", "sw0")
        self._freeze()


class TestBaseValidation:
    def test_requires_hosts(self):
        with pytest.raises(TopologyError):
            _BareTopology(with_host=False)

    def test_requires_border_switches(self):
        with pytest.raises(TopologyError):
            _BareTopology(with_border=False)

    def test_duplicate_component_rejected(self):
        topo = Topology("x", probability_policy=DefaultProbabilityPolicy(0.1))
        topo._add_host("h0")
        with pytest.raises(TopologyError):
            topo._add_host("h0")

    def test_duplicate_link_rejected(self):
        topo = Topology("x", probability_policy=DefaultProbabilityPolicy(0.1))
        topo._add_host("h0")
        topo._add_switch("s0", ComponentType.EDGE_SWITCH)
        topo._add_link("h0", "s0")
        with pytest.raises(TopologyError):
            topo._add_link("s0", "h0")

    def test_link_from_an_element_to_itself_rejected(self):
        topo = Topology("x", probability_policy=DefaultProbabilityPolicy(0.1))
        topo._add_switch("s", ComponentType.EDGE_SWITCH)
        with pytest.raises(TopologyError, match="itself"):
            topo._add_link("s", "s")
        assert list(topo.adjacency["s"]) == []

    def test_link_to_unknown_endpoint_rejected(self):
        topo = Topology("x", probability_policy=DefaultProbabilityPolicy(0.1))
        topo._add_host("h0")
        with pytest.raises(TopologyError):
            topo._add_link("h0", "ghost")

    def test_non_switch_type_rejected_for_switch(self):
        topo = Topology("x", probability_policy=DefaultProbabilityPolicy(0.1))
        with pytest.raises(TopologyError):
            topo._add_switch("s0", ComponentType.HOST)

    def test_validate_hosts_exist(self, fattree4):
        validate_hosts_exist(fattree4, ["host/0/0/0"])
        with pytest.raises(TopologyError):
            validate_hosts_exist(fattree4, ["edge/0/0"])
        with pytest.raises(TopologyError):
            validate_hosts_exist(fattree4, ["ghost"])

    def test_edge_switch_of_requires_single_attachment(self):
        topo = Topology("x", probability_policy=DefaultProbabilityPolicy(0.1))
        topo._add_host("h0")
        topo._add_switch("s0", ComponentType.EDGE_SWITCH)
        topo._add_switch("s1", ComponentType.BORDER_SWITCH)
        topo._add_link("h0", "s0")
        topo._add_link("h0", "s1")
        topo._freeze()
        with pytest.raises(TopologyError):
            topo.edge_switch_of("h0")


class TestRackQueriesOnTheWrongKindOfId:
    """Rack queries name what an id is when it is not what they take."""

    @pytest.mark.parametrize(
        "build, switch, kind",
        [
            (lambda: FatTreeTopology(4, seed=1), "core/0/0", "core_switch"),
            (lambda: FatTreeTopology(4, seed=1), "edge/0/0", "edge_switch"),
            (
                lambda: LeafSpineTopology(spines=2, leaves=2, hosts_per_leaf=2, seed=1),
                "spine/0",
                "core_switch",
            ),
            (lambda: MultiZoneTopology(zones=2, k=4, seed=1), "zone0/border/0", "border_switch"),
            (lambda: MultiZoneTopology(zones=2, k=4, seed=1), "wan/zone1/0", "wan_router"),
        ],
    )
    def test_edge_switch_of_a_switch_names_its_type(self, build, switch, kind):
        topology = build()
        with pytest.raises(TopologyError, match=f"'{switch}' is a {kind}, not a host"):
            topology.edge_switch_of(switch)
        with pytest.raises(TopologyError, match="not a host"):
            topology.rack_of(switch)

    def test_edge_switch_of_an_unknown_id(self, fattree4):
        with pytest.raises(TopologyError, match="unknown component 'ghost'"):
            fattree4.edge_switch_of("ghost")

    @pytest.mark.parametrize("not_a_rack", ["host/0/0/0", "core/0/0", "agg/0/0", "ghost"])
    def test_hosts_in_rack_takes_only_racks(self, fattree4, not_a_rack):
        with pytest.raises(TopologyError, match="is not a rack"):
            fattree4.hosts_in_rack(not_a_rack)

    def test_hosts_in_rack_of_every_rack(self, fattree4, leafspine):
        for topology in (fattree4, leafspine):
            racks = topology.racks()
            hosts = [h for rack in racks for h in topology.hosts_in_rack(rack)]
            assert sorted(hosts) == sorted(topology.hosts)
            for rack in racks:
                assert all(topology.rack_of(h) == rack for h in topology.hosts_in_rack(rack))
