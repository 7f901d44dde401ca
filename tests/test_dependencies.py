"""Tests for the dependency model and synthetic inventories."""

import pytest

from repro.faults.component import Component, ComponentType
from repro.faults.dependencies import DependencyModel
from repro.faults.faulttree import and_gate, basic
from repro.faults.inventory import (
    attach_host_software,
    attach_power_supplies,
    attach_rack_cooling,
    attach_redundant_power,
    build_paper_inventory,
    build_rich_inventory,
    power_supplies_of_plan,
)
from repro.util.errors import ConfigurationError
from tests.interpreted_oracle import evaluate_round


class TestDependencyModel:
    def test_empty_model_uses_trivial_trees(self, bare_model):
        tree = bare_model.tree_for("host/0/0/0")
        assert tree.basic_events() == {"host/0/0/0"}

    def test_unknown_subject_rejected(self, bare_model):
        with pytest.raises(ConfigurationError):
            bare_model.tree_for("ghost")

    def test_attach_branch_builds_or_tree(self, fattree4):
        model = DependencyModel.empty(fattree4)
        model.add_dependency_component(
            Component("power/0", ComponentType.POWER_SUPPLY, 0.05)
        )
        model.attach_branch("host/0/0/0", basic("power/0"))
        tree = model.tree_for("host/0/0/0")
        assert tree.basic_events() == {"host/0/0/0", "power/0"}
        assert evaluate_round(tree, {"power/0"})
        assert evaluate_round(tree, {"host/0/0/0"})
        assert not evaluate_round(tree, set())

    def test_attach_multiple_branches_flattens_or(self, fattree4):
        model = DependencyModel.empty(fattree4)
        for i in range(3):
            model.add_dependency_component(
                Component(f"dep/{i}", ComponentType.COOLING, 0.05)
            )
            model.attach_branch("host/0/0/0", basic(f"dep/{i}"))
        tree = model.tree_for("host/0/0/0")
        assert len(tree.root.children) == 4  # own event + 3 branches
        assert tree.depth() == 2

    def test_attach_and_branch(self, fattree4):
        model = DependencyModel.empty(fattree4)
        for name in ("a", "b"):
            model.add_dependency_component(
                Component(name, ComponentType.POWER_SUPPLY, 0.1)
            )
        model.attach_branch("host/0/0/0", and_gate(basic("a"), basic("b")))
        tree = model.tree_for("host/0/0/0")
        assert not evaluate_round(tree, {"a"})
        assert evaluate_round(tree, {"a", "b"})

    def test_dependency_id_collision_with_topology(self, fattree4):
        model = DependencyModel.empty(fattree4)
        with pytest.raises(ConfigurationError):
            model.add_dependency_component(
                Component("host/0/0/0", ComponentType.POWER_SUPPLY, 0.1)
            )

    def test_conflicting_dependency_definition(self, fattree4):
        model = DependencyModel.empty(fattree4)
        model.add_dependency_component(Component("p", ComponentType.POWER_SUPPLY, 0.1))
        with pytest.raises(ConfigurationError):
            model.add_dependency_component(
                Component("p", ComponentType.POWER_SUPPLY, 0.2)
            )
        # Re-adding the identical component is fine.
        model.add_dependency_component(Component("p", ComponentType.POWER_SUPPLY, 0.1))

    def test_attach_to_unknown_subject(self, fattree4):
        model = DependencyModel.empty(fattree4)
        with pytest.raises(ConfigurationError):
            model.attach_branch("ghost", basic("x"))

    def test_failure_probabilities_include_dependencies(self, inventory):
        probs = inventory.failure_probabilities()
        assert "power/0" in probs
        assert "host/0/0/0" in probs

    def test_basic_events_for_closure(self, inventory):
        events = inventory.basic_events_for(["host/0/0/0"])
        assert "host/0/0/0" in events
        assert any(e.startswith("power/") for e in events)

    def test_component_lookup_spans_both_namespaces(self, inventory, fattree4):
        assert inventory.component("power/0").component_type is ComponentType.POWER_SUPPLY
        assert inventory.component("host/0/0/0").component_type is ComponentType.HOST

    def test_repr(self, inventory):
        assert "5 dependencies" in repr(inventory)


class TestPowerSupplies:
    def test_count_and_round_robin(self, fattree4):
        model = DependencyModel.empty(fattree4)
        ids = attach_power_supplies(model, count=5, seed=1)
        assert len(ids) == 5
        assert model.dependency_count() == 5

    def test_every_switch_and_host_annotated(self, inventory, fattree4):
        for switch in fattree4.switches:
            events = inventory.tree_for(switch).basic_events()
            assert any(e.startswith("power/") for e in events)
        for host in fattree4.hosts:
            events = inventory.tree_for(host).basic_events()
            assert any(e.startswith("power/") for e in events)

    def test_hosts_under_same_edge_share_supply(self, inventory, fattree4):
        for rack in fattree4.racks():
            supplies = set()
            for host in fattree4.hosts_in_rack(rack):
                events = inventory.tree_for(host).basic_events() - {host}
                supplies.add(frozenset(events))
            assert len(supplies) == 1  # the whole rack group shares one

    def test_power_failure_is_correlated(self, inventory, fattree4):
        """One supply failing brings down every subject depending on it."""
        shared = inventory.shared_dependencies()
        assert shared  # 5 supplies across 20 switches + 12 hosts must share
        supply = next(iter(s for s in shared if s.startswith("power/")))
        dependents = [
            s
            for s in list(fattree4.switches) + list(fattree4.hosts)
            if supply in inventory.tree_for(s).basic_events()
        ]
        assert len(dependents) >= 2
        for subject in dependents:
            assert evaluate_round(inventory.tree_for(subject), {supply})

    def test_rejects_zero_supplies(self, fattree4):
        model = DependencyModel.empty(fattree4)
        with pytest.raises(ConfigurationError):
            attach_power_supplies(model, count=0)

    def test_power_supplies_of_plan(self, inventory, fattree4):
        hosts = fattree4.hosts[:3]
        supplies = power_supplies_of_plan(inventory, hosts)
        assert len(supplies) == 3
        for s in supplies:
            assert len(s) == 1
            assert next(iter(s)).startswith("power/")


class TestRichInventory:
    def test_redundant_power_needs_both(self, fattree4):
        model = DependencyModel.empty(fattree4)
        pairs = attach_redundant_power(model, pairs=2, seed=1)
        assert len(pairs) == 2
        tree = model.tree_for("host/0/0/0")
        pair = next(p for p in pairs if p[0] in tree.basic_events())
        assert not evaluate_round(tree, {pair[0]})
        assert evaluate_round(tree, {pair[0], pair[1]})

    def test_cooling_per_rack(self, fattree4):
        model = DependencyModel.empty(fattree4)
        cooling = attach_rack_cooling(model, redundancy=2, seed=1)
        assert set(cooling) == set(fattree4.racks())
        rack = fattree4.racks()[0]
        units = cooling[rack]
        host = fattree4.hosts_in_rack(rack)[0]
        tree = model.tree_for(host)
        assert not evaluate_round(tree, {units[0]})
        assert evaluate_round(tree, set(units))

    def test_single_cooling_unit_is_single_point_of_failure(self, fattree4):
        model = DependencyModel.empty(fattree4)
        cooling = attach_rack_cooling(model, redundancy=1, seed=1)
        rack = fattree4.racks()[0]
        host = fattree4.hosts_in_rack(rack)[0]
        assert evaluate_round(model.tree_for(host), {cooling[rack][0]})

    def test_software_shared_across_hosts(self, fattree4):
        model = DependencyModel.empty(fattree4)
        software = attach_host_software(model, os_images=2, shared_libraries=2, seed=1)
        assert set(software) == set(fattree4.hosts)
        os_id = software[fattree4.hosts[0]][0]
        sharers = [h for h, deps in software.items() if deps[0] == os_id]
        assert len(sharers) >= 2
        for host in sharers:
            assert evaluate_round(model.tree_for(host), {os_id})

    def test_build_rich_inventory_composes_everything(self, rich_inventory, fattree4):
        host = fattree4.hosts[0]
        events = rich_inventory.tree_for(host).basic_events()
        kinds = {e.split("/")[0] for e in events}
        assert {"power", "cooling", "os", "lib"} <= kinds

    def test_rich_inventory_deterministic(self, fattree4):
        a = build_rich_inventory(fattree4, seed=9)
        b = build_rich_inventory(fattree4, seed=9)
        assert a.failure_probabilities() == b.failure_probabilities()

    def test_paper_inventory_deterministic(self, fattree4):
        a = build_paper_inventory(fattree4, seed=9)
        b = build_paper_inventory(fattree4, seed=9)
        assert a.failure_probabilities() == b.failure_probabilities()
